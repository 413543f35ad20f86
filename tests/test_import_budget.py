"""What the package loads, checked in a fresh interpreter.

Every CLI call starts a new interpreter, so each module the package imports
is paid on every call.  `scipy.optimize` (which loads `scipy.linalg`,
`linprog` and `shgo`) is never imported, and `scipy.special` only by the
first `Beta`.  A solve imports nothing more, so no import lands inside a
timed pass forked after set-up.  This test process has imported
`scipy.optimize` itself, for reference solutions, so every check runs in a
child interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _child(code: str) -> dict:
    """The JSON on the last stdout line of `python -c code`, run on this checkout."""
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_the_package_loads_neither_scipy_optimize_nor_special_until_a_beta():
    got = _child(
        "import json, sys\n"
        "import postedprice, postedprice.cli\n"
        "heavy = lambda: sorted(m for m in sys.modules\n"
        "                       if m.startswith(('scipy.optimize', 'scipy.special')))\n"
        "on_import = heavy()\n"
        "postedprice.Beta(4, 2)\n"
        "print(json.dumps({'on_import': on_import, 'after_beta': heavy()}))\n")
    assert got["on_import"] == []
    assert "scipy.special" in got["after_beta"]
    assert not [m for m in got["after_beta"] if m.startswith("scipy.optimize")]


@pytest.mark.parametrize("mode", [["--horizon", "2"],
                                  ["--tau-list", "2,3", "--grid-start", "0.2",
                                   "--grid-count", "1"]])
def test_a_sweep_imports_no_module(mode):
    argv = ["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8", *mode]
    got = _child(
        "import contextlib, io, json, sys\n"
        "from postedprice.cli import main\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'added': sorted(set(sys.modules) - before)}))\n")
    assert got == {"code": 0, "added": []}
