"""Record the reference values that the benchmark's checks compare against.

Run once, from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It runs one pass of every workload at workload seed 0 and writes
perfbench/reference.json with the exact revenue of every tree returned by
the two sweeps and by the brute-force searches.  The tau-ladder values are
cross-checked against REGRESSION_TAU_VALUES in tests/test_acceptance.py.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

PINNED_TOL = 1e-7


def pinned_tau_values() -> dict[int, float]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "REGRESSION_TAU_VALUES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("REGRESSION_TAU_VALUES not found")


def main() -> int:
    out = {}
    for name in ("sweep-t2", "tau-ladder"):
        workload = wl.WORKLOADS[name]
        recorder = wl.Recorder()
        code, _ = workload.run(workload.inputs(0), recorder)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        out[name] = [wl.exact_revenue(op.result.tree, *op.args[:3]) for op in recorder.ops]
    pinned = pinned_tau_values()
    for tau, value in zip(sorted(pinned), out["tau-ladder"]):
        if abs(value - pinned[tau]) > PINNED_TOL:
            raise SystemExit(f"tau={tau}: {value!r} differs from the pinned {pinned[tau]!r}")
    audit = wl.WORKLOADS["oracle-audit"]
    _, searches = audit.inputs(0)
    out["oracle-audit"] = {
        dist.spec_string(): wl.exact_revenue(wl._search(dist, buyer, seller)[0],
                                             dist, buyer, seller)
        for dist, buyer, seller in searches}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            capture_output=True).stdout.strip()
    out["recorded_at"] = {"commit": commit or None, "seed": 0}
    path = wl.REFERENCE_PATH
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
