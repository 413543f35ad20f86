"""The benchmark traces layers by name; every name it expects must exist.

perfbench wraps the public functions of each package module (its `__all__`)
and the distributions' `cdf`/`pdf` methods, and counts calls per
`module.function`.  A layer renamed or dropped from `__all__` would fail
the benchmark's trace self-checks, so the contract is checked here.  The
perfbench files are imported read-only from their paths.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import postedprice
import postedprice.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


def _is_traced_layer(name: str) -> bool:
    short, _, attr = name.partition(".")
    if short not in tracing.MODULES:
        return False
    module = getattr(postedprice, short)
    if short == "distributions" and attr in tracing.DIST_METHODS:
        return all(attr in vars(getattr(module, cls)) for cls in tracing.DIST_CLASSES)
    fn = getattr(module, attr, None)
    return (attr in module.__all__ and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_traced_layer_is_a_public_function(name):
    workload = workloads.WORKLOADS[name]
    expected = workload.expected_calls(workload.inputs(0))
    layers = set(expected) | set(workload.per_iteration) | set(workload.reached)
    assert layers
    assert sorted(n for n in layers if not _is_traced_layer(n)) == []


def test_sweeps_intercept_the_cli_solver():
    assert inspect.isfunction(postedprice.cli.maximize_L)


def test_each_audit_search_reaches_the_density_once(monkeypatch):
    # oracle-audit's trace must reach distributions.pdf, and only the
    # searches' quadrature weights call it
    workload = workloads.WORKLOADS["oracle-audit"]
    assert workload.reached == ("distributions.pdf",)
    calls = []
    for cls in tracing.DIST_CLASSES:
        pdf = getattr(postedprice.distributions, cls).pdf

        def counted(self, v, pdf=pdf):
            calls.append(type(self).__name__)
            return pdf(self, v)

        monkeypatch.setattr(getattr(postedprice.distributions, cls), "pdf", counted)
    _, searches = workload.inputs(0)
    for dist, buyer, seller in searches:
        postedprice.brute_force_optimal_tree(dist, buyer, seller)
    assert calls == [type(dist).__name__ for dist, _, _ in searches]
