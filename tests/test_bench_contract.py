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


TAU4 = postedprice.truncate(0.2, 0.8, 4)


@pytest.mark.parametrize("buyer, seller", [
    (postedprice.make_geometric_discount(0.3, 2), postedprice.make_geometric_discount(0.8, 2)),
    (TAU4.buyer, TAU4.seller),
], ids=["T2", "tau4"])
def test_every_ascent_iteration_reaches_the_traced_layers(monkeypatch, buyer, seller):
    # the sweeps' trace requires at least one call of each `per_iteration`
    # layer per ascent iteration, so an ascent may share work between
    # iterations but must not drop a layer from any of them
    calls = dict.fromkeys(["optimizer.project_to_delta", "distributions.cdf",
                           "distributions.pdf"], 0)
    assert set(workloads.WORKLOADS["sweep-t2"].per_iteration) <= set(calls)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for cls in tracing.DIST_CLASSES:
        cls = getattr(postedprice.distributions, cls)
        for method in tracing.DIST_METHODS:
            monkeypatch.setattr(cls, method, counted(f"distributions.{method}", vars(cls)[method]))
    monkeypatch.setattr(postedprice.optimizer, "project_to_delta",
                        counted("optimizer.project_to_delta",
                                postedprice.optimizer.project_to_delta))
    result = postedprice.maximize_L(postedprice.Uniform(0, 1), buyer, seller)
    assert result.iterations > 0
    assert min(calls.values()) >= result.iterations, (calls, result.iterations)
