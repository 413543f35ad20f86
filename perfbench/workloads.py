"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload reaches the package only through its public API: the two
sweeps call `cli.main` in-process, the audit calls `oracle` and `core`
functions.  Every operation (one `maximize_L` solve, one tree audit, one
brute-force search) goes through `Recorder.timed`, which times it and keeps
its arguments and result for the checks that run after the timed region.

Checks use the benchmark's own exact oracle: between consecutive envelope
breakpoints the buyer's best response is constant, so the expected revenue
of a tree is sum_j R_j (F(b_j) - F(a_j)) over those pieces.  A check that
compares with a value recorded from the seed commit (reference.json) marks
the run incorrect when it fails; every failed check counts its operation as
failed.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import postedprice as pp
import postedprice.cli  # noqa: F401  (binds pp.cli)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

REGRET_TOL = 1e-9        # exact revenue may fall this far below the reference
VALUE_GAP_TOL = 1e-6     # |reported value - exact revenue of the tree|
ORACLE_ERR_TOL = 1e-6    # |expected_strategic_revenue - exact|
EVALUATE_TOL = 1e-12     # core.evaluate revenue vs the strategy_tables row
CSV_RTOL = 1e-11         # the CLI prints 12 significant digits


@dataclass
class Op:
    kind: str
    start: float
    seconds: float
    args: tuple
    result: object


class Recorder:
    """Times operations; when tracing, each operation is a `bench.<kind>` span."""

    def __init__(self, tracer=None):
        self.ops: list[Op] = []
        self.tracer = tracer
        self._spans = {}

    def timed(self, kind, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
            if kind not in self._spans:
                self._spans[kind] = self.tracer.wrap(f"bench.{kind}",
                                                     lambda f, *a, **k: f(*a, **k))
            call = self._spans[kind]
            t0 = perf_counter()
            result = call(fn, *args, **kwargs)
            self.tracer.op = -1
        else:
            t0 = perf_counter()
            result = fn(*args, **kwargs)
        self.ops.append(Op(kind, t0, perf_counter() - t0, args, result))
        return result


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    reference_failures: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, *, reference: bool) -> None:
        self.failed += 1
        if reference:
            self.reference_failures.append(message)


def exact_revenue(tree, dist, buyer, seller) -> float:
    """Expected strategic revenue, exact: constant best response per envelope piece."""
    tables = pp.oracle.strategy_tables(tree, buyer, seller)
    lo, hi = dist.support
    edges = np.concatenate(([lo], pp.oracle.envelope_breakpoints(tables, lo, hi), [hi]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    surplus = np.outer(tables.quantities, mid) - tables.buyer_payments[:, None]
    best = surplus.max(axis=0)
    tied = surplus >= best - 1e-12 * np.maximum(1.0, np.abs(best))
    revenue = np.where(tied, tables.seller_payments[:, None], -np.inf).max(axis=0)
    mass = np.diff(np.asarray(dist.cdf(edges), dtype=float))
    return float(revenue @ mass)


def load_reference(name: str):
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)[name]


class Sweep:
    """A `postedprice sweep` run in-process; one operation per `maximize_L` solve."""

    # traced layers that every ascent iteration calls at least once
    per_iteration = ("optimizer.project_to_delta", "distributions.cdf",
                     "distributions.pdf")
    reached = per_iteration

    def __init__(self, name: str, argv: list[str], value_columns):
        self.name, self.argv = name, argv
        self.value_columns = value_columns  # CSV value column of each solve in a row

    def inputs(self, seed: int) -> list[str]:
        return self.argv + ["--seed", str(seed)]

    def expected_solves(self) -> int:
        return len(load_reference(self.name))

    def ops_per_pass(self, inputs) -> int:
        return self.expected_solves()

    def op_seconds(self, call_seconds: list[float]) -> list[float]:
        """Time per CSV row: one solve on sweep-t2, a ladder of solves on tau-ladder."""
        per_row = len(self.value_columns)
        return [sum(call_seconds[i:i + per_row])
                for i in range(0, len(call_seconds), per_row)]

    def run(self, argv, recorder: Recorder):
        cli = pp.cli
        solve = cli.maximize_L
        cli.maximize_L = lambda *args, **kwargs: recorder.timed("solve", solve, *args,
                                                                **kwargs)
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = cli.main(argv)
        finally:
            cli.maximize_L = solve
        return code, out.getvalue()

    def check(self, outcome, ops: list[Op], report: CheckReport) -> None:
        code, text = outcome
        reference = load_reference(self.name)
        report.attempted += len(reference)
        if code != 0 or len(ops) != len(reference):
            for _ in range(len(reference)):
                report.fail(f"{self.name}: exit code {code}, {len(ops)} solves",
                            reference=True)
            return
        rows = list(csv.DictReader(io.StringIO(text)))
        per_row = len(self.value_columns)
        stats = report.stats
        for i, (op, ref) in enumerate(zip(ops, reference)):
            dist, buyer, seller = op.args[:3]
            res = op.result
            exact = exact_revenue(res.tree, dist, buyer, seller)
            regret = ref - exact
            gap = abs(res.value - exact)
            printed = float(rows[i // per_row][self.value_columns[i % per_row]]) \
                if len(rows) * per_row == len(ops) else np.nan
            stats["value_regret_max"] = max(stats.get("value_regret_max", -np.inf), regret)
            stats["l_oracle_gap_max"] = max(stats.get("l_oracle_gap_max", 0.0), gap)
            stats["iterations"] = stats.get("iterations", 0) + res.iterations
            stats["starts"] = stats.get("starts", 0) + res.starts
            stats["solves"] = stats.get("solves", 0) + 1
            stats["uncertified"] = stats.get("uncertified", 0) + (not res.converged)
            stats["kkt_max"] = max(stats.get("kkt_max", 0.0), res.kkt_residual)
            if regret > REGRET_TOL:
                report.fail(f"solve {i}: exact revenue {exact!r} below reference "
                            f"{ref!r}", reference=True)
            elif not abs(printed - res.value) <= CSV_RTOL * max(1.0, abs(res.value)):
                report.fail(f"solve {i}: CSV value {printed!r} is not the solve's "
                            f"{res.value!r}", reference=True)
            elif gap > VALUE_GAP_TOL:
                report.fail(f"solve {i}: reported value off the exact revenue by "
                            f"{gap:.3g}", reference=False)

    def expected_calls(self, inputs) -> dict[str, int]:
        n = self.expected_solves()
        taus = n if "--tau-list" in self.argv else 0
        return {"cli.main": 1, "optimizer.maximize_L": n,
                "optimizer.maximize_bilinear": n, "reduction.build_system": n,
                "reduction.v_to_tree": n, "distributions.myerson_price": n + 1,
                "schemes.truncate": taus, "oracle.strategy_tables": 0,
                "core.evaluate": 0}


AUDIT_DISTS = ("uniform:0,1", "beta:0.5,0.5", "beta:4,2", "texp:50,1")
AUDIT_HORIZONS = (2, 3, 4, 5, 6)
AUDIT_TREES = 20          # random trees per (distribution, horizon)
AUDIT_GB, AUDIT_GS = 0.3, 0.8
CURVE_POINTS = 201


@dataclass(frozen=True)
class AuditCase:
    tree: object
    dist: object
    buyer: object
    seller: object
    strategies: tuple[str, ...]
    grid: np.ndarray


def _audit(case: AuditCase):
    tables = pp.oracle.strategy_tables(case.tree, case.buyer, case.seller)
    valuation = float(case.grid[len(case.grid) // 2])
    outcomes = [pp.core.evaluate(case.tree, s, valuation, case.buyer, case.seller)
                for s in case.strategies]
    expected = pp.oracle.expected_strategic_revenue(case.tree, case.dist,
                                                    case.buyer, case.seller)
    curve = pp.oracle.strategic_revenue_curve(case.tree, case.buyer, case.seller,
                                              case.grid)
    return tables, outcomes, expected, curve


def _search(dist, buyer, seller):
    return pp.oracle.brute_force_optimal_tree(dist, buyer, seller)


class OracleAudit:
    """Random trees audited by the enumeration oracle; no optimizer work."""

    name = "oracle-audit"
    per_iteration = ()
    reached = ("distributions.pdf",)  # the quadrature in expected_strategic_revenue

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        cases, searches = [], []
        for spec in AUDIT_DISTS:
            dist = pp.parse_distribution(spec)
            lo, hi = dist.support
            grid = np.linspace(lo, hi, CURVE_POINTS)
            for T in AUDIT_HORIZONS:
                buyer = pp.make_geometric_discount(AUDIT_GB, T)
                seller = pp.make_geometric_discount(AUDIT_GS, T)
                strategies = tuple(format(i, f"0{T}b") for i in range(2 ** T))
                nodes = pp.canonical_nodes(T)
                for _ in range(AUDIT_TREES):
                    prices = rng.uniform(lo, hi, len(nodes))
                    tree = pp.PricingTree(T, dict(zip(nodes, prices)))
                    cases.append(AuditCase(tree, dist, buyer, seller, strategies, grid))
            searches.append((dist, pp.make_geometric_discount(AUDIT_GB, 2),
                             pp.make_geometric_discount(AUDIT_GS, 2)))
        return cases, searches

    def ops_per_pass(self, inputs) -> int:
        cases, searches = inputs
        return len(cases) + len(searches)

    def op_seconds(self, call_seconds: list[float]) -> list[float]:
        return call_seconds

    def run(self, inputs, recorder: Recorder):
        cases, searches = inputs
        per_dist = len(cases) // len(searches)
        for d, search in enumerate(searches):
            for case in cases[d * per_dist:(d + 1) * per_dist]:
                recorder.timed("audit", _audit, case)
            recorder.timed("search", _search, *search)
        return None

    def check(self, outcome, ops: list[Op], report: CheckReport) -> None:
        reference = load_reference(self.name)
        stats = report.stats
        stats.setdefault("err_max", 0.0)
        stats.setdefault("err_fails", 0)
        for i, op in enumerate(ops):
            report.attempted += 1
            if op.kind == "search":
                dist, buyer, seller = op.args
                tree, _ = op.result
                exact = exact_revenue(tree, dist, buyer, seller)
                regret = reference[dist.spec_string()] - exact
                stats["value_regret_max"] = max(stats.get("value_regret_max", -np.inf),
                                                regret)
                if regret > REGRET_TOL:
                    report.fail(f"search {dist.spec_string()}: exact revenue {exact!r} "
                                "below reference", reference=True)
                continue
            (case,) = op.args
            tables, outcomes, expected, curve = op.result
            exact = exact_revenue(case.tree, case.dist, case.buyer, case.seller)
            err = abs(expected - exact)
            stats["err_max"] = max(stats["err_max"], err)
            mismatch = max(abs(o.revenue - r)
                           for o, r in zip(outcomes, tables.seller_payments))
            if mismatch > EVALUATE_TOL or len(curve.valuations) != CURVE_POINTS:
                report.fail(f"audit {i}: evaluate and strategy_tables differ by "
                            f"{mismatch:.3g}; curve has {len(curve.valuations)} points",
                            reference=True)
            elif err > ORACLE_ERR_TOL:
                stats["err_fails"] += 1
                report.fail(f"audit {i} ({case.dist.spec_string()}, T={case.tree.horizon}): "
                            f"expected_strategic_revenue off by {err:.3g}",
                            reference=False)

    def expected_calls(self, inputs) -> dict[str, int]:
        cases, searches = inputs
        trees, n = len(cases), len(searches)
        return {"oracle.strategy_tables": 3 * trees + n,
                "oracle.expected_strategic_revenue": trees + n,
                "oracle.strategic_revenue_curve": trees,
                "oracle.envelope_breakpoints": trees + n,
                "oracle.brute_force_optimal_tree": n,
                "core.evaluate": sum(2 ** c.tree.horizon for c in cases),
                "optimizer.maximize_bilinear": 0, "cli.main": 0}


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Sweep("sweep-t2",
          ["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8",
           "--horizon", "2"],
          ["value"]),
    Sweep("tau-ladder",
          ["sweep", "--dist", "uniform:0,1", "--fix", "gs", "--fixed-value", "0.8",
           "--tau-list", "2,3,4,5,6", "--grid-start", "0.2", "--grid-count", "1"],
          [f"value_tau{t}" for t in (2, 3, 4, 5, 6)]),
    OracleAudit(),
)}
