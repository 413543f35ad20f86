"""Benchmark of the postedprice solve -> verify pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-t2 --seed 0 --seconds 30 --trace 0

Workloads are sweep-t2, tau-ladder and oracle-audit (see README.md).  This
process imports the package and generates the inputs once; every pass is
then forked from it, so each pass starts from that state and no state
carries from one timed pass to the next.  With `--trace 0` passes run one
after another while they fit in `--seconds` (at least one), each timed under
the speed sampler of speed.py, and the end-to-end metrics are reported.
With `--trace 1` one untraced pass runs in a forked process and one traced
pass in this one, and the per-layer metrics are reported.  Each pass checks
its outputs after its timed region.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a readable report.
"""

import os

# One thread per BLAS/OpenMP pool, set before numpy is first imported, so the
# process has no threads when it forks; the set-up probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import SpeedSampler  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 4
CHILD_CPU_LIMIT_S = 170
MIN_LAYER_COVERAGE = 0.98
STRUCTURAL_SPANS = ("cli.main", "bench.")


def load_workloads():
    """Import the package from this checkout's src/, then the workload module."""
    if not (SRC / "postedprice" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'postedprice'} not found; "
                         "run from the root of a postedprice checkout")
    sys.path.insert(0, str(SRC))
    import postedprice
    import workloads
    if Path(postedprice.__file__).resolve().parent != (SRC / "postedprice").resolve():
        raise SystemExit(f"perfbench: imported postedprice from {postedprice.__file__}, "
                         f"not from {SRC}")
    return workloads


def spawn_setup(workload: str, seed: int) -> float:
    """Set-up time (import + input generation) of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def setup(workload_name: str, seed: int):
    """Import the package and generate the inputs; returns them and the time taken."""
    t0 = perf_counter()
    wl = load_workloads()
    if workload_name not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload_name!r}; "
                         f"one of {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[workload_name]
    inputs = workload.inputs(seed)
    return wl, workload, inputs, perf_counter() - t0


def forked(fn) -> dict:
    """Run `fn` in a child forked from this process and return its JSON result.

    The child starts from this process's state and its own changes die with
    it, so passes forked one after another cannot see each other's caches.
    This process runs no threads (the BLAS pools have one), so forking is safe.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:  # the child must never return into the parent's code
            os.close(read_fd)
            # ends a runaway pass; the pass is CPU-bound, so CPU time tracks wall time
            resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))
            try:
                payload = {"ok": fn()}
            except Exception as exc:  # reported by the parent
                payload = {"error": repr(exc)}
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status or not text:
        raise SystemExit(f"perfbench: pass process ended with status {status}")
    payload = json.loads(text)
    if "error" in payload:
        raise SystemExit(f"perfbench: pass process failed: {payload['error']}")
    return payload["ok"]


def measured_pass(wl, workload, inputs) -> dict:
    """One timed pass under the speed sampler and its checks, as a JSON-able
    record.  Times are in reference seconds (see speed.py)."""
    with SpeedSampler() as speed:
        start = perf_counter()
        _, ops, outcome = run_pass(wl, workload, inputs)
        end = perf_counter()
    report = check_pass(wl, workload, inputs, ops, outcome)
    call_s = [speed.scaled(op.start, op.start + op.seconds) for op in ops]
    wall_s = speed.scaled(start, end)
    probe_s = sum(took for at, took in zip(speed.at, speed.took) if start <= at < end)
    return {"wall_s": wall_s, "measured_s": end - start, "probe_s": probe_s,
            "probe_median_s": statistics.median(speed.took),
            "op_s": workload.op_seconds(call_s), "call_s": call_s,
            "report": asdict(report),
            "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_pass(wl, workload, inputs, tracer=None):
    """One timed pass; returns its wall time, operations and outcome."""
    recorder = wl.Recorder(tracer)
    t0 = perf_counter()
    try:
        outcome = workload.run(inputs, recorder)
    except Exception as exc:  # an operation raised: counted as failed by check_pass
        outcome = exc
    return perf_counter() - t0, recorder.ops, outcome


def check_pass(wl, workload, inputs, ops, outcome):
    report = wl.CheckReport()
    if isinstance(outcome, Exception):
        report.attempted = workload.ops_per_pass(inputs)
        for _ in range(report.attempted):
            report.fail(f"raised {outcome!r}", reference=True)
    else:
        workload.check(outcome, ops, report)
    return report


def quantile(values, q: int) -> float:
    """The q-th percentile (linear interpolation, as numpy's default)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trace_problems(summary, workload, inputs, untraced, traced, wall_s):
    """Self-checks of the trace accounting; an empty list means it is sound.

    A bypassed wrapper moves its time into the self time of its caller.  If
    the caller is a layer, the call counts catch it; if it is the workload's
    own `bench.*` span or `cli.main`, the layer coverage does.
    """
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    problems = []
    for name, n in workload.expected_calls(inputs).items():
        if calls(name) != n:
            problems.append(f"{name}: {calls(name)} calls traced, {n} expected")
    iters = traced.stats.get("iterations", 0)
    if iters != untraced.stats.get("iterations", 0):
        problems.append(f"optimizer.iterations: {iters} traced, "
                        f"{untraced.stats.get('iterations', 0)} untraced")
    for name in workload.per_iteration:
        if calls(name) < iters:
            problems.append(f"{name}: fewer calls than the {iters} iterations")
    for name in workload.reached:
        if not calls(name):
            problems.append(f"{name}: never called")
    structural = sum(s["self_s"] for name, s in summary.items()
                     if name.startswith(STRUCTURAL_SPANS))
    layers = sum(s["self_s"] for s in summary.values()) - structural
    if layers < MIN_LAYER_COVERAGE * wall_s:
        problems.append(f"layer self times cover {layers:.3f} s of the {wall_s:.3f} s "
                        f"traced pass; cli.main and bench.* keep {structural:.3f} s")
    return problems


def per_layer_metrics(summary, stats, untraced_calls, traced_wall, untraced_wall,
                      reports):
    def span(name, key):
        return summary.get(name, {}).get(key, 0)

    iters = stats.get("iterations", 0)
    solves = stats.get("solves", 0)
    m = {}
    for name in ("distributions.myerson_price", "reduction.build_system",
                 "optimizer.maximize_bilinear", "optimizer.project_to_delta",
                 "schemes.truncate", "oracle.strategy_tables",
                 "oracle.expected_strategic_revenue", "core.evaluate",
                 "distributions.cdf", "distributions.pdf"):
        m[f"{name}.calls"] = (span(name, "calls"), "count")
    for name in ("distributions.myerson_price", "reduction.build_system",
                 "reduction.v_to_tree", "optimizer.project_to_delta", "schemes.truncate",
                 "oracle.strategy_tables", "oracle.expected_strategic_revenue",
                 "oracle.strategic_revenue_curve", "oracle.envelope_breakpoints",
                 "oracle.brute_force_optimal_tree", "core.evaluate"):
        m[f"{name}.time_s"] = (span(name, "time_s"), "s")
    m["distributions.cdf_pdf.time_s"] = (
        span("distributions.cdf", "time_s") + span("distributions.pdf", "time_s"), "s")
    m["optimizer.maximize_bilinear.self_s"] = (span("optimizer.maximize_bilinear", "self_s"), "s")
    m["cli.main.self_s"] = (span("cli.main", "self_s"), "s")
    m["optimizer.iterations"] = (iters, "count")
    m["optimizer.starts"] = (stats.get("starts", 0), "count")
    m["optimizer.iters_per_solve"] = (iters / solves if solves else 0.0, "count")
    m["optimizer.us_per_iter"] = (
        span("optimizer.maximize_bilinear", "time_s") / iters * 1e6 if iters else 0.0, "us")
    m["optimizer.uncertified"] = (stats.get("uncertified", 0), "count")
    m["optimizer.kkt_max"] = (stats.get("kkt_max", 0.0), "1")
    m["oracle.err_max"] = (stats.get("err_max", 0.0), "revenue")
    m["oracle.err_fails"] = (stats.get("err_fails", 0), "count")
    m["check.value_regret_max"] = (stats.get("value_regret_max", 0.0), "revenue")
    m["check.l_oracle_gap_max"] = (stats.get("l_oracle_gap_max", 0.0), "revenue")
    m["max_op_s"] = (max(untraced_calls, default=0.0), "s")
    m["uncertified_frac"] = (stats.get("uncertified", 0) / solves if solves else 0.0,
                             "fraction")
    m["failed_frac"] = (sum(r.failed for r in reports) /
                        max(sum(r.attempted for r in reports), 1), "fraction")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def environment() -> str:
    import numpy
    import scipy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def print_metrics(metrics, notes) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit:9s} {notes.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time the passes may take in all (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[3]}))
        return 0

    spec = json.loads(SPEC_PATH.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wl, workload, inputs, own_setup_s = setup(args.workload, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} {environment()}")

    if args.trace == 0:
        passes, t0 = [], perf_counter()
        while not passes or ((perf_counter() - t0) * (len(passes) + 1) / len(passes)
                             <= args.seconds):
            passes.append(forked(lambda: measured_pass(wl, workload, inputs)))
        setup_times = [own_setup_s] + [spawn_setup(args.workload, args.seed)
                                       for _ in range(SETUP_PROBES)]
        op_ms = [statistics.median(times) * 1e3
                 for times in zip(*(p["op_s"] for p in passes))] or [0.0]
        call_seconds = [t for p in passes for t in p["call_s"]]
        reports = [wl.CheckReport(**p["report"]) for p in passes]
        problems = []
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "op_p50_ms": (quantile(op_ms, 50), "ms"),
            "op_p90_ms": (quantile(op_ms, 90), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (max(p["rss_mib"] for p in passes), "MiB"),
        }
        measured = statistics.median(p["measured_s"] for p in passes)
        probe_ms = statistics.median(p["probe_median_s"] for p in passes) * 1e3
        of_passes = f"median of {len(passes)} passes, reference seconds"
        notes = {"wall_s": f"{of_passes} (measured {measured:.3f} s, "
                           f"probe {probe_ms:.3f} ms)",
                 "op_p50_ms": f"{len(op_ms)} operations, each the {of_passes}",
                 "op_p90_ms": f"{len(op_ms)} operations, each the {of_passes}",
                 "setup_s": f"median of {len(setup_times)} interpreters",
                 "peak_rss_mb": f"largest of {len(passes)} pass processes"}
        declared = spec["end_to_end"]
    else:
        first = forked(lambda: measured_pass(wl, workload, inputs))
        untraced = wl.CheckReport(**first["report"])
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(sys.modules["postedprice"])
        try:
            traced_wall, traced_ops, outcome = run_pass(wl, workload, inputs, tracer)
        finally:
            tracer.uninstall()
        traced = check_pass(wl, workload, inputs, traced_ops, outcome)
        reports = [untraced, traced]
        summary = tracer.summary()
        problems = trace_problems(summary, workload, inputs, untraced, traced, traced_wall)
        untraced_wall = first["measured_s"] - first["probe_s"]
        metrics = per_layer_metrics(summary, traced.stats, first["call_s"], traced_wall,
                                    untraced_wall, reports)
        notes = {"trace.overhead_s": f"traced {traced_wall:.3f} s - untraced "
                                     f"{untraced_wall:.3f} s"}
        declared = spec["per_layer"]
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        print(f"  {len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
        by_module = {}
        for name, s in summary.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + s["self_s"]
        print("  self time by module: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in sorted(by_module.items(), key=lambda kv: -kv[1])))

    declared_units = {m["name"]: m["unit"] for m in declared}
    emitted_units = {name: unit for name, (_, unit) in metrics.items()}
    if emitted_units != declared_units:
        raise SystemExit(f"perfbench: metrics {sorted(emitted_units.items())} do not match "
                         f"{SPEC_PATH.name} {sorted(declared_units.items())}")

    attempted = sum(r.attempted for r in reports)
    failed = sum(r.failed for r in reports)
    reference_failures = [f for r in reports for f in r.reference_failures]
    stats = reports[-1].stats
    notes["failed_frac"] = f"{failed} of {attempted} operations"
    if args.trace == 0:
        # workload-level figures without a bound: printed, not in the JSON
        solves = stats.get("solves", 0)
        metrics_extra = {"max_op_s": (max(call_seconds, default=0.0), "s"),
                         "failed_frac": (failed / max(attempted, 1), "fraction")}
        notes["max_op_s"] = f"slowest of {len(call_seconds)} solves, audits or searches"
        if solves:
            metrics_extra["uncertified_frac"] = (stats["uncertified"] / solves, "fraction")
            notes["uncertified_frac"] = (f"{stats['uncertified']} of {solves} solves, "
                                         f"optimizer.iterations {stats['iterations']}")
        print_metrics({**metrics, **metrics_extra}, notes)
    else:
        print_metrics(metrics, notes)
    for message in (reference_failures + problems)[:20]:
        print(f"  FAILED {message}")
    correct = not reference_failures and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
