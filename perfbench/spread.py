"""Repeat the benchmark over seeds and sets of runs, and report the spreads.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10 --sets 2

For every seed and every workload it runs `perfbench/run.py` once per set,
alternating which set goes first, so that drift in machine speed falls on
both sets alike.  Each set runs in the checkout named by `--roots` (the
same checkout for every set by default; give two checkouts holding the same
perfbench/ and BENCHMARK.json to compare two commits).  It prints, per
workload and end-to-end metric, each set's median and its quartile spread
(Q3 - Q1) / median, and how far each later set's median lies from the
first's, next to the metric's bound.  With `--seeds 1 --sets 1` it is one
command that runs every workload once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {root}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    sys.stdout.write(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--roots", default=str(HERE.parent),
                        help="comma-separated checkouts, used by the sets in turn")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    roots = [Path(r) for r in args.roots.split(",")]
    seeds = range(args.seeds)
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for j, seed in enumerate(seeds):
        order = list(range(args.sets))
        if j % 2:
            order.reverse()
        for workload in workloads:
            for s in order:
                out = run_once(roots[s % len(roots)], workload, seed,
                               spec["run_seconds"])
                results[workload][s].append(out)

    print(f"\n{len(seeds)} seeds x {args.sets} sets, run_seconds {spec['run_seconds']}")
    for workload in workloads:
        print(f"{workload}:")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            per_set = [[r["metrics"][name]["value"] for r in runs]
                       for runs in results[workload]]
            medians = [statistics.median(v) for v in per_set]
            cells = []
            for values, median in zip(per_set, medians):
                cell = f"median {median:.6g}"
                if len(values) >= 2 and median:
                    cell += f" spread {spread(values):.3f}"
                cells.append(cell)
            drift = [f"{m / medians[0] - 1:+.3f}" for m in medians[1:] if medians[0]]
            print(f"  {name:36s} {metric['unit']:8s} " + " | ".join(cells)
                  + (f" | drift {' '.join(drift)}" if drift else "")
                  + f" | bound {metric['bound']}")
        for s, runs in enumerate(results[workload]):
            correct = all(r["correct"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"  set {s}: correct {correct}, failed {failed} of {attempted}")
    out_dir = HERE.parent / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results) + "\n")
    print(f"runs written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
