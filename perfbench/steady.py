"""Steadiness proof: two interleaved sets of benchmark runs.

    python3 perfbench/steady.py [--runs 5] [--seed 100]

Runs ``run.py --trace 0`` ``--runs`` times per set on every workload of
``BENCHMARK.json``, for its ``run_seconds``, set A and set B of this
checkout alternating (A first on even pairs, B first on odd ones).  Every run has its own seed:
pair ``i`` runs set A on ``--seed + 2i`` and set B on ``--seed + 2i + 1``.

For every workload and end-to-end metric it prints each set's median
and its spread (``statistics.quantiles(n=4)`` inter-quartile range as a
share of the median), the spread of both sets pooled, and whether the
sets agree: the two medians differ, either way, by at most the metric's
bound in ``BENCHMARK.json`` as a share of set A's, and the pooled spread
is within that bound too.  The report is also written to
``.perfbench/steady.json``.  Exit code 1 when a run fails or a set
disagrees.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-3000:]}")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return values | {"wall_s": time.perf_counter() - start}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2: a spread needs two runs per set")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {"A": [], "B": []}
        for i in range(args.runs):
            order = "AB" if i % 2 == 0 else "BA"
            for side in order:
                seed = args.seed + 2 * i + (side == "B")
                values[side].append(one_run(workload, seed, seconds))
        rows = {}
        for name, bound in bounds.items():
            a = [run[name] for run in values["A"]]
            b = [run[name] for run in values["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_b - med_a) / med_a
            agree = gap <= bound and spread(a + b) <= bound
            rows[name] = {
                "bound": bound, "median_A": med_a, "median_B": med_b,
                "spread_A": spread(a), "spread_B": spread(b), "spread_pooled": spread(a + b),
                "median_gap": gap, "agree": agree,
                "values_A": a, "values_B": b,
            }
            ok &= agree
            print(f"{workload:22s} {name:12s} bound {bound:.2f}  A {med_a:9.4f} "
                  f"(spread {rows[name]['spread_A']:.3f})  B {med_b:9.4f} "
                  f"(spread {rows[name]['spread_B']:.3f})  pooled spread "
                  f"{rows[name]['spread_pooled']:.3f}  gap {gap:.3f}  "
                  f"{'agree' if agree else 'DISAGREE'}", flush=True)
        walls = [run["wall_s"] for side in "AB" for run in values[side]]
        rows["wall_s_per_run"] = {"median": statistics.median(walls), "max": max(walls)}
        print(f"{workload:22s} wall-clock per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
        report["workloads"][workload] = rows
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
