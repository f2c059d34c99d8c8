"""One benchmark iteration in a fresh process.

    python3 perfbench/worker.py --root R --workload W --seed S \
        --workdir D [--jobs N] [--mode run|trace|prepare] [--trace-out F]

Times ``import repro.cli`` (the set-up sample), runs the workload's
untimed refresh step, then times the workload from its first call into
``repro`` to a checked result, with passes of the calibration kernel
(``calibrate.py``) timed right before and right after it.  Prints one
JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--mode", choices=("run", "trace", "prepare"), default="run")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the timed set-up)

    import_s = time.perf_counter() - start

    import workloads
    from calibrate import calibrate_on

    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "prepare":
        workload["prepare"](args.root, args.seed, args.workdir)
        print(json.dumps({"prepared": args.workload}))
        return 0
    if "refresh" in workload:
        workload["refresh"](args.workdir)

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cores = args.jobs if workload.get("pool") else 1
    calibrate_s = calibrate_on(cores)
    start = time.perf_counter()
    output = workload["run"](args.root, args.seed, args.workdir, args.jobs)
    checks = workload["check"](args.root, args.seed, output)
    run_s = time.perf_counter() - start
    calibrate_s += calibrate_on(cores)

    failed = [label for label, ok in checks if not ok]
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {
        "import_s": import_s,
        "run_s": run_s,
        "calibrate_s": calibrate_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "attempted": output["shards"] + len(checks),
        "failed": len(failed),
        "failed_checks": failed[:20],
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracing.layer_metrics(tracer, run_s)
        if args.trace_out:
            tracer.dump(
                args.trace_out, workload=args.workload, seed=args.seed,
                jobs=args.jobs, run_s=run_s,
            )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
