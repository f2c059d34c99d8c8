"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every iteration runs in a fresh worker
process (``worker.py``) with ``PYTHONPATH=src``, BLAS/OpenMP threads
pinned to 1 and at most two pool workers.

``--trace 0`` starts iterations back to back until ``--seconds`` have
passed since the run began, and reports the end-to-end metrics (medians
over the run's samples):

* ``setup_s`` — ``import repro.cli`` in a fresh process: every
  iteration's own import, topped up to five samples by import-only
  probe processes;
* ``run_s`` — first call into ``repro`` to a checked result;
* ``peak_rss_mb`` — the larger of the worker's and its pool children's
  peak resident set.

Both times are wall-clock medians scaled to the reference speed of the
calibration kernel (``calibrate.py``), whose passes each worker times
right before and right after its iteration; the summary line keeps the raw
medians (``setup_wall_s``, ``run_wall_s``) and the scale.

``--trace 1`` reports the per-layer metrics of ``tracing.py`` from one
untraced and one traced iteration (plus, on quick-tables-pool, a serial
traced pass for the engine layers) and the import split.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a summary with sample counts, quartiles and the
failed ratio with its base.  Any failed shard or output check makes the
exit code 1.  Outside a checkout of the repository the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Pool workers of the quick-tables-pool workload (load from one process).
JOBS = 2
#: Fewest set-up samples per run: iterations' own imports, topped up
#: with import-only probe processes.
SETUP_SAMPLES = 5
IMPORT_SPLIT_PROBES = 3
#: Every process of a run must have ended this long after it started.
RUN_BUDGET_S = 170
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)
IMPORT_LAYERS = {
    "import.engine_s": "repro.engine",
    "import.experiments_s": "repro.experiments",
}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Spawns worker processes for one workload and seed."""

    def __init__(self, workload: str, seed: int, workdir: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = worker_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S

    def _python(self, args, check=False) -> subprocess.CompletedProcess:
        """Run a child in its own process group; on a timeout the whole
        group (a worker and its pool children) is killed and reaped."""
        with subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        ) as child:
            try:
                out, err = child.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                out, err = child.communicate()
                err += "\nkilled: the run's time budget ran out"
        done = subprocess.CompletedProcess(child.args, child.returncode, out, err)
        if check:
            done.check_returncode()
        return done

    def worker(self, mode: str = "run", jobs: int = JOBS, trace_out=None) -> dict | None:
        args = [str(HERE / "worker.py"), "--root", str(ROOT), "--workload", self.workload,
                "--seed", str(self.seed), "--workdir", str(self.workdir),
                "--jobs", str(jobs), "--mode", mode]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        done = self._python(args)
        try:
            report = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            report = None
        if done.returncode != 0 or report is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{mode} worker exited {done.returncode}: {done.stderr[-2000:]}")
            return None
        if mode != "prepare":
            self.attempted += report["attempted"]
            self.failed += report["failed"]
            self.problems += report["failed_checks"]
        return report

    def import_probe(self) -> float:
        return float(self._python(["-c", IMPORT_PROBE], check=True).stdout)

    def import_split(self) -> dict:
        """Incremental import cost of the layers, from ``-X importtime``."""
        err = self._python(["-X", "importtime", "-c", "import repro.cli"], check=True).stderr
        cumulative = {}
        for line in err.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if match:
                cumulative[match.group(2)] = int(match.group(1)) / 1e6
        split = {name: cumulative[module] for name, module in IMPORT_LAYERS.items()}
        split["import.cli_s"] = cumulative["repro.cli"] - sum(split.values())
        return split


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup, runs, rss, speed = [], [], [], []
    # The window opens after the untimed preparation (byte code, the
    # sweep's cache warm-up), so every workload gets the whole window.
    deadline = time.monotonic() + seconds
    while True:
        report = runner.worker()
        if report is None:
            break
        setup.append(report["import_s"])
        runs.append(report["run_s"])
        rss.append(report["peak_rss_mb"])
        speed += report["calibrate_s"]
        if time.monotonic() >= deadline:
            break
    while runs and len(setup) < SETUP_SAMPLES:
        setup.append(runner.import_probe())
    samples = {"setup_wall_s": (setup, "s"), "run_wall_s": (runs, "s"),
               "peak_rss_mb": (rss, "MB"), "calibrate_s": (speed, "s")}
    metrics, summary = {}, {}
    for name, (values, unit) in samples.items():
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit,
                         "samples": len(values)}
    if not runs:
        return metrics, summary
    # The machine's speed drifts over minutes; the run's median is
    # reported at the calibration kernel's reference speed.
    summary["calibrate_s"]["mean"] = statistics.fmean(speed)
    scale = REFERENCE_S / summary["calibrate_s"]["mean"]
    summary["scale"] = scale
    metrics = {
        "setup_s": {"value": summary["setup_wall_s"]["median"] * scale, "unit": "s"},
        "run_s": {"value": summary["run_wall_s"]["median"] * scale, "unit": "s"},
        "peak_rss_mb": {"value": summary["peak_rss_mb"]["median"], "unit": "MB"},
    }
    return metrics, summary


def measure_layers(runner: Runner, workload: str, traces: pathlib.Path) -> tuple[dict, dict]:
    splits = [runner.import_split() for _ in range(IMPORT_SPLIT_PROBES)]
    layers = {name: statistics.median(s[name] for s in splits) for name in splits[0]}
    untraced = runner.worker()
    traced = runner.worker("trace", trace_out=traces / f"{workload}-{runner.seed}.json")
    sources = {"import.*": f"-X importtime probes (median of {IMPORT_SPLIT_PROBES})",
               "other": f"traced pass (jobs={JOBS})"}
    if untraced is None or traced is None:
        return {}, sources
    layers.update(traced["layers"])
    layers["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    if workload == "quick-tables-pool":
        # Engine spans inside forked pool workers never reach the parent:
        # the engine layers come from a serial traced pass.
        serial = runner.worker(
            "trace", jobs=1, trace_out=traces / f"{workload}-{runner.seed}-serial.json"
        )
        if serial is None:
            return {}, sources
        for name, value in serial["layers"].items():
            if name.startswith(tracing.ENGINE_PREFIX):
                layers[name] = value
        sources[tracing.ENGINE_PREFIX + "*"] = "serial traced pass (jobs=1)"
    metrics = {
        name: {"value": layers[name], "unit": unit} for name, unit in tracing.UNITS.items()
    }
    return metrics, sources


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"{ROOT} is not a checkout of the repository (no src/repro, tests/golden)",
              file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    workdir = base / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
                       env=runner.env, check=True, stdout=subprocess.DEVNULL)
        if "prepare" in WORKLOADS[args.workload]:
            runner.worker("prepare")
        if args.trace:
            traces = base / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            metrics, sources = measure_layers(runner, args.workload, traces)
            summary = {"sources": sources}
        else:
            metrics, summary = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0 and runner.attempted > 0 and bool(metrics)
    for problem in runner.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "jobs": JOBS,
        "failed_ratio": {"value": runner.failed / max(runner.attempted, 1),
                         "failed": runner.failed, "attempted": runner.attempted},
        **summary,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed if runner.attempted else 1,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
