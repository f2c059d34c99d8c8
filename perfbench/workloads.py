"""The three benchmark workloads: inputs, the timed call, output checks.

Each workload has

* ``prepare(root, seed, workdir)`` — untimed, once per benchmark run;
* ``run(root, seed, workdir, jobs)`` — the timed region: public entry
  points of ``repro`` from the first call to a result;
* ``check(root, seed, output)`` — the output checks, a list of
  ``(label, ok)`` pairs, also inside the timed region.

``repro`` is imported inside the functions only, so that importing this
module costs nothing before the worker times ``import repro.cli``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shutil

#: The seed whose outputs must also match ``reference.json``.
DEFAULT_SEED = 0

HERE = pathlib.Path(__file__).resolve().parent


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_checks(name: str, seed: int, value_digest: str) -> list:
    """At the default seed the outputs must be bit-identical to the
    digest recorded in ``reference.json``."""
    if seed != DEFAULT_SEED:
        return []
    reference = json.loads((HERE / "reference.json").read_text())
    return [("reference digest", reference.get(name) == value_digest)]


# ----------------------------------------------------------------------
# adversary-replicated: E7's shape through the serial pipeline

ADVERSARY = {"n": 512, "replications": 8, "settle_factor": 0.3}


def run_adversary(root, seed, workdir, jobs, size=ADVERSARY):
    from repro.experiments import pipeline, robustness

    spec = robustness.spec_adversary(
        n=size["n"], replications=size["replications"],
        settle_factor=size["settle_factor"], seed=seed,
    )
    result = pipeline.execute(spec)
    return {
        "shards": len(result.results),
        "n": size["n"],
        "replications": size["replications"],
        "value": result.values()[0],
        "table": result.table().render(),
    }


def check_adversary(root, seed, output):
    n = output["n"]
    total = n + n // 2 + 1  # flood of n/2 agents, one new-colour agent
    value = output["value"]
    checks = [
        (f"replication {r} sums to {total}", sum(row) == total)
        for r, row in enumerate(value["replicated_final_counts"])
    ]
    checks.append((
        f"{output['replications']} replications",
        len(value["replicated_final_counts"]) == output["replications"],
    ))
    checks.append((f"recorded run sums to {total}", sum(value["final_counts"]) == total))
    checks.append(("every colour keeps a dark agent", value["replicated_min_dark"] >= 1))
    return checks + reference_checks(
        "adversary-replicated", seed, digest([value, output["table"]])
    )


# ----------------------------------------------------------------------
# sweep-fused-cached: heterogeneous sweep, fused, half-warm cache

SWEEP = {
    "vectors": ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0), (1.0, 3.0, 9.0)),
    "ns": tuple(range(200, 680, 40)),
    "rounds": 30,
    "replications": 50,
}


def _cell_seed(seed: int, params: dict) -> int:
    """Each cell's seed depends only on (seed, cell), never on the rest of
    the grid, so the half grid warms exactly the full grid's entries."""
    text = json.dumps([seed, list(params["vector"]), int(params["n"])])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def sweep_spec(seed, ns, size=SWEEP):
    import functools

    from repro.experiments.fusion import measure_sweep_final_counts
    from repro.experiments.pipeline import ScenarioSpec

    return ScenarioSpec(
        name="bench-sweep",
        measure=measure_sweep_final_counts,
        grid={"vector": size["vectors"], "n": tuple(ns)},
        fixed={"rounds": size["rounds"], "start": "worst"},
        replications=size["replications"],
        base_seed=seed,
        seed_scope="cell",
        cell_seed=functools.partial(_cell_seed, seed),
    )


def _pristine(workdir) -> pathlib.Path:
    return pathlib.Path(workdir) / "sweep-pristine"


def prepare_sweep(root, seed, workdir, size=SWEEP):
    """Warm a pristine cache with every other population size."""
    from repro.experiments import pipeline

    pristine = _pristine(workdir)
    shutil.rmtree(pristine, ignore_errors=True)
    pipeline.execute(
        sweep_spec(seed, size["ns"][::2], size), fused=True, cache=pristine
    )


def _iteration_cache(workdir) -> pathlib.Path:
    """The cache directory of this worker process's iteration."""
    return pathlib.Path(workdir) / f"sweep-cache-{os.getpid()}"


def refresh_sweep(workdir) -> pathlib.Path:
    """Untimed: a fresh copy of the pristine cache for one iteration.

    Entries are hard links: the cache only reads hits and writes new
    entries through a temporary file and a rename, so the pristine files
    are never modified, and the refresh writes no file data.  Each
    iteration gets a new directory and none is deleted before the run
    ends: on a file system mounted with ``discard``, deleting 2,400
    files per iteration slowed the next iterations' cache writes up to
    sixfold, a slowdown that built up over the first iterations.
    """
    cache = _iteration_cache(workdir)
    shutil.copytree(_pristine(workdir), cache, copy_function=os.link)
    return cache


def run_sweep(root, seed, workdir, jobs, size=SWEEP):
    from repro.experiments import pipeline

    result = pipeline.execute(
        sweep_spec(seed, size["ns"], size), fused=True,
        cache=_iteration_cache(workdir),
    )
    return {
        "shards": len(result.results),
        "rows": [
            [int(result.cells[r.shard.cell]["n"]), r.value["counts"],
             len(result.cells[r.shard.cell]["vector"])]
            for r in result.results
        ],
        # Expected counts come from the input size, not from the plan.
        "expected_rows": len(size["vectors"]) * len(size["ns"]) * size["replications"],
        "expected_hits": len(size["vectors"]) * len(size["ns"][::2]) * size["replications"],
        "cache": {k: result.cache_stats[k] for k in ("hits", "misses")},
    }


def check_sweep(root, seed, output):
    rows = output["rows"]
    hits = output["expected_hits"]
    misses = output["expected_rows"] - hits
    checks = [
        (f"row {i} sums to n={n} over k={k}", sum(counts) == n and len(counts) == k)
        for i, (n, counts, k) in enumerate(rows)
    ]
    checks.append((f"{hits} cache hits", output["cache"]["hits"] == hits))
    checks.append((f"{misses} cache misses", output["cache"]["misses"] == misses))
    checks.append(("every row present", len(rows) == output["expected_rows"]))
    return checks + reference_checks(
        "sweep-fused-cached", seed, digest([counts for _, counts, _ in rows])
    )


# ----------------------------------------------------------------------
# quick-tables-pool: the CLI on the quick profile, two pool workers

QUICK_EXPERIMENTS = ("e1", "e10", "e10b")

#: Lines that depend on wall-clock, dropped before comparing to the
#: goldens (the same rule as the golden-table regression test).
TIMING_LINE = re.compile(r"steps/s|seconds|elapsed")


def normalise(text: str) -> str:
    kept = [line for line in text.splitlines() if not TIMING_LINE.search(line)]
    return "\n".join(kept).rstrip() + "\n"


def run_quick(root, seed, workdir, jobs):
    """The quick profile pins each experiment's seed (the goldens' seeds);
    the benchmark seed does not reach this workload."""
    from repro import cli
    from repro.experiments.export import load_plan, plan_table

    out = pathlib.Path(workdir) / "quick-out"
    shutil.rmtree(out, ignore_errors=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(
            ["run", *QUICK_EXPERIMENTS, "--quick", "--jobs", str(jobs), "--out", str(out)]
        )
    artifacts = {
        name: load_plan(out / f"{name}-quick.json") for name in QUICK_EXPERIMENTS
    }
    return {
        "code": code,
        "stdout": stdout.getvalue(),
        "shards": sum(len(a["shards"]) for a in artifacts.values()),
        "tables": {name: plan_table(a).render() for name, a in artifacts.items()},
    }


def check_quick(root, seed, output):
    goldens = {
        name: (pathlib.Path(root) / "tests" / "golden" / f"{name}-quick.txt").read_text()
        for name in QUICK_EXPERIMENTS
    }
    checks = [("exit code 0", output["code"] == 0)]
    checks.append(
        ("stdout matches the goldens",
         normalise(output["stdout"]) == normalise("\n".join(goldens.values())))
    )
    checks += [
        (f"{name} artifact matches its golden", normalise(output["tables"][name]) == goldens[name])
        for name in QUICK_EXPERIMENTS
    ]
    return checks


WORKLOADS = {
    "adversary-replicated": {"run": run_adversary, "check": check_adversary},
    "sweep-fused-cached": {
        "prepare": prepare_sweep, "refresh": refresh_sweep,
        "run": run_sweep, "check": check_sweep,
    },
    "quick-tables-pool": {"run": run_quick, "check": check_quick, "pool": True},
}
