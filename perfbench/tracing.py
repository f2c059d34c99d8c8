"""In-memory span tracer and the layer instrumentation of the benchmark.

The tracer wraps public functions and methods of the ``repro`` package
from the outside (nothing inside ``src/repro`` is edited): each wrapped
call records a span ``(id, name, start, end, parent)`` and may add to
named counters.  Spans stay in memory and are written out once, when
the traced run ends.

A layer's *self time* is the duration of its spans minus the part
covered by their child spans.  A call that re-enters a layer already
open on the span stack (``run`` delegating to ``run_to``, the fused
executor calling its own group runner) records no new span, so every
interval is attributed to exactly one layer.

Spans are recorded only in the process that installed the tracer:
forked pool workers inherit the wrappers but skip recording, and their
engine time reaches the parent only as pool wall-clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[tuple[int, str]] = []
        self._installed: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, span: str, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``after(tracer, args, kwargs, result, before)`` runs after every
        call (also re-entrant ones) to update counters; ``before`` is
        the value of ``after.prepare(args)`` taken before the call, when
        ``after`` has a ``prepare`` attribute.
        """
        func = owner.__dict__[attr]
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return func(*args, **kwargs)
            prepare = getattr(after, "prepare", None)
            before = prepare(args) if prepare is not None else None
            if any(name == span for _, name in tracer._stack):
                result = func(*args, **kwargs)
            else:
                span_id = len(tracer.spans)
                parent = tracer._stack[-1][0] if tracer._stack else None
                tracer.spans.append((span_id, span, 0.0, 0.0, parent))
                tracer._stack.append((span_id, span))
                start = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[span_id] = (span_id, span, start, end, parent)
            if after is not None:
                after(tracer, args, kwargs, result, before)
            return result

        self._installed.append((owner, attr, func))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def inclusive_times(self) -> dict[str, float]:
        """Summed span durations per span name."""
        totals: dict[str, float] = {}
        for _, name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def self_times(self) -> dict[str, float]:
        """Self time per span name (duration minus child durations)."""
        totals = self.inclusive_times()
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                totals[self.spans[parent][1]] -= end - start
        return totals

    def dump(self, path, **extra) -> None:
        doc = {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "counts": self.counts,
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


# ----------------------------------------------------------------------
# Counter hooks


def _count_shards(tracer, args, kwargs, result, before):
    tracer.add("pipeline.shards", len(result.shards))


def _count_outcomes(tracer, args, kwargs, outcomes, before):
    done = [o for o in outcomes if o is not None]
    attempts = sum(o.attempts for o in done)
    tracer.add("faults.attempts", attempts)
    tracer.add("faults.retries", attempts - len(done))


def _count_pool(tracer, args, kwargs, outcomes, before):
    _count_outcomes(tracer, args, kwargs, outcomes, before)
    tracer.counts["faults.jobs"] = args[0].jobs
    tracer.add("faults.shard_s", sum(o.seconds for o in outcomes if o is not None))


def _count_results(tracer, args, kwargs, result, before):
    seconds = [r.seconds for r in result.results]
    tracer.add("pipeline.shard_s_sum", sum(seconds))
    tracer.counts["pipeline.shard_s_max"] = max(
        [tracer.counts.get("pipeline.shard_s_max", 0.0), *seconds]
    )


def _count_get(tracer, args, kwargs, entry, before):
    tracer.add("cache.get_calls")
    tracer.add("cache.hits", entry is not None)


def _count_put(tracer, args, kwargs, path, before):
    tracer.add("cache.put_calls")
    tracer.add("cache.put_bytes", os.path.getsize(path))


def _count_saved(tracer, args, kwargs, path, before):
    tracer.add("export.bytes", os.path.getsize(path))


def _count_group(tracer, args, kwargs, result, before):
    tracer.add("fusion.groups")
    tracer.add("fusion.rows", len(args[3]))


def _count_take(tracer, args, kwargs, result, before):
    tracer.add("engine.streams.take_calls")


def _clock_counter(prefix: str, clock):
    """Counts interactions as the advance of the engine's clock(s)."""

    def after(tracer, args, kwargs, result, before):
        tracer.add(f"{prefix}.interactions", float(clock(args[0]) - before))

    after.prepare = lambda args: clock(args[0])
    return after


def _hetero_after():
    inner = _clock_counter("engine.hetero", lambda e: e.times().sum())

    def after(tracer, args, kwargs, result, before):
        inner(tracer, args, kwargs, result, before)
        tracer.add("engine.hetero.rows", args[0].rows)

    after.prepare = inner.prepare
    return after


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every benchmarked layer."""
    mod = importlib.import_module
    cli = mod("repro.cli")
    pipeline = mod("repro.experiments.pipeline")
    fusion = mod("repro.experiments.fusion")
    cache = mod("repro.experiments.cache")
    export = mod("repro.experiments.export")
    table = mod("repro.experiments.table")
    batched = mod("repro.engine.batched")
    hetero = mod("repro.engine.hetero")
    aggregate = mod("repro.engine.aggregate")
    simulator = mod("repro.engine.simulator")
    array_engine = mod("repro.engine.array_engine")
    streams = mod("repro.engine.streams")

    tracer.wrap(pipeline, "plan", "pipeline.plan", _count_shards)
    tracer.wrap(fusion, "expand_plan", "pipeline.plan", _count_shards)
    tracer.wrap(pipeline, "execute", "pipeline.execute", _count_results)
    tracer.wrap(cli, "execute", "pipeline.execute", _count_results)
    tracer.wrap(pipeline.SerialExecutor, "run_shards", "pipeline.execute", _count_outcomes)
    tracer.wrap(pipeline.PlanResult, "table", "pipeline.table")
    tracer.wrap(table.ExperimentTable, "render", "pipeline.table")

    tracer.wrap(pipeline.ProcessExecutor, "run_shards", "faults.pool", _count_pool)

    tracer.wrap(cache, "lookup_shards", "cache.lookup")
    tracer.wrap(cache, "shard_key", "cache.key")
    tracer.wrap(cache.ShardCache, "get", "cache.get", _count_get)
    tracer.wrap(cache.ShardCache, "put", "cache.put", _count_put)

    tracer.wrap(fusion, "execute_fused", "fusion.fuse")
    tracer.wrap(fusion, "fuse", "fusion.fuse")
    tracer.wrap(fusion.FusedExecutor, "run_plan", "fusion.fuse")
    tracer.wrap(fusion.FusedExecutor, "_run_group", "fusion.fuse", _count_group)

    batched_clock = _clock_counter("engine.batched", lambda e: e.times().sum())
    for attr in ("run", "run_per_step"):
        tracer.wrap(batched.BatchedAggregateSimulation, attr, "engine.batched.run", batched_clock)
    hetero_after = _hetero_after()
    # ``run`` delegates to ``run_to``; wrapping both would count twice.
    for attr in ("run_to", "run_per_step"):
        tracer.wrap(hetero.HeterogeneousAggregateBatch, attr, "engine.hetero.run", hetero_after)
    for attr in ("run", "run_until"):
        tracer.wrap(aggregate.AggregateSimulation, attr, "engine.aggregate.run")
    tracer.wrap(simulator.Simulation, "run", "engine.simulator.run")
    tracer.wrap(array_engine.ArraySimulation, "run", "engine.array.run")
    tracer.wrap(streams.RowStreams, "take", "engine.streams.take", _count_take)

    tracer.wrap(export, "save_plan", "export.save_plan", _count_saved)
    tracer.wrap(cli, "save_plan", "export.save_plan", _count_saved)


#: Span names, in report order; each becomes ``<name>_s`` (self time).
LAYER_SPANS = (
    "pipeline.plan",
    "pipeline.execute",
    "pipeline.table",
    "faults.pool",
    "cache.lookup",
    "cache.key",
    "cache.get",
    "cache.put",
    "fusion.fuse",
    "engine.batched.run",
    "engine.hetero.run",
    "engine.aggregate.run",
    "engine.simulator.run",
    "engine.array.run",
    "engine.streams.take",
    "export.save_plan",
)

#: Spans and counters of the engine layers; on a workload that runs its
#: shards in pool workers they come from a separate serial pass.
ENGINE_PREFIX = "engine."


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose wall-clock was ``run_s``."""
    own = tracer.self_times()
    inclusive = tracer.inclusive_times()
    counts = tracer.counts
    out = {f"{name}_s": own.get(name, 0.0) for name in LAYER_SPANS}
    for name in (
        "pipeline.shards", "pipeline.shard_s_sum", "pipeline.shard_s_max",
        "faults.attempts", "faults.retries",
        "cache.get_calls", "cache.put_calls", "cache.put_bytes",
        "fusion.groups", "fusion.rows",
        "engine.batched.interactions", "engine.hetero.rows",
        "engine.hetero.interactions", "engine.streams.take_calls",
        "export.bytes",
    ):
        out[name] = float(counts.get(name, 0))
    # One ShardCache.get per shard looked up: get_calls is the base.
    gets = counts.get("cache.get_calls", 0)
    out["cache.hit_ratio"] = counts.get("cache.hits", 0) / gets if gets else 0.0
    out["faults.pool_idle_s"] = (
        counts["faults.jobs"] * out["faults.pool_s"] - counts["faults.shard_s"]
        if "faults.jobs" in counts
        else 0.0
    )
    for engine in ("batched", "hetero"):
        busy = inclusive.get(f"engine.{engine}.run", 0.0)
        done = out[f"engine.{engine}.interactions"]
        out[f"engine.{engine}.interactions_per_s"] = done / busy if busy else 0.0
    attributed = sum(own.get(name, 0.0) for name in LAYER_SPANS)
    out["trace.run_s"] = run_s
    out["trace.attributed_ratio"] = attributed / run_s if run_s else 0.0
    return out


#: Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "import.engine_s": "s",
    "import.experiments_s": "s",
    "import.cli_s": "s",
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "pipeline.shards": "count",
    "pipeline.shard_s_sum": "s",
    "pipeline.shard_s_max": "s",
    "faults.pool_idle_s": "s",
    "faults.attempts": "count",
    "faults.retries": "count",
    "cache.get_calls": "count",
    "cache.put_calls": "count",
    "cache.put_bytes": "bytes",
    "cache.hit_ratio": "ratio",
    "fusion.groups": "count",
    "fusion.rows": "count",
    "engine.batched.interactions": "count",
    "engine.batched.interactions_per_s": "1/s",
    "engine.hetero.rows": "count",
    "engine.hetero.interactions": "count",
    "engine.hetero.interactions_per_s": "1/s",
    "engine.streams.take_calls": "count",
    "export.bytes": "bytes",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_ratio": "ratio",
}
