"""Resuming a sweep through the shard cache.

The contract under test: every finished shard is in the cache as soon
as it finishes, so a run that is interrupted — by a failed shard, a
``KeyboardInterrupt`` or a SIGKILL of the orchestrator — leaves its
progress on disk, and running the same sweep again against the same
cache computes only the missing shards and returns the same values as
one uninterrupted ``execute``.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.cli import main
from repro.experiments.cache import ShardCache, shard_key
from repro.experiments.faults import FaultPlan
from repro.experiments.pipeline import ScenarioSpec, ShardError, execute, plan

#: In-process call log and failure switches — seen by the serial
#: executor, which runs measurements in this process.
CALLS: list = []
ARMED = {"raise": None, "interrupt": None}

#: While set, the measurement of shard ``a == BLOCKED`` waits instead
#: of returning (the pool kill drill).
BLOCK_VAR = "REPRO_TEST_BLOCK_SHARD"
BLOCKED = 2


def measure_draw(params, rng):
    """Deterministic in (params, seed): the bit-identity probe."""
    CALLS.append(params["a"])
    if params["a"] == ARMED["raise"]:
        raise RuntimeError(f"boom at a={params['a']}")
    if params["a"] == ARMED["interrupt"]:
        raise KeyboardInterrupt
    if params["a"] == BLOCKED and os.environ.get(BLOCK_VAR):
        # Wait for the test to kill the orchestrator; give up once it
        # is gone (re-parented) or after a minute.
        parent = os.getppid()
        deadline = time.monotonic() + 60.0
        while os.getppid() == parent and time.monotonic() < deadline:
            time.sleep(0.05)
    return {"a": params["a"], "draw": float(rng.random())}


def make_spec():
    return ScenarioSpec(
        name="cache-resume",
        measure=measure_draw,
        grid={"a": (0, 1, 2, 3, 4, 5)},
        replications=1,
        base_seed=41,
    )


@pytest.fixture(autouse=True)
def _reset():
    CALLS.clear()
    ARMED.update({"raise": None, "interrupt": None})
    yield
    ARMED.update({"raise": None, "interrupt": None})


def _entries(directory) -> list:
    return sorted(pathlib.Path(directory).glob("??/*.json"))


def _stored(store, spec) -> list[bool]:
    """Per shard: is its entry on disk?"""
    return [
        store.path_for(shard_key(spec, shard)).exists()
        for shard in plan(spec).shards
    ]


class TestResume:
    def test_rerun_after_shard_error_computes_only_missing(self, tmp_path):
        spec = make_spec()
        ARMED["raise"] = 3
        with pytest.raises(ShardError, match="boom at a=3"):
            execute(spec, cache=tmp_path)
        assert len(_entries(tmp_path)) == 3  # shards 0-2 survived
        ARMED["raise"] = None
        CALLS.clear()
        resumed = execute(spec, cache=tmp_path)
        assert CALLS == [3, 4, 5]
        assert resumed.cache_stats["hits"] == 3
        assert resumed.cache_stats["misses"] == 3
        assert resumed.values() == execute(spec).values()

    def test_resumed_shards_keep_recorded_seconds(self, tmp_path):
        spec = make_spec()
        store = ShardCache(tmp_path)
        ARMED["raise"] = 3
        with pytest.raises(ShardError):
            execute(spec, cache=store)
        ARMED["raise"] = None
        shards = plan(spec).shards
        recorded = {
            shard.index: store.get(shard_key(spec, shard))["seconds"]
            for shard in shards[:3]
        }
        resumed = execute(spec, cache=store)
        replayed = {
            r.shard.index: r.seconds for r in resumed.results
            if r.shard.index in recorded
        }
        assert replayed == recorded

    def test_warm_rerun_calls_the_measurement_zero_times(self, tmp_path):
        spec = make_spec()
        first = execute(spec, cache=tmp_path)
        CALLS.clear()
        warm = execute(spec, cache=tmp_path)
        assert CALLS == []
        assert warm.values() == first.values()

    def test_torn_entry_is_recomputed_bit_identically(self, tmp_path):
        spec = make_spec()
        faults = FaultPlan.from_spec("tear-cache:i2", shards=6)
        first = execute(spec, cache=tmp_path, faults=faults)
        CALLS.clear()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            resumed = execute(spec, cache=tmp_path)
        assert CALLS == [2]
        assert resumed.cache_stats["misses"] == 1
        assert resumed.values() == first.values() == execute(spec).values()


class TestDurability:
    """Entries are written as each shard finishes, not after the
    executor returns: an interrupt or a kill keeps finished shards."""

    def test_keyboard_interrupt_keeps_finished_shards(self, tmp_path):
        spec = make_spec()
        store = ShardCache(tmp_path)
        ARMED["interrupt"] = 3
        with pytest.raises(KeyboardInterrupt):
            execute(spec, cache=store)
        assert _stored(store, spec) == [True] * 3 + [False] * 3

    def test_killed_pool_orchestrator_keeps_shards(self, tmp_path):
        spec = make_spec()
        here = pathlib.Path(__file__).resolve().parent
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {str(here)!r})
            from {pathlib.Path(__file__).stem} import make_spec
            from repro.experiments.pipeline import execute

            execute(make_spec(), jobs=2, cache={str(tmp_path)!r})
            """
        )
        env = dict(os.environ)
        env[BLOCK_VAR] = "1"
        env["PYTHONPATH"] = str(
            pathlib.Path(repro.__file__).resolve().parents[1]
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while (
                len(_entries(tmp_path)) < 5
                and proc.poll() is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.1)
            assert proc.poll() is None, "orchestrator exited early"
            assert len(_entries(tmp_path)) == 5, (
                "finished shards were not on disk before the kill"
            )
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=30)
        CALLS.clear()
        resumed = execute(spec, cache=tmp_path)
        assert CALLS == [BLOCKED]
        assert resumed.cache_stats["misses"] == 1
        assert resumed.values() == execute(spec).values()


class TestCliResume:
    def test_rerun_with_same_cache_dir_is_identical(self, tmp_path):
        base = ["run", "e2", "--quick", "--cache-dir", str(tmp_path / "c")]
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        doc_a = json.loads((tmp_path / "a" / "e2-quick.json").read_text())
        doc_b = json.loads((tmp_path / "b" / "e2-quick.json").read_text())
        assert doc_b["cache"]["misses"] == 0
        assert doc_a["table"] == doc_b["table"]
        assert [s["value"] for s in doc_a["shards"]] == [
            s["value"] for s in doc_b["shards"]
        ]

    def test_fused_cache_and_max_failures_combine(self, capsys, tmp_path):
        args = ["run", "e8", "--quick", "--fused", "--max-failures", "0",
                "--cache-dir", str(tmp_path / "c")]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert "cache: 1 hit(s), 0 miss(es)" in capsys.readouterr().err
