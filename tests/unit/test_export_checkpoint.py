"""The JSON+NPZ checkpoint store (``repro-ckpt-store/v1``).

A saved engine snapshot must come back exactly — every array with its
dtype and shape, every scalar, arbitrarily nested — with no pickle
anywhere in the round trip.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core.weights import WeightTable
from repro.engine.batched import BatchedAggregateSimulation
from repro.experiments.export import (
    CKPT_STORE_FORMAT,
    load_checkpoint,
    save_checkpoint,
)


def tree_equal(a, b, path=""):
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            tree_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            tree_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        assert a.shape == b.shape, path
        assert np.array_equal(a, b), path
    else:
        assert a == b, path


class TestRoundTrip:
    def test_nested_payload(self, tmp_path):
        payload = {
            "format": "repro-ckpt/v1",
            "engine": "Demo",
            "time": 123,
            "scale": 0.5,
            "label": "hello",
            "flag": True,
            "nothing": None,
            "counts": np.arange(6, dtype=np.int64).reshape(2, 3),
            "weights": np.array([1.0, 2.5]),
            "packed": np.array([[1, 2]], dtype=np.uint64),
            "nested": {
                "streams": {"pool": np.zeros((2, 4), dtype=np.float64)},
                "values": [np.array([7], dtype=np.int32), {"x": 1}],
            },
        }
        json_path, npz_path = save_checkpoint(payload, tmp_path / "snap")
        assert json_path.suffix == ".json"
        assert npz_path.suffix == ".npz"
        tree_equal(load_checkpoint(tmp_path / "snap"), payload)

    def test_array_free_payload_still_writes_npz(self, tmp_path):
        payload = {"format": "repro-ckpt/v1", "engine": "Demo", "time": 1}
        save_checkpoint(payload, tmp_path / "plain")
        tree_equal(load_checkpoint(tmp_path / "plain"), payload)

    def test_suffix_normalisation(self, tmp_path):
        payload = {"format": "repro-ckpt/v1", "engine": "Demo"}
        for name in ("a", "b.json", "c.npz"):
            save_checkpoint(payload, tmp_path / name)
        assert (tmp_path / "a.json").exists() and (tmp_path / "a.npz").exists()
        assert (tmp_path / "b.json").exists() and (tmp_path / "b.npz").exists()
        assert (tmp_path / "c.json").exists() and (tmp_path / "c.npz").exists()
        tree_equal(load_checkpoint(tmp_path / "b"), payload)

    def test_engine_snapshot_round_trip(self, tmp_path):
        """End to end: snapshot → disk → restore is bit-identical,
        including the per-row stream draws."""
        engine = BatchedAggregateSimulation(
            WeightTable([1.0, 2.0, 3.0]), [30, 20, 10],
            replications=3, rng=21,
        )
        engine.run(250)
        save_checkpoint(engine.snapshot(), tmp_path / "mid")
        expected_counts = [engine.dark_counts(), engine.light_counts()]
        engine.run(250)
        final = [engine.dark_counts(), engine.light_counts()]

        twin = BatchedAggregateSimulation(
            WeightTable([1.0, 2.0, 3.0]), [30, 20, 10],
            replications=3, rng=0,
        )
        twin.restore(load_checkpoint(tmp_path / "mid"))
        assert np.array_equal(twin.dark_counts(), expected_counts[0])
        assert np.array_equal(twin.light_counts(), expected_counts[1])
        twin.run(250)
        assert np.array_equal(twin.dark_counts(), final[0])
        assert np.array_equal(twin.light_counts(), final[1])
        assert engine.rng.random() == twin.rng.random()

    def test_no_pickle_in_either_file(self, tmp_path):
        payload = {
            "format": "repro-ckpt/v1",
            "engine": "Demo",
            "counts": np.arange(4),
        }
        json_path, npz_path = save_checkpoint(payload, tmp_path / "s")
        json.loads(json_path.read_text())  # valid plain JSON
        with np.load(npz_path, allow_pickle=False) as archive:
            assert "counts" in archive


LEGACY = pathlib.Path(__file__).parent.parent / "data" / "legacy_batched_ckpt"


class TestLegacyBatchedSnapshot:
    """Snapshots written by the standalone batched engine (1-D weights
    and lighten, scalar n) restore into the current class and continue
    bit-identically.

    The fixture is R=3, weights (1, 2, 3), seed 21: ``run(250)``,
    ``add_colour(4.0, 6)``, ``run(150)``, then the snapshot; the
    expected file holds the state after a further ``run(200)``, the next
    two per-row stream draws and the next base-generator draw.
    """

    def test_restores_and_continues_bit_identically(self):
        payload = load_checkpoint(LEGACY / "snapshot")
        assert payload["engine"] == "BatchedAggregateSimulation"
        expected = json.loads((LEGACY / "expected.json").read_text())
        weights = WeightTable([1.0, 2.0, 3.0])
        engine = BatchedAggregateSimulation(
            weights, [30, 20, 10], replications=3, rng=0
        )
        engine.restore(payload)
        assert weights.as_array().tolist() == [1.0, 2.0, 3.0, 4.0]
        assert engine.n == 66 and engine.time == 400
        engine.run(expected["run"])
        assert engine.dark_counts().tolist() == expected["dark"]
        assert engine.light_counts().tolist() == expected["light"]
        assert engine._times.tolist() == expected["times"]
        rows = np.arange(3)
        assert engine._streams.take(rows, 2).tolist() == expected["take"]
        assert engine.rng.random() == expected["rng"]

    def test_new_snapshot_round_trips(self):
        engine = BatchedAggregateSimulation(
            WeightTable([1.0, 2.0, 3.0]), [30, 20, 10], replications=3, rng=0
        )
        engine.restore(load_checkpoint(LEGACY / "snapshot"))
        twin = BatchedAggregateSimulation(
            WeightTable([1.0, 2.0, 3.0]), [30, 20, 10], replications=3, rng=5
        )
        twin.restore(engine.snapshot())
        assert twin.k == 4
        engine.run(300)
        twin.run(300)
        assert np.array_equal(engine.dark_counts(), twin.dark_counts())
        assert np.array_equal(engine.light_counts(), twin.light_counts())

    def test_heterogeneous_rows_rejected(self):
        from repro.engine import HeterogeneousAggregateBatch

        hetero = HeterogeneousAggregateBatch(
            [[1.0, 2.0], [1.0, 3.0]], [[5, 5], [5, 5]], rng=0
        )
        engine = BatchedAggregateSimulation(
            WeightTable([1.0, 2.0]), [5, 5], replications=2, rng=0
        )
        with pytest.raises(ValueError, match="one weight table"):
            engine.restore(hetero.snapshot())


class TestValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        np.savez(tmp_path / "bad.npz")
        with pytest.raises(ValueError, match=CKPT_STORE_FORMAT):
            load_checkpoint(tmp_path / "bad")

    def test_missing_array_detected(self, tmp_path):
        payload = {
            "format": "repro-ckpt/v1",
            "engine": "Demo",
            "counts": np.arange(4),
        }
        json_path, npz_path = save_checkpoint(payload, tmp_path / "s")
        np.savez(npz_path)  # clobber: drop the arrays
        with pytest.raises(ValueError, match="counts"):
            load_checkpoint(tmp_path / "s")

    def test_missing_npz_errors(self, tmp_path):
        payload = {
            "format": "repro-ckpt/v1",
            "engine": "Demo",
            "counts": np.arange(4),
        }
        _, npz_path = save_checkpoint(payload, tmp_path / "s")
        npz_path.unlink()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "s")
