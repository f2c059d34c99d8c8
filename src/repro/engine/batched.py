"""Batched aggregate simulator: R independent replications at once.

R replications of one weight table are R identical rows of
:class:`~repro.engine.hetero.HeterogeneousAggregateBatch` — same
weights, population size and horizon — so this class is a thin
constructor over that engine and inherits its event loop, per-step
mode, batch-wide interventions, streaming taps and split-invariant
checkpoints.  It adds the single-configuration view: the shared
:class:`~repro.core.weights.WeightTable` (widened by
:meth:`~BatchedAggregateSimulation.add_colour`), the scalar ``n``,
``k``, ``replications`` and ``time``, and a common clock — :meth:`run`
and :meth:`run_per_step` take one step count for every replication, so
the clocks, which decouple inside a run, re-synchronise at every
horizon.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.weights import WeightTable
from . import checkpoint as ckpt
from .aggregate import resolve_lighten_probabilities
from .backend import FLOAT64, HOST, INT64, Backend, Generator
from .hetero import HeterogeneousAggregateBatch

np = HOST.xp  # constructor inputs and legacy payloads are host-side

#: Engine tag of the payloads this class wrote before it wrapped the
#: heterogeneous engine; new snapshots carry the hetero layout and tag.
_LEGACY = "BatchedAggregateSimulation"


class BatchedAggregateSimulation(HeterogeneousAggregateBatch):
    """Count-based simulator of R replications of Diversification.

    Args:
        weights: Colour weight table shared by all replications.
        dark_counts: Initial ``A_i`` per colour — either shape ``(k,)``
            (broadcast to every replication) or ``(R, k)``.
        light_counts: Initial ``a_i`` per colour, same accepted shapes
            (defaults to all zero — the paper's all-dark start).
        replications: Number of independent replications R.  Required
            when the count vectors are one-dimensional; otherwise it
            must match their leading dimension.
        rng: Seed or generator.  Each replication draws from its own
            PCG64 substream seeded off this base generator
            (:class:`~repro.engine.streams.RowStreams`), which is what
            makes runs split-invariant and checkpointable.
        lighten_probabilities: Optional per-colour override of the
            ``1/w_i`` lightening coin.
    """

    def __init__(
        self,
        weights: WeightTable,
        dark_counts,
        light_counts=None,
        *,
        replications: int | None = None,
        rng: int | Generator | None = None,
        lighten_probabilities: Sequence[float] | None = None,
        backend: str | Backend | None = None,
    ):
        k = weights.k
        dark = _as_matrix(dark_counts, replications, k, "dark_counts")
        replications = dark.shape[0]
        if light_counts is None:
            light = np.zeros_like(dark)
        else:
            light = _as_matrix(light_counts, replications, k, "light_counts")
        totals = dark.sum(axis=1) + light.sum(axis=1)
        if not (totals == totals[0]).all():
            raise ValueError(
                "all replications must share the same population size"
            )
        lighten = np.asarray(
            resolve_lighten_probabilities(weights, lighten_probabilities),
            dtype=FLOAT64,
        )
        super().__init__(
            [weights] * replications,
            dark,
            light,
            rng=rng,
            lighten_rows=np.tile(lighten, (replications, 1)),
            backend=backend,
        )
        self.weights = weights

    @property
    def n(self) -> int:
        """Number of agents (identical across replications)."""
        return int(self._n[0])

    @property
    def k(self) -> int:
        """Number of colours."""
        return self.weights.k

    @property
    def replications(self) -> int:
        """Number of replications R."""
        return self.rows

    @property
    def time(self) -> int:
        """Common time-step of all replications."""
        return int(self._times.max())

    def run(self, steps: int) -> "BatchedAggregateSimulation":
        """Advance every replication exactly ``steps`` time-steps using
        per-replication event jumps (:meth:`run_to`)."""
        return super().run(_common(steps))

    def run_per_step(self, steps: int) -> "BatchedAggregateSimulation":
        """Advance ``steps`` time-steps in faithful per-step mode."""
        return super().run_per_step(_common(steps))

    def add_colour(self, weight: float, count: int, dark: bool = True) -> int:
        """Introduce a brand-new colour with ``count`` supporters in
        every replication, widening the count matrix and the shared
        weight table.

        Sustainability requires new colours to arrive dark (Sec 1.2).
        """
        if count < 0:  # validate before the shared table widens
            raise ValueError("count must be non-negative")
        colour = self.weights.add_colour(weight)
        super().add_colour(weight, count, dark=dark)
        return colour

    def restore(self, data: dict) -> "BatchedAggregateSimulation":
        """Restore a :meth:`snapshot` payload in place, re-growing the
        shared weight table after ``add_colour`` interventions.

        Also accepts the older ``BatchedAggregateSimulation`` layout
        (1-D ``weights`` and ``lighten``, scalar ``n``).
        """
        if isinstance(data, dict) and data.get("engine") == _LEGACY:
            data = _hetero_layout(ckpt.check(data, _LEGACY))
        ckpt.check(data, "HeterogeneousAggregateBatch")
        weights = ckpt.as_array(data["weights"], FLOAT64)
        if weights.ndim != 2 or not (weights == weights[:1]).all():
            raise ValueError("checkpoint rows do not share one weight table")
        ckpt.restore_weight_table(self.weights, weights[0])
        return super().restore(data)


def _as_matrix(counts, replications: int | None, k: int, name: str):
    """``(k,)`` counts tiled to ``replications`` rows, or validated
    ``(R, k)`` counts."""
    counts = np.asarray(counts, dtype=INT64)
    if counts.ndim == 1:
        if counts.shape[0] != k:
            raise ValueError(f"{name} must match the weight table (k={k})")
        if replications is None:
            raise ValueError(f"replications is required when {name} is 1-D")
        if replications < 1:
            raise ValueError("need at least one replication")
        return np.tile(counts, (replications, 1))
    if counts.ndim != 2 or counts.shape[1] != k:
        raise ValueError(f"{name} must have shape (k,) or (R, k) with k={k}")
    if replications is not None and counts.shape[0] != replications:
        raise ValueError(
            f"{name} has {counts.shape[0]} rows but "
            f"replications={replications}"
        )
    return counts


def _common(steps):
    """One step count for every replication (the common-clock contract)."""
    if getattr(steps, "ndim", 0):
        raise ValueError("steps must be a scalar: replications share a clock")
    return steps


def _hetero_layout(data: dict) -> dict:
    """An older batched payload re-laid out as R identical hetero rows."""
    rows, k = len(data["dark"]), len(data["weights"])
    weights, lighten = (
        np.tile(ckpt.as_array(data[key], FLOAT64), (rows, 1))
        for key in ("weights", "lighten")
    )
    return {
        **data,
        "engine": "HeterogeneousAggregateBatch",
        "weights": weights,
        "lighten": lighten,
        "ks": np.full(rows, k, dtype=INT64),
        "n": np.full(rows, ckpt.as_int(data["n"]), dtype=INT64),
    }
