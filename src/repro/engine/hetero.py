"""Batched aggregate engine: B rows of Diversification, each with its
own weight table, population size and horizon, in one event loop.

The count state is one ``(B, 2 k_max)`` matrix: dark counts ``A`` in
the left block, light counts ``a`` in the right, each row's weights and
lightening coins zero-padded to ``k_max`` columns.  ``B = cells x
replications`` rows of a whole sweep thus pay the Python interpreter
once instead of once per cell.  R replications of one configuration
are R identical rows:
:class:`~repro.engine.batched.BatchedAggregateSimulation` is a thin
constructor over this engine.

Both modes of the scalar
:class:`~repro.engine.aggregate.AggregateSimulation` are supported and
exact in distribution (KS-tested in
``tests/integration/test_batched_equivalence.py`` and
``tests/integration/test_fused_equivalence.py``): faithful per-step
updates (:func:`apply_step_rows`) and per-row geometric event jumps
(:func:`advance_event_driven`).  In the event loop, rows whose next
jump overshoots their target, or whose active rate has vanished, coast
to the target and drop out of the update masks; one iteration costs
O(B k_max) NumPy work but advances every live row by a full event.

Padding is safe by construction.  The padding columns ``k_r..k_max-1``
of a row hold zero mass, zero weight and zero lightening probability,
and the row-wise categorical draws (:func:`_pick_rows`) clamp their
thresholds strictly below the row totals, so a zero-mass class is
never selected; ``tests/property/test_hetero_invariants.py`` checks
that runs and row-targeted interventions never leak mass into padding.

Split invariance.  Every row owns an independent PCG64 substream
(:class:`~repro.engine.streams.RowStreams`), and an arrival drawn past
a row's target is carried in a per-row ``_pending`` slot instead of
being discarded, so splitting any row's horizon — including *per-row*
splits through :meth:`HeterogeneousAggregateBatch.run_to` — reproduces
the uninterrupted trajectory bit-for-bit.  This backs the
``snapshot()``/``restore()`` checkpoint contract; interventions change
the event rates and therefore drop the pending arrivals of the rows
they touch.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.weights import MIN_WEIGHT, WeightTable
from . import checkpoint as ckpt
from .backend import (
    BOOL,
    FLOAT64,
    HOST,
    INT64,
    Backend,
    Generator,
    require_engine_loops,
    resolve_backend,
)
from .rng import make_rng
from .streams import RowStreams, geometric_from_uniform


class HeterogeneousAggregateBatch:
    """Count-based simulator of B heterogeneous Diversification rows.

    Args:
        weight_rows: One weight table per row — each entry a
            :class:`~repro.core.weights.WeightTable` or a plain weight
            sequence.  Rows may have different numbers of colours.
        dark_counts: Initial ``A_i`` per row — a ragged sequence whose
            row ``r`` has length ``k_r``, or an already padded
            ``(B, k_max)`` matrix (padding columns must be zero).
        light_counts: Initial ``a_i`` per row, same accepted shapes
            (defaults to all zero — the paper's all-dark start).
        rng: Seed or generator.  Each row draws from its own PCG64
            substream seeded off this base generator
            (:class:`~repro.engine.streams.RowStreams`), which is what
            makes runs split-invariant and checkpointable.
        lighten_rows: Optional per-row override of the ``1/w_i``
            lightening coins, same accepted shapes as the counts.
    """

    def __init__(
        self,
        weight_rows: Sequence,
        dark_counts,
        light_counts=None,
        *,
        rng: int | Generator | None = None,
        lighten_rows=None,
        backend: str | Backend | None = None,
    ):
        self._backend = require_engine_loops(
            resolve_backend(backend), type(self).__name__
        )
        xp = self._backend.xp
        tables = [
            row if isinstance(row, WeightTable) else WeightTable(row)
            for row in weight_rows
        ]
        if not tables:
            raise ValueError("need at least one row")
        rows = len(tables)
        self._ks = xp.asarray([table.k for table in tables], dtype=INT64)
        k_max = int(self._ks.max())
        self._weights = xp.zeros((rows, k_max), dtype=FLOAT64)
        for r, table in enumerate(tables):
            self._weights[r, : table.k] = table.as_array()
        if (self._weights[self._mass_columns()] < MIN_WEIGHT).any():
            raise ValueError(f"weights must be >= {MIN_WEIGHT}")
        dark = self._rows_to_padded(dark_counts, "dark_counts", INT64)
        if light_counts is None:
            light = xp.zeros(dark.shape, dtype=INT64)
        else:
            light = self._rows_to_padded(
                light_counts, "light_counts", INT64
            )
        if (dark < 0).any() or (light < 0).any():
            raise ValueError("counts must be non-negative")
        self._n = dark.sum(axis=1) + light.sum(axis=1)
        if (self._n < 2).any():
            raise ValueError("every row needs at least two agents")
        # One contiguous (B, 2 k_max) state matrix; dark and light are
        # views on the left and right blocks.
        # repro-lint: disable=RL301 -- serialised via its _dark/_light views; restore() rebuilds it
        self._state = xp.concatenate([dark, light], axis=1)
        self._dark = self._state[:, :k_max]
        self._light = self._state[:, k_max:]
        if lighten_rows is None:
            self._lighten = xp.zeros((rows, k_max), dtype=FLOAT64)
            mass = self._mass_columns()
            self._lighten[mass] = 1.0 / self._weights[mass]
        else:
            self._lighten = self._rows_to_padded(
                lighten_rows, "lighten_rows", FLOAT64
            )
            if (self._lighten < 0.0).any() or (self._lighten > 1.0).any():
                raise ValueError("lighten probabilities must be in [0, 1]")
        self.rng = make_rng(rng)
        self._times = xp.zeros(rows, dtype=INT64)
        # repro-lint: disable=RL301 -- derived from the serialised _n; restore() recomputes it
        self._denom = (
            self._n.astype(FLOAT64) * (self._n - 1).astype(FLOAT64)
        )
        # Per-row substreams and pending arrivals: see the module
        # docstring's split-invariance paragraph.
        self._streams = RowStreams.from_generator(self.rng, rows)
        self._pending = xp.full(rows, -1, dtype=INT64)
        # repro-lint: disable=RL3 -- observer callbacks, re-registered by the owner after restore()
        self._taps: list = []

    def _mass_columns(self):
        """Boolean ``(B, k_max)`` mask of the non-padding columns."""
        xp = self._backend.xp
        return xp.arange(self.k_max)[None, :] < self._ks[:, None]

    def _rows_to_padded(self, values, name: str, dtype):
        """Zero-pad ragged per-row vectors to ``(B, k_max)``; validate a
        pre-padded matrix instead when one is passed."""
        xp = self._backend.xp
        rows, k_max = self._ks.shape[0], self.k_max
        if getattr(values, "ndim", None) == 2:
            values = xp.asarray(values)
            if values.shape != (rows, k_max):
                raise ValueError(
                    f"padded {name} must have shape ({rows}, {k_max}), "
                    f"got {values.shape}"
                )
            out = values.astype(dtype, copy=True)
            if out[~self._mass_columns()].any():
                raise ValueError(
                    f"{name} carries mass in padding columns"
                )
            return out
        if len(values) != rows:
            raise ValueError(
                f"{name} has {len(values)} rows but the batch has {rows}"
            )
        out = xp.zeros((rows, k_max), dtype=dtype)
        for r, row in enumerate(values):
            row = xp.asarray(row, dtype=dtype)
            if row.ndim != 1 or row.shape[0] != self._ks[r]:
                raise ValueError(
                    f"{name} row {r} must have length k_r={self._ks[r]}, "
                    f"got shape {row.shape}"
                )
            out[r, : row.shape[0]] = row
        return out

    def _per_row(self, steps, name: str = "steps"):
        """Broadcast a scalar or per-row step count to ``(B,)``."""
        xp = self._backend.xp
        steps = xp.asarray(steps, dtype=INT64)
        if steps.ndim == 0:
            steps = xp.full(self.rows, int(steps), dtype=INT64)
        if steps.shape != (self.rows,):
            raise ValueError(
                f"{name} must be a scalar or have shape ({self.rows},)"
            )
        if (steps < 0).any():
            raise ValueError(f"{name} must be non-negative")
        return steps

    def _resolve_rows(self, rows):
        """Row selection for interventions: None (all rows), a boolean
        mask, or an index array."""
        xp = self._backend.xp
        if rows is None:
            return xp.arange(self.rows)
        rows = xp.asarray(rows)
        if rows.dtype == BOOL:
            if rows.shape != (self.rows,):
                raise ValueError(
                    f"boolean row mask must have shape ({self.rows},)"
                )
            return xp.flatnonzero(rows)
        rows = rows.astype(INT64).reshape(-1)
        if rows.size and (rows.min() < 0 or rows.max() >= self.rows):
            raise ValueError("row indices out of range")
        return rows

    # ------------------------------------------------------------------
    # Introspection

    @property
    def rows(self) -> int:
        """Number of fused rows B."""
        return self._state.shape[0]

    @property
    def k_max(self) -> int:
        """Width of the padded colour axis."""
        return self._weights.shape[1]

    @property
    def backend(self) -> Backend:
        """The array backend this engine computes on."""
        return self._backend

    def ks(self):
        """Per-row colour counts ``k_r``, shape ``(B,)``."""
        return self._ks.copy()

    def populations(self):
        """Per-row population sizes ``n_r``, shape ``(B,)``."""
        return self._n.copy()

    def times(self):
        """Per-row clocks, shape ``(B,)``."""
        return self._times.copy()

    def weights_matrix(self):
        """Padded per-row weights, shape ``(B, k_max)`` (padding 0)."""
        return self._weights.copy()

    def lighten_matrix(self):
        """Padded per-row lightening coins, ``(B, k_max)`` (padding 0)."""
        return self._lighten.copy()

    def dark_counts(self):
        """``A_i`` per row and colour, ``(B, k_max)`` zero-padded."""
        return self._dark.copy()

    def light_counts(self):
        """``a_i`` per row and colour, ``(B, k_max)`` zero-padded."""
        return self._light.copy()

    def colour_counts(self):
        """``C_i = A_i + a_i`` per row and colour, ``(B, k_max)``."""
        return self._dark + self._light

    # ------------------------------------------------------------------
    # Per-step mode (used by the equivalence tests)

    def step(self):
        """One faithful time-step in every row; returns the changed mask."""
        changed = self._step_rows(self._backend.xp.arange(self.rows))
        self._times += 1
        return changed

    def run_per_step(self, steps) -> "HeterogeneousAggregateBatch":
        """Advance each row by its own ``steps`` (scalar or ``(B,)``)
        in faithful per-step mode; rows past their horizon sit out."""
        horizon = self._times + self._per_row(steps)
        xp = self._backend.xp
        while True:
            act = xp.flatnonzero(self._times < horizon)
            if act.size == 0:
                return self
            self._step_rows(act)
            self._times[act] += 1

    def _step_rows(self, act):
        """One faithful step for the rows in ``act`` (returns per-``act``
        changed mask) through :func:`apply_step_rows`."""
        self._pending[act] = -1  # per-step mode re-examines every step
        bk = self._backend
        uniforms = bk.from_host(self._streams.take(bk.to_numpy(act), 3)).T
        return apply_step_rows(
            self._state, self._lighten, act, uniforms, bk.xp
        )

    # ------------------------------------------------------------------
    # Event-driven mode

    def run(self, steps) -> "HeterogeneousAggregateBatch":
        """Advance each row by its own ``steps`` (scalar or ``(B,)``)
        using per-row event jumps."""
        return self.run_to(self._times + self._per_row(steps))

    def run_to(self, targets) -> "HeterogeneousAggregateBatch":
        """Advance every row to its own absolute target time.

        Runs :func:`advance_event_driven` — a fused event-type/colour
        categorical draw over ``2 k_max`` masses, a three-block
        cumulative sum and branch-free ±1 updates, with per-row lighten
        tables, ``n_r (n_r - 1)`` jump denominators and horizons, so
        rows retire independently (absorbed, jumped past their target,
        or arrived) while the rest keep advancing.
        """
        targets = self._per_row(targets, "targets")
        if (targets < self._times).any():
            raise ValueError("targets must not precede the row clocks")
        advance_event_driven(
            self._times,
            targets,
            self._dark,
            self._light,
            self._lighten,
            self._denom,
            self._streams,
            self._pending,
            self.k_max,
            self._backend,
            tap=self._tap_update if self._taps else None,
        )
        self._sync_taps()
        return self

    # ------------------------------------------------------------------
    # Adversary support (row-targeted, between ``run`` calls)

    def add_agents(
        self, colour: int, count: int, dark: bool = True, rows=None
    ) -> None:
        """Inject ``count`` fresh agents of an existing colour into the
        selected rows (all rows by default)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        sel = self._resolve_rows(rows)
        # An empty selection still validates against k_max, so a wrong
        # colour id in a row-targeted schedule fails loudly instead of
        # no-opping on sweeps where no row matches the mask.
        limit = int(self._ks[sel].min()) if sel.size else self.k_max
        if not 0 <= colour < limit:
            raise ValueError(
                f"colour {colour} is not present in every selected row"
            )
        if sel.size == 0:
            return
        block = self._dark if dark else self._light
        block[sel, colour] += count
        self._n[sel] += count
        self._denom[sel] = self._n[sel].astype(FLOAT64) * (
            self._n[sel] - 1
        )
        self._pending[sel] = -1  # rates changed: redraw those arrivals

    def add_colour(
        self, weight: float, count: int, dark: bool = True, rows=None
    ):
        """Introduce a brand-new colour with ``count`` supporters in the
        selected rows, widening the padded matrices when a selected row
        is already at ``k_max``.

        Rows have *different* colour counts, so the new colour lands at
        each row's own next free column ``k_r`` (returned per selected
        row); unselected rows keep zero mass and zero weight there.
        """
        if count < 0:  # validate before any widening takes effect
            raise ValueError("count must be non-negative")
        if weight < MIN_WEIGHT:
            raise ValueError(f"weights must be >= {MIN_WEIGHT}")
        sel = self._resolve_rows(rows)
        if sel.size == 0:
            return self._backend.xp.zeros(0, dtype=INT64)
        if (self._ks[sel] == self.k_max).any():
            self._widen()
        cols = self._ks[sel].copy()
        self._weights[sel, cols] = weight
        self._lighten[sel, cols] = 1.0 / weight
        block = self._dark if dark else self._light
        block[sel, cols] += count
        self._ks[sel] += 1
        self._n[sel] += count
        self._denom[sel] = self._n[sel].astype(FLOAT64) * (
            self._n[sel] - 1
        )
        self._pending[sel] = -1  # rates changed: redraw those arrivals
        return cols

    def recolour(self, source: int, target: int, rows=None) -> None:
        """Repaint all agents of ``source`` as ``target`` (shades kept)
        in the selected rows."""
        sel = self._resolve_rows(rows)
        limit = int(self._ks[sel].min()) if sel.size else self.k_max
        if not (0 <= source < limit and 0 <= target < limit):
            raise ValueError(
                "source and target must be existing colours in every "
                "selected row"
            )
        if sel.size == 0 or source == target:
            return
        self._dark[sel, target] += self._dark[sel, source]
        self._light[sel, target] += self._light[sel, source]
        self._dark[sel, source] = 0
        self._light[sel, source] = 0
        self._pending[sel] = -1  # rates changed: redraw those arrivals

    def _widen(self) -> None:
        """Grow the padded colour axis by one column (dark and light
        blocks are re-laid out; padding stays zero)."""
        xp = self._backend.xp
        k = self.k_max
        rows = self.rows
        state = xp.zeros((rows, 2 * (k + 1)), dtype=INT64)
        state[:, :k] = self._dark
        state[:, k + 1 : 2 * k + 1] = self._light
        self._state = state
        self._dark = state[:, : k + 1]
        self._light = state[:, k + 1 :]
        pad = xp.zeros((rows, 1), dtype=FLOAT64)
        self._weights = xp.concatenate([self._weights, pad], axis=1)
        self._lighten = xp.concatenate([self._lighten, pad.copy()], axis=1)

    # ------------------------------------------------------------------
    # Streaming analysis taps

    def attach_stream(self, accumulator, *, reset: bool = True) -> None:
        """Feed a streaming accumulator from inside the event loop.

        The accumulator is reset to the current padded ``(B, k_max)``
        configuration and then updated after every applied event (per
        affected rows) and synchronised at each horizon; padding columns
        carry zero mass, so they contribute nothing to any potential.
        Pass ``reset=False`` to re-attach an accumulator restored via
        ``load_state`` alongside an engine ``restore()`` — continuing
        the original accumulation bit-identically.
        """
        if reset:
            accumulator.reset(
                self._times.copy(),
                self._dark.astype(FLOAT64),
                self._light.astype(FLOAT64),
            )
        self._taps.append(accumulator)

    def detach_streams(self) -> None:
        """Drop all attached streaming accumulators."""
        self._taps.clear()

    def _tap_update(self, rows) -> None:
        times = self._times[rows]
        dark = self._dark[rows].astype(FLOAT64)
        light = self._light[rows].astype(FLOAT64)
        for tap in self._taps:
            tap.update(rows, times, dark, light)

    def _sync_taps(self) -> None:
        if not self._taps:
            return
        times = self._times.copy()
        for tap in self._taps:
            tap.sync(times)

    # ------------------------------------------------------------------
    # Checkpointing

    def snapshot(self) -> dict:
        """``repro-ckpt/v1`` payload of all run-relevant state."""
        bk = self._backend
        return ckpt.payload(
            "HeterogeneousAggregateBatch",
            weights=bk.to_numpy(self._weights, copy=True),
            ks=bk.to_numpy(self._ks, copy=True),
            dark=bk.to_numpy(self._dark, copy=True),
            light=bk.to_numpy(self._light, copy=True),
            lighten=bk.to_numpy(self._lighten, copy=True),
            times=bk.to_numpy(self._times, copy=True),
            pending=bk.to_numpy(self._pending, copy=True),
            n=bk.to_numpy(self._n, copy=True),
            streams=self._streams.snapshot(),
            rng=ckpt.rng_state(self.rng),
        )

    def restore(self, data: dict) -> "HeterogeneousAggregateBatch":
        """Restore a :meth:`snapshot` payload in place.

        Handles checkpoints taken after ``add_colour`` interventions:
        the padded matrices are re-widened to the snapshot's ``k_max``.
        """
        ckpt.check(data, "HeterogeneousAggregateBatch")
        bk = self._backend
        weights = ckpt.as_array(data["weights"], FLOAT64)
        ks = ckpt.as_array(data["ks"], INT64)
        dark = ckpt.as_array(data["dark"], INT64)
        light = ckpt.as_array(data["light"], INT64)
        lighten = ckpt.as_array(data["lighten"], FLOAT64)
        rows = self.rows
        if ks.shape != (rows,) or weights.shape[0] != rows:
            raise ValueError(
                f"checkpoint has {ks.shape[0]} rows but the engine "
                f"has {rows}"
            )
        k_max = weights.shape[1]
        if k_max < self.k_max:
            raise ValueError(
                f"checkpoint k_max {k_max} is narrower than the "
                f"engine's {self.k_max}"
            )
        shapes = {dark.shape, light.shape, lighten.shape}
        if shapes != {(rows, k_max)}:
            raise ValueError(
                f"checkpoint matrices disagree on shape: {shapes}"
            )
        self._weights = bk.from_host(weights)
        self._ks = bk.from_host(ks)
        self._state = bk.from_host(HOST.xp.concatenate([dark, light], axis=1))
        self._dark = self._state[:, :k_max]
        self._light = self._state[:, k_max:]
        self._lighten = bk.from_host(lighten)
        self._times = bk.from_host(ckpt.as_array(data["times"], INT64))
        self._pending = bk.from_host(ckpt.as_array(data["pending"], INT64))
        self._n = bk.from_host(ckpt.as_array(data["n"], INT64))
        self._denom = self._n.astype(FLOAT64) * (
            self._n - 1
        ).astype(FLOAT64)
        self._streams.restore(data["streams"])
        ckpt.set_rng_state(self.rng, data["rng"])
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(B={self.rows}, "
            f"k_max={self.k_max}, "
            f"n=[{int(self._n.min())}..{int(self._n.max())}], "
            f"t=[{int(self._times.min())}..{int(self._times.max())}])"
        )


def apply_step_rows(state, lighten, rows, uniforms, xp):
    """Per-step transition: one faithful time-step for the ``rows`` of
    a ``(B, 2k)`` state matrix (dark block, then light block), mutating
    it in place.

    The scheduled agent's class and its sampled partner's class are
    drawn by vectorised categorical sampling over the ``2k`` (dark,
    light) classes — class ``c < k`` is dark colour ``c``, class
    ``c >= k`` light colour ``c - k`` — with the scheduled agent
    excluded from the partner draw, then the adopt/lighten rules apply
    through boolean masks.  ``uniforms`` holds the step's three
    ``(len(rows),)`` draws; ``lighten`` is the ``(B, k)`` per-row table.
    Returns the per-``rows`` changed mask.  ``xp`` selects the
    (NumPy-compatible) namespace.
    """
    k = state.shape[1] // 2
    dark, light = state[:, :k], state[:, k:]
    # Fancy indexing yields a fresh copy, safe to mutate below.
    masses = state[rows]
    sub = xp.arange(rows.size)
    u_cls = _pick_rows(masses, uniforms[0], xp)
    # Exclude u from its own class before the partner draw.
    masses[sub, u_cls] -= 1
    v_cls = _pick_rows(masses, uniforms[1], xp)
    coin = uniforms[2]
    u_dark = u_cls < k
    v_dark = v_cls < k
    u_col = xp.where(u_dark, u_cls, u_cls - k)
    v_col = xp.where(v_dark, v_cls, v_cls - k)
    adopt = ~u_dark & v_dark
    lightened = (
        u_dark & v_dark & (u_col == v_col) & (coin < lighten[rows, u_col])
    )
    a_sel = xp.flatnonzero(adopt)
    light[rows[a_sel], u_col[a_sel]] -= 1
    dark[rows[a_sel], v_col[a_sel]] += 1
    l_sel = xp.flatnonzero(lightened)
    dark[rows[l_sel], u_col[l_sel]] -= 1
    light[rows[l_sel], u_col[l_sel]] += 1
    return adopt | lightened


def advance_event_driven(
    times,
    horizon,
    dark,
    light,
    lighten,
    denom,
    streams: RowStreams,
    pending,
    k: int,
    backend: Backend,
    tap=None,
) -> None:
    """Event-driven core: advance each row to its own ``horizon[r]``
    with per-row geometric event jumps, mutating ``times``, ``dark``,
    ``light`` and ``pending`` in place.

    ``lighten`` is the ``(B, k)`` per-row table of lightening coins;
    ``denom`` holds each row's ``n_r (n_r - 1)`` jump denominator.
    Every row draws from its *own* substream in ``streams`` — one
    uniform for each arrival gap, two more only when the arrival is
    accepted — and an arrival past the horizon is kept in
    ``pending[r]`` (absolute step; -1 = none) for the next call, which
    makes any split of the horizon bit-identical to one call.

    ``tap(rows)`` — if given — is called after each batch of applied
    events with the absolute indices of the rows that just changed
    (their clocks already advanced), letting engines feed streaming
    accumulators from inside the loop.

    ``backend`` supplies the array namespace the loop computes in and
    the host converters for the stream boundary (``streams`` draws on
    the CPU on every backend).
    """
    xp = backend.xp
    total_dark = dark.sum(axis=1)
    terms = (dark * (dark - 1)).astype(FLOAT64) * lighten
    # Index array of rows still short of the horizon; rows retire when
    # they are absorbed or their next jump overshoots.
    act = xp.flatnonzero(times < horizon)
    while act.size:
        # Row-wise cumulative masses over 3k classes: the first 2k
        # (adopt per light colour, scaled by the dark total, then the
        # lighten terms) form the active-event distribution — their
        # running total at column 2k-1 *is* the event rate — and the
        # last k hold the dark counts for the partner pick.
        td = total_dark[act]
        cum = xp.cumsum(
            xp.concatenate(
                [light[act] * td[:, None], terms[act], dark[act]],
                axis=1,
            ),
            axis=1,
        )
        rate = cum[:, 2 * k - 1]
        # Rows with no active events left (single colour, all dark,
        # w = 1 edge cases) coast to the horizon.  An absorbed row can
        # hold no pending arrival: rates only change through events and
        # interventions, and interventions clear ``pending``.
        alive = rate > 0.0
        if not alive.all():
            dead = act[~alive]
            times[dead] = horizon[dead]
            act, cum, rate = act[alive], cum[alive], rate[alive]
            td = td[alive]
            if act.size == 0:
                break
        # Rows without a carried-over arrival draw a fresh gap from
        # their own substream; held rows reuse their stored arrival
        # without consuming any draws.
        fresh = pending[act] < 0
        if fresh.any():
            rows_f = act[fresh]
            u_gap = backend.from_host(
                streams.take(backend.to_numpy(rows_f), 1)
            )[:, 0]
            p = xp.minimum(rate[fresh] / denom[rows_f], 1.0)
            pending[rows_f] = times[rows_f] + geometric_from_uniform(
                u_gap, p, xp=xp
            )
        arrival = pending[act]
        # A jump past the horizon means the remaining steps are no-ops:
        # stop that row at the horizon and keep the arrival pending for
        # the next call (memorylessness makes keeping and redrawing
        # equal in distribution; keeping is also split-invariant
        # bit-for-bit).  The event uniforms are only drawn on
        # consumption, so nothing else is buffered.
        over = arrival > horizon[act]
        if over.any():
            done = act[over]
            times[done] = horizon[done]
            keep = ~over
            act, cum, td, arrival = (
                act[keep], cum[keep], td[keep], arrival[keep]
            )
            if act.size == 0:
                break
        times[act] = arrival
        pending[act] = -1
        # One active event per remaining row; two uniforms per row
        # (fused type/colour pick, then the dark-partner pick, which
        # lighten events simply discard).
        u = backend.from_host(streams.take(backend.to_numpy(act), 2)).T
        event_pick = _below(u[0] * cum[:, 2 * k - 1], cum[:, 2 * k - 1], xp)
        cls = xp.argmax(cum[:, : 2 * k] > event_pick[:, None], axis=1)
        adopt = cls < k
        # Adopt moves light i -> dark j; lighten moves dark i ->
        # light i — one ±1 delta pair per event.  The partner pick
        # thresholds inside the third block of the shared cumsum.
        light_col = xp.where(adopt, cls, cls - k)
        partner_pick = _below(
            cum[:, 2 * k - 1] + u[1] * td, cum[:, 3 * k - 1], xp
        )
        j = xp.argmax(cum[:, 2 * k:] > partner_pick[:, None], axis=1)
        dark_col = xp.where(adopt, j, light_col)
        delta = xp.where(adopt, -1, 1)
        light[act, light_col] += delta
        dark[act, dark_col] -= delta
        total_dark[act] -= delta
        d = dark[act, dark_col].astype(FLOAT64)
        terms[act, dark_col] = d * (d - 1.0) * lighten[act, dark_col]
        if tap is not None:
            tap(act)
        finished = arrival >= horizon[act]
        if finished.any():
            act = act[~finished]


def _pick_rows(masses, uniforms, xp):
    """Row-wise weighted index: for each row r, the first index whose
    cumulative mass exceeds ``uniforms[r]`` times the row total.

    The threshold is clamped strictly below the row total (``uniform *
    total`` can round up to the total when the uniform is within an ulp
    of 1), so the selected index always carries positive mass: the
    cumulative sum is flat over zero-mass entries, making the first
    strict exceedance a positive increment.  This is the vectorised
    counterpart of the scalar engine's last-non-empty fallback.  Rows
    must have positive total mass.
    """
    cum = xp.cumsum(masses, axis=1, dtype=FLOAT64)
    picks = _below(uniforms * cum[:, -1], cum[:, -1], xp)
    return xp.argmax(cum > picks[:, None], axis=1)


def _below(picks, totals, xp):
    """Clamp thresholds strictly below their row totals."""
    return xp.minimum(picks, xp.nextafter(totals, -xp.inf))
