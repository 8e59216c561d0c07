"""Finite-state switching chains.

Two chains drive the hybrid system: a continuous-time chain (the regime
process, sampled with exact exponential holding times) and a discrete-time
mark chain stepped once per impulse.  Regimes and marks are 1-based integer
values ``1..n``; arrays are indexed with ``value - 1``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

_ROW_SUM_TOL = 1e-12
# bytes of work arrays a multi-step mark draw holds at once, about
_DRAW_BYTES = 2 ** 20


class NonSquare(ValueError):
    """Matrix is not square."""


class NegativeOffDiagonal(ValueError):
    """Generator has a negative off-diagonal rate."""


class RowSumNonZero(ValueError):
    """Generator row does not sum to zero."""


class RowNotStochastic(ValueError):
    """Transition matrix row is not a probability vector."""


class IndexOutOfRange(ValueError):
    """State index outside ``1..n_states``."""


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated rate matrix of a continuous-time chain.

    Off-diagonal entries are transition rates (1/time), rows sum to zero,
    diagonal entries are non-positive.  Use :func:`validate_generator` to
    construct one from a raw matrix.
    """

    q: np.ndarray

    @property
    def n_states(self) -> int:
        return self.q.shape[0]

    def exit_rate(self, state: int) -> float:
        """Total rate of leaving ``state`` (zero for absorbing states)."""
        self._check_state(state)
        return float(-self.q[state - 1, state - 1])

    def jump_probs(self, state: int) -> np.ndarray:
        """Embedded-chain probabilities out of ``state``.

        Row of ``-q_ij / q_ii`` over destinations ``j != state``; all zeros
        for an absorbing state.
        """
        self._check_state(state)
        i = state - 1
        rate = -self.q[i, i]
        probs = np.zeros(self.n_states)
        if rate > 0.0:
            probs = self.q[i].copy() / rate
            probs[i] = 0.0
        return probs

    def normalized_jump_matrix(self) -> np.ndarray:
        """Matrix of embedded jump probabilities, rows for absorbing states zero."""
        return np.vstack([self.jump_probs(i + 1) for i in range(self.n_states)])

    def _sampling_tables(self) -> tuple:
        """Exit rates and embedded-chain inverse-CDF tables per state, cached."""
        tables = self.__dict__.get("_tables")
        if tables is None:
            states = range(1, self.n_states + 1)
            tables = ([self.exit_rate(s) for s in states],
                      [_cdf_table(self.jump_probs(s)) for s in states])
            object.__setattr__(self, "_tables", tables)
        return tables

    def _check_state(self, state: int) -> None:
        if not 1 <= state <= self.n_states:
            raise IndexOutOfRange(f"state {state} outside 1..{self.n_states}")


def validate_generator(q) -> GeneratorMatrix:
    """Validate a raw rate matrix and wrap it.

    Raises :class:`NonSquare`, :class:`NegativeOffDiagonal` or
    :class:`RowSumNonZero` when the matrix is not a generator.
    """
    arr = np.asarray(q, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NonSquare(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    # a NaN fails every comparison, so the checks are written to pass only
    # on good entries
    off = arr[~np.eye(n, dtype=bool)]
    if not (np.isfinite(off) & (off >= 0.0)).all():
        raise NegativeOffDiagonal("off-diagonal rates must be finite and >= 0")
    sums = arr.sum(axis=1)
    bad = ~(np.abs(sums) <= _ROW_SUM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise RowSumNonZero(f"row {i} sums to {sums[i]:.3e}, expected 0")
    return GeneratorMatrix(q=arr.copy())


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix for the mark chain.

    ``per_step`` optionally holds one matrix per impulse index ``k`` (1-based);
    steps beyond the list fall back to the base matrix ``p``.
    """

    p: np.ndarray
    per_step: tuple = field(default=())

    @property
    def n_states(self) -> int:
        return self.p.shape[0]

    def matrix_at(self, k: int) -> np.ndarray:
        if self.per_step and 1 <= k <= len(self.per_step):
            return self.per_step[k - 1]
        return self.p

    def _cdf_tables(self, k: int) -> list:
        """One :func:`_cdf_table` per row of the step-``k`` matrix, cached."""
        key = k if self.per_step and 1 <= k <= len(self.per_step) else 0
        cache = self.__dict__.setdefault("_cdf_cache", {})
        tables = cache.get(key)
        if tables is None:
            tables = cache[key] = [_cdf_table(row) for row in self.matrix_at(k)]
        return tables

    def _array_tables(self) -> tuple:
        """The same tables as arrays, stacked over the base matrix then each
        per-step one, cached: the rows' cumulative sums, and the mark index
        that each count of sums at or below a uniform draws, which is the
        row's last nonzero index where that count is a zero-probability
        entry or past the row's end."""
        tables = self.__dict__.get("_arrays")
        if tables is None:
            steps = [self._cdf_tables(k) for k in range(len(self.per_step) + 1)]
            cum, probs, last = (np.array([[row[f] for row in step] for step in steps])
                                for f in range(3))
            draw = np.where(probs != 0.0, np.arange(self.n_states), last[..., None])
            tables = (cum, np.concatenate((draw, last[..., None]), axis=2))
            object.__setattr__(self, "_arrays", tables)
        return tables


def validate_transition_matrix(p, per_step=None) -> TransitionMatrix:
    """Validate one (or a per-step sequence of) row-stochastic matrices."""
    base = _check_stochastic(np.asarray(p, dtype=float))
    steps = ()
    if per_step:
        steps = tuple(_check_stochastic(np.asarray(m, dtype=float)) for m in per_step)
        if any(m.shape != base.shape for m in steps):
            raise NonSquare("per-step matrices must match the base shape")
    return TransitionMatrix(p=base, per_step=steps)


def _check_stochastic(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NonSquare(f"expected a square matrix, got shape {arr.shape}")
    # written to pass only on good entries, since a NaN fails every comparison
    if not ((arr >= 0.0) & (arr <= 1.0 + _ROW_SUM_TOL)).all():
        raise RowNotStochastic("entries must lie in [0, 1]")
    sums = arr.sum(axis=1)
    bad = ~(np.abs(sums - 1.0) <= _ROW_SUM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise RowNotStochastic(f"row {i} sums to {sums[i]:.12f}, expected 1")
    return arr.copy()


@dataclass(frozen=True)
class ChainPath:
    """Piecewise-constant right-continuous regime path on ``[start, end]``.

    ``switch_times`` holds the strictly increasing interior switch instants;
    ``states`` holds the regime value on each segment, ``states[0]`` before
    the first switch.  Consecutive states always differ.
    """

    start: float
    end: float
    switch_times: np.ndarray
    states: np.ndarray

    def state_at(self, t) -> np.ndarray | int:
        """Regime at time(s) ``t``: the state of the last switch <= ``t``."""
        idx = np.searchsorted(self.switch_times, np.asarray(t, dtype=float), side="right")
        out = self.states[idx]
        return out if out.ndim else int(out)


def _holding_time(gen: GeneratorMatrix, y: int, rng: np.random.Generator) -> float:
    """Time the chain stays in state ``y``: exponential with the exit rate of
    ``y``, drawn from ``rng``, or infinite, with nothing drawn, if ``y`` is
    absorbing."""
    rate = gen._sampling_tables()[0][y - 1]
    return rng.exponential(1.0 / rate) if rate > 0.0 else np.inf


def sample_ctmc(gen: GeneratorMatrix, y0: int, horizon: float, rng: np.random.Generator,
                first: float | None = None) -> ChainPath:
    """Sample a regime path on ``[0, horizon]`` with exact holding times.

    Holding time in state ``i`` is exponential with the exit rate of ``i``;
    the next state is drawn from the embedded jump probabilities.  Absorbing
    states simply hold to the horizon.  A path without a switch (an
    absorbing start, or a first holding time of at least ``horizon``) is
    returned straight after that first draw.  A caller that drew the first
    holding time from ``rng`` with :func:`_holding_time` passes it as
    ``first``, and the path continues from it; an absorbing start ignores it.
    """
    gen._check_state(y0)
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    rates, cdfs = gen._sampling_tables()
    t = _holding_time(gen, y0, rng) if first is None else first
    if rates[y0 - 1] <= 0.0 or t >= horizon:
        return ChainPath(start=0.0, end=horizon, switch_times=np.empty(0),
                         states=np.array([y0], dtype=np.int64))
    times = []
    states = [y0]
    y = y0
    while True:
        y = _draw_categorical(cdfs[y - 1], rng.random())
        times.append(t)
        states.append(y)
        t += _holding_time(gen, y, rng)
        if t >= horizon:
            break
    return ChainPath(
        start=0.0,
        end=horizon,
        switch_times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=np.int64),
    )


def sample_dtmc_step(tm: TransitionMatrix, h, k, rng):
    """Draw the next mark from row ``h`` of the step-``k`` matrix.

    ``h`` may also be an int array of P marks, with ``k`` an int array of J
    step indices and ``rng`` a ``(P, J)`` array of uniforms in ``[0, 1)``.
    Each mark then steps through the J matrices in turn, step ``j`` on its
    uniform ``rng[p, j]``, exactly as the scalar form steps on
    ``rng.random()``: ``bisect_right`` on the same cumulative sums, with
    :func:`_draw_categorical`'s zero-probability guard.  The marks after
    each step come back as an int64 array of the uniforms' shape; one step
    is the case J = 1, and a scalar ``k`` with P uniforms is that step.
    Marks out of range are refused before anything is drawn.
    """
    if isinstance(h, np.ndarray):
        if h.size and not (h.min() >= 1 and h.max() <= tm.n_states):
            raise IndexOutOfRange(f"marks outside 1..{tm.n_states}")
        cum, draw = tm._array_tables()
        ks = np.atleast_1d(k)
        steps = np.where((ks >= 1) & (ks <= len(tm.per_step)), ks, 0)
        u = rng.reshape(h.size, ks.size)
        out = np.empty((ks.size, h.size), dtype=np.int64)
        n = tm.n_states
        # marks are held as flat indices into a step's row of next marks,
        # where path p's n entries start at at[p]
        at = np.arange(0, h.size * n, n)
        cur = at + h - 1
        # steps run in spans whose work arrays, a few of n entries per path
        # and step, fit _DRAW_BYTES
        span = max(1, _DRAW_BYTES // (32 * n * h.size))
        for lo in range(0, ks.size, span):
            st, us = steps[lo : lo + span], u[:, lo : lo + span].T[..., None]
            # nxt[j, p, i]: the mark index step lo + j draws from index i on
            # uniform u[p, lo + j]; the count of sums <= u is bisect_right
            count = sum(cum[st, None, :, c] <= us for c in range(n))
            rows = np.arange(st.size * n).reshape(st.size, 1, n) * (n + 1)
            nxt = (draw[st].take(rows + count) + at[:, None]).reshape(st.size, -1)
            for j, row in enumerate(nxt, lo):
                cur = out[j] = row.take(cur)
        return (out - (at - 1)).T.reshape(np.shape(rng))
    if not 1 <= h <= tm.n_states:
        raise IndexOutOfRange(f"mark {h} outside 1..{tm.n_states}")
    return _draw_categorical(tm._cdf_tables(k)[h - 1], rng.random())


def _cdf_table(probs: np.ndarray) -> tuple:
    """``(cumulative sums, probabilities, last nonzero index)`` of one row,
    as Python floats so that a draw needs no numpy call."""
    nonzero = np.flatnonzero(probs)
    return (np.cumsum(probs).tolist(), probs.tolist(),
            int(nonzero[-1]) if nonzero.size else None)


def _draw_categorical(table: tuple, u: float) -> int:
    """Inverse-CDF draw (1-based) that never lands on a zero-probability
    state, even when the cumulative sum rounds below 1."""
    cum, probs, last_nonzero = table
    idx = bisect.bisect_right(cum, u)
    if idx >= len(probs) or probs[idx] == 0.0:
        idx = last_nonzero
    return idx + 1
