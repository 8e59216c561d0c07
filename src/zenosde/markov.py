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

    def _cdf_tables(self, k: int) -> tuple:
        """Inverse-CDF tables of the step-``k`` matrix, cached: one
        :func:`_cdf_table` per row, then the same tables as arrays, namely
        the rows' cumulative sums, their probabilities with a zero column
        appended, and each row's last nonzero index."""
        key = k if self.per_step and 1 <= k <= len(self.per_step) else 0
        cache = self.__dict__.setdefault("_cdf_cache", {})
        tables = cache.get(key)
        if tables is None:
            rows = [_cdf_table(row) for row in self.matrix_at(k)]
            probs = np.zeros((self.n_states, self.n_states + 1))
            probs[:, :-1] = [row[1] for row in rows]
            tables = cache[key] = (rows, np.array([row[0] for row in rows]), probs,
                                   np.array([row[2] for row in rows], dtype=np.int64))
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


def sample_ctmc(gen: GeneratorMatrix, y0: int, horizon: float, rng: np.random.Generator) -> ChainPath:
    """Sample a regime path on ``[0, horizon]`` with exact holding times.

    Holding time in state ``i`` is exponential with the exit rate of ``i``;
    the next state is drawn from the embedded jump probabilities.  Absorbing
    states simply hold to the horizon.  A path without a switch (an
    absorbing start, or a first holding time of at least ``horizon``) is
    returned straight after that first draw.
    """
    gen._check_state(y0)
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    rates, cdfs = gen._sampling_tables()
    rate = rates[y0 - 1]
    if rate > 0.0:
        t = rng.exponential(1.0 / rate)
    if rate <= 0.0 or t >= horizon:
        return ChainPath(start=0.0, end=horizon, switch_times=np.empty(0),
                         states=np.array([y0], dtype=np.int64))
    times = []
    states = [y0]
    y = y0
    while True:
        y = _draw_categorical(cdfs[y - 1], rng.random())
        times.append(t)
        states.append(y)
        rate = rates[y - 1]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
    return ChainPath(
        start=0.0,
        end=horizon,
        switch_times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=np.int64),
    )


def sample_dtmc_step(tm: TransitionMatrix, h, k: int, rng):
    """Draw the next mark from row ``h`` of the step-``k`` matrix.

    ``h`` may also be an int array of marks, with ``rng`` an array of as many
    uniforms in ``[0, 1)``.  Each mark then steps on its own uniform exactly
    as the scalar form steps on ``rng.random()``: ``bisect_right`` on the same
    cumulative sums, with :func:`_draw_categorical`'s zero-probability guard.
    The next marks come back as an int64 array.
    """
    if isinstance(h, np.ndarray):
        if h.size and not (h.min() >= 1 and h.max() <= tm.n_states):
            raise IndexOutOfRange(f"marks outside 1..{tm.n_states}")
        _, cum, probs, last_nonzero = tm._cdf_tables(k)
        rows = h - 1
        # the count of cumulative sums <= u is bisect_right on a sorted row
        idx = (cum.take(rows, axis=0) <= rng[:, None]).sum(axis=1)
        return np.where(probs[rows, idx] == 0.0, last_nonzero[rows], idx) + 1
    if not 1 <= h <= tm.n_states:
        raise IndexOutOfRange(f"mark {h} outside 1..{tm.n_states}")
    return _draw_categorical(tm._cdf_tables(k)[0][h - 1], rng.random())


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
