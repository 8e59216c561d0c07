"""Declarative system specifications and existence-condition checks.

A :class:`SystemSpec` bundles the drift/diffusion coefficient families, the
impulse (jump) family, the jump schedule and the two switching chains.  All
families are declarative so that growth and Lipschitz constants come out in
closed form; the stored constants use the squared convention throughout
(``C`` bounds ``|a|^2 + |b|^2 + |g|^2``, ``L_k`` is the squared Lipschitz
constant of the k-th impulse map).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .markov import (
    GeneratorMatrix,
    TransitionMatrix,
    validate_generator,
    validate_transition_matrix,
)

COEFF_KINDS = ("linear-per-regime", "constant")
JUMP_KINDS = ("zero", "scale-poly", "exp-mark-clamped", "custom-sequence")
SCHEDULE_KINDS = ("explicit-list", "harmonic-to-point", "harmonic-to-zero")

DEFAULT_K_MAX = 200
DEFAULT_DELTA_MIN = 1e-9
# far above the 31,623 entries that delta_min = 1e-9 keeps
MAX_HARMONIC_ENTRIES = 10 ** 6


class UnsupportedFamily(ValueError):
    """Constants requested for a family that cannot provide them."""


class DivergentTail(ValueError):
    """Tail sum of the jump-size sequence diverges."""


class NeverReached(ValueError):
    """Requested tail threshold is not positive."""


class EmptySchedule(ValueError):
    """Schedule truncation removed every jump."""


class ConfigError(ValueError):
    """Config file failed validation."""


def json_safe(v):
    """``v`` as plain JSON data, the one encoding of every written report.

    numpy scalars and arrays become Python values and lists, tuples become
    lists and named tuples dicts of their fields; non-finite floats become
    the strings ``"inf"``, ``"-inf"`` and ``"nan"``, so a report never holds
    the bare ``Infinity``/``NaN`` tokens that strict JSON parsers reject.
    """
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, np.ndarray):
        return json_safe(v.tolist())
    if isinstance(v, tuple) and hasattr(v, "_asdict"):
        return json_safe(v._asdict())
    if isinstance(v, (list, tuple)):
        return [json_safe(x) for x in v]
    if isinstance(v, dict):
        return {k: json_safe(x) for k, x in v.items()}
    return v


class Report:
    """Base of the report dataclasses: ``as_dict`` gives their fields as
    :func:`json_safe` data."""

    def as_dict(self) -> dict:
        return json_safe(asdict(self))


def _safe_exp(e: float) -> float:
    """``exp`` saturating to ``inf`` instead of overflowing."""
    return math.inf if e > 709.0 else math.exp(e)


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientFamily:
    """Per-regime drift or diffusion coefficients.

    ``linear-per-regime`` evaluates to ``value[y] * x`` (the linear family of
    the one-dimensional examples); ``constant`` evaluates to ``value[y]`` in
    every coordinate.
    """

    kind: str
    values: tuple
    dim: int = 1

    def __post_init__(self):
        if self.kind not in COEFF_KINDS:
            raise ConfigError(f"unknown coefficient kind {self.kind!r}")
        if len(self.values) < 1:
            raise ConfigError("need at least one regime")
        if self.dim < 1:
            raise ConfigError("dimension must be >= 1")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigError("coefficient values must be finite")

    @property
    def n_regimes(self) -> int:
        return len(self.values)

    def rate(self, y: int) -> float:
        return self.values[y - 1]

    def evaluate(self, t: float, y: int, x: np.ndarray) -> np.ndarray:
        if self.kind == "linear-per-regime":
            return self.values[y - 1] * x
        return np.full_like(x, self.values[y - 1])

    def linear_rate(self, y: int) -> float:
        """Coefficient of ``x`` (zero for the constant family)."""
        return self.values[y - 1] if self.kind == "linear-per-regime" else 0.0

    def constant_part(self, y: int) -> float:
        return self.values[y - 1] if self.kind == "constant" else 0.0

    def max_linear_sq(self) -> float:
        if self.kind != "linear-per-regime":
            return 0.0
        return max(v * v for v in self.values)

    def max_constant_sq(self) -> float:
        if self.kind != "constant":
            return 0.0
        return max(v * v for v in self.values)


# ---------------------------------------------------------------------------
# jump families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpFamily:
    """Impulse map family ``g(t_k, y, h, x)`` with closed-form constants.

    Kinds:

    * ``zero``              -- no impulses, ``g = 0``
    * ``scale-poly``        -- ``g = scale * k^2 * x`` (the blow-up example)
    * ``exp-mark-clamped``  -- ``g = scale * exp(sign * alpha * k * h) * min(x, 1)``
    * ``custom-sequence``   -- explicit per-k affine maps ``x -> s_k x + o_k``

    ``lipschitz_sq(k)`` returns the squared Lipschitz constant of the k-th
    map and ``sup_norm(k)`` its sup-norm over all states (``inf`` when the
    map is unbounded).  For ``custom-sequence`` the summability constants
    must be user-supplied via ``l_seq``/``gamma_seq``.
    """

    kind: str
    alpha: float = 1.0
    sign: int = -1
    scale: float = 1.0
    mark_values: tuple = (1, 2)
    maps: tuple = ()
    l_seq: tuple | None = None
    gamma_seq: tuple | None = None

    def __post_init__(self):
        if self.kind not in JUMP_KINDS:
            raise ConfigError(f"unknown jump kind {self.kind!r}")
        if self.kind == "exp-mark-clamped":
            if self.sign not in (-1, 1):
                raise ConfigError("sign must be -1 or +1")
            if self.alpha <= 0:
                raise ConfigError("alpha must be positive")
            if not self.mark_values:
                raise ConfigError("need at least one mark value")
        if self.kind == "custom-sequence" and not self.maps:
            raise ConfigError("custom-sequence needs at least one map")
        object.__setattr__(self, "mark_values", tuple(float(h) for h in self.mark_values))
        object.__setattr__(self, "maps", tuple((float(s), float(o)) for s, o in self.maps))
        # `alpha <= 0` above lets a NaN through
        if not all(map(math.isfinite, (self.alpha, self.scale, *self.mark_values,
                                       *(v for m in self.maps for v in m)))):
            raise ConfigError("jump parameters (alpha, scale, mark values, maps) must be finite")
        if self.l_seq is not None:
            object.__setattr__(self, "l_seq", tuple(float(v) for v in self.l_seq))
        if self.gamma_seq is not None:
            object.__setattr__(self, "gamma_seq", tuple(float(v) for v in self.gamma_seq))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, k: int, y, h, x: np.ndarray) -> np.ndarray:
        """``g(t_k, y, h, x)``.

        ``y`` and ``h`` may also be int arrays with one entry per row of
        ``x`` (its leading axis).  Each row then gets its own mark's value,
        bit for bit that of a scalar call on that row alone.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "scale-poly":
            return self.scale * float(k) ** 2 * x
        if self.kind == "exp-mark-clamped":
            # each mark value's coefficient comes from the scalar exp, which
            # can round differently from an array exp
            coef = np.array([self.scale * _safe_exp(self.sign * self.alpha * k * hv)
                             for hv in self.mark_values])[np.asarray(h) - 1]
            return coef.reshape(coef.shape + (1,) * (x.ndim - coef.ndim)) * np.minimum(x, 1.0)
        s, o = self._map_at(k)
        return s * x + o

    def _map_at(self, k: int):
        if not 1 <= k <= len(self.maps):
            raise UnsupportedFamily(f"custom-sequence has no map for k={k}")
        return self.maps[k - 1]

    # -- exponent geometry for the exp family -------------------------------

    def _mark_exponent(self) -> float:
        """Worst-case ``sign * h`` over the mark set (drives sup bounds)."""
        return max(self.sign * h for h in self.mark_values)

    # -- closed-form constants ----------------------------------------------

    def lipschitz_sq(self, k: int) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "scale-poly":
            return self.scale ** 2 * float(k) ** 4
        if self.kind == "exp-mark-clamped":
            # |min(x,1) - min(x',1)| <= |x - x'|
            return self.scale ** 2 * _safe_exp(2.0 * self.alpha * k * self._mark_exponent())
        if self.l_seq is not None:
            if not 1 <= k <= len(self.l_seq):
                raise UnsupportedFamily(f"l_seq has no entry for k={k}")
            return self.l_seq[k - 1]
        raise UnsupportedFamily("custom-sequence without user-supplied l_seq")

    def sup_norm(self, k: int) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "scale-poly":
            return math.inf
        if self.kind == "exp-mark-clamped":
            return abs(self.scale) * _safe_exp(self.alpha * k * self._mark_exponent())
        if self.gamma_seq is not None:
            if not 1 <= k <= len(self.gamma_seq):
                raise UnsupportedFamily(f"gamma_seq has no entry for k={k}")
            return self.gamma_seq[k - 1]
        raise UnsupportedFamily("custom-sequence without user-supplied gamma_seq")

    def n_terms(self) -> int | None:
        """Length of the sequence when finite, ``None`` for unbounded families."""
        if self.kind == "custom-sequence":
            n = len(self.maps)
            if self.l_seq is not None:
                n = min(n, len(self.l_seq))
            if self.gamma_seq is not None:
                n = min(n, len(self.gamma_seq))
            return n
        return None

    def gamma_tail(self, k: int) -> float:
        """``sum_{m >= k} sup_norm(m)`` in closed form."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "scale-poly":
            return math.inf
        if self.kind == "exp-mark-clamped":
            r = math.exp(self.alpha * self._mark_exponent())
            if r >= 1.0:
                return math.inf
            return abs(self.scale) * r ** k / (1.0 - r)
        n = self.n_terms()
        return float(sum(self.sup_norm(m) for m in range(k, n + 1))) if k <= n else 0.0

    def gamma_total(self) -> float:
        return self.gamma_tail(1)

    def l_prefix_sum(self, n: int) -> float:
        """``sum_{k=1}^{n} lipschitz_sq(k)``."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "scale-poly":
            ks = np.arange(1, n + 1, dtype=float)
            return float(self.scale ** 2 * np.sum(ks ** 4))
        if self.kind == "exp-mark-clamped":
            log_r2 = 2.0 * self.alpha * self._mark_exponent()
            if log_r2 == 0.0:
                return self.scale ** 2 * n
            if log_r2 * (n + 1) > 709.0:
                return math.inf
            r2 = math.exp(log_r2)
            return self.scale ** 2 * r2 * (1.0 - r2 ** n) / (1.0 - r2)
        m = min(n, self.n_terms())
        return float(sum(self.lipschitz_sq(k) for k in range(1, m + 1)))

    def l_total(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "scale-poly":
            return math.inf
        if self.kind == "exp-mark-clamped":
            r2 = math.exp(2.0 * self.alpha * self._mark_exponent())
            if r2 >= 1.0:
                return math.inf
            return self.scale ** 2 * r2 / (1.0 - r2)
        return self.l_prefix_sum(self.n_terms())

    def sup_gamma_sq(self) -> float:
        """``sup_k sup_norm(k)^2`` (enters the growth constant)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "scale-poly":
            return math.inf
        if self.kind == "exp-mark-clamped":
            r = math.exp(self.alpha * self._mark_exponent())
            if r >= 1.0:
                return math.inf
            return (abs(self.scale) * r) ** 2
        n = self.n_terms()
        return max((self.sup_norm(k) ** 2 for k in range(1, n + 1)), default=0.0)


# ---------------------------------------------------------------------------
# jump schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpSchedule:
    """Jump-time schedule, possibly accumulating at a concentration point.

    ``harmonic-to-point`` places jump ``k`` at ``t_star - c / k`` (times
    increase towards ``t_star``); ``harmonic-to-zero`` places it at
    ``alpha / k`` (index order reversed in time).  Truncation keeps indices
    ``k <= k_max`` and drops any jump closer than ``delta_min`` to the last
    kept one.
    """

    kind: str
    times: tuple = ()
    t_star: float = 2.0
    c: float = 1.0
    alpha: float = 1.0
    k_max: int = DEFAULT_K_MAX
    delta_min: float = DEFAULT_DELTA_MIN

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")
        if self.delta_min < 0:
            raise ConfigError("delta_min must be >= 0")
        if self.kind == "harmonic-to-point" and self.c <= 0:
            raise ConfigError("c must be positive")
        if self.kind == "harmonic-to-zero" and self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if not all(map(math.isfinite, (*self.times, self.t_star, self.c, self.alpha, self.delta_min))):
            raise ConfigError("schedule times and parameters must be finite")

    @property
    def concentration_point(self) -> float | None:
        if self.kind == "harmonic-to-point":
            return self.t_star
        if self.kind == "harmonic-to-zero":
            return 0.0
        return None

    def harmonic_times(self, ks: np.ndarray) -> np.ndarray:
        """Times of the jumps ``ks`` of a harmonic schedule, computed with the
        float operations of their definition."""
        if self.kind == "harmonic-to-point":
            return self.t_star - self.c / ks
        return self.alpha / ks


@dataclass(frozen=True)
class ScheduleRealization:
    """Truncated, time-ordered jump schedule with truncation metadata."""

    entries: tuple          # ((k, t_k), ...) ascending in time
    n_truncated: int

    @property
    def times(self) -> np.ndarray:
        return np.asarray([t for _, t in self.entries], dtype=float)

    @property
    def indices(self) -> np.ndarray:
        return np.asarray([k for k, _ in self.entries], dtype=np.int64)

    def jumps_in(self, t0: float, t1: float):
        """Entries with ``t0 < t_k <= t1``."""
        return [(k, t) for k, t in self.entries if t0 < t <= t1]


def generate_schedule(schedule: JumpSchedule) -> ScheduleRealization:
    """Realize a schedule: sort ascending, truncate, validate monotonicity.

    A jump is dropped when its index exceeds ``k_max`` (only possible for
    explicit lists) or when its gap to the last kept jump is below
    ``delta_min``.  Raises :class:`EmptySchedule` when nothing survives.
    """
    real = _realize_allow_empty(schedule)
    if not real.entries:
        raise EmptySchedule("schedule truncation removed every jump")
    return real


def _realize_allow_empty(schedule: JumpSchedule) -> ScheduleRealization:
    # gaps between adjacent indices shrink towards the concentration point;
    # the first too-small gap cuts the whole remaining tail so the realized
    # index sequence stays contiguous from k = 1
    if schedule.kind == "explicit-list":
        by_index = list(enumerate(schedule.times, start=1))
        total = len(by_index)
        cutoff = schedule.k_max
        for (k0, t0), (k1, t1) in zip(by_index, by_index[1:]):
            if abs(t1 - t0) < schedule.delta_min:
                cutoff = min(cutoff, k0)
                break
        kept = [(k, t) for k, t in by_index if k <= cutoff]
    else:
        total = schedule.k_max
        ks = np.arange(1, _harmonic_cutoff(schedule) + 1)
        kept = list(zip(ks.tolist(), schedule.harmonic_times(ks).tolist()))
    kept.sort(key=lambda e: e[1])
    dropped = total - len(kept)
    times = [t for _, t in kept]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("schedule times must be strictly increasing")
    star = schedule.concentration_point
    if schedule.kind == "harmonic-to-point" and times:
        if times[-1] >= star:
            raise ConfigError("accumulating schedule must stay below its concentration point")
    return ScheduleRealization(entries=tuple(kept), n_truncated=dropped)


def _harmonic_cutoff(schedule: JumpSchedule) -> int:
    """The first ``k < k_max`` whose gap to jump ``k + 1`` is below
    ``delta_min``, else ``k_max``, without building the ``k_max`` entries.

    The gap ``c / (k (k + 1))`` shrinks as ``k`` grows.  Below the root of
    ``k (k + 1) = c / (delta_min + slack)``, the slack bounding the rounding
    of two times and their difference, no computed gap is under
    ``delta_min``.  From there the gaps are computed as the entries compute
    them, in chunks, up to the first one under it.  A cutoff above
    ``MAX_HARMONIC_ENTRIES`` raises :class:`ConfigError` before any entry is
    built.
    """
    c = schedule.c if schedule.kind == "harmonic-to-point" else schedule.alpha
    delta = schedule.delta_min
    slack = 8.0 * 2.0 ** -53 * (abs(schedule.t_star) + 2.0 * c + delta)
    root = (math.sqrt(1.0 + 4.0 * c / (delta + slack)) - 1.0) / 2.0
    limit = min(schedule.k_max, MAX_HARMONIC_ENTRIES + 1)
    k = min(max(1, int(root) - 2), limit)
    size = 1024
    while k < limit:
        ks = np.arange(k, min(k + size, limit) + 1)
        t = schedule.harmonic_times(ks)
        hit = np.flatnonzero(np.abs(t[1:] - t[:-1]) < delta)
        if hit.size:
            return int(ks[hit[0]])
        k = int(ks[-1])
        size = min(2 * size, 1 << 16)
    if limit > MAX_HARMONIC_ENTRIES:
        raise ConfigError(f"harmonic schedule keeps more than {MAX_HARMONIC_ENTRIES} entries; "
                          "raise delta_min or lower k_max")
    return limit


@lru_cache(maxsize=64)
def _cached_realization(schedule: JumpSchedule) -> ScheduleRealization:
    return _realize_allow_empty(schedule)


def realize_schedule(schedule: JumpSchedule) -> ScheduleRealization:
    """Cached realization; unlike :func:`generate_schedule` an empty result
    is allowed (a system without impulses is legitimate)."""
    return _cached_realization(schedule)


# ---------------------------------------------------------------------------
# system specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemSpec:
    """Complete system description consumed by the integrator and checkers."""

    drift: CoefficientFamily
    diffusion: CoefficientFamily
    jump: JumpFamily
    schedule: JumpSchedule
    xi_chain: GeneratorMatrix
    eta_chain: TransitionMatrix
    x0: np.ndarray
    y0: int
    h0: int
    horizon: float = 5.0

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x0", x0)
        n = self.xi_chain.n_states
        if self.drift.n_regimes != n or self.diffusion.n_regimes != n:
            raise ConfigError("drift/diffusion regime count must match the switching chain")
        if self.drift.dim != self.diffusion.dim or x0.shape[0] != self.drift.dim:
            raise ConfigError("state dimension mismatch")
        if not 1 <= self.y0 <= n:
            raise ConfigError(f"y0 outside 1..{n}")
        if not 1 <= self.h0 <= self.eta_chain.n_states:
            raise ConfigError(f"h0 outside 1..{self.eta_chain.n_states}")
        if self.jump.kind == "exp-mark-clamped" and len(self.jump.mark_values) != self.eta_chain.n_states:
            raise ConfigError("jump family mark values must match the mark chain")
        if not np.isfinite(x0).all():
            raise ConfigError("x0 must be finite")
        if not 0 < self.horizon < math.inf:
            raise ConfigError("horizon must be positive and finite")

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def n_regimes(self) -> int:
        return self.xi_chain.n_states

    def realization(self) -> ScheduleRealization:
        return realize_schedule(self.schedule)


# ---------------------------------------------------------------------------
# derived constants and existence conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants, squared convention.

    ``c_growth`` bounds ``|a|^2+|b|^2+|g|^2 <= c_growth (1+|x|^2)``;
    ``l_coeff`` is the squared Lipschitz constant of the coefficients;
    ``l_seq``/``gamma_seq`` are per-impulse constants for the realized
    schedule indices; the totals include the full (possibly infinite) tails.
    """

    c_growth: float
    l_coeff: float
    l_seq: np.ndarray
    gamma_seq: np.ndarray
    sum_l: float
    sum_gamma: float


def derive_constants(spec: SystemSpec) -> DerivedConstants:
    """Closed-form growth/Lipschitz constants for a declarative spec.

    Raises :class:`UnsupportedFamily` for a custom jump sequence without
    user-supplied constants.
    """
    jump = spec.jump
    realization = spec.realization()
    ks = realization.indices
    l_seq = np.asarray([jump.lipschitz_sq(int(k)) for k in ks], dtype=float)
    gamma_seq = np.asarray([jump.sup_norm(int(k)) for k in ks], dtype=float)
    lin_sq = spec.drift.max_linear_sq() + spec.diffusion.max_linear_sq()
    const_sq = spec.drift.max_constant_sq() + spec.diffusion.max_constant_sq()
    c_growth = lin_sq + const_sq + jump.sup_gamma_sq()
    return DerivedConstants(
        c_growth=c_growth,
        l_coeff=lin_sq,
        l_seq=l_seq,
        gamma_seq=gamma_seq,
        sum_l=jump.l_total(),
        sum_gamma=jump.gamma_total(),
    )


def tail_cutoff_index(gamma, eps: float, *, rel_tol: float = 1e-12, max_terms: int = 10 ** 6) -> int:
    """Least ``k >= 1`` whose tail sum ``sum_{m>=k} gamma_m`` drops below ``eps``.

    ``gamma`` may be a :class:`JumpFamily` (closed-form tails), a callable
    ``m -> gamma_m`` (summed numerically to relative tolerance ``rel_tol``)
    or a finite sequence (zero beyond its end).  Raises
    :class:`NeverReached` for ``eps <= 0`` and :class:`DivergentTail` when
    the series diverges.
    """
    if eps <= 0.0:
        raise NeverReached("threshold must be positive")
    if isinstance(gamma, JumpFamily):
        if math.isinf(gamma.gamma_total()):
            raise DivergentTail("jump sizes are not summable")
        k = 1
        while gamma.gamma_tail(k) >= eps:
            k += 1
        return k
    if callable(gamma):
        terms = _sum_until_converged(gamma, rel_tol, max_terms)
    else:
        terms = np.asarray(list(gamma), dtype=float)
        if terms.size and (terms < 0).any():
            raise ValueError("gamma terms must be nonnegative")
        if np.isinf(terms).any():
            raise DivergentTail("jump sizes are not summable")
    total = float(terms.sum())
    if math.isinf(total):
        raise DivergentTail("jump sizes are not summable")
    prefix = np.concatenate([[0.0], np.cumsum(terms)])
    k = 1
    while k <= terms.size:
        if total - prefix[k - 1] < eps:
            return k
        k += 1
    # beyond the stored terms the tail is (numerically) zero
    return k


def _sum_until_converged(gamma, rel_tol: float, max_terms: int) -> np.ndarray:
    terms = []
    acc = 0.0
    small_streak = 0
    for m in range(1, max_terms + 1):
        g = float(gamma(m))
        if g < 0:
            raise ValueError("gamma terms must be nonnegative")
        if math.isinf(g):
            raise DivergentTail("jump sizes are not summable")
        terms.append(g)
        acc += g
        if acc > 0 and g <= rel_tol * acc:
            small_streak += 1
            if small_streak >= 8:
                return np.asarray(terms, dtype=float)
        else:
            small_streak = 0
    raise DivergentTail(f"series did not converge within {max_terms} terms")


class TailRow(NamedTuple):
    """One ``eps`` of the tail-balance table; ``None`` when the tail diverges."""

    eps: float
    n_eps: int | None
    balance: float | None


@dataclass(frozen=True)
class ExistenceReport(Report):
    """Pass/fail record of the strong-existence conditions.

    * growth: finite ``C`` with ``|a|^2+|b|^2+|g|^2 <= C(1+|x|^2)``
    * coefficient Lipschitz: finite squared constant ``L``
    * impulse Lipschitz summability: ``sum L_k`` finite
    * impulse size summability: ``sum gamma_k`` finite
    * tail balance: the table of ``(eps, N_eps, ln eps + N_eps * sum_{k<=N_eps} L_k)``
      with a monotone-decrease verdict (an honest finite surrogate for the
      limit ``-inf`` requirement as ``eps`` drops)
    """

    constants: DerivedConstants
    growth_ok: bool
    lipschitz_ok: bool
    jump_lipschitz_summable: bool
    jump_size_summable: bool
    tail_rows: tuple            # (TailRow, ...)
    tail_trend_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.growth_ok
            and self.lipschitz_ok
            and self.jump_lipschitz_summable
            and self.jump_size_summable
            and self.tail_trend_ok
        )

    def as_dict(self) -> dict:
        # the constants are written flat and without their per-impulse arrays
        d = asdict(self)
        c = d.pop("constants")
        return json_safe({
            **d, "all_ok": self.all_ok,
            **{name: c[name] for name in ("c_growth", "l_coeff", "sum_l", "sum_gamma")},
        })


DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def check_existence_conditions(spec: SystemSpec, eps_grid=DEFAULT_EPS_GRID) -> ExistenceReport:
    """Evaluate the existence conditions for ``spec`` over an ``eps`` grid.

    Always produces a report; divergent sums appear as failed conditions,
    never as exceptions.
    """
    constants = derive_constants(spec)
    growth_ok = math.isfinite(constants.c_growth)
    lipschitz_ok = math.isfinite(constants.l_coeff)
    sum_l_ok = math.isfinite(constants.sum_l)
    sum_gamma_ok = math.isfinite(constants.sum_gamma)
    rows = []
    balances = []
    if sum_gamma_ok and sum_l_ok:
        for eps in sorted(eps_grid, reverse=True):
            n_eps = tail_cutoff_index(spec.jump, eps)
            balance = math.log(eps) + n_eps * spec.jump.l_prefix_sum(n_eps)
            rows.append(TailRow(eps, n_eps, balance))
            balances.append(balance)
        trend_ok = all(b < a for a, b in zip(balances, balances[1:])) and len(balances) >= 2
    else:
        rows = [TailRow(eps, None, None) for eps in sorted(eps_grid, reverse=True)]
        trend_ok = False
    return ExistenceReport(
        constants=constants,
        growth_ok=growth_ok,
        lipschitz_ok=lipschitz_ok,
        jump_lipschitz_summable=sum_l_ok,
        jump_size_summable=sum_gamma_ok,
        tail_rows=tuple(rows),
        tail_trend_ok=trend_ok,
    )


# ---------------------------------------------------------------------------
# JSON config interface
# ---------------------------------------------------------------------------

_TOP_KEYS = {"drift", "diffusion", "jump", "schedule", "xi_generator", "eta_transition", "initial", "horizon", "meta"}


def spec_from_dict(cfg: dict) -> SystemSpec:
    """Build a :class:`SystemSpec` from the documented JSON layout.

    Unknown keys are rejected at every level; the optional top-level
    ``meta`` object is ignored (presets use it for provenance notes).
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    missing = _TOP_KEYS - {"meta"} - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    xi = validate_generator(_require(cfg["xi_generator"], "xi_generator", {"q"})["q"])
    eta_cfg = _require(cfg["eta_transition"], "eta_transition", {"p", "per_step"}, optional={"per_step"})
    eta = validate_transition_matrix(eta_cfg["p"], eta_cfg.get("per_step"))

    drift = _coeff_from_dict(cfg["drift"], "drift")
    diffusion = _coeff_from_dict(cfg["diffusion"], "diffusion")
    jump = _jump_from_dict(cfg["jump"], n_marks=eta.n_states)
    schedule = _schedule_from_dict(cfg["schedule"])

    initial = _require(cfg["initial"], "initial", {"x0", "y0", "h0"})
    x0 = initial["x0"]
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    try:
        horizon = float(cfg["horizon"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"horizon: {exc}") from None
    return SystemSpec(
        drift=drift,
        diffusion=diffusion,
        jump=jump,
        schedule=schedule,
        xi_chain=xi,
        eta_chain=eta,
        x0=x0,
        y0=int(initial["y0"]),
        h0=int(initial["h0"]),
        horizon=horizon,
    )


def _require(obj, name: str, allowed: set, optional: set = frozenset()) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    missing = allowed - optional - set(obj)
    if missing:
        raise ConfigError(f"{name}: missing keys {sorted(missing)}")
    return obj


def _coeff_from_dict(obj, name: str) -> CoefficientFamily:
    d = _require(obj, name, {"kind", "values", "dim"}, optional={"dim"})
    return CoefficientFamily(kind=d["kind"], values=tuple(d["values"]), dim=int(d.get("dim", 1)))


def _jump_from_dict(obj, n_marks: int) -> JumpFamily:
    allowed = {"kind", "alpha", "sign", "scale", "maps", "l_seq", "gamma_seq"}
    d = _require(obj, "jump", allowed, optional=allowed - {"kind"})
    return JumpFamily(
        kind=d["kind"],
        alpha=float(d.get("alpha", 1.0)),
        sign=int(d.get("sign", -1)),
        scale=float(d.get("scale", 1.0)),
        mark_values=tuple(range(1, n_marks + 1)),
        maps=tuple(tuple(m) for m in d.get("maps", ())),
        l_seq=tuple(d["l_seq"]) if "l_seq" in d else None,
        gamma_seq=tuple(d["gamma_seq"]) if "gamma_seq" in d else None,
    )


def _schedule_from_dict(obj) -> JumpSchedule:
    allowed = {"kind", "times", "t_star", "c", "alpha", "k_max", "delta_min"}
    d = _require(obj, "schedule", allowed, optional=allowed - {"kind"})
    return JumpSchedule(
        kind=d["kind"],
        times=tuple(d.get("times", ())),
        t_star=float(d.get("t_star", 2.0)),
        c=float(d.get("c", 1.0)),
        alpha=float(d.get("alpha", 1.0)),
        k_max=int(d.get("k_max", DEFAULT_K_MAX)),
        delta_min=float(d.get("delta_min", DEFAULT_DELTA_MIN)),
    )


def spec_to_dict(spec: SystemSpec, meta: dict | None = None) -> dict:
    """Serialize a spec back to the JSON layout (round-trips with
    :func:`spec_from_dict`)."""
    jump: dict = {"kind": spec.jump.kind}
    if spec.jump.kind == "exp-mark-clamped":
        jump.update(alpha=spec.jump.alpha, sign=spec.jump.sign, scale=spec.jump.scale)
    elif spec.jump.kind == "scale-poly":
        jump.update(scale=spec.jump.scale)
    elif spec.jump.kind == "custom-sequence":
        jump.update(maps=[list(m) for m in spec.jump.maps])
        if spec.jump.l_seq is not None:
            jump["l_seq"] = list(spec.jump.l_seq)
        if spec.jump.gamma_seq is not None:
            jump["gamma_seq"] = list(spec.jump.gamma_seq)
    schedule: dict = {"kind": spec.schedule.kind, "k_max": spec.schedule.k_max, "delta_min": spec.schedule.delta_min}
    if spec.schedule.kind == "explicit-list":
        schedule["times"] = list(spec.schedule.times)
    elif spec.schedule.kind == "harmonic-to-point":
        schedule.update(t_star=spec.schedule.t_star, c=spec.schedule.c)
    else:
        schedule.update(alpha=spec.schedule.alpha)
    out = {
        "drift": {"kind": spec.drift.kind, "values": list(spec.drift.values), "dim": spec.drift.dim},
        "diffusion": {"kind": spec.diffusion.kind, "values": list(spec.diffusion.values), "dim": spec.diffusion.dim},
        "jump": jump,
        "schedule": schedule,
        "xi_generator": {"q": spec.xi_chain.q.tolist()},
        "eta_transition": {"p": spec.eta_chain.p.tolist()},
        "initial": {"x0": spec.x0.tolist(), "y0": spec.y0, "h0": spec.h0},
        "horizon": spec.horizon,
    }
    if spec.eta_chain.per_step:
        out["eta_transition"]["per_step"] = [m.tolist() for m in spec.eta_chain.per_step]
    if meta:
        out["meta"] = meta
    return out


def load_config(path) -> SystemSpec:
    """Load and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return spec_from_dict(cfg)
