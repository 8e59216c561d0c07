"""Lyapunov machinery.

Four pieces:

* the discrete Lyapunov operator along the jump skeleton, estimated by
  nested Monte Carlo (expected next-skeleton value minus current value);
* the weak infinitesimal operator (WIO) of the switching diffusion in
  closed form, with a finite-difference Monte Carlo oracle used to test it;
* the closed-form stability test for the one-dimensional linear family
  (drift margins, power exponent, switching sums, jump moment condition);
* quadratic sandwich fitting for Lyapunov function pairs.

The WIO switching term uses the generator rates ``q_ij`` directly (with the
identity post-switch kernel by default): that is the version the
finite-difference oracle confirms.  The linear stability test, by contrast,
uses the embedded normalized jump probabilities in its switching sums, and
evaluates its growth inequality under both the switching-sum and the
drift-coefficient reading, requiring both to pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .simulate import (MAX_RESULT_BYTES, ConfigInvalid, IntegratorConfig, RngPolicy,
                       _sample_count, simulate_batch)
from .simulate import simulate_window  # not called here; bench/tracing.py wraps this name
from .system import JumpFamily, Report, SystemSpec

_AUX_DISCRETE_OP = 2
_AUX_WIO = 4
# stream bundles derived and run at once by the nested Monte Carlo loop
# (_continuations); each holds about 1 kB, and 4096 of them raised criterion
# 05's peak memory by about 12%, against 1.5% for 1024
_INNER_BUNDLES = 1024
# bytes of (k, mark, grid) arrays the jump moment check holds at once, about
_JUMP_SPAN_BYTES = 2 ** 20


class MissingDerivatives(ValueError):
    """Custom Lyapunov function lacks a required derivative callable."""


class ZeroDiffusion(ValueError):
    """Linear stability test needs a nonzero diffusion rate in every regime."""


class EmptyGrid(ValueError):
    """Evaluation grid is empty or contains the origin."""


class InvalidSegment(ValueError):
    """Jump index does not address a realized inter-jump segment."""


# ---------------------------------------------------------------------------
# Lyapunov function specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LyapunovSpec:
    """Scalar test function ``v(t, y, h, x)`` with derivative access.

    Kinds:

    * ``power``      -- ``gamma * y * |x|^beta`` (regime-weighted power)
    * ``quadratic``  -- ``coeff * |x|^2``
    * ``custom-smooth`` -- user callables ``fn_value`` and, when WIO
      evaluation is needed, ``fn_dt``, ``fn_grad`` and ``fn_hess``

    ``fn_value`` must broadcast over a leading batch axis of ``x`` (and of
    ``y`` for the built-in kinds).
    """

    kind: str
    gamma: float = 1.0
    beta: float = 1.0
    coeff: float = 1.0
    regime_values: tuple = (1, 2)
    fn_value: object = None
    fn_dt: object = None
    fn_grad: object = None
    fn_hess: object = None

    def __post_init__(self):
        if self.kind not in ("power", "quadratic", "custom-smooth"):
            raise ValueError(f"unknown Lyapunov kind {self.kind!r}")
        # NaN fails every comparison, so a range test refuses it too
        for name in ("gamma", "beta", "coeff"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"Lyapunov {name} must be positive and finite, got {value!r}")
        if self.kind == "custom-smooth" and self.fn_value is None:
            raise MissingDerivatives("custom-smooth needs fn_value")

    # -- evaluation -----------------------------------------------------------

    def value(self, t, y, h, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(np.atleast_1d(x), axis=-1) if x.ndim <= 1 else np.linalg.norm(x, axis=-1)
        if self.kind == "power":
            return self.gamma * np.asarray(y, dtype=float) * r ** self.beta
        if self.kind == "quadratic":
            return self.coeff * r ** 2
        return self.fn_value(t, y, h, x)

    def d_t(self, t, y, h, x) -> float:
        if self.kind in ("power", "quadratic"):
            return 0.0
        if self.fn_dt is None:
            raise MissingDerivatives("custom-smooth needs fn_dt for WIO evaluation")
        return float(self.fn_dt(t, y, h, x))

    def grad_x(self, t, y, h, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "power":
            r = float(np.linalg.norm(x))
            return self.gamma * float(y) * self.beta * r ** (self.beta - 2.0) * x
        if self.kind == "quadratic":
            return 2.0 * self.coeff * x
        if self.fn_grad is None:
            raise MissingDerivatives("custom-smooth needs fn_grad for WIO evaluation")
        return np.atleast_1d(np.asarray(self.fn_grad(t, y, h, x), dtype=float))

    def hess_x(self, t, y, h, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        m = x.shape[0]
        if self.kind == "power":
            r = float(np.linalg.norm(x))
            b, g = self.beta, self.gamma * float(y)
            eye = np.eye(m)
            outer = np.outer(x, x)
            return g * b * (r ** (b - 2.0) * eye + (b - 2.0) * r ** (b - 4.0) * outer)
        if self.kind == "quadratic":
            return 2.0 * self.coeff * np.eye(m)
        if self.fn_hess is None:
            raise MissingDerivatives("custom-smooth needs fn_hess for WIO evaluation")
        return np.atleast_2d(np.asarray(self.fn_hess(t, y, h, x), dtype=float))

    # -- radial bounds (power/quadratic only) ----------------------------------

    def inf_outside(self, r: float) -> float:
        """Infimum of ``v`` over ``|x| >= r`` and all regimes/marks."""
        if self.kind == "power":
            return self.gamma * min(self.regime_values) * r ** self.beta
        if self.kind == "quadratic":
            return self.coeff * r ** 2
        raise ValueError("radial bounds are closed-form only for power/quadratic kinds")

    def sup_inside(self, r: float) -> float:
        """Supremum of ``v`` over ``|x| <= r`` and all regimes/marks."""
        if self.kind == "power":
            return self.gamma * max(self.regime_values) * r ** self.beta
        if self.kind == "quadratic":
            return self.coeff * r ** 2
        raise ValueError("radial bounds are closed-form only for power/quadratic kinds")


# ---------------------------------------------------------------------------
# discrete Lyapunov operator (nested Monte Carlo)
# ---------------------------------------------------------------------------

def discrete_lyapunov_operator(
    spec: SystemSpec,
    v: LyapunovSpec,
    state: tuple,
    k: int,
    mc: int,
    policy: RngPolicy,
    cfg: IntegratorConfig | None = None,
) -> tuple:
    """Estimate the discrete Lyapunov operator at skeleton segment ``k``.

    Simulates ``mc`` independent continuations from ``(y, h, x)`` at the
    k-th realized jump time through the jump ending the segment, averages
    the next-skeleton value of ``v`` and subtracts ``v`` at the start state.
    Returns ``(estimate, stderr)``.

    Continuation ``j`` draws from ``policy.aux_streams(_AUX_DISCRETE_OP, k,
    j)`` in the batch loop :func:`_continuations`.  An ``mc`` that is not an
    integer of at least 1, and an ``x`` that is not a vector of ``spec.dim``
    entries, raise ``ValueError``; more than ``MAX_RESULT_BYTES`` of values
    raises :class:`ConfigInvalid` before anything runs.
    """
    cfg = cfg or IntegratorConfig()
    mc = _sample_count(mc, "mc")
    if 8 * mc > MAX_RESULT_BYTES:
        raise ConfigInvalid(f"mc = {mc} needs {8 * mc} bytes, more than {MAX_RESULT_BYTES}")
    y, h, x = state
    x = _state(spec, x)
    t_lo, t_hi = _segment_times(spec, k)
    v0 = float(v.value(t_lo, y, h, x))
    vals = np.empty(mc)
    for rows, res in _continuations(spec, cfg, t_lo, t_hi, [x], [y], [h], policy,
                                    _AUX_DISCRETE_OP, [(k,)], mc):
        vals[rows] = _values(v, t_hi, res.y_end.tolist(), res.h_end.tolist(), res.x_end)
    est = float(vals.mean()) - v0
    stderr = float(vals.std(ddof=1) / math.sqrt(mc)) if mc > 1 else float("inf")
    return est, stderr


def _continuations(spec: SystemSpec, cfg: IntegratorConfig, t_lo: float, t_hi: float, x, y, h,
                   policy: RngPolicy, tag: int, prefixes, n: int):
    """Continue each state ``(x[i], y[i], h[i])`` ``n`` times over ``(t_lo, t_hi]``.

    Row ``i * n + j`` runs on ``policy.aux_streams(tag, *prefixes[i], j)``.
    Yields ``(rows, BatchResult)`` in row order, in batches of at most
    ``_INNER_BUNDLES`` rows whose bundles are derived as each is reached; a
    row's bits do not depend on its batch (see :func:`simulate_batch`).
    """
    x, y, h, prefixes = np.asarray(x), np.asarray(y), np.asarray(h), np.asarray(prefixes)
    total = len(prefixes) * n
    for lo in range(0, total, _INNER_BUNDLES):
        rows = np.arange(lo, min(lo + _INNER_BUNDLES, total))
        i, j = np.divmod(rows, n)
        streams = policy.aux_streams_batch(tag, np.column_stack((prefixes[i], j)))
        yield rows, simulate_batch(spec, cfg, t_lo, t_hi, x[i], y[i], h[i], streams)


def _values(v: LyapunovSpec, t: float, ys: list, hs: list, xs: np.ndarray) -> list:
    """``[float(v.value(t, y, h, x)) for y, h, x in zip(ys, hs, xs)]``, bit for bit.

    The norms are taken over the batch with the formula a lone call uses;
    the power is Python's scalar ``**`` per row, which rounds as numpy's
    scalar power does, where an array power need not.  Python's ``**``
    raises on overflow where numpy's gives ``inf``, so such a batch falls
    back to the lone calls, as ``custom-smooth`` always does.
    """
    if v.kind != "custom-smooth":
        r = np.linalg.norm(np.asarray(xs, dtype=float), axis=-1).tolist()
        try:
            if v.kind == "power":
                return [v.gamma * float(y) * ri ** v.beta for y, ri in zip(ys, r)]
            return [v.coeff * ri ** 2 for ri in r]
        except OverflowError:
            pass
    return [float(v.value(t, y, h, x)) for y, h, x in zip(ys, hs, xs)]


def _state(spec: SystemSpec, x) -> np.ndarray:
    """``x`` as a float vector, refused unless it is one of ``spec.dim`` entries."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 1 or x.size != spec.dim:
        what = f"{x.size} entries" if x.ndim == 1 else f"shape {x.shape}"
        raise ValueError(f"x has {what} but the system has dimension {spec.dim}")
    return x


def _segment_times(spec: SystemSpec, k: int) -> tuple:
    t = spec.realization().t
    if not (1 <= k < t.size and k == int(k)):
        raise InvalidSegment(f"segment [t_{k}, t_{k + 1}] is not realized")
    t_lo, t_hi = t[int(k) - 1 : int(k) + 1].tolist()
    if not t_lo < t_hi:
        raise InvalidSegment(f"segment [t_{k}, t_{k + 1}] is empty")
    return t_lo, t_hi


# ---------------------------------------------------------------------------
# weak infinitesimal operator
# ---------------------------------------------------------------------------

def wio_evaluate(
    spec: SystemSpec,
    u: LyapunovSpec,
    t: float,
    y: int,
    h: int,
    x,
    switch_kernel=None,
) -> float:
    """Closed-form weak infinitesimal operator of ``u`` at ``(t, y, h, x)``.

    Sum of four parts: time derivative; drift/diffusion part
    ``(grad u, a) + tr(hess u b b^T)/2``; switching part summing the
    generator rates against post-switch values (identity kernel unless a
    per-pair affine ``switch_kernel[(i, j)] = (scale, offset)`` mapping is
    given); and, only when ``t`` is a scheduled jump time, the mark-averaged
    post-impulse value minus the current value.  An ``x`` that is not a
    vector of ``spec.dim`` entries raises ``ValueError``.
    """
    x = _state(spec, x)
    total = u.d_t(t, y, h, x)

    a = spec.drift.evaluate(t, y, x)
    b = spec.diffusion.evaluate(t, y, x)
    grad = u.grad_x(t, y, h, x)
    hess = u.hess_x(t, y, h, x)
    # diagonal diffusion: tr(H b b^T) reduces to sum_i H_ii b_i^2
    total += float(grad @ a) + 0.5 * float(np.diag(hess) @ (b * b))

    u_here = float(u.value(t, y, h, x))
    for j in range(1, spec.n_regimes + 1):
        if j == y:
            continue
        rate = float(spec.xi_chain.q[y - 1, j - 1])
        if rate == 0.0:
            continue
        xj = x
        if switch_kernel is not None and (y, j) in switch_kernel:
            s, o = switch_kernel[(y, j)]
            xj = s * x + o
        total += rate * (float(u.value(t, j, h, xj)) - u_here)

    k = _jump_index_at(spec, t)
    if k is not None:
        pk = spec.eta_chain.matrix_at(k)[h - 1]
        acc = 0.0
        for z in range(1, spec.eta_chain.n_states + 1):
            if pk[z - 1] == 0.0:
                continue
            xz = x + spec.jump.evaluate(k, y, z, x)
            acc += pk[z - 1] * float(u.value(t, y, z, xz))
        total += acc - u_here
    return total


def _jump_index_at(spec: SystemSpec, t: float) -> int | None:
    hit = np.flatnonzero(spec.realization().t == t)
    return int(hit[0]) + 1 if hit.size else None


def wio_finite_difference(
    spec: SystemSpec,
    u: LyapunovSpec,
    t: float,
    y: int,
    h: int,
    x,
    mc: int = 10 ** 6,
    dt: float = 1e-4,
    policy: RngPolicy | None = None,
    key: int = 0,
) -> tuple:
    """Monte Carlo difference quotient ``(E u(t+dt, ...) - u) / dt``.

    Test oracle for :func:`wio_evaluate` off jump times (a step that holds
    one is refused, see :func:`wio_finite_difference_battery`).  One Euler
    step with at most one regime switch inside ``(t, t+dt]`` (the neglected
    multi-switch events are ``O(dt^2)``).  Returns ``(estimate, stderr)``.
    """
    return wio_finite_difference_battery(spec, [u], t, y, h, x, mc, dt, policy, key)[0]


def wio_finite_difference_battery(
    spec: SystemSpec,
    us,
    t: float,
    y: int,
    h: int,
    x,
    mc: int = 10 ** 6,
    dt: float = 1e-4,
    policy: RngPolicy | None = None,
    key: int = 0,
) -> list:
    """Difference quotients for several test functions on shared samples.

    Returns one ``(estimate, stderr)`` pair per entry of ``us``.  Refuses
    an ``mc`` that is not an integer of at least 1, an ``x`` that is not a
    vector of ``spec.dim`` entries, ``dt`` outside ``(0, inf)`` and a scheduled jump in
    ``[t, t + dt]``, where the quotient would miss the impulse term.

    Samples run in chunks of at most 2M.  Each chunk draws the step normals
    ``z1``, then one switch uniform per sample; for the switched samples it
    then draws the second-leg normals ``z2``, the switch times ``tau`` and
    the destination uniforms.  Every sample takes the no-switch step and
    every test function's values at regime ``y``; the switched samples,
    about ``rate * dt`` of them, are then stepped in two legs and their
    values overwritten at their destination regime.  So a custom ``fn_value``
    is also called at ``y`` on samples that then switch.
    """
    mc = _sample_count(mc, "mc")
    x = _state(spec, x)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    times = spec.realization().t
    if ((t <= times) & (times <= t + dt)).any():
        raise ValueError(f"a scheduled jump lies in [t, t + dt] = [{t}, {t + dt}]")
    policy = policy or RngPolicy()
    rng = policy.aux_streams(_AUX_WIO, key).wiener
    rate = spec.xi_chain.exit_rate(y)
    p_switch = 1.0 - math.exp(-rate * dt) if rate > 0 else 0.0
    cum = np.cumsum(spec.xi_chain.jump_probs(y))
    u0s = [float(u.value(t, y, h, x)) for u in us]
    a0 = spec.drift.evaluate(t, y, x)
    b0 = spec.diffusion.evaluate(t, y, x)

    totals = [0.0] * len(us)
    totals_sq = [0.0] * len(us)
    done = 0
    chunk = 2 * 10 ** 6
    while done < mc:
        n = min(chunk, mc - done)
        z1 = rng.standard_normal((n, x.size))
        sw = np.flatnonzero(rng.random(n) < p_switch)
        x_end = x + a0 * dt + b0 * math.sqrt(dt) * z1
        groups = []
        if sw.size:
            z2 = rng.standard_normal((sw.size, x.size))
            tau = rng.random(sw.size) * dt
            dest = np.minimum(np.searchsorted(cum, rng.random(sw.size), side="right") + 1, spec.n_regimes)
            for j in range(1, spec.n_regimes + 1):
                sel = np.flatnonzero(dest == j)
                if sel.size:
                    tk, rows = tau[sel][:, None], sw[sel]
                    x_mid = x + a0 * tk + b0 * np.sqrt(tk) * z1[rows]
                    rem = dt - tk
                    x_end[rows] = (x_mid + spec.drift.evaluate(t, j, x_mid) * rem
                                   + spec.diffusion.evaluate(t, j, x_mid) * np.sqrt(rem) * z2[sel])
                    groups.append((j, rows))

        for i, u in enumerate(us):
            vals = np.empty(n)
            vals[:] = u.value(t + dt, y, h, x_end)
            for j, rows in groups:
                vals[rows] = u.value(t + dt, j, h, x_end[rows])
            totals[i] += float(vals.sum())
            totals_sq[i] += float((vals * vals).sum())
        done += n

    out = []
    for i in range(len(us)):
        mean = totals[i] / mc
        var = max(totals_sq[i] / mc - mean * mean, 0.0)
        out.append(((mean - u0s[i]) / dt, math.sqrt(var / mc) / dt))
    return out


# ---------------------------------------------------------------------------
# closed-form linear stability test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeRow(Report):
    regime: int
    a: float
    b: float
    drift_margin: float          # a - b^2/2, must be < -epsilon
    switching_sum: float         # sum_{j>i} (j-i) q_ij over embedded probabilities
    growth_rhs: float            # i (beta epsilon + 2) / 2
    margin_ok: bool
    switching_ok: bool           # switching_sum < growth_rhs
    drift_reading_ok: bool       # a < growth_rhs


class Witness(NamedTuple):
    """First ``(k, h, x)`` violating the jump moment condition."""

    k: int
    h: int
    x: float


@dataclass(frozen=True)
class JumpMomentReport(Report):
    """Outcome of the power-moment jump condition.

    The mark-averaged ``|x + g|^beta`` must stay within twice ``|x|^beta``
    for every impulse index and grid point; ``witness`` holds the first
    violating ``(k, h, x)`` when the condition fails.
    """

    ok: bool
    worst_ratio: float
    witness: Witness | None


@dataclass(frozen=True)
class LinearStabilityReport(Report):
    epsilon: float
    beta: float
    b_max: float
    rows: tuple
    jump_moment: JumpMomentReport
    overall_ok: bool

    def as_text(self) -> str:
        lines = [
            f"epsilon = {self.epsilon:.6g}    beta = {self.beta:.6g}    b_max = {self.b_max:.6g}",
            f"{'i':>3} {'a_i':>10} {'b_i':>10} {'a_i-b_i^2/2':>13} {'switch_sum':>11} "
            f"{'rhs':>10} {'drift<-eps':>10} {'sum<rhs':>8} {'a<rhs':>6}",
        ]
        for r in self.rows:
            lines.append(
                f"{r.regime:>3} {r.a:>10.4g} {r.b:>10.4g} {r.drift_margin:>13.6g} "
                f"{r.switching_sum:>11.6g} {r.growth_rhs:>10.6g} "
                f"{str(r.margin_ok):>10} {str(r.switching_ok):>8} {str(r.drift_reading_ok):>6}"
            )
        jm = self.jump_moment
        w = "" if jm.witness is None else f"  witness k={jm.witness[0]} h={jm.witness[1]} x={jm.witness[2]:g}"
        lines.append(f"jump moment condition: {'pass' if jm.ok else 'FAIL'} "
                     f"(worst ratio {jm.worst_ratio:.6g}, bound 2){w}")
        lines.append(f"overall: {'pass' if self.overall_ok else 'FAIL'}")
        return "\n".join(lines)


_EPS_SEARCH_GRID = np.logspace(0.0, -12.0, 121)


def linear_stability_check(
    spec: SystemSpec,
    epsilon: float | None = 0.1,
    x_grid: np.ndarray | None = None,
    k_max: int | None = None,
) -> LinearStabilityReport:
    """Closed-form sufficient stability test for the linear switched family.

    Per regime the drift margin ``a_i - b_i^2/2`` must beat ``-epsilon``;
    the power exponent is ``beta = epsilon / b_max^2`` with ``b_max`` the
    largest ``|b_i|``; the growth inequality ``< i (beta epsilon + 2) / 2``
    is evaluated for both its switching-sum and its drift-coefficient
    reading and the overall verdict requires both, together with the jump
    moment condition.  ``epsilon=None`` takes the largest value of a grid
    that every drift margin beats.  The jump moment condition runs over the
    impulses up to ``k_max``, by default the largest index the schedule
    keeps.
    """
    if spec.drift.kind != "linear-per-regime" or spec.diffusion.kind != "linear-per-regime":
        raise ValueError("linear stability test applies to linear-per-regime coefficients")
    a_vals = np.asarray(spec.drift.values)
    b_vals = np.asarray(spec.diffusion.values)
    if (b_vals == 0.0).any():
        raise ZeroDiffusion("every regime needs a nonzero diffusion rate")

    margins = a_vals - b_vals ** 2 / 2.0
    if epsilon is None:
        ok_eps = [e for e in _EPS_SEARCH_GRID if (margins < -e).all()]
        epsilon = float(max(ok_eps)) if ok_eps else float(_EPS_SEARCH_GRID[-1])
    elif not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    b_max = float(np.abs(b_vals).max())
    beta = epsilon / b_max ** 2

    qn = spec.xi_chain.normalized_jump_matrix()
    n = spec.n_regimes
    rows = []
    for i in range(1, n + 1):
        ssum = float(sum((j - i) * qn[i - 1, j - 1] for j in range(i + 1, n + 1)))
        rhs = i * (beta * epsilon + 2.0) / 2.0
        rows.append(RegimeRow(
            regime=i,
            a=float(a_vals[i - 1]),
            b=float(b_vals[i - 1]),
            drift_margin=float(margins[i - 1]),
            switching_sum=ssum,
            growth_rhs=rhs,
            margin_ok=bool(margins[i - 1] < -epsilon),
            switching_ok=bool(ssum < rhs),
            drift_reading_ok=bool(a_vals[i - 1] < rhs),
        ))

    k_hi = k_max if k_max is not None else spec.realization().t.size
    jm = check_jump_moment_condition(spec.jump, spec.eta_chain, beta, k_hi, x_grid)

    overall = (
        all(r.margin_ok for r in rows)
        and all(r.switching_ok for r in rows)
        and all(r.drift_reading_ok for r in rows)
        and jm.ok
    )
    return LinearStabilityReport(
        epsilon=epsilon, beta=beta, b_max=b_max, rows=tuple(rows),
        jump_moment=jm, overall_ok=overall,
    )


def check_jump_moment_condition(
    jump: JumpFamily,
    eta_chain,
    beta: float,
    k_max: int,
    x_grid: np.ndarray | None = None,
) -> JumpMomentReport:
    """Check ``sum_z P_k(h, z) |x + g(k, y, z, x)|^beta <= 2 |x|^beta``.

    Evaluated over every impulse index up to ``k_max``, every current mark
    ``h`` and every grid point; ``g`` is evaluated at the new mark, which is
    the integration variable.  Returns the worst ratio and the first
    violation witness.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if x_grid is None:
        x_grid = np.logspace(-3.0, 3.0, 61)
    grid = np.asarray(x_grid, dtype=float)
    if grid.size == 0 or (grid == 0.0).any():
        raise EmptyGrid("x grid must be nonempty and exclude the origin")

    n_marks = eta_chain.n_states
    base = np.abs(grid) ** beta
    phi = jump.phi(grid)
    worst = 0.0
    witness = None
    # post[i, z - 1] = |x + g(k, ., z, x)| ** beta over the grid, for the
    # span's i-th k and every new mark z, from the maps' coefficient table
    span = max(1, _JUMP_SPAN_BYTES // (8 * n_marks * grid.size))
    for lo in range(1, k_max + 1, span):
        ks = np.arange(lo, min(lo + span, k_max + 1))
        gain, offset = jump.coefficients(ks)
        g = 0.0 if gain is None else np.broadcast_to(gain, (ks.size, n_marks))[..., None] * phi
        if offset is not None:
            g = g + offset[:, None, None]
        post = np.abs(grid + np.broadcast_to(g, (ks.size, n_marks, grid.size))) ** beta
        for i, k in enumerate(ks.tolist()):
            pk = eta_chain.matrix_at(k)
            for h in range(1, n_marks + 1):
                ratios = (pk[h - 1] @ post[i]) / base
                j = int(np.argmax(ratios))
                if ratios[j] > worst:
                    worst = float(ratios[j])
                if witness is None and ratios[j] > 2.0:
                    witness = Witness(k, h, float(grid[j]))
    return JumpMomentReport(ok=witness is None, worst_ratio=worst, witness=witness)


# ---------------------------------------------------------------------------
# quadratic sandwich bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticBounds:
    """Tightest constants with ``c1 |x|^2 <= v <= c2 |x|^2`` and the same
    sandwich ``(c3, c4)`` for the decay-rate function, over the fitted grid."""

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        if not (0 < self.c1 <= self.c2 and 0 < self.c3 <= self.c4):
            raise ValueError("bounds must satisfy 0 < c1 <= c2 and 0 < c3 <= c4")


@dataclass(frozen=True)
class QuadraticBoundsFailure:
    which: str          # "v" or "a"
    witness_x: float
    reason: str


def check_quadratic_bounds(
    v: LyapunovSpec,
    a_seq: LyapunovSpec,
    grid: np.ndarray,
    regime_values=(1, 2),
    mark_values=(1, 2),
):
    """Fit the tightest quadratic sandwich for ``v`` and ``a_seq`` on a grid.

    A power function with exponent other than 2 admits no global sandwich
    (the ratio to ``|x|^2`` diverges at one end); that is reported as a
    failure with the witnessing grid point instead of a vacuous fit.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or (grid == 0.0).any():
        raise EmptyGrid("grid must be nonempty and exclude the origin")

    for which, fn in (("v", v), ("a", a_seq)):
        if fn.kind == "power" and fn.beta != 2.0:
            witness = float(grid.min()) if fn.beta < 2.0 else float(grid.max())
            return QuadraticBoundsFailure(
                which=which,
                witness_x=witness,
                reason=f"power exponent {fn.beta:g} != 2 admits no quadratic sandwich",
            )

    def fit(fn):
        ratios = []
        for y in regime_values:
            for h in mark_values:
                vals = np.asarray([float(fn.value(0.0, y, h, np.asarray([xv]))) for xv in grid])
                ratios.append(vals / grid ** 2)
        allr = np.concatenate(ratios)
        return float(allr.min()), float(allr.max())

    c1, c2 = fit(v)
    if c1 <= 0:
        return QuadraticBoundsFailure(which="v", witness_x=float(grid[0]), reason="nonpositive values")
    c3, c4 = fit(a_seq)
    if c3 <= 0:
        return QuadraticBoundsFailure(which="a", witness_x=float(grid[0]), reason="nonpositive values")
    return QuadraticBounds(c1=c1, c2=c2, c3=c3, c4=c4)
