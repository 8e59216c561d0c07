"""Monte Carlo verification harness.

Probes are CI-based: every verdict compares estimates with a three-standard-
error cushion so Monte Carlo noise cannot flip an acceptance decision, and
every probe is a pure function of (spec, parameters, master seed).  Suprema
over unbounded time are truncated to an explicit horizon, which each report
states in its notes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .lyapunov import LyapunovSpec, _continuations, _segment_times, _values
from .simulate import (
    MAX_RESULT_BYTES,
    ConfigInvalid,
    IntegratorConfig,
    RngPolicy,
    simulate_batch,
    simulate_ensemble,
)
from .simulate import simulate_window  # not called here; bench/tracing.py wraps this name
from .system import Report, SystemSpec, derive_constants

_AUX_OUTER = 3
_Z95 = 1.959963984540054


class ConstantsUnavailable(ValueError):
    """Closed-form constants needed by the bound are not finite/available."""


# ---------------------------------------------------------------------------
# per-segment second-moment bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheckResult(Report):
    """Comparison of the estimated segment sup-moment with its closed-form cap.

    ``lhs_*`` estimate ``E sup |x|^2`` over the segment (jump at the right
    end included); ``rhs`` is ``9 e^{5C} (1 + 2 L_{k+1}) [E|x(t_k)|^2 +
    5C (t_{k+1} - t_k)]`` computed from derived constants, never estimated.
    The verdict compares the 95% CI upper bound of the left side.
    """

    segment: int
    t_lo: float
    t_hi: float
    lhs_mean: float
    lhs_stderr: float
    lhs_ci_upper: float
    rhs: float
    start_sq: float
    n_paths: int
    ok: bool


def verify_segment_moment_bound(
    spec: SystemSpec,
    k: int,
    n_paths: int,
    policy: RngPolicy,
    cfg: IntegratorConfig | None = None,
) -> BoundCheckResult:
    """Estimate ``E sup |x|^2`` on segment ``k`` and check its moment cap.

    Paths start from the configured initial condition placed at the segment
    start, so the right side's ``E|x(t_k)|^2`` is the same ensemble's value
    there.  Path ``i`` draws from ``policy.aux_streams(_AUX_OUTER, k, i)``
    in the batch loop :func:`lyapunov._continuations`; more than
    ``MAX_RESULT_BYTES`` of sups raises :class:`ConfigInvalid` up front.
    """
    cfg = cfg or IntegratorConfig()
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if 8 * n_paths > MAX_RESULT_BYTES:
        raise ConfigInvalid(f"{n_paths} paths need {8 * n_paths} bytes of sups, "
                            f"more than {MAX_RESULT_BYTES}")
    consts = derive_constants(spec)
    if not math.isfinite(consts.c_growth):
        raise ConstantsUnavailable("growth constant is infinite for this family")
    l_next = spec.jump.lipschitz_sq(k + 1)
    if not math.isfinite(l_next):
        raise ConstantsUnavailable(f"impulse Lipschitz constant L_{k + 1} is infinite")
    t_lo, t_hi = _segment_times(spec, k)

    sups = np.empty(n_paths)
    for rows, res in _continuations(spec, cfg, t_lo, t_hi, [spec.x0], [spec.y0], [spec.h0],
                                    policy, _AUX_OUTER, [(k,)], n_paths):
        # Python's scalar power, as a lone path's float result was squared
        sups[rows] = [s ** 2 for s in res.sup_norm.tolist()]
    lhs = float(sups.mean())
    se = float(sups.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    upper = lhs + _Z95 * se
    start_sq = float(spec.x0 @ spec.x0)
    c = consts.c_growth
    rhs = 9.0 * math.exp(5.0 * c) * (1.0 + 2.0 * l_next) * (start_sq + 5.0 * c * (t_hi - t_lo))
    return BoundCheckResult(
        segment=k, t_lo=t_lo, t_hi=t_hi,
        lhs_mean=lhs, lhs_stderr=se, lhs_ci_upper=upper,
        rhs=rhs, start_sq=start_sq, n_paths=n_paths,
        ok=bool(upper <= rhs),
    )


# ---------------------------------------------------------------------------
# stability probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityProbeResult(Report):
    """Generic probe outcome: estimates with CIs plus a trend verdict."""

    kind: str
    params: dict
    rows: tuple
    verdict: bool
    notes: str


def probe_stability_in_probability(
    spec: SystemSpec,
    eps1: float,
    horizon: float,
    n_paths: int,
    delta_grid,
    policy: RngPolicy,
    cfg: IntegratorConfig | None = None,
    threads: int = 1,
) -> StabilityProbeResult:
    """Exceedance probability of the running sup from shrinking starts.

    For each ``delta`` the ensemble starts from ``|x0| = delta`` (same
    direction as the configured start) and reports the empirical probability
    that ``sup |x(t)|`` over the truncated horizon exceeds ``eps1``.
    Verdict: the exceedance is nonincreasing as ``delta`` decreases, within
    a three-standard-error cushion.

    ``threads`` is accepted for compatibility; it no longer changes how
    paths run (see :func:`simulate_ensemble`).
    """
    cfg = cfg or IntegratorConfig()
    if not 0 < eps1 < math.inf:
        raise ValueError(f"eps1 must be positive and finite, got {eps1!r}")
    deltas = sorted((float(d) for d in delta_grid), reverse=True)
    if not all(0.0 < d < math.inf for d in deltas):
        raise ValueError(f"every delta must be positive and finite, got {deltas}")
    direction = spec.x0 / np.linalg.norm(spec.x0)
    rows = []
    for i, d in enumerate(deltas):
        sub = dataclasses.replace(spec, x0=d * direction)
        sub_policy = policy.derive(10, i)
        summary = simulate_ensemble(sub, cfg, horizon, n_paths, sub_policy,
                                    record_times=np.asarray([horizon]), threads=threads)
        p = float(np.mean(summary.sup_norms > eps1))
        se = math.sqrt(max(p * (1 - p), 1.0 / n_paths) / n_paths)
        rows.append({"delta": d, "exceedance": p, "stderr": se, "n_paths": n_paths})
    ok = all(
        rows[i + 1]["exceedance"]
        <= rows[i]["exceedance"] + 3.0 * math.hypot(rows[i]["stderr"], rows[i + 1]["stderr"])
        for i in range(len(rows) - 1)
    )
    return StabilityProbeResult(
        kind="prob-sup",
        params={"eps1": eps1, "horizon": horizon, "delta_grid": deltas, "n_paths": n_paths},
        rows=tuple(rows),
        verdict=ok,
        notes=f"sup over t >= 0 truncated to [0, {horizon:g}]",
    )


def probe_mean_square(
    spec: SystemSpec,
    time_grid,
    n_paths: int,
    policy: RngPolicy,
    cfg: IntegratorConfig | None = None,
    threads: int = 1,
) -> StabilityProbeResult:
    """Mean-squared-norm curve over a time grid with a decay verdict.

    The verdict compares the last grid point against the first with a
    three-standard-error separation.  The rows also carry the median squared
    norm, which is informative when the mean is dominated by rare paths.

    ``threads`` is accepted for compatibility; it no longer changes how
    paths run (see :func:`simulate_ensemble`).
    """
    cfg = cfg or IntegratorConfig()
    grid = np.asarray(sorted(float(t) for t in time_grid))
    if grid.size < 2 or (np.diff(grid) <= 0).any():
        raise ValueError("time grid must be increasing with at least two points")
    horizon = float(grid[-1])
    summary = simulate_ensemble(spec, cfg, horizon, n_paths, policy,
                                record_times=grid, threads=threads)
    rows = tuple(
        {
            "t": float(grid[i]),
            "mean_sq": float(summary.mean_sq[i]),
            "stderr": float(summary.stderr[i]),
            "median_sq": float(summary.median_sq[i]),
            "explosion_fraction": float(summary.explosion_fraction[i]),
        }
        for i in range(grid.size)
    )
    first, last = rows[0], rows[-1]
    sep = 3.0 * math.hypot(first["stderr"], last["stderr"])
    verdict = bool(last["mean_sq"] < first["mean_sq"] - sep)
    return StabilityProbeResult(
        kind="mean-square",
        params={"time_grid": grid.tolist(), "n_paths": n_paths},
        rows=rows,
        verdict=verdict,
        notes=f"decay verdict compares t={grid[-1]:g} against t={grid[0]:g} with 3 SE separation",
    )


# ---------------------------------------------------------------------------
# supermartingale probe along the jump skeleton
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupermartingaleReport(Report):
    """Per-segment comparison of skeleton expectations of a Lyapunov function.

    Row ``k`` holds the paired nested estimate of ``E v_{k+1} - E v_k``; the
    segment passes when the difference does not exceed three combined
    standard errors.
    """

    rows: tuple
    verdict: bool
    n_outer: int
    n_inner: int


def probe_supermartingale(
    spec: SystemSpec,
    v: LyapunovSpec,
    k_range,
    n_outer: int,
    n_inner: int,
    policy: RngPolicy,
    cfg: IntegratorConfig | None = None,
) -> SupermartingaleReport:
    """Nested Monte Carlo check that skeleton expectations do not increase.

    Outer paths evolve from the configured start through the jump skeleton;
    as they reach a requested segment's start, the inner level continues
    every live outer state to the next skeleton point, in the batch loop
    :func:`lyapunov._continuations`.  The paired difference per outer path
    keeps the comparison on one probability space.

    The outer paths' states and stream bundles (about 1 kB each), and one
    segment's ``n_outer * n_inner`` inner values, are sized by the caller's
    numbers; more than ``MAX_RESULT_BYTES`` of either raises
    :class:`ConfigInvalid` before anything is built.
    """
    cfg = cfg or IntegratorConfig()
    ks = sorted(int(k) for k in k_range)
    if not ks:
        raise ValueError("k_range must be nonempty")
    if n_inner < 1:
        raise ValueError("n_inner must be >= 1")
    entries = dict(spec.realization().entries)
    needed = ks + [ks[-1] + 1]
    for k in needed:
        if k not in entries:
            raise ValueError(f"skeleton index {k} is not realized")
    # per outer path: x, y, h, alive and its bundle; per inner path: a value
    need = max(n_outer * (8 * spec.dim + 17 + 1024), 8 * n_outer * n_inner)
    if need > MAX_RESULT_BYTES:
        raise ConfigInvalid(f"{n_outer} outer by {n_inner} inner paths need {need} bytes, "
                            f"more than {MAX_RESULT_BYTES}")

    # outer sweep: the live paths advance as one batch, each on its own stream across windows,
    # up to the last segment start; a segment's inner level runs as the sweep reaches it
    outer = policy.aux_streams_batch(_AUX_OUTER, [(0, i) for i in range(n_outer)])
    x = np.tile(spec.x0, (n_outer, 1))
    y = np.full(n_outer, spec.y0)
    h = np.full(n_outer, spec.h0)
    alive = np.ones(n_outer, dtype=bool)
    last = max(entries[k] for k in ks)
    rows = [None] * len(ks)
    t_prev = 0.0
    for t_lo in sorted(t for t in {entries[k] for k in needed} if t <= last):
        idx = np.flatnonzero(alive)
        if idx.size:
            res = simulate_batch(spec, cfg, t_prev, t_lo, x[idx], y[idx], h[idx],
                                 [outer[i] for i in idx])
            x[idx], y[idx], h[idx] = res.x_end, res.y_end, res.h_end
            alive[idx] = ~res.exploded
            idx = np.flatnonzero(alive)
        t_prev = t_lo
        for p, k in [(p, k) for p, k in enumerate(ks) if entries[k] == t_lo]:
            t_hi = entries[k + 1]
            # row q * n_inner + j continues outer path idx[q] on the key (k, idx[q], j)
            inner = np.empty(idx.size * n_inner)
            for batch, res in _continuations(spec, cfg, t_lo, t_hi, x[idx], y[idx], h[idx], policy,
                                             _AUX_OUTER, np.column_stack((np.full(idx.size, k), idx)),
                                             n_inner):
                inner[batch] = _values(v, t_hi, res.y_end.tolist(), res.h_end.tolist(), res.x_end)
            v_now = _values(v, t_lo, y[idx].tolist(), h[idx].tolist(), x[idx])
            v_next = [float(row.mean()) for row in inner.reshape(idx.size, n_inner)]
            diffs = np.subtract(v_next, v_now)
            if diffs.size == 0:
                rows[p] = {
                    "k": k, "t_lo": t_lo, "t_hi": t_hi,
                    "ev_k": float("nan"), "ev_next": float("nan"),
                    "diff": float("nan"), "diff_stderr": float("nan"),
                    "n_alive": 0, "ok": False,
                }
                continue
            d_mean = float(diffs.mean())
            d_se = float(diffs.std(ddof=1) / math.sqrt(diffs.size)) if diffs.size > 1 else 0.0
            rows[p] = {
                "k": k,
                "t_lo": t_lo,
                "t_hi": t_hi,
                "ev_k": float(np.mean(v_now)),
                "ev_next": float(np.mean(v_next)),
                "diff": d_mean,
                "diff_stderr": d_se,
                "n_alive": int(diffs.size),
                "ok": bool(d_mean <= 3.0 * d_se),
            }
    return SupermartingaleReport(
        rows=tuple(rows),
        verdict=all(r["ok"] for r in rows),
        n_outer=n_outer,
        n_inner=n_inner,
    )


# ---------------------------------------------------------------------------
# blow-up characterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupReport(Report):
    """Growth of the running sup as the impulse truncation is lifted."""

    rows: tuple
    verdict: bool          # median sup nondecreasing across the k_max grid
    notes: str


def detect_blowup(
    spec: SystemSpec,
    k_max_grid,
    horizon: float,
    n_paths: int,
    policy: RngPolicy,
    cfg: IntegratorConfig | None = None,
    threads: int = 1,
) -> BlowupReport:
    """Sup-norm statistics as a function of the schedule truncation depth.

    ``threads`` is accepted for compatibility; it no longer changes how
    paths run (see :func:`simulate_ensemble`).
    """
    cfg = cfg or IntegratorConfig()
    if spec.schedule.concentration_point is None:
        raise ValueError("blow-up detection applies to accumulating schedules")
    rows = []
    for idx, km in enumerate(sorted(int(k) for k in k_max_grid)):
        sub = dataclasses.replace(spec, schedule=dataclasses.replace(spec.schedule, k_max=km))
        sub_policy = policy.derive(20, idx)
        summary = simulate_ensemble(sub, cfg, horizon, n_paths, sub_policy,
                                    record_times=np.asarray([horizon]), threads=threads)
        rows.append({
            "k_max": km,
            "median_sup": summary.sup_median,
            "max_sup": summary.sup_max,
            "exploded_fraction": summary.n_exploded / summary.n_paths,
        })
    # strict growth, so a flat table (no blow-up) gives a negative verdict
    verdict = all(b["median_sup"] > a["median_sup"] for a, b in zip(rows, rows[1:]))
    return BlowupReport(
        rows=tuple(rows),
        verdict=verdict,
        notes=f"sup over [0, {horizon:g}], {n_paths} paths per truncation depth",
    )
