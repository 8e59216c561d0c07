"""Exact-transition oracle for the linear-per-regime family.

Between events each regime of a scalar ``linear-per-regime`` system is
geometric Brownian motion, so over an interval the state moves as

    x <- x * exp(sum_r (a_r - b_r^2 / 2) T_r + sqrt(sum_r b_r^2 T_r) Z),

with ``T_r`` the time the regime chain spends in regime ``r`` there.  The
oracle samples the regime chain with exact holding times, moves the state
exactly from event to event, and at every scheduled jump applies the mark
step first and then the impulse ``g(k, y_pre, h_new, x_pre)``, as the
integrator does.  It sees the state only at events (jumps and requested
times), so it gives the law of ``x(t)`` but not of a running sup.
"""

import numpy as np
import pytest

from zenosde.cli import build_preset
from zenosde.markov import sample_ctmc
from zenosde.simulate import IntegratorConfig, RngPolicy, simulate_batch
from zenosde.system import spec_from_dict

MEANSQ_GRID = (0.5, 1.0, 2.0, 3.0, 5.0)


def exact_states(spec, times, n_paths, rng):
    """``(n_paths, len(times))`` exact draws of ``x(t)``; at a jump time the
    post-jump state, as the integrator records it."""
    if spec.dim != 1 or {spec.drift.kind, spec.diffusion.kind} != {"linear-per-regime"}:
        raise ValueError("the oracle covers scalar linear-per-regime systems")
    regimes = range(1, spec.n_regimes + 1)
    a = np.array([spec.drift.linear_rate(r) for r in regimes])
    b = np.array([spec.diffusion.linear_rate(r) for r in regimes])
    times = np.asarray(times, dtype=float)
    horizon = float(times[-1])
    jumps = dict((t, k) for k, t in spec.realization().jumps_in(0.0, horizon))
    bounds = np.unique(np.concatenate(([0.0], list(jumps), times)))

    # occupation time of each regime up to each boundary, and the regime
    # just before it (a switch lands on a boundary with probability zero)
    occ = np.empty((n_paths, len(a), bounds.size))
    y_before = np.empty((n_paths, bounds.size), dtype=np.int64)
    for p in range(n_paths):
        chain = sample_ctmc(spec.xi_chain, spec.y0, horizon, rng)
        knots = np.concatenate(([0.0], chain.switch_times, [horizon]))
        held = np.diff(knots)
        for r in regimes:
            cum = np.concatenate(([0.0], np.cumsum(np.where(chain.states == r, held, 0.0))))
            occ[p, r - 1] = np.interp(bounds, knots, cum)
        y_before[p] = chain.state_at(bounds)
    d_occ = np.diff(occ, axis=2)
    mean = np.einsum("r,prj->pj", a - b * b / 2.0, d_occ)
    sd = np.sqrt(np.einsum("r,prj->pj", b * b, d_occ))
    z = rng.standard_normal(mean.shape)

    x = np.full(n_paths, float(spec.x0[0]))
    h = np.full(n_paths, spec.h0, dtype=np.int64)
    out = np.empty((n_paths, times.size))
    out[:, times == 0.0] = x[:, None]
    for i in range(1, bounds.size):
        x = x * np.exp(mean[:, i - 1] + sd[:, i - 1] * z[:, i - 1])
        t = float(bounds[i])
        if t in jumps:
            k = jumps[t]
            cdf = np.cumsum(spec.eta_chain.matrix_at(k), axis=1)
            u = rng.random(n_paths)
            h = np.minimum((u[:, None] >= cdf[h - 1]).sum(axis=1), cdf.shape[1] - 1) + 1
            g = np.empty(n_paths)
            for key in set(zip(y_before[:, i].tolist(), h.tolist())):
                rows = (y_before[:, i] == key[0]) & (h == key[1])
                g[rows] = spec.jump.evaluate(k, key[0], key[1], x[rows])
            x = x + g
        out[:, times == t] = x[:, None]
    return out


def integrator_states(spec, cfg, times, n_paths, seed):
    """``(n_paths, len(times))`` integrator values of ``x(t)``, NaN once a
    path exploded."""
    policy = RngPolicy(seed)
    res = simulate_batch(spec, cfg, 0.0, float(times[-1]), spec.x0, spec.y0, spec.h0,
                         [policy.path_streams(i) for i in range(n_paths)],
                         record_times=np.asarray(times, dtype=float))
    return res.record_values[..., 0]


@pytest.mark.parametrize("preset", ["case1", "case2"])
def test_integrator_matches_exact_gbm_at_meansq_grid(preset):
    # two-sample test at each grid time: the share of integrator paths whose
    # x^2 lies below the oracle's median x^2 is 1/2 under equal laws, up to
    # the binomial error of the share and the error of the oracle's median
    spec = spec_from_dict(build_preset(preset))
    n_sim, n_exact = 600, 10000
    sim_sq = integrator_states(spec, IntegratorConfig(), MEANSQ_GRID, n_sim, seed=505) ** 2
    exact_sq = exact_states(spec, MEANSQ_GRID, n_exact, np.random.default_rng(606)) ** 2
    assert not np.isnan(sim_sq).any()
    se = np.sqrt(0.25 / n_sim + 0.25 / n_exact)
    for j, t in enumerate(MEANSQ_GRID):
        share = np.mean(sim_sq[:, j] < np.median(exact_sq[:, j]))
        assert abs(share - 0.5) <= 3.0 * se, (preset, t, share)


def test_oracle_reproduces_closed_form_without_switching():
    # one regime, no jumps: E x(t)^2 = x0^2 exp((2a + b^2) t)
    spec = spec_from_dict({
        "drift": {"kind": "linear-per-regime", "values": [-0.5]},
        "diffusion": {"kind": "linear-per-regime", "values": [0.4]},
        "jump": {"kind": "zero"},
        "schedule": {"kind": "explicit-list", "times": []},
        "xi_generator": {"q": [[0.0]]},
        "eta_transition": {"p": [[1.0]]},
        "initial": {"x0": [2.0], "y0": 1, "h0": 1},
        "horizon": 1.0,
    })
    sq = exact_states(spec, [0.5, 1.0], 20000, np.random.default_rng(7)) ** 2
    expected = 4.0 * np.exp((2 * -0.5 + 0.16) * np.array([0.5, 1.0]))
    se = sq.std(axis=0, ddof=1) / np.sqrt(sq.shape[0])
    assert np.all(np.abs(sq.mean(axis=0) - expected) <= 3.0 * se)
