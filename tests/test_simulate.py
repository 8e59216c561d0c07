import copy
import math
import tracemalloc

import numpy as np
import pytest

from zenosde import simulate
from zenosde.markov import sample_ctmc, sample_dtmc_step
from zenosde.simulate import (
    ConfigInvalid,
    IntegratorConfig,
    RngPolicy,
    simulate_batch,
    simulate_ensemble,
    simulate_path,
    simulate_window,
    trajectory_to_csv,
)
from zenosde.system import spec_from_dict
from zenosde.cli import build_preset

from conftest import make_spec


def test_deterministic_exponential_decay():
    spec = make_spec()
    traj = simulate_path(spec, IntegratorConfig(dt_max=1e-4), 1.0, 0, RngPolicy(0))
    assert abs(traj.state_at_end()[0] - 10.0 * math.exp(-1.0)) < 1e-3
    assert traj.status == "completed"


def test_pure_jump_adds_one_exactly():
    spec = make_spec(
        drift={"values": [0.0]},
        jump={"kind": "custom-sequence", "maps": [[0.0, 1.0]]},
        schedule={"kind": "explicit-list", "times": [0.5]},
        initial={"x0": [3.0], "y0": 1, "h0": 1},
    )
    traj = simulate_path(spec, IntegratorConfig(dt_max=1e-2), 1.0, 0, RngPolicy(1))
    assert traj.state_at_end()[0] == 4.0
    ev = traj.jump_events[0]
    assert ev.time == 0.5 and ev.x_before[0] == 3.0 and ev.x_after[0] == 4.0


def test_gbm_second_moment_matches_closed_form():
    # E x(t)^2 = x0^2 exp((2a + b^2) t) for the linear scalar equation
    spec = make_spec(diffusion={"values": [0.3]}, initial={"x0": [1.0], "y0": 1, "h0": 1})
    summary = simulate_ensemble(spec, IntegratorConfig(dt_max=1e-3), 1.0, 20_000,
                                RngPolicy(123), record_times=np.array([1.0]))
    target = math.exp(-1.91)
    est, se = summary.mean_sq[0], summary.stderr[0]
    assert abs(est - target) / target < 0.02
    assert abs(est - target) < 3.0 * se


def test_halving_dt_does_not_increase_second_moment_error():
    spec = make_spec(diffusion={"values": [0.3]}, initial={"x0": [1.0], "y0": 1, "h0": 1})
    target = math.exp(-1.91)
    errs = {}
    ses = {}
    for dt in (4e-3, 2e-3):
        s = simulate_ensemble(spec, IntegratorConfig(dt_max=dt), 1.0, 10_000,
                              RngPolicy(5), record_times=np.array([1.0]))
        errs[dt] = abs(s.mean_sq[0] - target)
        ses[dt] = s.stderr[0]
    assert errs[2e-3] <= errs[4e-3] + 3.0 * math.hypot(ses[4e-3], ses[2e-3])


def test_jump_times_hit_exactly_and_cadlag():
    spec = spec_from_dict(build_preset("case2"))
    traj = simulate_path(spec, IntegratorConfig(), 5.0, 2, RngPolicy(7))
    assert len(traj.jump_events) == 200
    times = set(traj.times.tolist())
    sched = dict(spec.realization().entries)
    for ev in traj.jump_events:
        # the scheduled float is hit exactly, never straddled
        assert ev.time == sched[ev.k]
        assert ev.time in times
        g = spec.jump.evaluate(ev.k, 1, ev.mark, ev.x_before)
        assert abs(ev.x_after[0] - ev.x_before[0] - g[0]) <= 1e-12
        # the recorded sample at a jump time is the post-jump value
        i = int(np.where(traj.times == ev.time)[0][0])
        assert traj.states[i, 0] == ev.x_after[0]
        assert traj.events[i] == f"jump:{ev.k}"
    assert (np.diff(traj.times) > 0).all()


def test_regime_changes_only_at_marked_samples():
    spec = make_spec(
        drift={"values": [-1.0, 1.0]},
        diffusion={"values": [0.1, 0.2]},
        xi_generator={"q": [[-2.0, 2.0], [2.0, -2.0]]},
    )
    traj = simulate_path(spec, IntegratorConfig(dt_max=1e-2), 3.0, 4, RngPolicy(11))
    changes = np.where(traj.regimes[1:] != traj.regimes[:-1])[0] + 1
    assert changes.size > 0
    for i in changes:
        assert traj.events[i] in ("switch",) or traj.events[i].startswith("jump")


def test_same_seed_and_index_reproduce_bitwise():
    spec = spec_from_dict(build_preset("case2"))
    t1 = simulate_path(spec, IntegratorConfig(), 5.0, 9, RngPolicy(13))
    t2 = simulate_path(spec, IntegratorConfig(), 5.0, 9, RngPolicy(13))
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.states, t2.states)
    t3 = simulate_path(spec, IntegratorConfig(), 5.0, 10, RngPolicy(13))
    assert not np.array_equal(t1.states, t3.states)


def test_thread_count_does_not_change_ensemble():
    spec = spec_from_dict(build_preset("case2"))
    grid = np.linspace(0.0, 2.0, 21)
    s1 = simulate_ensemble(spec, IntegratorConfig(), 2.0, 300, RngPolicy(3),
                           record_times=grid, threads=1)
    s3 = simulate_ensemble(spec, IntegratorConfig(), 2.0, 300, RngPolicy(3),
                           record_times=grid, threads=3)
    assert np.array_equal(s1.mean_sq, s3.mean_sq)
    assert np.array_equal(s1.sup_norms, s3.sup_norms)
    assert np.array_equal(s1.stderr, s3.stderr)


def test_single_path_ensemble_matches_trajectory():
    spec = spec_from_dict(build_preset("case2"))
    grid = np.linspace(0.0, 3.0, 7)
    summary = simulate_ensemble(spec, IntegratorConfig(), 3.0, 1, RngPolicy(21), record_times=grid)
    traj = simulate_path(spec, IntegratorConfig(), 3.0, 0, RngPolicy(21), record_times=grid)
    vals = []
    for t in grid:
        i = int(np.where(traj.times == t)[0][0])
        vals.append(traj.states[i, 0] ** 2)
    assert np.allclose(summary.mean_sq, vals, rtol=0, atol=0)
    assert summary.sup_median == traj.sup_norm


def test_frozen_system_statistics():
    spec = make_spec(drift={"values": [0.0]}, initial={"x0": [3.0], "y0": 1, "h0": 1})
    grid = np.linspace(0.0, 1.0, 5)
    summary = simulate_ensemble(spec, IntegratorConfig(), 1.0, 50, RngPolicy(0), record_times=grid)
    assert np.all(summary.mean_sq == 9.0)
    assert np.all(summary.stderr == 0.0)
    assert summary.sup_max == 3.0
    assert np.all(summary.explosion_fraction == 0.0)


def test_explosion_stops_path():
    spec = spec_from_dict(build_preset("intro"))
    traj = simulate_path(spec, IntegratorConfig(), 4.0, 0, RngPolicy(0))
    assert traj.status == "exploded"
    assert traj.explosion_time is not None and traj.explosion_time < 0.1
    assert traj.times[-1] == traj.explosion_time
    assert traj.sup_norm > IntegratorConfig().overflow_threshold


def test_cascade_matches_sequential_walk():
    spec = make_spec(
        drift={"kind": "constant", "values": [0.4, -0.2]},
        diffusion={"values": [0.5, 1.0]},
        xi_generator={"q": [[-1.0, 1.0], [1.0, -1.0]]},
        jump={"kind": "exp-mark-clamped", "alpha": 1.0, "sign": -1},
        eta_transition={"p": [[0.5, 0.5], [0.5, 0.5]]},
        schedule={"kind": "harmonic-to-point", "t_star": 2.0, "c": 1.0, "k_max": 30},
        initial={"x0": [2.0], "y0": 1, "h0": 1},
    )
    cfg = IntegratorConfig(dt_max=5e-3)
    for j in range(10):
        pol = RngPolicy(j)
        r1 = simulate_window(spec, cfg, 0.0, 2.5, spec.x0, 1, 1, pol.path_streams(0))
        r2 = simulate_window(spec, cfg, 0.0, 2.5, spec.x0, 1, 1, pol.path_streams(0),
                             force_sequential=True)
        assert r1.x_end[0] == pytest.approx(r2.x_end[0], rel=1e-9)
        assert r1.sup_norm == pytest.approx(r2.sup_norm, rel=1e-9)


def test_blowup_product_after_three_jumps_is_exact():
    cfg_intro = build_preset("intro")
    cfg_intro["drift"]["values"] = [0.0]
    cfg_intro["schedule"]["k_max"] = 3
    spec = spec_from_dict(cfg_intro)
    traj = simulate_path(spec, IntegratorConfig(), 1.0, 0, RngPolicy(0))
    # (1+1)(1+4)(1+9) = 100 exactly, applied to x0 = 10
    assert traj.state_at_end()[0] == 1000.0


def test_intro_sup_strictly_increases_with_truncation_depth():
    sups = []
    for k_max in (3, 5, 7):
        cfg_intro = build_preset("intro")
        cfg_intro["schedule"]["k_max"] = k_max
        spec = spec_from_dict(cfg_intro)
        traj = simulate_path(spec, IntegratorConfig(), 1.2, 0, RngPolicy(0))
        sups.append(traj.sup_norm)
    assert sups[0] < sups[1] < sups[2]


def test_trajectory_csv_format(tmp_path):
    spec = spec_from_dict(build_preset("case2"))
    traj = simulate_path(spec, IntegratorConfig(), 2.0, 0, RngPolicy(2))
    out = tmp_path / "traj.csv"
    trajectory_to_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1,regime,event"
    assert any(",jump:1" in ln for ln in lines)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 10.0


def test_invalid_configs_raise():
    with pytest.raises(ConfigInvalid):
        IntegratorConfig(dt_max=0.0)
    with pytest.raises(ConfigInvalid):
        IntegratorConfig(overflow_threshold=-1.0)
    # non-finite values would never end the step loop
    for bad in ({"dt_max": math.nan}, {"dt_max": math.inf}, {"overflow_threshold": math.nan},
                {"overflow_threshold": math.inf}):
        with pytest.raises(ConfigInvalid, match="finite"):
            IntegratorConfig(**bad)
    spec = make_spec()
    with pytest.raises(ConfigInvalid):
        simulate_path(spec, IntegratorConfig(), -1.0, 0, RngPolicy(0))


# ---------------------------------------------------------------------------
# batch kernel: a path's bits do not depend on the batch it runs in
# ---------------------------------------------------------------------------

BATCH_FIELDS = ("x_end", "y_end", "h_end", "sup_norm", "exploded", "explosion_time")


def _assert_batch_matches_alone(spec, cfg, t0, t1, x, y, h, streams_of, n, **kw):
    """Run paths 0..n-1 as one batch and each alone (P = 1); compare bytes."""
    x = np.broadcast_to(np.asarray(x, dtype=float), (n, spec.dim))
    y = np.broadcast_to(y, (n,))
    h = np.broadcast_to(h, (n,))
    batch = simulate_batch(spec, cfg, t0, t1, x, y, h, [streams_of(j) for j in range(n)], **kw)
    for j in range(n):
        alone = simulate_batch(spec, cfg, t0, t1, x[j], y[j], h[j], [streams_of(j)], **kw)
        for name in BATCH_FIELDS:
            a, b = getattr(batch, name)[j], getattr(alone, name)[0]
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (name, j, a, b)
    return batch


def test_batch_matches_alone_across_switch_and_jump_counts():
    spec = spec_from_dict(build_preset("case2"))
    pol = RngPolicy(17)
    t0, t1 = 0.5, 1.7  # jumps at 1, 1.5 and 1.667
    starts = np.linspace(-3.0, 3.0, 12)[:, None]
    regimes = 1 + np.arange(12) % 2
    batch = _assert_batch_matches_alone(spec, IntegratorConfig(), t0, t1, starts, regimes, 1,
                                        lambda j: pol.aux_streams(5, j), 12)
    assert (batch.n_jumps == 3).all()
    # the chain is each stream's first draw, so its switch counts can be read off
    switches = {len(sample_ctmc(spec.xi_chain, int(regimes[j]), t1 - t0,
                                pol.aux_streams(5, j).chain).switch_times) for j in range(12)}
    assert len(switches) > 1


def test_batch_matches_alone_with_explosions():
    case3 = spec_from_dict(build_preset("case3"))
    pol = RngPolicy(4)
    batch = _assert_batch_matches_alone(case3, IntegratorConfig(), 0.0, 1.9, case3.x0, case3.y0,
                                        case3.h0, pol.path_streams, 16,
                                        record_times=np.linspace(0.0, 1.9, 5))
    assert batch.exploded.any() and not batch.exploded.all()
    intro = spec_from_dict(build_preset("intro"))
    batch = _assert_batch_matches_alone(intro, IntegratorConfig(), 0.0, 4.0, [[10.0], [1e-3]], 1, 1,
                                        pol.path_streams, 2)
    assert batch.exploded.all()


def test_batch_matches_alone_with_additive_term():
    spec = make_spec(
        drift={"kind": "constant", "values": [0.4, -0.2]},
        diffusion={"values": [0.5, 1.0]},
        xi_generator={"q": [[-1.0, 1.0], [1.0, -1.0]]},
        jump={"kind": "exp-mark-clamped", "alpha": 1.0, "sign": -1},
        eta_transition={"p": [[0.5, 0.5], [0.5, 0.5]]},
        schedule={"kind": "harmonic-to-point", "t_star": 2.0, "c": 1.0, "k_max": 30},
        initial={"x0": [2.0], "y0": 1, "h0": 1},
    )
    batch = _assert_batch_matches_alone(spec, IntegratorConfig(dt_max=5e-3), 0.0, 2.5, spec.x0,
                                        1, 1, RngPolicy(8).path_streams, 8)
    assert (batch.n_jumps == 30).all()


def test_batch_matches_alone_in_two_dimensions():
    spec = spec_from_dict({
        "drift": {"kind": "linear-per-regime", "values": [-0.5, 0.3], "dim": 2},
        "diffusion": {"kind": "linear-per-regime", "values": [0.4, 0.9], "dim": 2},
        "jump": {"kind": "scale-poly", "scale": 0.3},
        "schedule": {"kind": "harmonic-to-point", "t_star": 2.0, "c": 1.0, "k_max": 40,
                     "delta_min": 1e-9},
        "xi_generator": {"q": [[-2.0, 2.0], [2.0, -2.0]]},
        "eta_transition": {"p": [[1.0]]},
        "initial": {"x0": [1.0, -2.0], "y0": 1, "h0": 1},
        "horizon": 3.0,
    })
    _assert_batch_matches_alone(spec, IntegratorConfig(dt_max=1e-2), 0.0, 3.0, spec.x0, 1, 1,
                                RngPolicy(9).path_streams, 6)


def test_batch_cascade_fallback_is_decided_per_path():
    # without switching, regime 1's products fall below 1/_CASCADE_LIMIT
    # (about 0.5^1000) and regime 2's stay in range; both paths share a chunk
    spec = make_spec(
        drift={"values": [-5.0, 0.0]},
        diffusion={"values": [0.1, 0.1]},
        xi_generator={"q": [[0.0, 0.0], [0.0, 0.0]]},
        jump={"kind": "custom-sequence", "maps": [[1.0, 0.5]]},
        schedule={"kind": "explicit-list", "times": [50.0]},
    )
    cfg = IntegratorConfig(dt_max=0.1)
    pol = RngPolicy(3)
    args = (spec, cfg, 0.0, 100.0, [[1.0], [1.0]], [1, 2], 1)
    batch = _assert_batch_matches_alone(*args, pol.path_streams, 2)
    walked = _assert_batch_matches_alone(*args, pol.path_streams, 2, force_sequential=True)
    # the regime-1 path took the step-by-step walk; the other did not need it
    assert batch.x_end[0].tobytes() == walked.x_end[0].tobytes()
    assert batch.x_end[1].tobytes() != walked.x_end[1].tobytes()
    assert batch.x_end[1][0] == pytest.approx(walked.x_end[1][0], rel=1e-9)


@pytest.mark.parametrize("master_seed", [0, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1])
@pytest.mark.parametrize("tag", [0, 3, 2**33])
@pytest.mark.parametrize("keys", [
    [()],
    [(0,)],
    [(0, 0), (0, 1), (1, 0)],
    [(1, 2, 3), (0, 0, 0)],
    [(5, 2**32, 0, 2**63), (5, 4, 0, 1), (2**64 - 1, 0, 2**32 - 1, 2**32)],
])
def test_aux_streams_batch_matches_seed_sequence(master_seed, tag, keys):
    policy = RngPolicy(master_seed)
    batch = policy.aux_streams_batch(tag, keys)
    assert len(batch) == len(keys)
    for bundle, key in zip(batch, keys):
        assert bundle.chain is bundle.mark is bundle.wiener
        seq = np.random.SeedSequence((master_seed, tag, *key))
        state = seq.generate_state(4, np.uint64)
        assert np.array_equal(bundle.wiener.bit_generator.seed_seq.generate_state(4, np.uint64), state)
        ref = policy.aux_streams(tag, *key)
        assert bundle.wiener.bit_generator.state == ref.wiener.bit_generator.state
        assert bundle.wiener.standard_normal(3).tolist() == ref.wiener.standard_normal(3).tolist()
        assert bundle.wiener.random() == ref.wiener.random()


def test_aux_streams_batch_takes_an_array_of_keys():
    policy = RngPolicy(901)
    keys = np.column_stack((np.full(40, 5), np.repeat(np.arange(4), 10), np.tile(np.arange(10), 4)))
    for bundle, key in zip(policy.aux_streams_batch(3, keys), keys.tolist()):
        assert bundle.wiener.random() == policy.aux_streams(3, *key).wiener.random()
    assert policy.aux_streams_batch(3, []) == []


@pytest.mark.parametrize("keys", [[(-1,)], np.array([[0, -1]]), [(1,), (1, 2)], [(2**64,)]])
def test_aux_streams_batch_rejects_bad_keys(keys):
    with pytest.raises((ValueError, OverflowError)):
        RngPolicy(0).aux_streams_batch(3, keys)


# ---------------------------------------------------------------------------
# where a path stops: steps, pre-jump state, post-jump state
# ---------------------------------------------------------------------------

def _window_bytes(res):
    events = [(e.k, e.time, e.mark, e.x_before.tobytes(), e.x_after.tobytes())
              for e in res.jump_events]
    return (res.x_end.tobytes(), res.y_end, res.h_end, res.exploded, res.explosion_time,
            np.float64(res.sup_norm).tobytes(), events)


def test_lone_windows_over_the_threshold_before_a_jump_match_their_batch_rows():
    # from 8e11 many case3 paths are past 1e12 by the next jump, each here
    # as the only path of its window
    spec = spec_from_dict(build_preset("case3"))
    cfg = IntegratorConfig()
    pol = RngPolicy(3)
    t0, t1, x0 = 1.0, 1.7, np.array([8e11])
    batch = simulate_batch(spec, cfg, t0, t1, x0, spec.y0, spec.h0,
                           pol.aux_streams_batch(9, [(j,) for j in range(200)]))
    over_before_a_jump = 0
    for j in range(200):
        alone = simulate_window(spec, cfg, t0, t1, x0, spec.y0, spec.h0, pol.aux_streams(9, j))
        assert _window_bytes(alone) == _window_bytes(batch.window(j)), j
        n = len(alone.jump_events)
        if n < batch.jump_times.size and abs(batch.x_before[j, n, 0]) > cfg.overflow_threshold:
            over_before_a_jump += 1
    assert over_before_a_jump > 0


def test_case3_ensemble_of_one_path_chunks_runs():
    # horizon-5 paths run one per chunk; with this seed some of them are past
    # the threshold by the next jump
    spec = spec_from_dict(build_preset("case3"))
    summary = simulate_ensemble(spec, IntegratorConfig(), 5.0, 100, RngPolicy(0))
    assert summary.n_exploded == 100


def test_path_crossing_only_at_a_pre_jump_state_stops_there():
    # x doubles every 0.25 step: 7.5e11 at t = 0.75, 1.5e12 just before the
    # jump at t = 1, and the impulse x -> x + (-x + 0) takes it back to 0
    spec = make_spec(
        drift={"values": [4.0]},
        jump={"kind": "custom-sequence", "maps": [[-1.0, 0.0]]},
        schedule={"kind": "explicit-list", "times": [1.0]},
        initial={"x0": [9.375e10], "y0": 1, "h0": 1},
        horizon=2.0,
    )
    cfg = IntegratorConfig(dt_max=0.25)
    pol = RngPolicy(5)
    alone = simulate_batch(spec, cfg, 0.0, 2.0, spec.x0, 1, 1, [pol.path_streams(0)])
    # beside a path that keeps running, the impulse loop runs past the jump
    pair = simulate_batch(spec, cfg, 0.0, 2.0, [spec.x0, [1.0]], 1, 1,
                          [pol.path_streams(0), pol.path_streams(1)])
    assert not pair.exploded[1] and pair.n_jumps[1] == 1 and pair.x_end[1][0] == 0.0
    for res in (alone, pair):
        assert res.exploded[0]
        assert res.explosion_time[0] == 1.0
        assert res.x_end[0][0] == 1.5e12
        assert res.sup_norm[0] == 1.5e12
        assert res.n_jumps[0] == 0
        assert res.h_end[0] == spec.h0
    for name in BATCH_FIELDS:
        assert getattr(alone, name)[0].tobytes() == getattr(pair, name)[0].tobytes(), name


# ---------------------------------------------------------------------------
# step grid size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t0,t1,dt_max", [
    (1.0, 2.0, 1e-17),                       # 1 + 1e-17 == 1
    (1e10, 1e10 + 1e-3, 1e-9),               # below the float spacing near 1e10
    (1.0, 1.0 + 2.0**-52, 2.0**-53),         # a tie that rounds 1 + dt back to 1
    (0.0, 5.0, 1e-12),                       # 5e12 boundaries
])
def test_step_grid_that_cannot_be_built_is_refused(t0, t1, dt_max):
    spec = make_spec()
    with pytest.raises(ConfigInvalid, match="dt_max"):
        simulate_batch(spec, IntegratorConfig(dt_max=dt_max), t0, t1, spec.x0, 1, 1,
                       [RngPolicy(0).path_streams(0)])


# ---------------------------------------------------------------------------
# record times and result sizes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("record_times", [[-1.0, 1.0], [0.5, 1.5], [math.nan], [0.5, math.inf]])
def test_record_times_outside_the_window_are_refused(record_times):
    spec = make_spec()
    with pytest.raises(ConfigInvalid, match="record times"):
        simulate_batch(spec, IntegratorConfig(), 0.0, 1.0, spec.x0, 1, 1,
                       [RngPolicy(0).path_streams(0)], record_times=np.array(record_times))
    # the window's own ends are record times a batch can take
    res = simulate_batch(spec, IntegratorConfig(), 0.0, 1.0, spec.x0, 1, 1,
                         [RngPolicy(0).path_streams(0)], record_times=np.array([0.0, 1.0]))
    assert res.record_values[0, 0, 0] == spec.x0[0]


def test_ensemble_results_larger_than_the_cap_are_refused_before_allocating():
    # 10**9 paths would need 16 GB of per-path results
    spec = make_spec()
    with pytest.raises(ConfigInvalid, match="bytes"):
        simulate_ensemble(spec, IntegratorConfig(), 1.0, 10**9, RngPolicy(0),
                          record_times=np.array([1.0]))


# ---------------------------------------------------------------------------
# full-horizon paths: one impulse loop per block, steps in chunks
# ---------------------------------------------------------------------------

def _additive_spec():
    return make_spec(
        drift={"kind": "constant", "values": [0.4, -0.2]},
        diffusion={"values": [0.5, 1.0]},
        xi_generator={"q": [[-1.0, 1.0], [1.0, -1.0]]},
        jump={"kind": "exp-mark-clamped", "alpha": 1.0, "sign": -1},
        eta_transition={"p": [[0.5, 0.5], [0.5, 0.5]]},
        schedule={"kind": "harmonic-to-point", "t_star": 2.0, "c": 1.0, "k_max": 30},
        initial={"x0": [2.0], "y0": 1, "h0": 1},
    )


def _dim2_spec():
    return spec_from_dict({
        "drift": {"kind": "linear-per-regime", "values": [-0.5, 0.3], "dim": 2},
        "diffusion": {"kind": "linear-per-regime", "values": [0.4, 0.9], "dim": 2},
        "jump": {"kind": "scale-poly", "scale": 0.3},
        "schedule": {"kind": "harmonic-to-point", "t_star": 2.0, "c": 1.0, "k_max": 40,
                     "delta_min": 1e-9},
        "xi_generator": {"q": [[-2.0, 2.0], [2.0, -2.0]]},
        "eta_transition": {"p": [[1.0]]},
        "initial": {"x0": [1.0, -2.0], "y0": 1, "h0": 1},
        "horizon": 5.0,
    })


def _cascade_spec():
    # no switching, so every path's columns are the shared grid's
    return make_spec(
        drift={"values": [-5.0, 0.0]},
        diffusion={"values": [0.1, 0.1]},
        xi_generator={"q": [[0.0, 0.0], [0.0, 0.0]]},
        jump={"kind": "custom-sequence", "maps": [[1.0, 0.5]]},
        schedule={"kind": "explicit-list", "times": [50.0]},
    )


# name: (spec, window end, dt_max, starting regimes, keyword arguments, bundles of path j)
LONG_WINDOWS = {
    "case1": (lambda: spec_from_dict(build_preset("case1")), 5.0, 1e-3, None, {},
              RngPolicy(31).path_streams),
    "case2": (lambda: spec_from_dict(build_preset("case2")), 5.0, 1e-3, None, {},
              RngPolicy(32).path_streams),
    "case3": (lambda: spec_from_dict(build_preset("case3")), 5.0, 1e-3, None, {},
              RngPolicy(4).path_streams),
    "intro": (lambda: spec_from_dict(build_preset("intro")), 5.0, 1e-3, None, {},
              RngPolicy(33).path_streams),
    "additive": (_additive_spec, 5.0, 1e-3, None, {}, RngPolicy(34).path_streams),
    "dim2": (_dim2_spec, 5.0, 1e-3, None, {}, RngPolicy(35).path_streams),
    "cascade": (_cascade_spec, 100.0, 0.1, [1, 2] * 3, {}, RngPolicy(3).path_streams),
    "cascade-walked": (_cascade_spec, 100.0, 0.1, [1, 2] * 3, {"force_sequential": True},
                       RngPolicy(3).path_streams),
    "aliased": (lambda: spec_from_dict(build_preset("case2")), 5.0, 1e-3, None, {},
                lambda j: RngPolicy(36).aux_streams_batch(2, [(j,)])[0]),
}


def _assert_paths_equal(a, b):
    assert len(a) == len(b)
    for p, (one, other) in enumerate(zip(a, b)):
        for name_, u, v in zip(("times", "states", "regimes", "events"), one, other):
            assert np.asarray(u).tobytes() == np.asarray(v).tobytes(), (p, name_)


@pytest.mark.parametrize("name", list(LONG_WINDOWS))
def test_full_horizon_paths_in_chunks_match_lone_and_one_chunk_runs(monkeypatch, name):
    make, t1, dt_max, regimes, kw, streams_of = LONG_WINDOWS[name]
    spec = make()
    cfg = IntegratorConfig(dt_max=dt_max)
    n = 6
    y = spec.y0 if regimes is None else regimes
    base, _, _, base_jidx = simulate._base_boundaries(spec.realization(), 0.0, t1, dt_max)
    # chunks as long as the first jump's column put a chunk edge on that
    # column and on a record time at twice it (for a path with no switch
    # before them: every cascade path), and inside segments elsewhere
    span = int(base_jidx[0])
    rec = np.unique(base[[0, span + 3, min(2 * span, base.size - 1), base.size - 1]])
    kw = dict(kw, record_times=rec, collect_path=True)
    width = base.size - 1 + rec.size
    additive = simulate._additive(spec)
    # one block, one chunk: a group of all six whole paths
    monkeypatch.setattr(simulate, "_WORK_BYTES", 2 ** 30)
    assert simulate._plan(width, base_jidx.size, spec.dim, additive) >= n
    whole = simulate_batch(spec, cfg, 0.0, t1, spec.x0, y, spec.h0,
                           [streams_of(j) for j in range(n)], **kw)
    # each path alone, in chunks of span steps
    monkeypatch.setattr(simulate, "_WORK_BYTES", span * 128 * spec.dim)
    chunked = _assert_batch_matches_alone(spec, cfg, 0.0, t1, spec.x0, y, spec.h0, streams_of,
                                          n, **kw)
    # a lone path whose one chunk holds all its steps keeps its products
    monkeypatch.setattr(simulate, "_WORK_BYTES", 3 * width // 2 * 128 * spec.dim)
    assert simulate._kept_bytes(width, spec.dim, additive) \
        + simulate._jump_bytes(base_jidx.size, spec.dim) <= 2 * simulate._WORK_BYTES
    lone = simulate_batch(spec, cfg, 0.0, t1, spec.x0, np.broadcast_to(y, n)[0], spec.h0,
                          [streams_of(0)], **kw)
    for name_ in BATCH_FIELDS + ("n_jumps", "record_values", "record_alive"):
        assert getattr(chunked, name_).tobytes() == getattr(whole, name_).tobytes(), name_
        assert getattr(lone, name_).tobytes() == getattr(whole, name_)[:1].tobytes(), name_
    for res, p in [(chunked, p) for p in range(n)] + [(lone, 0)]:
        k = res.n_jumps[p]
        for name_ in ("marks", "x_before", "x_after"):
            assert getattr(res, name_)[p, :k].tobytes() == getattr(whole, name_)[p, :k].tobytes()
    _assert_paths_equal(chunked.paths, whole.paths)
    _assert_paths_equal(lone.paths, whole.paths[:1])


def test_full_horizon_batch_work_memory_stays_near_the_budget():
    spec = spec_from_dict(build_preset("case2"))
    cfg = IntegratorConfig()
    pol = RngPolicy(81)
    rec = np.array([0.5, 1.0, 2.0, 3.0, 5.0])
    # caches and lazy imports first
    simulate_batch(spec, cfg, 0.0, 5.0, spec.x0, spec.y0, spec.h0, [pol.path_streams(200)],
                   record_times=rec)
    streams = [pol.path_streams(i) for i in range(200)]
    tracemalloc.start()
    try:
        simulate_batch(spec, cfg, 0.0, 5.0, spec.x0, spec.y0, spec.h0, streams, record_times=rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk of these 200 paths would hold about 120 MB
    assert peak < 4 * simulate._WORK_BYTES


def test_block_widened_by_a_fast_regime_chain_stays_near_the_budget():
    # _plan sizes blocks of this window by its 50-step shared grid, so all
    # 200 paths are one block; a chain of rate 1e4 adds about 500 switch
    # times to each path, and the block runs in groups of about 13 of them
    preset = build_preset("case2")
    preset["xi_generator"] = {"q": [[-1e4, 1e4], [1e4, -1e4]]}
    spec = spec_from_dict(preset)
    cfg = IntegratorConfig()
    t0, t1 = 1.0, 1.05
    base, jump_times = simulate._base_boundaries(spec.realization(), t0, t1, cfg.dt_max)[:2]
    assert simulate._plan(base.size - 1, jump_times.size, spec.dim, False) == 4369
    pol = RngPolicy(12)
    simulate_batch(spec, cfg, t0, t1, spec.x0, spec.y0, spec.h0, pol.aux_streams_batch(3, [(200,)]))
    streams = pol.aux_streams_batch(3, [(j,) for j in range(200)])
    tracemalloc.start()
    try:
        batch = simulate_batch(spec, cfg, t0, t1, spec.x0, spec.y0, spec.h0, streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk of these 200 paths would hold about 14 MB
    assert peak < 4 * simulate._WORK_BYTES
    for j in range(200):
        alone = simulate_batch(spec, cfg, t0, t1, spec.x0, spec.y0, spec.h0,
                               pol.aux_streams_batch(3, [(j,)]))
        for name in BATCH_FIELDS:
            assert getattr(batch, name)[j].tobytes() == getattr(alone, name)[0].tobytes(), (name, j)


def test_block_of_fast_chains_ends_where_their_switch_times_pass_the_budget(monkeypatch):
    # about 500 switch times a path: a quarter-MiB budget holds those of 16
    # paths, though _plan sizes the block by its 50-step shared grid
    preset = build_preset("case2")
    preset["xi_generator"] = {"q": [[-1e4, 1e4], [1e4, -1e4]]}
    spec = spec_from_dict(preset)
    cfg = IntegratorConfig()
    t0, t1 = 1.0, 1.05
    pol = RngPolicy(12)
    simulate_batch(spec, cfg, t0, t1, spec.x0, spec.y0, spec.h0, pol.aux_streams_batch(3, [(200,)]))
    monkeypatch.setattr(simulate, "_WORK_BYTES", 2 ** 18)
    base, jump_times = simulate._base_boundaries(spec.realization(), t0, t1, cfg.dt_max)[:2]
    assert simulate._plan(base.size - 1, jump_times.size, spec.dim, False) >= 200
    streams = pol.aux_streams_batch(3, [(j,) for j in range(200)])
    tracemalloc.start()
    try:
        batch = simulate_batch(spec, cfg, t0, t1, spec.x0, spec.y0, spec.h0, streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of the 200 paths would hold their 1.6 MB of switch times twice
    assert peak < 4 * simulate._WORK_BYTES
    for j in range(0, 200, 9):
        alone = simulate_batch(spec, cfg, t0, t1, spec.x0, spec.y0, spec.h0,
                               pol.aux_streams_batch(3, [(j,)]))
        for name in BATCH_FIELDS:
            assert getattr(batch, name)[j].tobytes() == getattr(alone, name)[0].tobytes(), (name, j)


def test_batch_results_do_not_depend_on_what_the_heap_held():
    # every case3 path passes the threshold before the horizon, so the
    # impulse loop stops before the window's last jumps
    spec = spec_from_dict(build_preset("case3"))
    cfg = IntegratorConfig()
    pol = RngPolicy(6)
    runs = []
    for fill in (0x5A, 0xFF, 0x01):
        junk = [np.full(2 ** size, fill, dtype=np.uint8) for size in range(8, 20) for _ in range(8)]
        del junk
        runs.append(simulate_batch(spec, cfg, 0.0, 5.0, spec.x0, spec.y0, spec.h0,
                                   [pol.path_streams(j) for j in range(40)]))
    assert (runs[0].n_jumps < runs[0].jump_times.size).all()
    # marks count from 1, so a 0 is an impulse the loop did not reach
    assert (runs[0].marks[:, -1] == 0).all()
    for run in runs[1:]:
        for name in ("marks", "x_before", "x_after", "h_end", "n_jumps"):
            assert getattr(run, name).tobytes() == getattr(runs[0], name).tobytes(), name


@pytest.mark.parametrize("budget", [None, 40 * 128])
def test_a_window_draws_its_chain_then_its_normals_then_one_mark_uniform_per_jump(monkeypatch, budget):
    # an aliased bundle: one generator serves the chain, the normals and the
    # marks, so the order of the draws shows in the marks and the end state;
    # the small budget runs the path in chunks, its normals drawn again from a copy
    spec = spec_from_dict(build_preset("case2"))
    cfg = IntegratorConfig(dt_max=1e-2)
    t0, t1 = 0.5, 1.9
    if budget is not None:
        monkeypatch.setattr(simulate, "_WORK_BYTES", budget)
    bundle = RngPolicy(9).aux_streams_batch(4, [(0,)])[0]
    ref = copy.deepcopy(bundle.chain)
    res = simulate_batch(spec, cfg, t0, t1, [0.5], 2, 1, [bundle])
    assert not res.exploded[0] and res.jump_ks.size == 10
    chain = sample_ctmc(spec.xi_chain, 2, t1 - t0, ref)
    assert chain.switch_times.size
    base = simulate._base_boundaries(spec.realization(), t0, t1, cfg.dt_max)[0]
    ref.standard_normal((np.union1d(base, t0 + chain.switch_times).size - 1, spec.dim))
    h, marks = 1, []
    for k in res.jump_ks.tolist():
        h = sample_dtmc_step(spec.eta_chain, h, k, ref)
        marks.append(h)
    assert res.marks[0].tolist() == marks
    assert bundle.chain.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# plans: groups of whole paths, lone paths in chunks, kept products,
# normals drawn again
# ---------------------------------------------------------------------------

MEANSQ_GRID = np.array([0.5, 1.0, 2.0, 3.0, 5.0])


def _window_plan(spec, t0, t1, dt_max, n_rec):
    base, jump_times = simulate._base_boundaries(spec.realization(), t0, t1, dt_max)[:2]
    return simulate._plan(base.size - 1 + n_rec, jump_times.size, spec.dim,
                          simulate._additive(spec))


def test_plan_of_nested_criterion_03_full_horizon_and_prob_probe_windows():
    # a block keeps its paths' products within twice the budget; its chunks
    # are groups of as many whole paths as 8,192 steps hold
    case2 = spec_from_dict(build_preset("case2"))
    # a supermartingale segment (k = 5): 34 steps, one jump, in groups of 240
    assert _window_plan(case2, 1.8, 2.0 - 1.0 / 6.0, 1e-3, 0) == 4946
    # criterion 03: 1,000 jump-free steps and one record time, in groups of 8
    assert _window_plan(make_spec(), 0.0, 1.0, 1e-3, 1) == 259
    # the mean-square probe over case2's horizon: 5,162 steps, 200 jumps,
    # 37 paths' products kept, each path its own chunk
    assert _window_plan(case2, 0.0, 5.0, 1e-3, MEANSQ_GRID.size) == 37
    # the probability probe's window on case1: 100 jumps over 2,053 steps,
    # in groups of 3
    case1 = spec_from_dict(build_preset("case1"))
    assert _window_plan(case1, 0.0, 1.99, 1e-3, 1) == 88
    assert _window_plan(_additive_spec(), 0.0, 1.99, 1e-3, 1) < 88
    # at dt_max = 1e-4 the 50,108-step window keeps 5 paths' products, each
    # path in chunks of 8,192 steps: their 250,540 steps redrawn would cost
    # more than 200 more loop iterations
    assert _window_plan(case2, 0.0, 5.0, 1e-4, MEANSQ_GRID.size) == 5
    # with 1,000 jumps 4 kept paths are too few: blocks are as many paths as
    # the budget holds of their per-jump state, and the rest draw again
    assert simulate._plan(50_000, 1000, 1, False) == simulate._WORK_BYTES // (1001 * 72)
    # one path's products past twice the budget: its normals are drawn again
    assert simulate._plan(300_000, 0, 1, False) == simulate._WORK_BYTES // 72


@pytest.mark.parametrize("walk", [False, True], ids=["products", "walked"])
def test_plan_modes_give_the_same_bits(monkeypatch, walk):
    # each window as one group of all its paths, then in other chunk forms,
    # each against its lone paths: the mean-square probe's window with each
    # path its own chunk, its products kept, kept for some paths of a block
    # only, and drawn again; the probability probe's window on case1 in
    # groups of 3 whole paths, kept, and in groups of 2 of which a block
    # keeps only its first
    cfg = IntegratorConfig()
    case1 = spec_from_dict(build_preset("case1"))
    case2 = spec_from_dict(build_preset("case2"))
    for spec, t1, rec, n, modes in (
        (case2, 5.0, MEANSQ_GRID, 5, ("one group", "kept", "some kept", "drawn again")),
        (case1, 1.99, np.array([1.99]), 60, ("one group", "groups", "some groups kept")),
    ):
        base, jump_times = simulate._base_boundaries(spec.realization(), 0.0, t1, cfg.dt_max)[:2]
        width = base.size - 1 + rec.size
        kept = simulate._kept_bytes(width, spec.dim, False)
        state = simulate._jump_bytes(jump_times.size, spec.dim)
        runs = {}
        for mode in modes:
            budget = {"one group": 2 ** 30, "some kept": (5 * kept + 10 * state) // 4,
                      "drawn again": 2 * width,
                      "some groups kept": 5 * width // 2 * 128}.get(mode, simulate._WORK_BYTES)
            monkeypatch.setattr(simulate, "_WORK_BYTES", budget)
            block = simulate._plan(width, jump_times.size, spec.dim, False)
            if mode == "one group":
                assert block >= n
            elif mode == "kept":
                assert budget // 128 >= width and block >= n
            elif mode == "groups":
                assert budget // 128 // width == 3 and block >= n
            elif mode == "some kept":
                # twice the budget holds two of the block's five paths
                monkeypatch.setattr(simulate, "_plan", lambda *args: n)
            elif mode == "some groups kept":
                # groups of 2; twice the budget holds the first, not all
                assert budget // 128 // width == 2
                assert n * state + 2 * kept < 2 * budget < n * (state + kept)
                monkeypatch.setattr(simulate, "_plan", lambda *args: n)
            else:
                assert 2 * budget < kept and budget // 128 < width
            runs[mode] = _assert_batch_matches_alone(
                spec, cfg, 0.0, t1, spec.x0, spec.y0, spec.h0, RngPolicy(15).path_streams, n,
                record_times=rec, force_sequential=walk)
            monkeypatch.undo()
        whole = runs.pop("one group")
        for mode, res in runs.items():
            for name in BATCH_FIELDS + ("n_jumps", "record_values", "record_alive"):
                assert getattr(res, name).tobytes() == getattr(whole, name).tobytes(), (mode, name)
            for p in range(n):
                k = res.n_jumps[p]
                for name in ("marks", "x_before", "x_after"):
                    assert getattr(res, name)[p, :k].tobytes() \
                        == getattr(whole, name)[p, :k].tobytes(), (mode, name)


@pytest.mark.parametrize("master_seed", [0, 11, 2**32, 2**64 + 7, 2**96 - 3])
def test_path_streams_batch_matches_path_streams_draw_for_draw(master_seed):
    policy = RngPolicy(master_seed)
    # one-word and two-word indices mixed in one call
    indices = [0, 1, 2**32 - 1, 2**32, 5, 2**40 + 3, 2**64 - 1, 9]
    for batch in (policy.path_streams_batch(indices),
                  policy.path_streams_batch(np.array(indices, dtype=np.uint64)),
                  policy.path_streams_batch(indices[:2])):
        for bundle, i in zip(batch, indices):
            ref = policy.path_streams(i)
            for name in ("chain", "mark", "wiener"):
                gen, ref_gen = getattr(bundle, name), getattr(ref, name)
                assert gen.bit_generator.state == ref_gen.bit_generator.state, (i, name)
                assert gen.standard_normal(5).tolist() == ref_gen.standard_normal(5).tolist()
                assert gen.random(3).tolist() == ref_gen.random(3).tolist()
    assert len({id(g) for b in policy.path_streams_batch(range(6))
                for g in (b.chain, b.mark, b.wiener)}) == 18
    assert policy.path_streams_batch([]) == []


@pytest.mark.parametrize("indices", [[-1, 0, 1, 2], [2**64, 0, 1, 2], [1.0, 2, 3, 4], [0.5]])
def test_path_streams_batch_refuses_bad_indices(indices):
    with pytest.raises((TypeError, OverflowError)):
        RngPolicy(0).path_streams_batch(indices)


def _loop_grid(realization, t0, t1, dt_max):
    """The step grid as a Python float loop builds it, step by step: the
    reference for :func:`simulate._base_boundaries`."""
    def interior(s, e):
        pts, t = [], s
        while e - t > dt_max * (1.0 + 1e-9):
            t = t + dt_max
            if t >= e:
                break
            pts.append(t)
        return pts

    pts, cur = [t0], t0
    for _, tau in realization.jumps_in(t0, t1):
        pts += interior(cur, tau) + [tau]
        cur = tau
    if cur < t1:
        pts += interior(cur, t1) + [t1]
    return np.asarray(pts, dtype=float)


def test_step_grid_matches_the_float_loop_over_a_schedule_sweep():
    # harmonic schedules of both kinds and explicit lists, whose jumps fall
    # on, next to and between multiples of the steps; windows from origins
    # whose sums round differently, across and inside the jumps
    schedules = [{"kind": "explicit-list", "times": []},
                 {"kind": "explicit-list", "times": [0.3, 0.5, 0.7000000000000001, 1.0]},
                 {"kind": "explicit-list", "times": [1.0 / 3.0, 4.0 / 3.0, 1.4, 1.9]}]
    schedules += [{"kind": "harmonic-to-point", "t_star": t_star, "c": c, "k_max": k_max,
                   "delta_min": delta}
                  for t_star in (2.0, 7.0 / 3.0) for c in (1.0, 0.3) for k_max in (7, 200)
                  for delta in (1e-9, 1e-3)]
    schedules += [{"kind": "harmonic-to-zero", "alpha": alpha, "k_max": 50}
                  for alpha in (1.0, 2.5)]
    windows = [(0.0, 1.0), (4.0 / 3.0, 2.0), (0.1, 1.99), (1.5, 1.83), (0.25, 0.2500001)]
    steps = [0.1, 1.0 / 3.0, 2e-2, 1e-3, 7e-4]
    for schedule in schedules:
        realization = make_spec(schedule=schedule).realization()
        for t0, t1 in windows:
            for dt_max in steps:
                grid = simulate._base_boundaries(realization, t0, t1, dt_max)[0]
                ref = _loop_grid(realization, t0, t1, dt_max)
                assert grid.tobytes() == ref.tobytes(), (schedule, t0, t1, dt_max)
    realization = make_spec().realization()
    # the loop's tests at their edges: a remainder of exactly the tolerance,
    # and, as 1e6 + 1e-3 rounds up by more than it, a step onto the end
    edges = [(0.0, 0.5 + 0.5 * (1.0 + 1e-9), 0.5), (1e6, 1e6 + 1e-3, 1e-3)]
    assert edges[0][1] - 0.5 == 0.5 * (1.0 + 1e-9)
    assert edges[1][1] - 1e6 > 1e-3 * (1.0 + 1e-9)
    for t0, t1, dt_max in edges:
        grid = simulate._base_boundaries(realization, t0, t1, dt_max)[0]
        assert grid.tobytes() == _loop_grid(realization, t0, t1, dt_max).tobytes()
    # steps of 1.4 float spacings round to one, so the grid needs more
    # points than the window over dt_max
    t0 = 1e6
    dt_max = 1.4 * np.spacing(t0)
    t1 = t0 + 900 * dt_max
    grid = simulate._base_boundaries(realization, t0, t1, dt_max)[0]
    assert grid.size > 1200
    assert grid.tobytes() == _loop_grid(realization, t0, t1, dt_max).tobytes()


def test_step_grid_refuses_more_points_than_the_limit_as_they_are_built(monkeypatch):
    # steps of 1.4 float spacings round to one: 900 steps by the window's
    # length build 1,261 points, past a limit of 1,000 that the estimate meets
    realization = make_spec().realization()
    t0 = 1e6
    dt_max = 1.4 * np.spacing(t0)
    t1 = t0 + 900 * dt_max
    for limit, size in ((1_000, None), (1_260, None), (1_261, 1_261)):
        # the grid is built again, not taken from the realization's cache
        monkeypatch.delitem(realization.__dict__, "_boundary_cache", raising=False)
        monkeypatch.setattr(simulate, "MAX_BOUNDARIES", limit)
        if size is None:
            with pytest.raises(ConfigInvalid, match="step boundaries"):
                simulate._base_boundaries(realization, t0, t1, dt_max)
        else:
            assert simulate._base_boundaries(realization, t0, t1, dt_max)[0].size == size


def test_step_grid_of_a_million_steps_holds_little_more_than_itself():
    realization = make_spec().realization()
    tracemalloc.start()
    try:
        grid = simulate._base_boundaries(realization, 4.0 / 3.0, 7.0 / 3.0, 1e-6)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.size == 1_000_002
    # a list of Python floats, one per point, took about five times the grid
    assert peak < 3 * grid.nbytes


def test_boundary_cache_is_bounded_by_bytes(monkeypatch):
    # 40 grids of about 5,000 steps are 1.6 MB, far fewer than 4,096 entries
    monkeypatch.setattr(simulate, "_CACHE_BYTES", 2 ** 20, raising=False)
    spec = make_spec(schedule={"kind": "explicit-list", "times": [0.25, 1.75]})
    realization = spec.realization()
    realization.__dict__.pop("_boundary_cache", None)
    grids = [simulate._base_boundaries(realization, 0.0, 5.0 + j * 1e-3, 1e-3) for j in range(40)]
    cache = realization.__dict__["_boundary_cache"]
    held = sum(a.nbytes for hit in cache.values() for a in hit)
    assert 0 < len(cache) < 40
    assert held <= 2 ** 20
    # a cached window is the same object again; one past the bound is built anew
    assert simulate._base_boundaries(realization, 0.0, 5.0, 1e-3) is grids[0]
    again = simulate._base_boundaries(realization, 0.0, 5.039, 1e-3)
    assert again is not grids[-1]
    for a, b in zip(again, grids[-1]):
        assert a.tobytes() == b.tobytes()
