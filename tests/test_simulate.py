import math

import numpy as np
import pytest

from zenosde.markov import sample_ctmc
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
    cfg = IntegratorConfig(dt_max=0.1, refine_near_star=False)
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
