import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zenosde import simulate
from zenosde.markov import IndexOutOfRange, sample_ctmc, sample_dtmc_step
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
    sched = spec.realization().t
    for ev in traj.jump_events:
        # the scheduled float is hit exactly, never straddled
        assert ev.time == sched[ev.k - 1]
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
    assert traj.sup_norm > simulate.OVERFLOW_THRESHOLD


def test_cascade_matches_sequential_walk(monkeypatch):
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
        with monkeypatch.context() as m:
            # every path whose products are not all 1 walks
            m.setattr(simulate, "_CASCADE_LIMIT", 1.0)
            r2 = simulate_window(spec, cfg, 0.0, 2.5, spec.x0, 1, 1, pol.path_streams(0))
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
    # non-finite values would never end the step loop
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigInvalid, match="finite"):
            IntegratorConfig(dt_max=bad)
    spec = make_spec()
    with pytest.raises(ConfigInvalid):
        simulate_path(spec, IntegratorConfig(), -1.0, 0, RngPolicy(0))


@pytest.mark.parametrize("stride", [2.5, 1e1, 0])
def test_record_stride_that_is_not_a_count_is_refused_at_construction(stride):
    # a float stride would run the whole window, then fail collecting it
    with pytest.raises(ConfigInvalid, match="record_stride"):
        IntegratorConfig(record_stride=stride)


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


def test_batch_cascade_fallback_is_decided_per_path(monkeypatch):
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
    monkeypatch.setattr(simulate, "_CASCADE_LIMIT", 1.0)
    walked = _assert_batch_matches_alone(*args, pol.path_streams, 2)
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


def test_package_import_leaves_numpy_random_unloaded_until_streams_are_derived():
    # numpy.random costs about 20 ms to import; the seed class of the batch
    # derivations is defined on first use, so a run without draws skips it,
    # and its generators still pickle
    code = """if True:
        import pickle
        import sys
        import zenosde, zenosde.cli
        assert "numpy.random" not in sys.modules
        from zenosde.simulate import RngPolicy
        policy = RngPolicy(2**40 + 3)
        keys = [(0, 1), (7, 2**33), (2**64 - 1, 0)]
        for bundle, key in zip(policy.aux_streams_batch(5, keys), keys):
            lone = policy.aux_streams(5, *key)
            assert bundle.chain.bit_generator.state == lone.chain.bit_generator.state
            assert bundle.wiener.normal(size=3).tolist() == lone.wiener.normal(size=3).tolist()
            again = pickle.loads(pickle.dumps(bundle.chain))
            assert again.random(2).tolist() == lone.chain.random(2).tolist()
        """
    env = dict(os.environ, PYTHONPATH=str(Path(simulate.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
        if n < batch.jump_times.size and abs(batch.x_before[j, n, 0]) > simulate.OVERFLOW_THRESHOLD:
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


def test_batch_given_no_record_times_equals_one_given_an_empty_array():
    spec = spec_from_dict(build_preset("case2"))
    cfg = IntegratorConfig()
    pol = RngPolicy(12)
    y = [1, 2, 1, 2, 2]
    bundles = {"path": lambda: [pol.path_streams(j) for j in range(5)],
               "aux": lambda: pol.aux_streams_batch(4, [(j,) for j in range(5)])}
    for kind, make in bundles.items():
        runs = []
        for rec in ({}, {"record_times": np.empty(0)}):
            streams = make()
            res = simulate_batch(spec, cfg, 0.0, 1.99, spec.x0, y, spec.h0, streams,
                                 collect_path=True, **rec)
            runs.append((res, [[g.bit_generator.state for g in (b.chain, b.mark, b.wiener)]
                               for b in streams]))
        (none, states), (empty, empty_states) = runs
        assert none.record_values.shape == (5, 0, 1) and none.record_alive.shape == (5, 0)
        assert none.record_alive.dtype == bool
        for name in BATCH_FIELDS + ("n_jumps", "marks", "x_before", "x_after", "record_values",
                                    "record_alive"):
            assert getattr(none, name).tobytes() == getattr(empty, name).tobytes(), (kind, name)
        _assert_paths_equal(none.paths, empty.paths)
        assert states == empty_states, kind
    window = simulate_window(spec, cfg, 0.0, 1.99, spec.x0, 2, 1, pol.path_streams(0))
    assert window.record_values.shape == (0, 1) and window.record_alive.shape == (0,)


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


# name: (spec, window end, dt_max, starting regimes, whether every path walks, bundles of path j)
LONG_WINDOWS = {
    "case1": (lambda: spec_from_dict(build_preset("case1")), 5.0, 1e-3, None, False,
              RngPolicy(31).path_streams),
    "case2": (lambda: spec_from_dict(build_preset("case2")), 5.0, 1e-3, None, False,
              RngPolicy(32).path_streams),
    "case3": (lambda: spec_from_dict(build_preset("case3")), 5.0, 1e-3, None, False,
              RngPolicy(4).path_streams),
    "intro": (lambda: spec_from_dict(build_preset("intro")), 5.0, 1e-3, None, False,
              RngPolicy(33).path_streams),
    "additive": (_additive_spec, 5.0, 1e-3, None, False, RngPolicy(34).path_streams),
    "dim2": (_dim2_spec, 5.0, 1e-3, None, False, RngPolicy(35).path_streams),
    "cascade": (_cascade_spec, 100.0, 0.1, [1, 2] * 3, False, RngPolicy(3).path_streams),
    "cascade-walked": (_cascade_spec, 100.0, 0.1, [1, 2] * 3, True, RngPolicy(3).path_streams),
    "aliased": (lambda: spec_from_dict(build_preset("case2")), 5.0, 1e-3, None, False,
                lambda j: RngPolicy(36).aux_streams_batch(2, [(j,)])[0]),
}


def _assert_paths_equal(a, b):
    assert len(a) == len(b)
    for p, (one, other) in enumerate(zip(a, b)):
        for name_, u, v in zip(("times", "states", "regimes", "events"), one, other):
            assert np.asarray(u).tobytes() == np.asarray(v).tobytes(), (p, name_)


@pytest.mark.parametrize("name", list(LONG_WINDOWS))
def test_full_horizon_paths_in_chunks_match_lone_and_one_chunk_runs(monkeypatch, name):
    make, t1, dt_max, regimes, walk, streams_of = LONG_WINDOWS[name]
    if walk:
        # every path whose products are not all 1 walks
        monkeypatch.setattr(simulate, "_CASCADE_LIMIT", 1.0)
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
    kw = dict(record_times=rec, collect_path=True)
    width = base.size - 1 + rec.size
    additive = simulate._additive(spec)
    # one block, one chunk: a group of all six whole paths
    monkeypatch.setattr(simulate, "_WORK_BYTES", 2 ** 30)
    assert simulate._plan(spec, width, base_jidx.size, rec.size, True) >= n
    whole = simulate_batch(spec, cfg, 0.0, t1, spec.x0, y, spec.h0,
                           [streams_of(j) for j in range(n)], **kw)
    # each path alone, in chunks of span steps
    monkeypatch.setattr(simulate, "_WORK_BYTES", span * 128 * spec.dim)
    chunked = _assert_batch_matches_alone(spec, cfg, 0.0, t1, spec.x0, y, spec.h0, streams_of,
                                          n, **kw)
    # a lone path whose one chunk holds all its steps keeps its products
    monkeypatch.setattr(simulate, "_WORK_BYTES", 3 * width // 2 * 128 * spec.dim)
    assert simulate._kept_bytes(width, spec.dim, additive) \
        + simulate._jump_bytes(base_jidx.size, rec.size, spec.dim, False) \
        <= 2 * simulate._WORK_BYTES
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
    # _plan sizes blocks of this jump-free window by its paths' summaries
    # and their 3 kB of bundle and saved state, so all 200 paths are one
    # block; a chain of rate 1e4 adds about 500 switch times to each path,
    # and the block runs in groups of about 13 of them
    preset = build_preset("case2")
    preset["xi_generator"] = {"q": [[-1e4, 1e4], [1e4, -1e4]]}
    spec = spec_from_dict(preset)
    cfg = IntegratorConfig()
    t0, t1 = 1.0, 1.05
    base, jump_times = simulate._base_boundaries(spec.realization(), t0, t1, cfg.dt_max)[:2]
    assert simulate._plan(spec, base.size - 1, jump_times.size, 0, False) \
        == 2 ** 21 // (96 + 3072) == 661
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
    # about 500 switch times a path: a quarter-MiB budget holds those of 11
    # paths, though _plan's block, sized by its paths' summaries, holds 165
    preset = build_preset("case2")
    preset["xi_generator"] = {"q": [[-1e4, 1e4], [1e4, -1e4]]}
    spec = spec_from_dict(preset)
    cfg = IntegratorConfig()
    t0, t1 = 1.0, 1.05
    pol = RngPolicy(12)
    simulate_batch(spec, cfg, t0, t1, spec.x0, spec.y0, spec.h0, pol.aux_streams_batch(3, [(200,)]))
    monkeypatch.setattr(simulate, "_WORK_BYTES", 2 ** 18)
    base, jump_times = simulate._base_boundaries(spec.realization(), t0, t1, cfg.dt_max)[:2]
    assert simulate._plan(spec, base.size - 1, jump_times.size, 0, False) == 165
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


def test_ensemble_of_many_short_paths_holds_its_bundles_within_the_budget():
    # a window with no jumps and one record time keeps 112 bytes of
    # summaries a path; each path's stream bundle and saved generator state,
    # about 3 kB, live until its block ends, so they size the block too
    spec = make_spec(diffusion={"values": [0.3]})
    cfg = IntegratorConfig()
    rec = np.array([1.0])
    simulate_ensemble(spec, cfg, 1.0, 20, RngPolicy(5), record_times=rec)
    tracemalloc.start()
    try:
        simulate_ensemble(spec, cfg, 1.0, 3000, RngPolicy(5), record_times=rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of the 3,000 paths would hold about 9 MB of them
    assert peak < 4 * simulate._WORK_BYTES


def test_ensemble_of_many_short_two_dimensional_paths_holds_its_bundles_within_the_budget():
    # a window of more than one coordinate is not summarized, and its blocks
    # count each path's 3 kB of stream bundle and saved generator state too:
    # 8,000 paths of 10 steps run in blocks of 624, not of 7,281
    spec = _dim2_spec()
    cfg = IntegratorConfig()
    rec = np.array([0.01])
    assert _window_plan(spec, 0.0, 0.01, cfg.dt_max, rec.size) == 2 ** 21 // (192 + 96 + 3072)
    simulate_ensemble(spec, cfg, 0.01, 20, RngPolicy(5), record_times=rec)
    tracemalloc.start()
    try:
        simulate_ensemble(spec, cfg, 0.01, 8000, RngPolicy(5), record_times=rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of the 8,000 paths would hold about 24 MB of them
    assert peak < 4 * simulate._WORK_BYTES


def _jump_family_preset(name):
    """case2 with mark rows that differ, under each jump family; three marks
    with per-step matrices that hold zeros; and case3, whose paths all pass
    the threshold before the window ends."""
    if name == "case3":
        return build_preset("case3")
    cfg = build_preset("case2")
    cfg["eta_transition"] = {"p": [[0.9, 0.1], [0.2, 0.8]]}
    if name == "three-marks":
        cfg["eta_transition"] = {
            "p": [[0.2, 0.0, 0.8], [0.1, 0.6, 0.3], [0.5, 0.5, 0.0]],
            "per_step": [[[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [0.1, 0.2, 0.7]]] * 150}
    elif name == "scale-poly":
        cfg["jump"] = {"kind": "scale-poly", "scale": 1e-6}
    elif name == "custom-sequence":
        cfg["jump"] = {"kind": "custom-sequence",
                       "maps": [[-0.3 - 1e-3 * k, 0.05 * (-1) ** k] for k in range(1, 201)]}
    elif name == "zero":
        cfg["jump"] = {"kind": "zero"}
    return cfg


@pytest.mark.parametrize("name", ["exp-mark-clamped", "three-marks", "scale-poly",
                                  "custom-sequence", "zero", "case3"])
def test_batch_rows_lone_paths_and_a_loop_of_one_step_per_jump_agree(name):
    # a window with all 200 jumps: each row of a batch is the lone path,
    # and its marks and impulses are those of a loop that steps its mark
    # from the last one and applies the map, one jump at a time
    spec = spec_from_dict(_jump_family_preset(name))
    cfg = IntegratorConfig(dt_max=1e-2)
    t0, t1 = 0.5, 2.0
    n_marks = spec.eta_chain.n_states
    y = [1 + p % 2 for p in range(9)]
    h = [1 + p % n_marks for p in range(9)]
    pol = RngPolicy(4)
    res = simulate_batch(spec, cfg, t0, t1, spec.x0, y, h, [pol.path_streams(p) for p in range(9)])
    n_jumps = res.jump_ks.size
    assert n_jumps == 200
    # marks count from 1, so a 0 is a jump past the end of the impulse loop
    stop = int(np.argmin(np.append(res.marks[0] > 0, False)))
    assert (res.marks[:, :stop] > 0).all() and (res.marks[:, stop:] == 0).all()
    assert stop >= res.n_jumps.max()
    if name == "case3":
        assert stop < n_jumps and res.exploded.all()
    else:
        assert stop == n_jumps and not res.exploded.any()
    for p in range(9):
        lone = simulate_batch(spec, cfg, t0, t1, spec.x0, y[p], h[p], [pol.path_streams(p)])
        n = int(res.n_jumps[p])
        assert lone.n_jumps[0] == n
        for field in ("x_end", "h_end", "exploded", "sup_norm"):
            assert getattr(lone, field)[0].tobytes() == getattr(res, field)[p].tobytes(), field
        for field in ("marks", "x_before", "x_after"):
            assert getattr(lone, field)[0, :n].tobytes() == getattr(res, field)[p, :n].tobytes()
        draws, mark = pol.path_streams(p).mark, h[p]
        for s, k in enumerate(res.jump_ks[:stop].tolist()):
            mark = sample_dtmc_step(spec.eta_chain, mark, k, draws)
            assert res.marks[p, s] == mark, (p, s)
            before = res.x_before[p, s]
            with np.errstate(all="ignore"):
                after = before + spec.jump.evaluate(k, y[p], mark, before)
            assert after.tobytes() == res.x_after[p, s].tobytes(), (p, s)


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
    # the small budget runs the path in chunks of 40 steps, each continuing
    # the products of the one before
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


def test_normals_drawn_again_from_a_copy_leave_an_aliased_bundle_as_one_draw(monkeypatch):
    # the window above, collected under a budget too small to keep its
    # products: the per-column pass draws the normals again from a copy of
    # the generator set back, so the results and the bundle's one generator
    # are those of the run that keeps its products and draws them once
    spec = spec_from_dict(build_preset("case2"))
    cfg = IntegratorConfig(dt_max=1e-2)
    kw = dict(record_times=np.array([1.0, 1.9]), collect_path=True)
    runs, states = [], []
    for budget in (None, 4 * 128):
        if budget is not None:
            monkeypatch.setattr(simulate, "_WORK_BYTES", budget)
        copies = []
        copy_ = copy.copy
        monkeypatch.setattr(copy, "copy", lambda obj: copies.append(obj) or copy_(obj))
        bundle = RngPolicy(9).aux_streams_batch(4, [(0,)])[0]
        runs.append(simulate_batch(spec, cfg, 0.5, 1.9, [0.5], 2, 1, [bundle], **kw))
        states.append(bundle.chain.bit_generator.state)
        monkeypatch.undo()
        assert bool(copies) == (budget is not None)
    for name in BATCH_FIELDS + ("marks", "x_before", "x_after", "record_values"):
        assert getattr(runs[1], name).tobytes() == getattr(runs[0], name).tobytes(), name
    _assert_paths_equal(runs[1].paths, runs[0].paths)
    assert states[1] == states[0]


@pytest.mark.parametrize("budget", [None, 40 * 128])
@pytest.mark.parametrize("kind", ["path", "aux"])
def test_batch_of_absorbing_switch_free_and_switching_chains_draws_as_lone_paths(
        monkeypatch, kind, budget):
    # regime 1 absorbs, regime 2 seldom leaves within the window and regime 3
    # always does: after the window each path's generators are where a lone
    # path leaves them, having drawn its chain, one normal per step of its
    # own grid, then one mark uniform per jump; its end state is the product
    # of its steps' factors, each in the regime its chain is in
    spec = make_spec(drift={"values": [-1.0, 0.5, -0.2]}, diffusion={"values": [0.3, 0.4, 0.5]},
                     xi_generator={"q": [[0.0, 0.0, 0.0], [0.1, -0.2, 0.1], [20.0, 20.0, -40.0]]},
                     schedule={"kind": "explicit-list", "times": [0.3, 0.45, 0.8]})
    cfg = IntegratorConfig(dt_max=1e-2)
    t0, t1 = 0.25, 1.0
    if budget is not None:
        monkeypatch.setattr(simulate, "_WORK_BYTES", budget)
    y = [1 + p % 3 for p in range(30)]
    policy = RngPolicy(21)

    def bundles():
        if kind == "path":
            return policy.path_streams_batch(range(len(y)))
        return policy.aux_streams_batch(8, [(p, 2) for p in range(len(y))])

    streams, refs = bundles(), bundles()
    res = simulate_batch(spec, cfg, t0, t1, [1.0], y, 1, streams)
    base, jump_times = simulate._base_boundaries(spec.realization(), t0, t1, cfg.dt_max)[:2]
    a_lin, b_lin = (np.array([f.linear_rate(r) for r in (1, 2, 3)])
                    for f in (spec.drift, spec.diffusion))
    kinds = set()
    for p, (bundle, ref) in enumerate(zip(streams, refs)):
        chain = sample_ctmc(spec.xi_chain, y[p], t1 - t0, ref.chain)
        kinds.add("absorbing" if y[p] == 1 else "switching" if chain.switch_times.size
                  else "switch-free")
        grid = np.union1d(base, t0 + chain.switch_times)
        z = ref.wiener.standard_normal((grid.size - 1, spec.dim))[:, 0]
        ref.mark.random(jump_times.size)
        ri, dt = chain.state_at(grid[:-1] - t0) - 1, np.diff(grid)
        x_end = np.prod(1.0 + a_lin[ri] * dt + b_lin[ri] * np.sqrt(dt) * z)
        assert res.x_end[p, 0] == pytest.approx(x_end, rel=1e-9), p
        for g, r in ((bundle.chain, ref.chain), (bundle.mark, ref.mark),
                     (bundle.wiener, ref.wiener)):
            assert g.bit_generator.state == r.bit_generator.state, p
    assert kinds == {"absorbing", "switch-free", "switching"}
    assert res.n_jumps.tolist() == [3] * len(y) == [jump_times.size] * len(y)


@pytest.mark.parametrize("bad", [0, 3])
def test_batch_refuses_a_start_regime_out_of_range_before_any_path_draws(bad):
    # regime 0 would index the last exit rate and regime 3 past the table;
    # the first bad path's regime is named, with sample_ctmc's message
    spec = spec_from_dict(build_preset("case2"))
    streams = RngPolicy(4).path_streams_batch(range(4))
    before = [g.bit_generator.state for b in streams for g in (b.chain, b.wiener, b.mark)]
    with pytest.raises(IndexOutOfRange, match=f"^state {bad} outside 1..2$"):
        simulate_batch(spec, IntegratorConfig(), 0.0, 0.5, [1.0], [1, 2, bad, 3 - bad], 1,
                       streams)
    assert [g.bit_generator.state for b in streams for g in (b.chain, b.wiener, b.mark)] == before


# ---------------------------------------------------------------------------
# plans: groups of whole paths, lone paths in chunks, kept products,
# normals drawn again
# ---------------------------------------------------------------------------

MEANSQ_GRID = np.array([0.5, 1.0, 2.0, 3.0, 5.0])


def _window_plan(spec, t0, t1, dt_max, n_rec, collect_path=False):
    base, jump_times = simulate._base_boundaries(spec.realization(), t0, t1, dt_max)[:2]
    return simulate._plan(spec, base.size - 1 + n_rec, jump_times.size, n_rec, collect_path)


def test_plan_of_nested_criterion_03_full_horizon_and_prob_probe_windows():
    # a summarized window's block is as many paths as twice the budget holds
    # of their state at each jump (80 bytes with the segment's largest
    # product), 16 bytes per state returned and 3 kB of stream bundle and
    # saved generator state, however long its segments
    case2 = spec_from_dict(build_preset("case2"))
    # a supermartingale segment (k = 5): 34 steps, one jump
    assert _window_plan(case2, 1.8, 2.0 - 1.0 / 6.0, 1e-3, 0) \
        == 2 ** 21 // (2 * 80 + 16 + 3072) == 645
    # criterion 03: 1,000 jump-free steps and one record time
    assert _window_plan(make_spec(), 0.0, 1.0, 1e-3, 1) == 2 ** 21 // (80 + 32 + 3072) == 658
    # the mean-square probe over case2's horizon: 200 jumps, so 200 paths
    # run in 2 blocks, at dt_max = 1e-3 (5,162 steps) and at 1e-4 (50,108)
    assert _window_plan(case2, 0.0, 5.0, 1e-3, MEANSQ_GRID.size) \
        == 2 ** 21 // (201 * 80 + 96 + 3072) \
        == _window_plan(case2, 0.0, 5.0, 1e-4, MEANSQ_GRID.size) == 108
    # the probability probe's window on case1: 100 jumps
    case1 = spec_from_dict(build_preset("case1"))
    assert _window_plan(case1, 0.0, 1.99, 1e-3, 1) == 187

    # collected paths keep their products within twice the budget, with
    # their state at each jump and 3 kB of stream bundle and saved generator
    # state each; their chunks are groups of as many whole paths as 8,192
    # steps hold
    assert _window_plan(case2, 1.8, 2.0 - 1.0 / 6.0, 1e-3, 0, True) \
        == 2 ** 21 // (35 * 8 + 2 * 72 + 3072) == 599  # groups of 240
    assert _window_plan(make_spec(), 0.0, 1.0, 1e-3, 1, True) == 187  # in groups of 8
    # 35 paths' products kept, each path its own chunk
    assert _window_plan(case2, 0.0, 5.0, 1e-3, MEANSQ_GRID.size, True) == 35
    assert _window_plan(case1, 0.0, 1.99, 1e-3, 1, True) == 78  # in groups of 3
    # at dt_max = 1e-4 the 50,108-step window keeps 5 paths' products, each
    # path in chunks of 8,192 steps: their 250,540 steps redrawn would cost
    # more than 200 more loop iterations
    assert _window_plan(case2, 0.0, 5.0, 1e-4, MEANSQ_GRID.size, True) == 5
    # so do paths with an additive part or more than one coordinate
    assert _window_plan(_additive_spec(), 0.0, 1.99, 1e-3, 1) < 78
    dim2 = _dim2_spec()
    # 2 kept paths of 50,000 steps hold 200 steps per jump of 500, enough;
    # per jump of 1,000 they are too few: blocks are as many paths as the
    # budget holds of their per-jump state (96 bytes a jump, and 3 kB), and
    # the rest draw again
    assert simulate._plan(dim2, 50_000, 500, 0, False) == 2
    assert simulate._plan(dim2, 50_000, 1000, 0, False) \
        == simulate._WORK_BYTES // (1001 * 96 + 3072) == 10
    # one path's products past twice the budget: its normals are drawn again
    assert simulate._plan(dim2, 150_000, 0, 0, False) == simulate._WORK_BYTES // (96 + 3072)


@pytest.mark.parametrize("walk", [False, True], ids=["products", "walked"])
def test_plan_modes_give_the_same_bits(monkeypatch, walk):
    # each window as one group of all its paths, then in other chunk forms,
    # each against its lone paths: the mean-square probe's window with each
    # path its own chunk, its products kept, kept for some paths of a block
    # only, and drawn again; the probability probe's window on case1 in
    # groups of 3 whole paths, kept, and in groups of 2 of which a block
    # keeps only its first.  Each form runs summarized and collected; a
    # collected path takes the per-column pass, which reads its kept
    # products or draws its normals again from a copy of its generator
    cfg = IntegratorConfig()
    case1 = spec_from_dict(build_preset("case1"))
    case2 = spec_from_dict(build_preset("case2"))
    copy_ = copy.copy
    for spec, t1, rec, n, modes in (
        (case2, 5.0, MEANSQ_GRID, 5, ("one group", "kept", "some kept", "drawn again")),
        (case1, 1.99, np.array([1.99]), 60, ("one group", "groups", "some groups kept")),
    ):
        base, jump_times = simulate._base_boundaries(spec.realization(), 0.0, t1, cfg.dt_max)[:2]
        width = base.size - 1 + rec.size
        kept = simulate._kept_bytes(width, spec.dim, False)
        runs = {}
        for collect in (False, True):
            state = simulate._jump_bytes(jump_times.size, rec.size, spec.dim, not collect)
            for mode in modes:
                budget = {"one group": 2 ** 30, "some kept": (5 * kept + 10 * state) // 4,
                          "drawn again": 2 * width,
                          "some groups kept": 5 * width // 2 * 128}.get(mode, simulate._WORK_BYTES)
                monkeypatch.setattr(simulate, "_WORK_BYTES", budget)
                block = simulate._plan(spec, width, jump_times.size, rec.size, collect)
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
                if walk:
                    # every path whose products are not all 1 walks
                    monkeypatch.setattr(simulate, "_CASCADE_LIMIT", 1.0)
                # the generators copied to draw normals again
                copies = []
                monkeypatch.setattr(copy, "copy", lambda obj: copies.append(obj) or copy_(obj))
                runs[collect, mode] = _assert_batch_matches_alone(
                    spec, cfg, 0.0, t1, spec.x0, spec.y0, spec.h0, RngPolicy(15).path_streams, n,
                    record_times=rec, collect_path=collect)
                monkeypatch.undo()
                if not walk:
                    # no case1 or case2 path needs the per-column pass when
                    # summarized; a collected one draws again where its
                    # products are not kept
                    drawn = collect and mode in ("some kept", "drawn again", "some groups kept")
                    assert bool(copies) == drawn, (collect, mode)
        whole = runs.pop((False, "one group"))
        for (collect, mode), res in runs.items():
            for name in BATCH_FIELDS + ("n_jumps", "record_values", "record_alive"):
                assert getattr(res, name).tobytes() == getattr(whole, name).tobytes(), \
                    (collect, mode, name)
            for p in range(n):
                k = res.n_jumps[p]
                for name in ("marks", "x_before", "x_after"):
                    assert getattr(res, name)[p, :k].tobytes() \
                        == getattr(whole, name)[p, :k].tobytes(), (collect, mode, name)


# ---------------------------------------------------------------------------
# summarized windows against the per-column pass, which a collected path
# always takes
# ---------------------------------------------------------------------------

def _stiff_spec():
    # regime 1's step factors are about 0.2 at dt_max = 2e-3: its paths walk
    cfg = build_preset("case2")
    cfg["drift"]["values"] = [-400.0, 0.5]
    return spec_from_dict(cfg)


def _zeroing_spec():
    # regime 1 shrinks the products by about 1e-111 per unit of time, and
    # regime 2, which absorbs, grows them by about 1e73; the jump at 1.5
    # sends every state to 0, so a path that switches late enough has a
    # segment whose largest product over its start's overflows: 0 * inf
    return make_spec(drift={"values": [-200.0, 200.0]}, diffusion={"values": [0.0, 0.0]},
                     xi_generator={"q": [[-1.0, 1.0], [0.0, 0.0]]},
                     jump={"kind": "custom-sequence", "maps": [[-1.0, 0.0]]},
                     schedule={"kind": "explicit-list", "times": [1.5]})


def _assert_summary_matches_collected(spec, cfg, t0, t1, n, streams_of, rec):
    """Paths 0..n-1 summarized and collected: every result field but the
    paths is the same, the jump records up to the jumps each path applied."""
    assert simulate._summarized(spec, False) and not simulate._summarized(spec, True)
    runs = [simulate_batch(spec, cfg, t0, t1, spec.x0, spec.y0, spec.h0,
                           [streams_of(j) for j in range(n)], record_times=rec, collect_path=c)
            for c in (False, True)]
    for name in BATCH_FIELDS + ("n_jumps", "jump_times", "jump_ks", "record_values",
                                "record_alive"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name
    for p, k in enumerate(runs[0].n_jumps.tolist()):
        for name in ("marks", "x_before", "x_after"):
            assert getattr(runs[0], name)[p, :k].tobytes() \
                == getattr(runs[1], name)[p, :k].tobytes(), (name, p)
    return runs[0]


# name: (spec, window, dt_max, paths, bundles of path j, record times)
SUMMARIZED_WINDOWS = {
    # two summarized blocks, of 108 paths and 22
    "case2-blocks": (lambda: spec_from_dict(build_preset("case2")), (0.0, 5.0), 1e-3, 130,
                     RngPolicy(41).path_streams, MEANSQ_GRID),
    # paths pass the threshold at jumps, in groups whose products are not
    # kept
    "case3": (lambda: spec_from_dict(build_preset("case3")), (0.0, 5.0), 1e-3, 150,
              RngPolicy(42).path_streams, MEANSQ_GRID),
    # every path stops at the first jump, where its map multiplies it by
    # about 1e13; its later segments pass the threshold too
    "stop-at-jump": (lambda: make_spec(diffusion={"values": [0.3]},
                                       jump={"kind": "custom-sequence", "maps": [[1e13, 0.0]] * 2},
                                       schedule={"kind": "explicit-list", "times": [0.5, 1.0]}),
                     (0.0, 2.0), 1e-3, 20, RngPolicy(43).path_streams, np.array([0.25, 1.5])),
    # paths of regime 1 pass the threshold inside segments
    "inside-segments": (lambda: make_spec(drift={"values": [30.0, -1.0]},
                                          diffusion={"values": [0.5, 0.5]},
                                          xi_generator={"q": [[-2.0, 2.0], [2.0, -2.0]]},
                                          jump={"kind": "custom-sequence",
                                                "maps": [[-0.5, 0.0]] * 3},
                                          schedule={"kind": "explicit-list",
                                                    "times": [0.5, 1.0, 1.5]}),
                        (0.0, 2.0), 1e-3, 30, RngPolicy(49).path_streams, np.array([0.7, 1.2])),
    "stiff": (_stiff_spec, (0.0, 5.0), 2e-3, 20, RngPolicy(44).path_streams, MEANSQ_GRID),
    # one path in chunks of 8,192 of its 50,108 steps
    "lone-chunks": (lambda: spec_from_dict(build_preset("case2")), (0.0, 5.0), 1e-4, 1,
                    RngPolicy(45).path_streams, MEANSQ_GRID),
    # groups of many whole short paths
    "short": (lambda: spec_from_dict(build_preset("case2")), (1.5, 1.83), 1e-3, 40,
              lambda j: RngPolicy(46).aux_streams(2, j), np.array([1.5, 1.7, 1.83])),
    "short-jumps": (lambda: spec_from_dict(build_preset("case2")), (1.0, 1.7), 1e-3, 40,
                    RngPolicy(47).path_streams, np.array([1.2, 1.5])),
    "zeroing": (_zeroing_spec, (0.0, 8.0), 2e-3, 60, RngPolicy(3).path_streams,
                np.array([1.0, 1.5, 4.0, 8.0])),
}


@pytest.mark.parametrize("name", list(SUMMARIZED_WINDOWS))
def test_summarized_windows_match_the_per_column_pass(name):
    make, (t0, t1), dt_max, n, streams_of, rec = SUMMARIZED_WINDOWS[name]
    spec = make()
    res = _assert_summary_matches_collected(spec, IntegratorConfig(dt_max=dt_max), t0, t1, n,
                                            streams_of, rec)
    if name == "case3":
        assert res.exploded.all() and (res.n_jumps < res.jump_ks.size).any()
        # the block's summaries leave twice the budget no room for one
        # path's products
        base, jump_times = simulate._base_boundaries(spec.realization(), t0, t1, dt_max)[:2]
        width = base.size - 1 + rec.size
        block = simulate._plan(spec, width, jump_times.size, rec.size, False)
        assert block < n
        assert block * simulate._jump_bytes(jump_times.size, rec.size, 1, True) \
            + simulate._kept_bytes(width, 1, False) > 2 * simulate._WORK_BYTES
    elif name == "inside-segments":
        exploded = res.exploded.nonzero()[0]
        inside = ~np.isin(res.explosion_time[exploded], res.jump_times)
        assert inside.any() and not res.exploded.all()
    elif name == "stop-at-jump":
        assert res.exploded.all() and (res.n_jumps == 1).all()
    elif name == "zeroing":
        # a live path whose end state is 0 * inf
        assert np.isnan(res.x_end[~res.exploded]).any()


def test_every_path_walked_matches_the_per_column_pass(monkeypatch):
    # every path whose products are not all 1 walks
    monkeypatch.setattr(simulate, "_CASCADE_LIMIT", 1.0)
    spec = spec_from_dict(build_preset("case2"))
    for t0, t1, n in ((0.0, 5.0, 6), (1.0, 1.7, 30)):
        _assert_summary_matches_collected(spec, IntegratorConfig(), t0, t1, n,
                                          RngPolicy(48).path_streams, np.array([t0, t1]))


def test_only_paths_whose_bounds_may_pass_the_threshold_take_the_per_column_pass(monkeypatch):
    # the per-column pass measures each chunk of a path's states, where the
    # impulse loop's norms have one column per jump: a zeroing path that
    # switches between 1.9 and 2.2 keeps its products within the walk's
    # range, and its bound after the jump is 0 * inf = NaN; a case2 path
    # has bounds that are numbers below the threshold
    shapes = []
    norms = simulate._norms
    monkeypatch.setattr(simulate, "_norms",
                        lambda v, pointwise=False: shapes.append(v.shape) or norms(v, pointwise))
    zeroing, pol = _zeroing_spec(), RngPolicy(3)
    switch = [sample_ctmc(zeroing.xi_chain, 1, 8.0, pol.path_streams(j).chain).switch_times
              for j in range(60)]
    p = next(j for j, sw in enumerate(switch) if sw.size and 1.9 < sw[0] < 2.2)
    case2 = spec_from_dict(build_preset("case2"))
    for spec, t1, dt_max, streams, per_column in ((zeroing, 8.0, 2e-3, pol.path_streams(p), True),
                                                  (case2, 1.7, 1e-3, pol.path_streams(0), False)):
        shapes.clear()
        res = simulate_batch(spec, IntegratorConfig(dt_max=dt_max), 0.0, t1, spec.x0, spec.y0,
                             spec.h0, [streams])
        assert not res.exploded[0] and np.isnan(res.x_end[0, 0]) == per_column
        assert (max(shape[1] for shape in shapes) > res.jump_ks.size) == per_column


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
    for tau in realization.jumps_in(t0, t1)[1].tolist():
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


# ---------------------------------------------------------------------------
# kernel seams: the step-factor function and the block grid
# ---------------------------------------------------------------------------

def _digest_specs():
    """The specs of tools/digest_outputs.py, built from this package."""
    import importlib.util

    import zenosde.cli
    import zenosde.system

    path = Path(__file__).resolve().parents[1] / "tools" / "digest_outputs.py"
    found = importlib.util.spec_from_file_location("digest_outputs", path)
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module.specs(zenosde)


def test_a_zero_length_padding_step_has_factor_one_and_no_additive_part():
    # a block pads its shorter grids with zero-length steps and runs one
    # cumprod over them all, so such a step must leave a path as it is, in
    # any regime and for any normal
    z = np.concatenate((np.random.default_rng(3).standard_normal(50), [0.0, -0.0, 1e300, -1e300]))
    for name, spec in _digest_specs().items():
        regimes = np.repeat(np.arange(1, spec.n_regimes + 1), z.size).reshape(spec.n_regimes, -1)
        normals = np.repeat(np.tile(z, spec.n_regimes)[:, None], spec.dim, axis=1)
        m_fac, u_add = simulate._step_factors(simulate._coeff_tables(spec), regimes,
                                              np.zeros(regimes.shape),
                                              normals.reshape(*regimes.shape, spec.dim), True)
        assert (m_fac == 1.0).all() and (u_add == 0.0).all(), name


def _fast_chain_spec():
    preset = build_preset("case2")
    preset["xi_generator"] = {"q": [[-20.0, 20.0], [20.0, -20.0]]}
    return spec_from_dict(preset)


@pytest.mark.parametrize("t0,t1", [(1.0, 1.7), (1.3, 1.9), (1.5, 1.83), (3.0, 4.5)])
def test_block_grid_regimes_are_the_chain_states_at_each_step_start(t0, t1):
    # today's rule: a step starting at b is in the state of the chain's last
    # switch s with s <= fl(b - t0), in every chunk of steps, at every
    # column a path may stop at, and with switch times inserted or not
    spec = _fast_chain_spec()
    cfg = IntegratorConfig(dt_max=2e-3)
    rec = np.array([t0, (t0 + t1) / 2, t1])
    base, jump_times, _, base_jidx = simulate._base_boundaries(spec.realization(), t0, t1,
                                                               cfg.dt_max)
    y = np.array([1 + p % 2 for p in range(12)])
    draws = simulate._Draws(spec, t1 - t0, y.tolist(),
                            RngPolicy(7).aux_streams_batch(5, [(p,) for p in range(12)]),
                            jump_times.size)
    assert draws.n == 12 and len(draws.chains) >= 10
    grid = simulate._BlockGrid(spec, t0, base, base_jidx, jump_times, rec, y, draws.chains, False)
    states = {}
    for p in range(12):
        bounds = grid.grid_of(p)
        chain = draws.chains.get(p)
        states[p] = np.full(bounds.size, y[p]) if chain is None else chain.state_at(bounds - t0)
    # a group of whole paths, and each path alone in chunks of its steps
    regimes = grid.steps_of(slice(0, 12), 0, grid.width)[0]
    for p in range(12):
        n = int(grid.steps[p])
        assert regimes[p, :n].tolist() == states[p][:n].tolist(), p
        for a, b in [(0, n // 5), (n // 5, n // 2), (n // 2, n)]:
            assert grid.steps_of(slice(p, p + 1), a, b)[0][0].tolist() \
                == states[p][a:b].tolist(), (p, a, b)
    for col in range(int(grid.steps.min()) + 1):
        assert grid.regime_at(np.full(12, col)).tolist() == [states[p][col] for p in range(12)]


@pytest.mark.xfail(strict=True, reason=(
    "a switch acts from the first step whose start b has fl(b - t0) >= s, and for about "
    "half of switch times fl(fl(t0 + s) - t0) < s, so at t0 > 0 the step that starts at the "
    "switch's own boundary often runs in the old regime, up to dt_max late; the fix moves "
    "output bits on nested windows, so it waits for a tool_version bump"))
def test_a_switch_inside_a_window_from_t0_above_zero_acts_from_its_own_boundary():
    spec = spec_from_dict(build_preset("case2"))
    cfg = IntegratorConfig()
    t0, t1 = 1.3, 1.9
    policy = RngPolicy(23)
    keys = [(p,) for p in range(400)]
    res = simulate_batch(spec, cfg, t0, t1, spec.x0, spec.y0, spec.h0,
                         policy.aux_streams_batch(4, keys), collect_path=True)
    late, boundaries = 0, 0
    for (times, _, regimes, _), bundle in zip(res.paths, policy.aux_streams_batch(4, keys)):
        chain = sample_ctmc(spec.xi_chain, spec.y0, t1 - t0, bundle.chain)
        for s, state in zip(chain.switch_times.tolist(), chain.states[1:].tolist()):
            row = int(np.searchsorted(times, t0 + s))
            boundaries += 1
            late += int(regimes[row] != state)
    assert boundaries > 100
    assert late == 0, f"{late} of {boundaries} switch boundaries carry the old regime"
