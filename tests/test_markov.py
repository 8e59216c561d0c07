import copy
import math

import numpy as np
import pytest

from zenosde.markov import (
    IndexOutOfRange,
    NegativeOffDiagonal,
    NonSquare,
    RowNotStochastic,
    RowSumNonZero,
    sample_ctmc,
    sample_dtmc_step,
    validate_generator,
    validate_transition_matrix,
)
from zenosde.markov import ChainPath, _draw_categorical

SYM2 = [[-1.0, 1.0], [1.0, -1.0]]


def test_validate_generator_accepts_symmetric_two_state():
    gen = validate_generator(SYM2)
    assert gen.n_states == 2
    assert gen.exit_rate(1) == 1.0


def test_validate_generator_accepts_zero_generator():
    gen = validate_generator([[0.0, 0.0], [0.0, 0.0]])
    assert gen.exit_rate(1) == 0.0
    assert gen.exit_rate(2) == 0.0


def test_validate_generator_rejects_bad_row_sum():
    with pytest.raises(RowSumNonZero):
        validate_generator([[-1.0, 0.5], [1.0, -1.0]])


def test_validate_generator_rejects_nonsquare_and_negative_rates():
    with pytest.raises(NonSquare):
        validate_generator([[0.0, 0.0]])
    with pytest.raises(NegativeOffDiagonal):
        validate_generator([[1.0, -1.0], [1.0, -1.0]])


@pytest.mark.parametrize("q", [
    [[math.nan, 1.0], [1.0, -1.0]],
    [[-1.0, math.nan], [1.0, -1.0]],
    [[-1.0, 1.0], [math.nan, math.nan]],
    [[-math.inf, math.inf], [1.0, -1.0]],
])
def test_validate_generator_rejects_non_finite_entries(q):
    with pytest.raises((NegativeOffDiagonal, RowSumNonZero)):
        validate_generator(q)


def test_normalized_jump_matrix_rows():
    gen = validate_generator([[-2.0, 1.5, 0.5], [0.0, 0.0, 0.0], [3.0, 0.0, -3.0]])
    q = gen.normalized_jump_matrix()
    assert np.allclose(q[0], [0.0, 0.75, 0.25])
    assert np.allclose(q[1], 0.0)  # absorbing row
    assert np.allclose(q[2], [1.0, 0.0, 0.0])


def test_zero_generator_holds_forever(rng):
    path = sample_ctmc(validate_generator([[0.0, 0.0], [0.0, 0.0]]), 1, 10.0, rng)
    assert path.switch_times.size == 0
    assert path.state_at(0.0) == 1
    assert path.state_at(9.99) == 1


def test_ctmc_same_seed_same_path():
    gen = validate_generator(SYM2)
    p1 = sample_ctmc(gen, 1, 50.0, np.random.default_rng(99))
    p2 = sample_ctmc(gen, 1, 50.0, np.random.default_rng(99))
    assert np.array_equal(p1.switch_times, p2.switch_times)
    assert np.array_equal(p1.states, p2.states)


def test_ctmc_holding_time_mean(rng):
    # every hold of the symmetric rate-1 chain is Exp(1); the empirical mean
    # over 1e5 holds must sit within 0.02 of 1.0 (about 6 standard errors)
    gen = validate_generator(SYM2)
    path = sample_ctmc(gen, 1, 102_000.0, rng)
    holds = np.diff(np.concatenate([[0.0], path.switch_times]))
    assert holds.size > 100_000
    mean = holds[:100_000].mean()
    assert abs(mean - 1.0) < 0.02


@pytest.mark.parametrize("q,rate", [([[-2.0, 2.0], [0.5, -0.5]], 2.0), ([[-0.3, 0.3], [0.3, -0.3]], 0.3)])
def test_ctmc_holding_time_three_se(q, rate, rng):
    gen = validate_generator(q)
    cycle = 1.0 / rate + 1.0 / gen.exit_rate(2)
    path = sample_ctmc(gen, 1, 11_000.0 * cycle, rng)
    holds = np.diff(np.concatenate([[0.0], path.switch_times]))
    in_state_1 = holds[::2][:10_000]  # the two-state path alternates, state 1 first
    assert in_state_1.size == 10_000
    se = (1.0 / rate) / np.sqrt(in_state_1.size)
    assert abs(in_state_1.mean() - 1.0 / rate) < 3.0 * se


def test_chain_path_invariants(rng):
    gen = validate_generator([[-3.0, 1.0, 2.0], [0.5, -1.0, 0.5], [2.0, 2.0, -4.0]])
    for y0 in (1, 2, 3):
        path = sample_ctmc(gen, y0, 20.0, rng)
        assert (np.diff(path.switch_times) > 0).all()
        assert (path.states[1:] != path.states[:-1]).all()
        # evaluation picks the state of the last switch at or before t
        if path.switch_times.size:
            t = path.switch_times[0]
            assert path.state_at(t) == path.states[1]
            assert path.state_at(t - 1e-12) == path.states[0]


def _sample_ctmc_loop(gen, y0, horizon, rng):
    """The chain sampler as one loop over holding times (the reference)."""
    rates, cdfs = gen._sampling_tables()
    times = []
    states = [y0]
    t = 0.0
    y = y0
    while True:
        rate = rates[y - 1]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            break
        y = _draw_categorical(cdfs[y - 1], rng.random())
        times.append(t)
        states.append(y)
    return ChainPath(start=0.0, end=horizon, switch_times=np.asarray(times, dtype=float),
                     states=np.asarray(states, dtype=np.int64))


def _first_hold(gen, y0, rng):
    return copy.deepcopy(rng).exponential(1.0 / gen.exit_rate(y0))


@pytest.mark.parametrize("q,y0,horizon", [
    # absorbing start: no draw at all
    ([[0.0, 0.0], [1.0, -1.0]], 1, 5.0),
    # first holding time exactly at the horizon, and past it
    (SYM2, 1, _first_hold),
    ([[-0.01, 0.01], [1.0, -1.0]], 1, 0.5),
    # one switch into an absorbing state
    ([[-50.0, 50.0], [0.0, 0.0]], 1, 5.0),
    # many switches (about 500)
    ([[-50.0, 30.0, 20.0], [40.0, -60.0, 20.0], [5.0, 45.0, -50.0]], 2, 10.0),
])
def test_ctmc_matches_one_loop_over_holding_times(q, y0, horizon):
    gen = validate_generator(q)
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        h = horizon(gen, y0, rng) if callable(horizon) else horizon
        path, ref = sample_ctmc(gen, y0, h, rng), _sample_ctmc_loop(gen, y0, h, ref_rng)
        assert (path.start, path.end) == (ref.start, ref.end)
        for a, b in ((path.switch_times, ref.switch_times), (path.states, ref.states)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng.random() == ref_rng.random()


def test_ctmc_rejects_bad_arguments(rng):
    gen = validate_generator(SYM2)
    with pytest.raises(IndexOutOfRange):
        sample_ctmc(gen, 3, 1.0, rng)
    with pytest.raises(ValueError):
        sample_ctmc(gen, 1, 0.0, rng)


def test_dtmc_identity_and_cycle(rng):
    ident = validate_transition_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert sample_dtmc_step(ident, 2, 1, rng) == 2
    cycle = validate_transition_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert all(sample_dtmc_step(cycle, 1, k, rng) == 2 for k in range(1, 20))


def test_dtmc_uniform_frequency(rng):
    tm = validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
    draws = np.array([sample_dtmc_step(tm, 1, 1, rng) for _ in range(100_000)])
    freq = np.mean(draws == 1)
    assert abs(freq - 0.5) < 0.01


def test_dtmc_per_step_matrices(rng):
    tm = validate_transition_matrix(
        [[0.5, 0.5], [0.5, 0.5]],
        per_step=[[[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]],
    )
    assert sample_dtmc_step(tm, 1, 1, rng) == 2
    assert sample_dtmc_step(tm, 2, 2, rng) == 1
    # beyond the per-step list the base matrix applies
    draws = {sample_dtmc_step(tm, 1, 3, rng) for _ in range(50)}
    assert draws == {1, 2}


def test_dtmc_rejects_bad_rows():
    with pytest.raises(RowNotStochastic):
        validate_transition_matrix([[0.6, 0.5], [0.5, 0.5]])
    with pytest.raises(IndexOutOfRange):
        tm = validate_transition_matrix([[1.0]])
        sample_dtmc_step(tm, 2, 1, np.random.default_rng(0))


@pytest.mark.parametrize("p,per_step", [
    ([[math.nan, 1.0], [0.5, 0.5]], None),
    ([[0.5, 0.5], [0.5, math.nan]], None),
    ([[1.0, 0.0], [0.0, 1.0]], [[[math.nan, 1.0], [0.0, 1.0]]]),
])
def test_validate_transition_matrix_rejects_nan_entries(p, per_step):
    with pytest.raises(RowNotStochastic):
        validate_transition_matrix(p, per_step)
