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
from zenosde import markov
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


def _sample_ctmc_loop(gen, y0, horizon, rng, first=None):
    """The chain sampler as one loop over holding times (the reference);
    ``first``, when given, is the first holding time instead of a draw."""
    rates, cdfs = gen._sampling_tables()
    times = []
    states = [y0]
    t = 0.0
    y = y0
    while True:
        rate = rates[y - 1]
        if rate <= 0.0:
            break
        t += first if first is not None and not times else rng.exponential(1.0 / rate)
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


@pytest.mark.parametrize("q,y0,first", [
    # absorbing start: the holding time is ignored and nothing is drawn
    ([[0.0, 0.0], [1.0, -1.0]], 1, 0.25),
    # a first holding time past the horizon, and exactly at it: no switch
    (SYM2, 1, 7.5),
    (SYM2, 2, 5.0),
    # inside the window: one switch into an absorbing state, then many switches
    ([[-50.0, 50.0], [0.0, 0.0]], 1, 0.125),
    ([[-50.0, 30.0, 20.0], [40.0, -60.0, 20.0], [5.0, 45.0, -50.0]], 2, 1e-3),
])
def test_ctmc_continues_from_a_given_first_holding_time(q, y0, first):
    gen = validate_generator(q)
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        path = sample_ctmc(gen, y0, 5.0, rng, first=first)
        ref = _sample_ctmc_loop(gen, y0, 5.0, ref_rng, first=first)
        for a, b in ((path.switch_times, ref.switch_times), (path.states, ref.states)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng.random() == ref_rng.random()
    # a first holding time drawn as sample_ctmc draws it gives its path
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        t = rng.exponential(1.0 / gen.exit_rate(y0)) if gen.exit_rate(y0) > 0 else None
        path, ref = sample_ctmc(gen, y0, 0.5, rng, first=t), sample_ctmc(gen, y0, 0.5, ref_rng)
        assert path.switch_times.tobytes() == ref.switch_times.tobytes()
        assert path.states.tobytes() == ref.states.tobytes()
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


class _Uniforms:
    """Stands in for a generator: ``random()`` returns the given values in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def test_dtmc_step_of_an_array_of_marks_matches_scalar_draws():
    # three marks, zero entries first, inside and last, and rows whose
    # cumulative sums end below 1; steps 1 and 2 have their own matrices
    tm = validate_transition_matrix(
        [[0.2, 0.0, 0.8], [0.1, 0.9 - 1e-13, 0.0], [1 / 3, 1 / 3, 1 / 3]],
        per_step=[[[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [0.1, 0.2, 0.7 - 1e-13]],
                  [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.4, 0.0]]],
    )
    assert np.cumsum(tm.p[1])[-1] < 1.0 and np.cumsum(tm.per_step[0][2])[-1] < 1.0
    h = np.tile(np.array([1, 2, 3], dtype=np.int64), 500)
    for k in (1, 2, 3, 9):
        # random uniforms, draw for draw on two copies of one generator
        gen, ref = np.random.default_rng(k), np.random.default_rng(k)
        got = sample_dtmc_step(tm, h, k, gen.random(h.size))
        want = [sample_dtmc_step(tm, int(hv), k, ref) for hv in h]
        assert got.dtype == np.int64 and got.tolist() == want
        assert gen.random() == ref.random()
        # each row's cumulative sums, the floats just below them, 0 and the
        # largest uniform
        rows, us = [], []
        for r, cum in enumerate(np.cumsum(tm.matrix_at(k), axis=1)):
            edges = np.concatenate((cum, np.nextafter(cum, 0.0), [0.0, 1.0 - 2.0 ** -53]))
            rows += [r + 1] * edges.size
            us += edges.tolist()
        got = sample_dtmc_step(tm, np.array(rows), k, np.array(us))
        draws = _Uniforms(us)
        assert got.tolist() == [sample_dtmc_step(tm, r, k, draws) for r in rows]
        # no mark lands on a zero-probability entry
        assert (tm.matrix_at(k)[np.array(rows) - 1, got - 1] > 0.0).all()


def _three_mark_steps():
    """Three marks with distinct rows, zero entries first, inside and last,
    and rows whose cumulative sums end below 1; steps 1 and 2 have their own
    matrices."""
    return validate_transition_matrix(
        [[0.2, 0.0, 0.8], [0.1, 0.9 - 1e-13, 0.0], [1 / 3, 1 / 3, 1 / 3]],
        per_step=[[[0.0, 0.3, 0.7], [0.5, 0.0, 0.5], [0.1, 0.2, 0.7 - 1e-13]],
                  [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.6, 0.4, 0.0]]],
    )


@pytest.mark.parametrize("budget", [None, 200])
def test_dtmc_steps_of_an_array_of_marks_match_scalar_steps_one_by_one(monkeypatch, budget):
    # each row's marks step through every jump from its own last mark, on
    # its own uniforms; a small budget runs the steps in spans
    if budget is not None:
        monkeypatch.setattr(markov, "_DRAW_BYTES", budget)
    tm = _three_mark_steps()
    rng = np.random.default_rng(5)
    ks = np.array([1, 2, 3, 1, 9, 2, 2, 4] + rng.integers(1, 5, 57).tolist())
    h = np.tile(np.array([1, 2, 3], dtype=np.int64), 12)
    u = rng.random((h.size, ks.size))
    # the edges of every row's cumulative sums, and the floats below them
    edges = np.unique(np.concatenate([np.cumsum(tm.matrix_at(k), axis=1).ravel() for k in (1, 2, 3)]))
    edges = np.concatenate((edges, np.nextafter(edges, 0.0), [0.0, 1.0 - 2.0 ** -53]))
    u[: h.size // 2] = rng.choice(edges[edges < 1.0], size=(h.size // 2, ks.size))
    got = sample_dtmc_step(tm, h, ks, u)
    assert got.dtype == np.int64 and got.shape == u.shape
    for p in range(h.size):
        draws, mark = _Uniforms(u[p].tolist()), int(h[p])
        for j, k in enumerate(ks.tolist()):
            nxt = sample_dtmc_step(tm, mark, k, draws)
            assert got[p, j] == nxt, (p, j)
            # no mark lands on a zero-probability entry
            assert tm.matrix_at(k)[mark - 1, nxt - 1] > 0.0
            mark = nxt
    # one step is the case of one jump
    one = sample_dtmc_step(tm, h, 2, u[:, 0])
    assert one.shape == h.shape and one.tolist() == sample_dtmc_step(tm, h, [2], u[:, :1])[:, 0].tolist()
    assert sample_dtmc_step(tm, h, np.empty(0, dtype=np.int64), u[:, :0]).shape == (h.size, 0)


def test_dtmc_steps_follow_each_rows_own_mark():
    # rows that differ by mark: stepping every jump from the start mark
    # instead of the last one gives other marks
    tm = validate_transition_matrix([[0.9, 0.1], [0.2, 0.8]])
    u = np.full((1, 4), 0.5)
    assert sample_dtmc_step(tm, np.array([2]), np.arange(1, 5), u).tolist() == [[2, 2, 2, 2]]
    u[0, 0] = 0.1
    assert sample_dtmc_step(tm, np.array([2]), np.arange(1, 5), u).tolist() == [[1, 1, 1, 1]]


@pytest.mark.parametrize("h", [0, 4])
def test_dtmc_step_refuses_a_bad_start_mark_before_drawing(h):
    tm = _three_mark_steps()
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(IndexOutOfRange):
        sample_dtmc_step(tm, h, 1, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(IndexOutOfRange):
        sample_dtmc_step(tm, np.array([1, h]), np.array([1, 2]), np.full((2, 2), 0.5))


@pytest.mark.parametrize("h", [[1, 0], [2, 3], [-1]])
def test_dtmc_step_refuses_an_array_holding_a_mark_out_of_range(h):
    tm = validate_transition_matrix([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(IndexOutOfRange):
        sample_dtmc_step(tm, np.array(h), 1, np.full(len(h), 0.5))


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
