import math

import numpy as np
import pytest

from zenosde import lyapunov
from zenosde.lyapunov import (
    EmptyGrid,
    InvalidSegment,
    LyapunovSpec,
    MissingDerivatives,
    QuadraticBounds,
    QuadraticBoundsFailure,
    ZeroDiffusion,
    check_jump_moment_condition,
    check_quadratic_bounds,
    discrete_lyapunov_operator,
    linear_stability_check,
    wio_evaluate,
    wio_finite_difference,
)
from zenosde.lyapunov import _AUX_DISCRETE_OP, _values
from zenosde.analysis import probe_stability_in_probability
from zenosde.simulate import (
    MAX_RESULT_BYTES,
    ConfigInvalid,
    IntegratorConfig,
    RngPolicy,
    simulate_window,
)
from zenosde.system import spec_from_dict
from zenosde.cli import build_preset

from conftest import make_spec

X2 = LyapunovSpec(kind="quadratic", coeff=1.0)


def custom_u(value, grad, hess, dt=lambda *a: 0.0):
    return LyapunovSpec(kind="custom-smooth", fn_value=value, fn_dt=dt, fn_grad=grad, fn_hess=hess)


U_X4 = custom_u(
    value=lambda t, y, h, x: np.sum(np.atleast_2d(np.asarray(x, float)) ** 4, axis=-1).squeeze()[()],
    grad=lambda t, y, h, x: 4.0 * np.atleast_1d(x) ** 3,
    hess=lambda t, y, h, x: np.diag(12.0 * np.atleast_1d(x) ** 2),
)

U_YX2 = custom_u(
    value=lambda t, y, h, x: np.asarray(y, float) * np.sum(np.atleast_2d(np.asarray(x, float)) ** 2, axis=-1).squeeze()[()],
    grad=lambda t, y, h, x: 2.0 * float(y) * np.atleast_1d(x),
    hess=lambda t, y, h, x: 2.0 * float(y) * np.eye(np.atleast_1d(x).size),
)


# ---------------------------------------------------------------------------
# Lyapunov specs
# ---------------------------------------------------------------------------

def test_power_radial_bounds_monotone_with_limits():
    v = LyapunovSpec(kind="power", gamma=2.0, beta=0.5, regime_values=(1, 2, 3))
    rs = np.logspace(-6, 6, 25)
    lo = [v.inf_outside(r) for r in rs]
    hi = [v.sup_inside(r) for r in rs]
    assert all(b > a for a, b in zip(lo, lo[1:]))
    assert all(b > a for a, b in zip(hi, hi[1:]))
    assert lo[-1] > 1e2 and hi[0] < 1e-2
    assert v.inf_outside(2.0) == 2.0 * 1 * 2.0 ** 0.5
    assert v.sup_inside(2.0) == 2.0 * 3 * 2.0 ** 0.5


def test_power_derivatives_match_finite_differences():
    v = LyapunovSpec(kind="power", gamma=1.3, beta=0.7)
    x = np.array([1.7])
    eps = 1e-6
    num_grad = (v.value(0, 2, 1, x + eps) - v.value(0, 2, 1, x - eps)) / (2 * eps)
    assert v.grad_x(0, 2, 1, x)[0] == pytest.approx(num_grad, rel=1e-6)
    h = 1e-4  # larger step: the second difference cancels ~16 digits at 1e-6
    num_hess = (v.value(0, 2, 1, x + h) - 2 * v.value(0, 2, 1, x) + v.value(0, 2, 1, x - h)) / h ** 2
    assert v.hess_x(0, 2, 1, x)[0, 0] == pytest.approx(num_hess, rel=1e-5)


def test_custom_missing_derivatives():
    u = LyapunovSpec(kind="custom-smooth", fn_value=lambda t, y, h, x: 1.0)
    spec = make_spec()
    with pytest.raises(MissingDerivatives):
        wio_evaluate(spec, u, 0.1, 1, 1, np.array([1.0]))


# ---------------------------------------------------------------------------
# weak infinitesimal operator: closed form
# ---------------------------------------------------------------------------

def test_wio_hand_case_quadratic():
    spec = make_spec(diffusion={"values": [0.3]})
    val = wio_evaluate(spec, X2, 0.25, 1, 1, np.array([2.0]))
    assert abs(val - (-7.64)) <= 1e-9


def test_wio_constant_function_is_zero_off_jumps():
    spec = spec_from_dict(build_preset("case2"))
    u = custom_u(
        value=lambda t, y, h, x: 1.0,
        grad=lambda t, y, h, x: np.zeros(1),
        hess=lambda t, y, h, x: np.zeros((1, 1)),
    )
    assert wio_evaluate(spec, u, 0.25, 1, 1, np.array([3.0])) == 0.0


def test_wio_switch_term_cancels_for_regime_independent_u():
    spec = make_spec(
        drift={"values": [-1.0, -1.0]},
        diffusion={"values": [0.3, 0.3]},
        xi_generator={"q": [[-2.0, 2.0], [3.0, -3.0]]},
    )
    # with identical coefficients per regime and U free of y, the value must
    # equal the single-regime generator exactly
    val = wio_evaluate(spec, X2, 0.1, 1, 1, np.array([2.0]))
    assert abs(val - (-7.64)) <= 1e-9


def test_wio_power_function_closed_form_single_regime():
    a, b = -0.8, 0.6
    spec = make_spec(drift={"values": [a]}, diffusion={"values": [b]})
    v = LyapunovSpec(kind="power", gamma=1.0, beta=0.025, regime_values=(1,))
    x = 3.0
    expected = 1.0 * 1 * 0.025 * x ** 0.025 * (a + (0.025 - 1.0) * b * b / 2.0)
    assert wio_evaluate(spec, v, 0.5, 1, 1, np.array([x])) == pytest.approx(expected, rel=1e-12)


def test_wio_affine_switch_kernel():
    spec = make_spec(
        drift={"values": [0.0, 0.0]},
        diffusion={"values": [0.0, 0.0]},
        xi_generator={"q": [[-1.0, 1.0], [1.0, -1.0]]},
    )
    # pure switching with a halving kernel on 1 -> 2: rate * (u(2, x/2) - u(1, x))
    val = wio_evaluate(spec, X2, 0.1, 1, 1, np.array([2.0]), switch_kernel={(1, 2): (0.5, 0.0)})
    assert val == pytest.approx(1.0 * (1.0 - 4.0), rel=1e-12)


def test_wio_impulse_term_at_jump_time():
    spec = spec_from_dict(build_preset("case2"))
    t1 = float(spec.realization().t[0])
    x = np.array([2.0])
    off = wio_evaluate(spec, X2, 0.9, 2, 1, x)
    on = wio_evaluate(spec, X2, t1, 2, 1, x)
    pk = spec.eta_chain.matrix_at(1)[0]
    expect = sum(
        pk[z - 1] * float((x + spec.jump.evaluate(1, 2, z, x))[0] ** 2)
        for z in (1, 2)
    ) - float(x[0] ** 2)
    assert on - off == pytest.approx(expect, rel=1e-9)


# ---------------------------------------------------------------------------
# weak infinitesimal operator: finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_oracle_constant_is_zero():
    spec = spec_from_dict(build_preset("case2"))
    u = custom_u(
        value=lambda t, y, h, x: np.ones(np.atleast_2d(x).shape[0]).squeeze()[()],
        grad=lambda t, y, h, x: np.zeros(1),
        hess=lambda t, y, h, x: np.zeros((1, 1)),
    )
    est, se = wio_finite_difference(spec, u, 0.3, 1, 1, np.array([2.0]), mc=10_000, dt=1e-4,
                                    policy=RngPolicy(1))
    assert est == 0.0 and se == 0.0


def test_fd_oracle_pure_drift_linear_u():
    spec = make_spec(drift={"values": [-0.7]})
    u = custom_u(
        value=lambda t, y, h, x: np.atleast_2d(np.asarray(x, float))[:, 0].squeeze()[()],
        grad=lambda t, y, h, x: np.ones(1),
        hess=lambda t, y, h, x: np.zeros((1, 1)),
    )
    est, se = wio_finite_difference(spec, u, 0.1, 1, 1, np.array([2.0]), mc=50_000, dt=1e-5,
                                    policy=RngPolicy(2))
    assert est == pytest.approx(-0.7 * 2.0, rel=1e-4)


# three regimes, additive (constant) coefficients, dim 2; exit rates up to 50,
# so rate * dt <= 0.01 at dt = 2e-4 and the one-switch step is accurate
THREE_REGIMES = {
    "drift": {"kind": "constant", "values": [0.4, -1.2, 2.0], "dim": 2},
    "diffusion": {"kind": "constant", "values": [0.5, 1.5, 0.8], "dim": 2},
    "jump": {"kind": "zero"},
    "schedule": {"kind": "explicit-list", "times": []},
    "xi_generator": {"q": [[-30.0, 10.0, 20.0], [5.0, -8.0, 3.0], [40.0, 10.0, -50.0]]},
    "eta_transition": {"p": [[1.0]]},
    "initial": {"x0": [1.0, -0.5], "y0": 1, "h0": 1},
    "horizon": 1.0,
}
POWER_07 = LyapunovSpec(kind="power", gamma=1.0, beta=0.7, regime_values=(1, 2, 3))
# one scalar per call, whatever the batch: the oracle must broadcast it
ONE_PLUS_Y = custom_u(
    value=lambda t, y, h, x: 1 + y,
    grad=lambda t, y, h, x: np.zeros(np.atleast_1d(x).size),
    hess=lambda t, y, h, x: np.zeros((np.atleast_1d(x).size,) * 2),
)


@pytest.mark.parametrize("config,u,name", [
    pytest.param("case2", X2, "x^2", id="u0-x^2"),
    pytest.param("case2", U_X4, "x^4", id="u1-x^4"),
    pytest.param("case2", U_YX2, "y x^2", id="u2-y x^2"),
    pytest.param(THREE_REGIMES, POWER_07, "power 0.7", id="three-regimes-power"),
    pytest.param(THREE_REGIMES, X2, "x^2", id="three-regimes-x^2"),
    pytest.param(THREE_REGIMES, ONE_PLUS_Y, "1 + y", id="three-regimes-1+y"),
])
def test_fd_oracle_agrees_with_closed_form(config, u, name, rng):
    spec = spec_from_dict(build_preset(config) if isinstance(config, str) else config)
    for trial in range(3):
        y = int(rng.integers(1, spec.n_regimes + 1))
        x = rng.uniform(1.0, 2.5, size=spec.x0.size)
        exact = wio_evaluate(spec, u, 0.3, y, 1, x)
        est, se = wio_finite_difference(spec, u, 0.3, y, 1, x, mc=2_000_000, dt=2e-4,
                                        policy=RngPolicy(100 + trial))
        tol = max(3.0 * se, 0.05 * abs(exact))
        assert abs(est - exact) <= tol, (name, y, x, exact, est, se)


@pytest.mark.parametrize("y", [1, 2, 3])
def test_wio_of_the_regime_index_is_the_mean_regime_step(y):
    spec = spec_from_dict(THREE_REGIMES)
    q = spec.xi_chain.q[y - 1]
    expect = sum(q[j - 1] * (j - y) for j in (1, 2, 3))
    assert wio_evaluate(spec, ONE_PLUS_Y, 0.3, y, 1, np.array([1.0, 2.0])) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("t,mc,dt,message", [
    (0.3, -5, 1e-4, "mc"),
    (0.3, 0, 1e-4, "mc"),
    (0.3, 100, 0.0, "dt"),
    (0.3, 100, -1e-4, "dt"),
    (0.3, 100, math.nan, "dt"),
    (0.3, 100, math.inf, "dt"),
    (1.0, 100, 2e-4, "jump"),      # case2's jump k = 1 is at t = 1
    (0.9999, 100, 2e-4, "jump"),   # ... and inside this step
])
def test_fd_oracle_refuses_what_it_cannot_estimate(t, mc, dt, message):
    spec = spec_from_dict(build_preset("case2"))
    with pytest.raises(ValueError, match=message):
        wio_finite_difference(spec, X2, t, 1, 1, np.array([1.5]), mc=mc, dt=dt, policy=RngPolicy(0))


# ---------------------------------------------------------------------------
# discrete Lyapunov operator
# ---------------------------------------------------------------------------

def test_discrete_operator_constant_v_is_exactly_zero():
    spec = spec_from_dict(build_preset("case2"))
    u = LyapunovSpec(kind="custom-smooth", fn_value=lambda t, y, h, x: 1.0)
    est, se = discrete_lyapunov_operator(spec, u, (1, 1, np.array([5.0])), 1, 200, RngPolicy(0))
    assert est == 0.0


def test_discrete_operator_frozen_system_is_zero():
    spec = make_spec(
        drift={"values": [0.0]},
        schedule={"kind": "explicit-list", "times": [0.4, 0.8]},
        initial={"x0": [3.0], "y0": 1, "h0": 1},
        horizon=1.0,
    )
    est, se = discrete_lyapunov_operator(spec, X2, (1, 1, np.array([3.0])), 1, 200, RngPolicy(1))
    assert est == pytest.approx(0.0, abs=max(3 * se, 1e-12))


def _power_moment_oracle(spec, beta, y0, x0, t_len):
    """E[y |x|^beta] after a jump-free window, from the coupled moment system."""
    n = spec.n_regimes
    a = np.asarray(spec.drift.values)
    b = np.asarray(spec.diffusion.values)
    d = beta * (a + (beta - 1.0) * b * b / 2.0)
    gen = np.diag(d) + spec.xi_chain.q.T
    w, v = np.linalg.eig(gen)
    m0 = np.zeros(n)
    m0[y0 - 1] = abs(x0) ** beta
    m_t = (v @ np.diag(np.exp(w * t_len)) @ np.linalg.inv(v) @ m0).real
    return float(np.arange(1, n + 1) @ m_t)


@pytest.mark.parametrize("y0,sign", [(1, +1), (2, -1)])
def test_discrete_operator_sign_matches_moment_oracle(y0, sign):
    # mixing from the extreme regimes dominates the tiny power drift, so the
    # operator is positive from regime 1 and negative from regime 2
    spec = spec_from_dict(build_preset("case2"))
    v = LyapunovSpec(kind="power", gamma=1.0, beta=0.025)
    t_lo, t_hi = 1.0, 1.5
    est, se = discrete_lyapunov_operator(spec, v, (y0, 1, np.array([10.0])), 1, 4000, RngPolicy(3))
    oracle = _power_moment_oracle(spec, 0.025, y0, 10.0, t_hi - t_lo) - y0 * 10.0 ** 0.025
    # the impulse at the segment end perturbs the moment by under 0.1%
    assert est == pytest.approx(oracle, abs=3 * se + 0.002 * abs(oracle) + 1e-3)
    assert math.copysign(1.0, est) == sign


def test_discrete_operator_invalid_segment():
    spec = spec_from_dict(build_preset("case2"))
    with pytest.raises(InvalidSegment):
        discrete_lyapunov_operator(spec, X2, (1, 1, np.array([1.0])), 200, 10, RngPolicy(0))


@pytest.mark.parametrize("mc", [0, -3])
def test_discrete_operator_refuses_fewer_than_one_sample(mc):
    spec = spec_from_dict(build_preset("case2"))
    with pytest.raises(ValueError, match="mc must be >= 1"):
        discrete_lyapunov_operator(spec, X2, (1, 1, np.array([1.0])), 1, mc, RngPolicy(0))


def test_discrete_operator_refuses_more_values_than_the_result_limit_before_running(monkeypatch):
    import zenosde.lyapunov as lyapunov

    def no_run(*args, **kwargs):
        raise AssertionError("a continuation ran")

    spec = spec_from_dict(build_preset("case2"))
    state = (1, 1, np.array([1.0]))
    monkeypatch.setattr(lyapunov, "simulate_batch", no_run)
    with pytest.raises(ConfigInvalid, match="bytes"):
        discrete_lyapunov_operator(spec, X2, state, 1, MAX_RESULT_BYTES // 8 + 1, RngPolicy(0))
    # under a limit of 5 values, 5 continuations run and 6 are refused
    monkeypatch.undo()
    monkeypatch.setattr(lyapunov, "MAX_RESULT_BYTES", 40)
    discrete_lyapunov_operator(spec, X2, state, 1, 5, RngPolicy(0))
    with pytest.raises(ConfigInvalid, match="bytes"):
        discrete_lyapunov_operator(spec, X2, state, 1, 6, RngPolicy(0))


@pytest.mark.parametrize("mc", [1e4, 100.0, 2.5])
def test_estimators_refuse_a_sample_count_that_is_not_an_integer(mc):
    spec = spec_from_dict(build_preset("case2"))
    with pytest.raises(ValueError, match="mc must be an integer"):
        wio_finite_difference(spec, X2, 0.3, 1, 1, np.array([1.5]), mc=mc, policy=RngPolicy(0))
    with pytest.raises(ValueError, match="mc must be an integer"):
        discrete_lyapunov_operator(spec, X2, (1, 1, np.array([1.0])), 1, mc, RngPolicy(0))


def test_estimators_take_numpy_integer_sample_counts():
    spec = spec_from_dict(build_preset("case2"))
    fd = [wio_finite_difference(spec, X2, 0.3, 1, 1, np.array([1.5]), mc=mc, policy=RngPolicy(0))
          for mc in (50, np.int64(50))]
    op = [discrete_lyapunov_operator(spec, X2, (1, 1, np.array([1.0])), 1, mc, RngPolicy(0))
          for mc in (5, np.int32(5))]
    assert fd[0] == fd[1] and op[0] == op[1]


@pytest.mark.parametrize("config,x", [
    ("case2", [1.5, 2.0]),
    ("case2", []),
    (THREE_REGIMES, [1.0]),
    (THREE_REGIMES, [1.0, 2.0, 3.0]),
], ids=["dim1-x2", "dim1-x0", "dim2-x1", "dim2-x3"])
def test_weak_operator_and_its_oracle_refuse_an_x_of_another_dimension(config, x):
    spec = spec_from_dict(build_preset(config) if isinstance(config, str) else config)
    message = f"x has {len(x)} entries but the system has dimension {spec.dim}"
    with pytest.raises(ValueError, match=message):
        wio_evaluate(spec, X2, 0.3, 1, 1, np.array(x))
    with pytest.raises(ValueError, match=message):
        wio_finite_difference(spec, X2, 0.3, 1, 1, np.array(x), mc=100, policy=RngPolicy(0))


@pytest.mark.parametrize("x,what", [([1.5, 2.0], "2 entries"), ([[1.5]], r"shape \(1, 1\)")],
                         ids=["two-entries", "nested"])
def test_operator_refuses_a_start_state_that_is_not_a_vector_of_the_dimension(x, what):
    spec = spec_from_dict(build_preset("case2"))
    message = f"x has {what} but the system has dimension 1"
    with pytest.raises(ValueError, match=message):
        discrete_lyapunov_operator(spec, X2, (1, 1, x), 1, 10, RngPolicy(0))
    with pytest.raises(ValueError, match=message):
        wio_evaluate(spec, X2, 0.3, 1, 1, x)
    # a scalar and a one-entry vector are the same state
    assert discrete_lyapunov_operator(spec, X2, (1, 1, 1.5), 1, 10, RngPolicy(0)) \
        == discrete_lyapunov_operator(spec, X2, (1, 1, [1.5]), 1, 10, RngPolicy(0))


def _dim2_spec():
    cfg = build_preset("case2")
    cfg["drift"] = {"kind": "linear-per-regime", "values": [-0.5, 0.3], "dim": 2}
    cfg["diffusion"] = {"kind": "linear-per-regime", "values": [0.4, 0.9], "dim": 2}
    cfg["initial"] = {"x0": [1.0, -2.0], "y0": 1, "h0": 2}
    return spec_from_dict(cfg)


def _y_x2_plus_h(t, y, h, x):
    return float(y) * float(np.sum(np.asarray(x) ** 2)) + h + t


OPERATOR_CASES = {
    "case1": (lambda: spec_from_dict(build_preset("case1")), 2),
    "case2": (lambda: spec_from_dict(build_preset("case2")), 2),
    # from x0 = 10, 4 of these 7 continuations explode
    "case3": (lambda: spec_from_dict(build_preset("case3")), 10),
    "dim2": (_dim2_spec, 2),
}
OPERATOR_VS = {
    "power": LyapunovSpec(kind="power", gamma=1.3, beta=0.025),
    "quadratic": LyapunovSpec(kind="quadratic", coeff=1.5),
    "custom-smooth": LyapunovSpec(kind="custom-smooth", fn_value=_y_x2_plus_h),
}


@pytest.mark.parametrize("cap", [None, 1, 3])
@pytest.mark.parametrize("vname", sorted(OPERATOR_VS))
@pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
def test_discrete_operator_batches_match_one_path_at_a_time(case, vname, cap, monkeypatch):
    # caps of 1 and 3 continuations per batch, the latter leaving a short
    # final batch
    import zenosde.lyapunov as lyapunov

    if cap is not None:
        monkeypatch.setattr(lyapunov, "_INNER_BUNDLES", cap)
    make, k = OPERATOR_CASES[case]
    spec, v, policy, mc = make(), OPERATOR_VS[vname], RngPolicy(23), 7
    state = (spec.y0, spec.h0, spec.x0)
    t_lo, t_hi = spec.realization().t[k - 1 : k + 1].tolist()
    vals = np.empty(mc)
    exploded = 0
    for j in range(mc):
        res = simulate_window(spec, IntegratorConfig(), t_lo, t_hi, spec.x0, spec.y0, spec.h0,
                              policy.aux_streams(_AUX_DISCRETE_OP, k, j))
        vals[j] = float(v.value(t_hi, res.y_end, res.h_end, res.x_end))
        exploded += res.exploded
    v0 = float(v.value(t_lo, spec.y0, spec.h0, spec.x0))
    expected = (float(vals.mean()) - v0, float(vals.std(ddof=1) / math.sqrt(mc)))
    assert discrete_lyapunov_operator(spec, v, state, k, mc, policy) == expected
    assert (exploded > 0) == (case == "case3")


def test_batch_values_match_lone_calls_where_an_array_power_would_not():
    rng = np.random.default_rng(7)
    r = np.exp(rng.uniform(-30.0, 30.0, 5_000))
    power = LyapunovSpec(kind="power", gamma=1.3, beta=0.025)
    # the test has teeth only if an array power rounds some of these norms
    # differently from the scalar power
    assert (np.power(r, power.beta) != np.array([ri ** power.beta for ri in r.tolist()])).any()
    # zero, non-finite and overflowing norms (1e200 ** 2.5 overflows) too
    r = np.concatenate((r, [0.0, np.inf, np.nan, 1e200]))
    ys = rng.integers(1, 3, r.size).tolist()
    hs = rng.integers(1, 3, r.size).tolist()
    for xs in (r[:, None] * rng.choice([-1.0, 1.0], (r.size, 1)),
               r[:, None] * rng.normal(size=(r.size, 2))):
        for v in (power, LyapunovSpec(kind="power", gamma=0.7, beta=2.5),
                  LyapunovSpec(kind="quadratic", coeff=1.5),
                  LyapunovSpec(kind="custom-smooth", fn_value=_y_x2_plus_h)):
            with np.errstate(all="ignore"):
                lone = [float(v.value(0.5, y, h, x)) for y, h, x in zip(ys, hs, xs)]
                batch = _values(v, 0.5, ys, hs, xs)
            assert [b.hex() for b in batch] == [a.hex() for a in lone], (v.kind, v.beta, xs.shape)


# ---------------------------------------------------------------------------
# linear stability test
# ---------------------------------------------------------------------------

def test_stability_case1_fails_on_drift_margin():
    rep = linear_stability_check(spec_from_dict(build_preset("case1")), epsilon=0.1)
    assert not rep.overall_ok
    assert rep.rows[0].drift_margin == pytest.approx(0.955, abs=1e-9)
    assert not rep.rows[0].margin_ok


def test_stability_case2_worked_numbers():
    rep = linear_stability_check(spec_from_dict(build_preset("case2")), epsilon=0.1)
    assert rep.overall_ok
    assert rep.beta == pytest.approx(0.025, abs=1e-9)
    assert rep.rows[0].drift_margin == pytest.approx(-1.045, abs=1e-9)
    assert rep.rows[1].drift_margin == pytest.approx(-1.5, abs=1e-9)
    assert rep.rows[0].growth_rhs == pytest.approx(1.00125, abs=1e-9)
    assert rep.rows[1].growth_rhs == pytest.approx(2.0025, abs=1e-9)
    assert rep.rows[0].switching_sum == pytest.approx(1.0, abs=1e-12)
    assert rep.rows[1].switching_sum == 0.0


def test_stability_single_regime_zero_generator():
    spec = make_spec(diffusion={"values": [1.0]})
    rep = linear_stability_check(spec, epsilon=0.1)
    assert rep.rows[0].switching_sum == 0.0
    assert rep.beta == pytest.approx(0.1, abs=1e-12)
    assert rep.rows[0].growth_rhs == pytest.approx((0.1 * 0.1 + 2.0) / 2.0, abs=1e-12)
    assert rep.overall_ok


def test_stability_zero_diffusion_rejected():
    spec = make_spec()
    with pytest.raises(ZeroDiffusion):
        linear_stability_check(spec, epsilon=0.1)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_or_nonfinite_constants_are_refused(bad):
    for name in ("gamma", "beta", "coeff"):
        with pytest.raises(ValueError, match=name):
            LyapunovSpec(kind="power", **{name: bad})
    case1 = spec_from_dict(build_preset("case1"))
    with pytest.raises(ValueError, match="epsilon"):
        linear_stability_check(case1, epsilon=bad)
    # no epsilon asks for the search
    assert linear_stability_check(case1, epsilon=None).epsilon > 0
    with pytest.raises(ValueError, match="eps1"):
        probe_stability_in_probability(case1, bad, 1.0, 5, [1.0], RngPolicy(0))


def test_stability_eps_search_picks_feasible_epsilon():
    spec = spec_from_dict(build_preset("case2"))
    rep = linear_stability_check(spec, epsilon=None)
    margins = [r.drift_margin for r in rep.rows]
    assert all(m < -rep.epsilon for m in margins)
    # largest grid value below the feasibility limit 1.045
    assert rep.epsilon == pytest.approx(1.0, rel=1e-9)


def test_stability_time_rescaling_invariance():
    base = build_preset("case2")
    rep0 = linear_stability_check(spec_from_dict(base), epsilon=0.1)
    for lam in (0.5, 3.0):
        cfg = build_preset("case2")
        cfg["drift"]["values"] = [lam * a for a in cfg["drift"]["values"]]
        cfg["diffusion"]["values"] = [math.sqrt(lam) * b for b in cfg["diffusion"]["values"]]
        cfg["xi_generator"]["q"] = [[lam * q for q in row] for row in cfg["xi_generator"]["q"]]
        rep = linear_stability_check(spec_from_dict(cfg), epsilon=lam * 0.1)
        assert rep.beta == pytest.approx(rep0.beta, rel=1e-12)
        for r0, r in zip(rep0.rows, rep.rows):
            assert r.switching_sum == pytest.approx(r0.switching_sum, rel=1e-12)
            assert r.margin_ok == r0.margin_ok
            assert r.switching_ok == r0.switching_ok
            assert r.drift_reading_ok == r0.drift_reading_ok
        assert rep.overall_ok == rep0.overall_ok


def test_stability_exponent_takes_the_largest_diffusion_magnitude():
    # b and -b give the same law, so the reports may differ only in the b column
    reports = []
    for b in ([0.3, 2.0], [0.3, -2.0], [-0.3, -2.0]):
        cfg = build_preset("case2")
        cfg["diffusion"]["values"] = b
        reports.append(linear_stability_check(spec_from_dict(cfg), epsilon=0.1))
    assert [rep.b_max for rep in reports] == [2.0, 2.0, 2.0]
    assert reports[0].beta == pytest.approx(0.025, rel=1e-12)

    def without_b(rep):
        d = rep.as_dict()
        d["rows"] = [{k: v for k, v in row.items() if k != "b"} for row in d["rows"]]
        return d

    assert without_b(reports[1]) == without_b(reports[0])
    assert without_b(reports[2]) == without_b(reports[0])


def test_stability_jump_moments_run_over_the_kept_impulses(monkeypatch):
    # k_max bounds the schedule, but the gap cut keeps only about a thousand jumps
    cfg = build_preset("case2")
    cfg["schedule"].update(k_max=10 ** 5, delta_min=1e-6)
    spec = spec_from_dict(cfg)
    last = spec.realization().t.size
    assert last < 2000
    seen = []
    real = lyapunov.check_jump_moment_condition

    def spy(jump, eta_chain, beta, k_max, x_grid=None):
        seen.append(k_max)
        return real(jump, eta_chain, beta, k_max, x_grid)

    monkeypatch.setattr(lyapunov, "check_jump_moment_condition", spy)
    rep = linear_stability_check(spec, epsilon=0.1)
    assert seen == [last]
    assert rep == linear_stability_check(spec, epsilon=0.1, k_max=last)


# ---------------------------------------------------------------------------
# jump moment condition
# ---------------------------------------------------------------------------

def test_jump_moment_zero_family_ratio_one():
    spec = make_spec()
    rep = check_jump_moment_condition(spec.jump, spec.eta_chain, 0.5, 50)
    assert rep.ok and rep.worst_ratio == pytest.approx(1.0, rel=1e-12)


def test_jump_moment_case2_passes_everywhere():
    spec = spec_from_dict(build_preset("case2"))
    rep = check_jump_moment_condition(spec.jump, spec.eta_chain, 0.025, 200,
                                      np.logspace(-3, 3, 25))
    assert rep.ok
    assert rep.worst_ratio < 2.0


def test_jump_moment_case3_fails_with_witness():
    spec = spec_from_dict(build_preset("case3"))
    rep = check_jump_moment_condition(spec.jump, spec.eta_chain, 0.025, 200,
                                      np.logspace(-3, 3, 25))
    assert not rep.ok
    k, h, x = rep.witness
    assert 1 <= k <= 200 and h in (1, 2) and 1e-3 <= x <= 1e3


def test_jump_moment_rejects_bad_grid():
    spec = make_spec()
    with pytest.raises(EmptyGrid):
        check_jump_moment_condition(spec.jump, spec.eta_chain, 0.5, 10, np.array([]))
    with pytest.raises(EmptyGrid):
        check_jump_moment_condition(spec.jump, spec.eta_chain, 0.5, 10, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# quadratic sandwich
# ---------------------------------------------------------------------------

def test_quadratic_bounds_exact_for_quadratics():
    grid = np.logspace(-1, 1, 21)
    v = LyapunovSpec(kind="quadratic", coeff=3.0)
    a = LyapunovSpec(kind="quadratic", coeff=1.5)
    res = check_quadratic_bounds(v, a, grid)
    assert isinstance(res, QuadraticBounds)
    assert res.c1 == pytest.approx(3.0, rel=1e-12) and res.c2 == pytest.approx(3.0, rel=1e-12)
    assert res.c3 == pytest.approx(1.5, rel=1e-12) and res.c4 == pytest.approx(1.5, rel=1e-12)


def test_quadratic_bounds_power_function_fails_with_witness():
    grid = np.logspace(-1, 1, 21)
    v = LyapunovSpec(kind="power", gamma=1.0, beta=0.025)
    a = LyapunovSpec(kind="quadratic", coeff=1.0)
    res = check_quadratic_bounds(v, a, grid)
    assert isinstance(res, QuadraticBoundsFailure)
    assert res.which == "v"
    assert res.witness_x == pytest.approx(grid.min())


def test_quadratic_bounds_validation():
    with pytest.raises(ValueError):
        QuadraticBounds(c1=2.0, c2=1.0, c3=1.0, c4=1.0)


# ---------------------------------------------------------------------------
# the jump skeleton against a brute-force list of (k, t_k) pairs
# ---------------------------------------------------------------------------

# every schedule kind, and an explicit list out of index order that k_max cuts
SKELETON_SCHEDULES = {
    "explicit": ({"kind": "explicit-list", "times": [0.2, 0.5, 0.9, 1.4]},
                 [0.2, 0.5, 0.9, 1.4]),
    "explicit-out-of-order": ({"kind": "explicit-list", "k_max": 6,
                               "times": [0.7, 0.2, 1.1, 0.5, 0.9, 1.4, 0.3]},
                              [0.7, 0.2, 1.1, 0.5, 0.9, 1.4]),
    "harmonic-to-point": ({"kind": "harmonic-to-point", "t_star": 1.5, "c": 0.5, "k_max": 9},
                          [1.5 - 0.5 / k for k in range(1, 10)]),
    "harmonic-to-zero": ({"kind": "harmonic-to-zero", "alpha": 1.2, "k_max": 9},
                         [1.2 / k for k in range(1, 10)]),
}


@pytest.mark.parametrize("name", sorted(SKELETON_SCHEDULES))
def test_skeleton_lookups_match_a_brute_force_pair_list(name):
    schedule, times = SKELETON_SCHEDULES[name]
    spec = make_spec(schedule=schedule)
    pairs = list(enumerate(times, start=1))
    by_k = dict(pairs)
    real = spec.realization()
    assert real.t.tolist() == times

    # a window's jumps, in time order
    edges = sorted({0.0, 1.5, -math.inf, math.inf, *times, *(t + 0.01 for t in times)})
    for t0 in edges:
        for t1 in edges:
            ks, jump_times = real.jumps_in(t0, t1)
            want = sorted(((k, t) for k, t in pairs if t0 < t <= t1), key=lambda e: e[1])
            assert list(zip(ks.tolist(), jump_times.tolist())) == want, (t0, t1)

    # segment times, as Python floats
    for k in range(-1, len(times) + 2):
        if k not in by_k or k + 1 not in by_k:
            with pytest.raises(InvalidSegment, match="is not realized"):
                lyapunov._segment_times(spec, k)
        elif not by_k[k] < by_k[k + 1]:
            with pytest.raises(InvalidSegment, match="is empty"):
                lyapunov._segment_times(spec, k)
        else:
            t_lo, t_hi = lyapunov._segment_times(spec, k)
            assert (type(t_lo), type(t_hi)) == (float, float)
            assert (t_lo, t_hi) == (by_k[k], by_k[k + 1])

    # the jump at a time, and the WIO oracle's refusal of a step that holds one
    for t in [*times, *(t + 0.01 for t in times), 0.0, 0.04]:
        assert lyapunov._jump_index_at(spec, t) == next((k for k, tau in pairs if tau == t), None)
        for dt in (1e-3, 0.01, 0.3):
            if any(t <= tau <= t + dt for _, tau in pairs):
                with pytest.raises(ValueError, match="scheduled jump"):
                    wio_finite_difference(spec, X2, t, 1, 1, [1.0], mc=1, dt=dt)
            else:
                wio_finite_difference(spec, X2, t, 1, 1, [1.0], mc=1, dt=dt)
