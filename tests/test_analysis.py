import json
import math

import numpy as np
import pytest

from zenosde.analysis import (
    _AUX_OUTER,
    ConstantsUnavailable,
    detect_blowup,
    probe_mean_square,
    probe_stability_in_probability,
    probe_supermartingale,
    verify_segment_moment_bound,
)
from zenosde.lyapunov import LyapunovSpec
from zenosde.simulate import IntegratorConfig, RngPolicy, simulate_window
from zenosde.system import spec_from_dict
from zenosde.cli import build_preset

from conftest import make_spec


def frozen_spec(x0=3.0):
    return make_spec(
        drift={"values": [0.0]},
        schedule={"kind": "explicit-list", "times": [0.4, 0.8]},
        initial={"x0": [x0], "y0": 1, "h0": 1},
    )


# ---------------------------------------------------------------------------
# segment moment bound
# ---------------------------------------------------------------------------

def test_bound_frozen_system_closed_form():
    # C = 0, L_2 = 0: the cap reduces to 9 E|x(t_1)|^2 = 81 while the left
    # side is exactly 9
    res = verify_segment_moment_bound(frozen_spec(), 1, 50, RngPolicy(0))
    assert res.lhs_mean == 9.0
    assert res.lhs_stderr == 0.0
    assert res.rhs == 81.0
    assert res.ok


def test_bound_trivial_solution_all_zero():
    res = verify_segment_moment_bound(frozen_spec(x0=0.0), 1, 20, RngPolicy(0))
    assert res.lhs_mean == 0.0 and res.rhs == 0.0 and res.ok


def test_bound_case2_first_segment_passes():
    spec = spec_from_dict(build_preset("case2"))
    res = verify_segment_moment_bound(spec, 1, 1500, RngPolicy(1))
    assert res.ok
    assert res.start_sq == 100.0
    assert res.lhs_ci_upper < res.rhs


def test_bound_needs_finite_constants():
    spec = spec_from_dict(build_preset("intro"))
    with pytest.raises(ConstantsUnavailable):
        verify_segment_moment_bound(spec, 1, 10, RngPolicy(0))


@pytest.mark.parametrize("preset", ["case1", "case2"])
@pytest.mark.parametrize("segment", [1, 2, 5])
def test_bound_never_violated_on_conforming_presets(preset, segment):
    # the cap is guaranteed for systems meeting the growth/Lipschitz
    # conditions; any violation is a build failure
    spec = spec_from_dict(build_preset(preset))
    res = verify_segment_moment_bound(spec, segment, 300, RngPolicy(segment))
    assert res.ok


@pytest.mark.parametrize("n_paths", [0, -1])
def test_bound_refuses_fewer_than_one_path(n_paths):
    spec = spec_from_dict(build_preset("case2"))
    with pytest.raises(ValueError, match="n_paths must be >= 1"):
        verify_segment_moment_bound(spec, 1, n_paths, RngPolicy(0))


def _bound_spec(drift, x0, h0=1):
    cfg = build_preset("case2")
    cfg["drift"] = {"kind": "linear-per-regime", "values": drift, "dim": len(x0)}
    cfg["diffusion"]["dim"] = len(x0)
    cfg["initial"] = {"x0": x0, "y0": 1, "h0": h0}
    return spec_from_dict(cfg)


BOUND_CASES = {
    "case1": lambda: spec_from_dict(build_preset("case1")),
    "case2": lambda: spec_from_dict(build_preset("case2")),
    "dim2": lambda: _bound_spec([-0.5, 0.3], [1.0, -2.0], h0=2),
    # a fast-growing start near the threshold, where 1 of these 11 paths
    # explodes
    "exploding": lambda: _bound_spec([6.0, 9.0], [3e11]),
}


@pytest.mark.parametrize("cap", [None, 1, 3])
@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_bound_batches_match_one_path_at_a_time(case, cap, monkeypatch):
    # caps of 1 and 3 paths per batch, the latter leaving a short final batch
    import zenosde.lyapunov as lyapunov

    if cap is not None:
        monkeypatch.setattr(lyapunov, "_INNER_BUNDLES", cap)
    spec, policy, k, n = BOUND_CASES[case](), RngPolicy(17), 2, 11
    entries = dict(spec.realization().entries)
    sups = np.empty(n)
    exploded = 0
    for i in range(n):
        res = simulate_window(spec, IntegratorConfig(), entries[k], entries[k + 1], spec.x0,
                              spec.y0, spec.h0, policy.aux_streams(_AUX_OUTER, k, i))
        sups[i] = res.sup_norm ** 2
        exploded += res.exploded
    res = verify_segment_moment_bound(spec, k, n, policy)
    assert res.lhs_mean == float(sups.mean())
    assert res.lhs_stderr == float(sups.std(ddof=1) / math.sqrt(n))
    assert (exploded > 0) == (case == "exploding")


# ---------------------------------------------------------------------------
# stability in probability
# ---------------------------------------------------------------------------

def test_prob_probe_frozen_system_never_exceeds():
    spec = frozen_spec()
    res = probe_stability_in_probability(spec, 5.0, 1.0, 100, [1.0, 0.1], RngPolicy(0))
    assert all(r["exceedance"] == 0.0 for r in res.rows)
    assert res.verdict
    assert "truncated" in res.notes


@pytest.mark.parametrize("delta", [-1.0, 0.0, math.nan, math.inf])
def test_prob_probe_refuses_a_delta_that_is_not_a_positive_norm(delta):
    with pytest.raises(ValueError, match="delta"):
        probe_stability_in_probability(frozen_spec(), 5.0, 1.0, 10, [1.0, delta], RngPolicy(0))


def test_prob_probe_case2_decreasing_in_delta():
    spec = spec_from_dict(build_preset("case2"))
    res = probe_stability_in_probability(spec, 5.0, 5.0, 400, [1.0, 0.1, 0.01], RngPolicy(0))
    ps = [r["exceedance"] for r in res.rows]
    assert res.rows[0]["delta"] == 1.0  # sorted large to small
    assert ps[0] > ps[-1]
    assert res.verdict


def test_prob_probe_case1_exceedance_positive():
    spec = spec_from_dict(build_preset("case1"))
    res = probe_stability_in_probability(spec, 100.0, 1.99, 6000, [1.0], RngPolicy(0))
    assert res.rows[0]["exceedance"] > 0.0


# ---------------------------------------------------------------------------
# mean square probe
# ---------------------------------------------------------------------------

def test_meansq_frozen_system_flat():
    spec = frozen_spec()
    res = probe_mean_square(spec, [0.1, 0.5, 1.0], 40, RngPolicy(0))
    assert all(r["mean_sq"] == 9.0 for r in res.rows)
    assert not res.verdict  # flat is not decaying


def test_meansq_gbm_matches_closed_form_within_three_se():
    spec = make_spec(diffusion={"values": [0.3]}, initial={"x0": [3.0], "y0": 1, "h0": 1})
    res = probe_mean_square(spec, [0.25, 0.5, 1.0], 20_000, RngPolicy(7))
    for row in res.rows:
        target = 9.0 * math.exp(-1.91 * row["t"])
        assert abs(row["mean_sq"] - target) < 3.0 * row["stderr"]
        assert abs(row["mean_sq"] - target) / target < 0.02
    assert res.verdict  # decaying with wide separation


def test_meansq_case2_median_decays():
    spec = spec_from_dict(build_preset("case2"))
    res = probe_mean_square(spec, [0.5, 1.0, 2.0, 3.0, 5.0], 300, RngPolicy(3))
    assert res.rows[-1]["median_sq"] < 1e-2 * res.rows[0]["median_sq"]


def test_meansq_grid_validation():
    with pytest.raises(ValueError):
        probe_mean_square(frozen_spec(), [1.0], 10, RngPolicy(0))
    with pytest.raises(ValueError):
        probe_mean_square(frozen_spec(), [1.0, 1.0], 10, RngPolicy(0))


# ---------------------------------------------------------------------------
# supermartingale probe
# ---------------------------------------------------------------------------

def test_supermartingale_constant_v_exact_equality():
    spec = spec_from_dict(build_preset("case2"))
    v = LyapunovSpec(kind="custom-smooth", fn_value=lambda t, y, h, x: 1.0)
    res = probe_supermartingale(spec, v, [1, 2], 40, 10, RngPolicy(0))
    for row in res.rows:
        assert row["diff"] == 0.0 and row["ok"]
    assert res.verdict


def test_supermartingale_frozen_system_equality_within_noise():
    spec = frozen_spec()
    v = LyapunovSpec(kind="quadratic", coeff=1.0)
    res = probe_supermartingale(spec, v, [1], 50, 10, RngPolicy(0))
    assert res.rows[0]["diff"] == pytest.approx(0.0, abs=1e-12)
    assert res.verdict


def test_supermartingale_case2_short_range():
    spec = spec_from_dict(build_preset("case2"))
    v = LyapunovSpec(kind="power", gamma=1.0, beta=0.025)
    res = probe_supermartingale(spec, v, range(1, 7), 200, 40, RngPolicy(11))
    assert res.verdict
    # the first segment still mixes the regime distribution downwards
    assert res.rows[0]["diff"] < 0.0


def _supermartingale_rows_one_path_at_a_time(spec, v, ks, n_outer, n_inner, policy):
    """The probe's rows from a plain loop: one ``simulate_window`` per path."""
    cfg = IntegratorConfig()
    entries = dict(spec.realization().entries)
    skeleton = sorted({entries[k] for k in list(ks) + [ks[-1] + 1]})
    states = {t: [None] * n_outer for t in skeleton}
    for i in range(n_outer):
        streams = policy.aux_streams(_AUX_OUTER, 0, i)
        x, y, h, t_prev, dead = spec.x0, spec.y0, spec.h0, 0.0, False
        for t in skeleton:
            if not dead:
                res = simulate_window(spec, cfg, t_prev, t, x, y, h, streams)
                x, y, h, dead = res.x_end, res.y_end, res.h_end, res.exploded
            states[t][i] = None if dead else (x, y, h)
            t_prev = t
    rows = []
    for k in ks:
        t_lo, t_hi = entries[k], entries[k + 1]
        v_now, v_next = [], []
        for i, st in enumerate(states[t_lo]):
            if st is None:
                continue
            x, y, h = st
            inner = np.empty(n_inner)
            for j in range(n_inner):
                res = simulate_window(spec, cfg, t_lo, t_hi, x, y, h,
                                      policy.aux_streams(_AUX_OUTER, k, i, j))
                inner[j] = float(v.value(t_hi, res.y_end, res.h_end, res.x_end))
            v_now.append(float(v.value(t_lo, y, h, x)))
            v_next.append(float(inner.mean()))
        diffs = np.asarray(v_next) - np.asarray(v_now)
        d_mean = float(diffs.mean())
        d_se = float(diffs.std(ddof=1) / math.sqrt(diffs.size))
        rows.append({"k": k, "t_lo": t_lo, "t_hi": t_hi, "ev_k": float(np.mean(v_now)),
                     "ev_next": float(np.mean(v_next)), "diff": d_mean, "diff_stderr": d_se,
                     "n_alive": int(diffs.size), "ok": bool(d_mean <= 3.0 * d_se)})
    return rows


def test_supermartingale_batches_match_one_path_at_a_time():
    spec = spec_from_dict(build_preset("case2"))
    v = LyapunovSpec(kind="power", gamma=1.0, beta=0.025)
    res = probe_supermartingale(spec, v, [1, 2, 3], 20, 10, RngPolicy(31))
    assert list(res.rows) == _supermartingale_rows_one_path_at_a_time(
        spec, v, [1, 2, 3], 20, 10, RngPolicy(31))


def test_supermartingale_with_exploded_outer_paths_matches_one_path_at_a_time():
    # case3's outer paths explode between segments 2 and 9, so the live
    # paths the inner level continues are not contiguous
    spec = spec_from_dict(build_preset("case3"))
    v = LyapunovSpec(kind="power", gamma=1.0, beta=0.025)
    res = probe_supermartingale(spec, v, [1, 2, 9, 10], 20, 10, RngPolicy(31))
    assert [r["n_alive"] for r in res.rows] == [20, 20, 11, 7]
    assert list(res.rows) == _supermartingale_rows_one_path_at_a_time(
        spec, v, [1, 2, 9, 10], 20, 10, RngPolicy(31))


@pytest.mark.parametrize("preset", ["case2", "case3"])
def test_supermartingale_report_does_not_depend_on_the_bundle_cap(preset, monkeypatch):
    # caps of 1, 25 and 35 continuations per batch: the latter two split an
    # outer path's 10 continuations across batches, and 35 leaves a short
    # final batch; case3's outer paths explode, so the alive paths are not
    # contiguous
    import zenosde.lyapunov as lyapunov

    spec = spec_from_dict(build_preset(preset))
    v = LyapunovSpec(kind="power", gamma=1.0, beta=0.025)

    def report_json():
        res = probe_supermartingale(spec, v, [1, 2, 3, 9, 10], 20, 10, RngPolicy(5))
        return json.dumps(res.as_dict(), sort_keys=True)

    reference = report_json()
    for cap in (1, 25, 35):
        monkeypatch.setattr(lyapunov, "_INNER_BUNDLES", cap)
        assert report_json() == reference


def test_supermartingale_unrealized_index_rejected():
    spec = spec_from_dict(build_preset("case2"))
    v = LyapunovSpec(kind="quadratic")
    with pytest.raises(ValueError):
        probe_supermartingale(spec, v, [200], 10, 5, RngPolicy(0))


# ---------------------------------------------------------------------------
# blow-up detection
# ---------------------------------------------------------------------------

def test_blowup_intro_strictly_increasing():
    spec = spec_from_dict(build_preset("intro"))
    res = detect_blowup(spec, [5, 10, 20], 1.2, 5, RngPolicy(0))
    meds = [r["median_sup"] for r in res.rows]
    assert meds[0] < meds[1] < meds[2]
    assert res.verdict
    assert res.rows[0]["exploded_fraction"] == 0.0
    assert res.rows[2]["exploded_fraction"] == 1.0


def test_blowup_zero_jump_family_flat():
    cfg = build_preset("intro")
    cfg["jump"] = {"kind": "zero"}
    spec = spec_from_dict(cfg)
    res = detect_blowup(spec, [5, 10, 20], 1.2, 5, RngPolicy(0))
    meds = [r["median_sup"] for r in res.rows]
    assert meds[0] == meds[1] == meds[2]
    assert not res.verdict


def test_blowup_requires_accumulating_schedule():
    with pytest.raises(ValueError):
        detect_blowup(frozen_spec(), [2, 3], 1.0, 5, RngPolicy(0))


# ---------------------------------------------------------------------------
# determinism of probes
# ---------------------------------------------------------------------------

def test_probe_reruns_are_identical():
    spec = spec_from_dict(build_preset("case2"))
    a = probe_mean_square(spec, [0.5, 1.0], 50, RngPolicy(5)).as_dict()
    b = probe_mean_square(spec, [0.5, 1.0], 50, RngPolicy(5)).as_dict()
    assert a == b
    c = probe_stability_in_probability(spec, 5.0, 1.0, 50, [1.0, 0.1], RngPolicy(5)).as_dict()
    d = probe_stability_in_probability(spec, 5.0, 1.0, 50, [1.0, 0.1], RngPolicy(5)).as_dict()
    assert c == d
