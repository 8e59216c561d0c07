import json
import math
import time

import numpy as np
import pytest

from zenosde.system import (
    MAX_HARMONIC_ENTRIES,
    CoefficientFamily,
    ConfigError,
    DivergentTail,
    EmptySchedule,
    JumpFamily,
    JumpSchedule,
    NeverReached,
    UnsupportedFamily,
    check_existence_conditions,
    derive_constants,
    generate_schedule,
    load_config,
    realize_schedule,
    spec_from_dict,
    spec_to_dict,
    tail_cutoff_index,
)
from zenosde.cli import build_preset

from conftest import make_spec

ALPHA = 1.673


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_harmonic_to_point_first_three():
    sched = JumpSchedule(kind="harmonic-to-point", t_star=2.0, c=1.0, k_max=3)
    real = generate_schedule(sched)
    assert real.entries == ((1, 1.0), (2, 1.5), (3, 2.0 - 1.0 / 3.0))
    assert real.n_truncated == 0


def test_schedule_harmonic_to_zero_reverses_index_order():
    sched = JumpSchedule(kind="harmonic-to-zero", alpha=1.0, k_max=3)
    real = generate_schedule(sched)
    assert real.entries == ((3, 1.0 / 3.0), (2, 0.5), (1, 1.0))


def test_schedule_empty_list_raises():
    with pytest.raises(EmptySchedule):
        generate_schedule(JumpSchedule(kind="explicit-list", times=()))


def test_schedule_delta_min_truncation():
    # gaps of 2 - 1/k shrink like 1/k^2; delta_min = 0.01 keeps k <= 10
    sched = JumpSchedule(kind="harmonic-to-point", t_star=2.0, c=1.0, k_max=200, delta_min=0.01)
    real = generate_schedule(sched)
    assert real.indices.max() == 10
    assert real.n_truncated == 190


@pytest.mark.parametrize("kind,kwargs", [
    ("harmonic-to-point", {"t_star": 2.0, "c": 1.0}),
    ("harmonic-to-zero", {"alpha": 1.673}),
])
@pytest.mark.parametrize("k_max", [1, 7, 200])
def test_schedule_times_increase_and_stay_below_star(kind, kwargs, k_max):
    real = generate_schedule(JumpSchedule(kind=kind, k_max=k_max, **kwargs))
    times = real.times
    assert (np.diff(times) > 0).all()
    if kind == "harmonic-to-point":
        assert times.max() < kwargs["t_star"]


def _realize_by_full_scan(schedule):
    """The realization built the direct way: all ``k_max`` entries, then the
    first gap below ``delta_min`` cuts the tail."""
    c = schedule.c if schedule.kind == "harmonic-to-point" else schedule.alpha
    ks = range(1, schedule.k_max + 1)
    t = [schedule.t_star - c / k for k in ks] if schedule.kind == "harmonic-to-point" \
        else [c / k for k in ks]
    cutoff = next((k for k in ks[:-1] if abs(t[k] - t[k - 1]) < schedule.delta_min), schedule.k_max)
    kept = sorted(((k, t[k - 1]) for k in range(1, cutoff + 1)), key=lambda e: e[1])
    return tuple(kept), schedule.k_max - cutoff


@pytest.mark.parametrize("kind", ["harmonic-to-point", "harmonic-to-zero"])
@pytest.mark.parametrize("c,t_star", [(1.0, 2.0), (0.3, 0.5), (7.5, 1e4)])
def test_schedule_cut_matches_full_scan(kind, c, t_star):
    for k_max in (1, 2, 3, 17, 200, 20000):
        for delta_min in (0.0, 1e-18, 1e-15, 3e-13, 1e-9, 2.5e-7, 1e-3, 0.1, 1.0, 10.0):
            sched = JumpSchedule(kind=kind, c=c, alpha=c, t_star=t_star, k_max=k_max,
                                 delta_min=delta_min)
            entries, n_truncated = _realize_by_full_scan(sched)
            times = [t for _, t in entries]
            if any(b <= a for a, b in zip(times, times[1:])):
                with pytest.raises(ConfigError, match="strictly increasing"):
                    realize_schedule(sched)
                continue
            real = realize_schedule(sched)
            assert (real.entries, real.n_truncated) == (entries, n_truncated), (k_max, delta_min)


@pytest.mark.parametrize("preset", ["case1", "case2", "case3", "intro"])
def test_schedule_cut_of_presets_matches_full_scan(preset):
    sched = spec_from_dict(build_preset(preset)).schedule
    real = realize_schedule(sched)
    assert (real.entries, real.n_truncated) == _realize_by_full_scan(sched)


@pytest.mark.parametrize("kind", ["harmonic-to-point", "harmonic-to-zero"])
def test_schedule_huge_k_max_realizes_quickly(kind):
    # the realization costs what it keeps, not k_max
    t0 = time.perf_counter()
    real = realize_schedule(JumpSchedule(kind=kind, k_max=10**9, delta_min=1e-9))
    assert time.perf_counter() - t0 < 5.0
    assert len(real.entries) == 31623
    assert real.n_truncated == 10**9 - 31623


@pytest.mark.parametrize("kind", ["harmonic-to-point", "harmonic-to-zero"])
@pytest.mark.parametrize("delta_min", [0.0, 1e-20])
def test_schedule_keeping_too_many_entries_is_rejected_quickly(kind, delta_min):
    # no gap is under delta_min before the times round together, about 10**7
    # entries in, so all 10**9 would be kept
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match=str(MAX_HARMONIC_ENTRIES)):
        realize_schedule(JumpSchedule(kind=kind, k_max=10**9, delta_min=delta_min))
    assert time.perf_counter() - t0 < 1.0


def test_schedule_at_the_entry_cap_is_kept():
    real = realize_schedule(JumpSchedule(kind="harmonic-to-zero", k_max=MAX_HARMONIC_ENTRIES,
                                         delta_min=0.0))
    assert len(real.entries) == MAX_HARMONIC_ENTRIES


def test_schedule_jumps_in_window():
    real = generate_schedule(JumpSchedule(kind="harmonic-to-point", t_star=2.0, c=1.0, k_max=5))
    assert real.jumps_in(1.0, 1.5) == [(2, 1.5)]
    assert real.jumps_in(0.0, 0.5) == []


# ---------------------------------------------------------------------------
# tail cutoff index
# ---------------------------------------------------------------------------

def _brute_cutoff(gamma, eps, n=200):
    terms = [gamma(m) for m in range(1, n + 1)]
    for k in range(1, n + 1):
        if sum(terms[k - 1:]) < eps:
            return k
    raise AssertionError("cutoff not reached")


def test_tail_cutoff_geometric_example():
    gamma = lambda m: 2.0 ** (-m)
    assert _brute_cutoff(gamma, 0.1) == 5
    assert tail_cutoff_index(gamma, 0.1) == 5
    assert tail_cutoff_index(gamma, 2.0) == 1


def test_tail_cutoff_matches_brute_force_on_array():
    seq = [0.4, 0.3, 0.2, 0.05, 0.03, 0.01]
    for eps in (0.9, 0.5, 0.2, 0.05, 0.005):
        brute = next(k for k in range(1, 8) if sum(seq[k - 1:]) < eps)
        assert tail_cutoff_index(seq, eps) == brute


def test_tail_cutoff_nonincreasing_in_eps():
    fam = JumpFamily(kind="exp-mark-clamped", alpha=ALPHA, sign=-1, mark_values=(1, 2))
    grid = [10.0 ** (-e) for e in range(0, 9)]
    cuts = [tail_cutoff_index(fam, eps) for eps in grid]
    assert all(b >= a for a, b in zip(cuts, cuts[1:]))


def test_tail_cutoff_divergent_and_invalid():
    poly = JumpFamily(kind="scale-poly")
    with pytest.raises(DivergentTail):
        tail_cutoff_index(poly, 0.1)
    with pytest.raises(DivergentTail):
        tail_cutoff_index(lambda m: 1.0 / m, 0.1, max_terms=5000)
    with pytest.raises(NeverReached):
        tail_cutoff_index(lambda m: 2.0 ** (-m), 0.0)


# ---------------------------------------------------------------------------
# derived constants
# ---------------------------------------------------------------------------

def test_zero_jump_family_constants():
    fam = JumpFamily(kind="zero")
    assert fam.lipschitz_sq(3) == 0.0
    assert fam.sup_norm(3) == 0.0
    assert fam.gamma_total() == 0.0


def test_exp_family_closed_forms_match_geometric_series():
    fam = JumpFamily(kind="exp-mark-clamped", alpha=ALPHA, sign=-1, mark_values=(1, 2))
    assert fam.sup_norm(5) == pytest.approx(math.exp(-5 * ALPHA), rel=1e-12)
    assert fam.sup_norm(5) == pytest.approx(2.33e-4, rel=1e-2)
    closed = math.exp(-ALPHA) / (1.0 - math.exp(-ALPHA))
    brute = sum(math.exp(-ALPHA * k) for k in range(1, 400))
    assert fam.gamma_total() == pytest.approx(closed, rel=1e-12)
    assert fam.gamma_total() == pytest.approx(brute, rel=1e-12)
    brute_l = sum(math.exp(-2 * ALPHA * k) for k in range(1, 400))
    assert fam.l_total() == pytest.approx(brute_l, rel=1e-12)
    assert fam.l_prefix_sum(3) == pytest.approx(sum(math.exp(-2 * ALPHA * k) for k in (1, 2, 3)), rel=1e-12)


def test_exp_family_growing_sign_diverges():
    fam = JumpFamily(kind="exp-mark-clamped", alpha=ALPHA, sign=+1, mark_values=(1, 2))
    assert fam.gamma_total() == math.inf
    assert fam.l_total() == math.inf
    # worst mark for the growing sign is the largest one
    assert fam.sup_norm(2) == pytest.approx(math.exp(2 * ALPHA * 2), rel=1e-12)


def test_scale_poly_constants():
    fam = JumpFamily(kind="scale-poly")
    assert fam.lipschitz_sq(3) == 81.0
    assert fam.sup_norm(3) == math.inf
    assert fam.gamma_total() == math.inf


def test_custom_sequence_requires_user_constants():
    fam = JumpFamily(kind="custom-sequence", maps=((0.0, 1.0),))
    with pytest.raises(UnsupportedFamily):
        fam.lipschitz_sq(1)
    ok = JumpFamily(kind="custom-sequence", maps=((0.0, 1.0),), l_seq=(0.0,), gamma_seq=(1.0,))
    assert ok.lipschitz_sq(1) == 0.0
    assert ok.gamma_total() == 1.0


def test_derive_constants_zero_jumps():
    spec = make_spec()
    consts = derive_constants(spec)
    assert consts.l_seq.size == 0
    assert consts.sum_gamma == 0.0
    assert consts.c_growth == 1.0  # max(a^2 + b^2) for a=-1, b=0


def _sample_coeff(family: CoefficientFamily, y: int, x: np.ndarray) -> np.ndarray:
    return family.evaluate(0.0, y, x)


@pytest.mark.parametrize("preset", ["case1", "case2"])
def test_growth_and_lipschitz_constants_dominate_samples(preset, rng):
    spec = spec_from_dict(build_preset(preset))
    consts = derive_constants(spec)
    ks = spec.realization().indices
    for _ in range(5000):
        y = int(rng.integers(1, spec.n_regimes + 1))
        h = int(rng.integers(1, spec.eta_chain.n_states + 1))
        k = int(ks[rng.integers(0, ks.size)])
        x1 = rng.normal(scale=10.0, size=1)
        x2 = rng.normal(scale=10.0, size=1)
        a1, b1 = _sample_coeff(spec.drift, y, x1), _sample_coeff(spec.diffusion, y, x1)
        g1 = spec.jump.evaluate(k, y, h, x1)
        lhs = float(a1 @ a1 + b1 @ b1 + g1 @ g1)
        assert lhs <= consts.c_growth * (1.0 + float(x1 @ x1)) + 1e-9
        da = _sample_coeff(spec.drift, y, x1) - _sample_coeff(spec.drift, y, x2)
        db = _sample_coeff(spec.diffusion, y, x1) - _sample_coeff(spec.diffusion, y, x2)
        assert float(da @ da + db @ db) <= consts.l_coeff * float((x1 - x2) @ (x1 - x2)) + 1e-9
        dg = spec.jump.evaluate(k, y, h, x1) - spec.jump.evaluate(k, y, h, x2)
        assert float(dg @ dg) <= spec.jump.lipschitz_sq(k) * float((x1 - x2) @ (x1 - x2)) + 1e-9


# ---------------------------------------------------------------------------
# existence conditions
# ---------------------------------------------------------------------------

def test_case2_satisfies_all_conditions():
    spec = spec_from_dict(build_preset("case2"))
    report = check_existence_conditions(spec)
    assert report.growth_ok and report.lipschitz_ok
    assert report.jump_lipschitz_summable and report.jump_size_summable
    assert report.tail_trend_ok and report.all_ok
    balances = [b for _, _, b in report.tail_rows]
    assert all(y < x for x, y in zip(balances, balances[1:]))


def test_intro_fails_summability():
    spec = spec_from_dict(build_preset("intro"))
    report = check_existence_conditions(spec)
    assert not report.jump_size_summable
    assert not report.jump_lipschitz_summable
    assert not report.growth_ok  # k^2 x jumps are unbounded in k
    assert not report.all_ok


def test_case3_fails_size_summability():
    spec = spec_from_dict(build_preset("case3"))
    report = check_existence_conditions(spec)
    assert not report.jump_size_summable
    assert not report.all_ok


# ---------------------------------------------------------------------------
# config interface
# ---------------------------------------------------------------------------

def test_config_round_trip():
    for name in ("intro", "case1", "case2", "case3"):
        cfg = build_preset(name)
        spec = spec_from_dict(cfg)
        again = spec_from_dict(spec_to_dict(spec))
        assert spec_to_dict(spec) == spec_to_dict(again)


def test_config_rejects_unknown_keys():
    cfg = build_preset("case2")
    cfg["extra"] = 1
    with pytest.raises(ConfigError, match="unknown top-level"):
        spec_from_dict(cfg)
    cfg = build_preset("case2")
    cfg["drift"]["typo"] = 1
    with pytest.raises(ConfigError, match="drift"):
        spec_from_dict(cfg)


def test_config_rejects_missing_keys():
    cfg = build_preset("case2")
    del cfg["horizon"]
    with pytest.raises(ConfigError, match="missing"):
        spec_from_dict(cfg)


def test_config_rejects_mismatched_regimes():
    cfg = build_preset("case2")
    cfg["drift"]["values"] = [1.0]
    with pytest.raises(ConfigError, match="regime count"):
        spec_from_dict(cfg)


@pytest.mark.parametrize("section,key,value", [
    (None, "horizon", math.inf),
    ("initial", "x0", [math.nan]),
    ("schedule", "times", [0.5, math.nan]),
    ("schedule", "t_star", math.inf),
    ("schedule", "c", math.nan),
    ("schedule", "delta_min", math.nan),
    ("drift", "values", [math.nan, 0.5]),
    ("jump", "alpha", math.nan),
    ("jump", "scale", math.nan),
    ("jump", "scale", math.inf),
])
def test_config_rejects_non_finite_numbers(section, key, value):
    cfg = build_preset("case2")
    (cfg if section is None else cfg[section])[key] = value
    with pytest.raises(ConfigError, match="finite"):
        spec_from_dict(cfg)


@pytest.mark.parametrize("kwargs", [
    {"kind": "exp-mark-clamped", "alpha": math.nan},
    {"kind": "exp-mark-clamped", "scale": math.nan},
    {"kind": "scale-poly", "scale": math.inf},
    {"kind": "exp-mark-clamped", "mark_values": (1.0, math.nan)},
    {"kind": "custom-sequence", "maps": ((math.nan, 0.0),)},
])
def test_jump_family_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ConfigError, match="finite"):
        JumpFamily(**kwargs)


@pytest.mark.parametrize("family", [
    JumpFamily(kind="zero"),
    JumpFamily(kind="scale-poly", scale=0.3),
    JumpFamily(kind="exp-mark-clamped", alpha=1.673, sign=-1, mark_values=(1, 2, 3)),
    # exponents 300 k h pass 709 from k h = 3 on, where the coefficient is inf
    JumpFamily(kind="exp-mark-clamped", alpha=300.0, sign=1, scale=-2.0, mark_values=(1, 2, 3)),
    JumpFamily(kind="custom-sequence", maps=((0.5, 1.0), (-2.0, 0.25))),
], ids=["zero", "scale-poly", "exp-mark-clamped", "exp-mark-clamped-inf", "custom-sequence"])
@pytest.mark.parametrize("dim", [1, 2])
def test_jump_evaluate_of_rows_matches_one_call_per_row(family, dim):
    rng = np.random.default_rng(dim)
    n = 60
    x = rng.normal(scale=3.0, size=(n, dim))
    x[:7] = [[v] * dim for v in (0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 1e300, -np.inf, np.inf)]
    y = rng.integers(1, 3, size=n)
    h = rng.integers(1, len(family.mark_values) + 1, size=n)
    assert family.kind != "exp-mark-clamped" or set(h.tolist()) == {1, 2, 3}
    # over many k, some exponents round differently under an array exp
    for k in range(1, 121):
        if family.kind == "custom-sequence" and k > len(family.maps):
            with pytest.raises(UnsupportedFamily):
                family.evaluate(k, y, h, x)
            continue
        with np.errstate(invalid="ignore"):  # inf * 0, in both forms
            got = family.evaluate(k, y, h, x)
            want = np.array([family.evaluate(k, int(yv), int(hv), xv) for yv, hv, xv in zip(y, h, x)])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (family.kind, k)
        if family.kind == "exp-mark-clamped":
            # the coefficients of Python's scalar exp, saturated past 709
            e = (family.sign * family.alpha * k * np.array(family.mark_values)[h - 1]).tolist()
            coef = np.array([family.scale * (math.inf if v > 709.0 else math.exp(v)) for v in e])
            with np.errstate(invalid="ignore"):
                assert got.tobytes() == (coef[:, None] * np.minimum(x, 1.0)).tobytes(), k


@pytest.mark.parametrize("section,key,value", [
    ("xi_generator", "q", [[math.nan, 1.0], [1.0, -1.0]]),
    ("eta_transition", "p", [[0.5, math.nan], [0.5, 0.5]]),
])
def test_config_rejects_nan_chain_entries(section, key, value):
    cfg = build_preset("case2")
    cfg[section][key] = value
    with pytest.raises(ValueError):
        spec_from_dict(cfg)


def test_load_config_rejects_infinity_token(tmp_path):
    # json.load accepts the bare Infinity and NaN tokens
    p = tmp_path / "inf.json"
    text = json.dumps(build_preset("case2"), sort_keys=True)
    p.write_text(text.replace('"horizon": 5.0', '"horizon": Infinity'), encoding="utf-8")
    with pytest.raises(ConfigError, match="horizon must be positive and finite"):
        load_config(p)


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"drift": }', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(p)


def test_load_config_round_trips_file(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(build_preset("case2")), encoding="utf-8")
    spec = load_config(p)
    assert spec.y0 == 2
    assert spec.x0[0] == 10.0
