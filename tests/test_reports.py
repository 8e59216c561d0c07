"""The one JSON encoding shared by every written report."""

import json
import math

import numpy as np
import pytest

from zenosde.analysis import (
    detect_blowup,
    probe_mean_square,
    probe_supermartingale,
    verify_segment_moment_bound,
)
from zenosde.cli import build_preset
from zenosde.lyapunov import LyapunovSpec, check_jump_moment_condition, linear_stability_check
from zenosde.simulate import IntegratorConfig, RngPolicy
from zenosde.system import check_existence_conditions, json_safe, spec_from_dict

from conftest import make_spec


def preset(name):
    return spec_from_dict(build_preset(name))


def test_json_safe_encodes_numpy_and_non_finite_values():
    out = json_safe({
        "f": np.float64(0.5), "i": np.int64(3), "b": np.bool_(True),
        "arr": np.array([1.0, np.inf]), "t": (1, -math.inf), "nan": math.nan,
    })
    assert out == {"f": 0.5, "i": 3, "b": True, "arr": [1.0, "inf"], "t": [1, "-inf"], "nan": "nan"}
    assert type(out["i"]) is int and type(out["b"]) is bool


def test_nan_row_is_written_as_nan():
    # every case3 path has exploded by t = 3, so that row's statistics are NaN
    res = probe_mean_square(preset("case3"), [0.5, 1.5, 3.0], 8, RngPolicy(1))
    assert math.isnan(res.rows[-1]["mean_sq"])
    last = res.as_dict()["rows"][-1]
    assert last["mean_sq"] == last["stderr"] == last["median_sq"] == "nan"


def _bound():
    spec = make_spec(drift={"values": [0.0]}, schedule={"kind": "explicit-list", "times": [0.4, 0.8]},
                     initial={"x0": [3.0], "y0": 1, "h0": 1})
    return verify_segment_moment_bound(spec, 1, 5, RngPolicy(0))


def _supermartingale():
    spec = preset("case2")
    v = LyapunovSpec(kind="power", gamma=1.0, beta=0.025, regime_values=(1, 2))
    return probe_supermartingale(spec, v, [1], 4, 3, RngPolicy(0), IntegratorConfig(dt_max=0.01))


def _jump_moment(name):
    spec = preset(name)
    return check_jump_moment_condition(spec.jump, spec.eta_chain, 0.025, 12)


ROW = {"regime", "a", "b", "drift_margin", "switching_sum", "growth_rhs",
       "margin_ok", "switching_ok", "drift_reading_ok"}
JUMP_MOMENT = {"ok", "worst_ratio", "witness"}
EXISTENCE = {"growth_ok", "lipschitz_ok", "jump_lipschitz_summable", "jump_size_summable",
             "tail_trend_ok", "all_ok", "c_growth", "l_coeff", "sum_l", "sum_gamma", "tail_rows"}

# (report builder, its top-level keys, the keys of each of its rows)
REPORTS = {
    "bound": (_bound, {"segment", "t_lo", "t_hi", "lhs_mean", "lhs_stderr", "lhs_ci_upper",
                       "rhs", "start_sq", "n_paths", "ok"}, None),
    "meansq-case3-nan": (
        lambda: probe_mean_square(preset("case3"), [0.5, 3.0], 8, RngPolicy(1)),
        {"kind", "params", "rows", "verdict", "notes"},
        {"t", "mean_sq", "stderr", "median_sq", "explosion_fraction"}),
    "supermartingale": (_supermartingale, {"rows", "verdict", "n_outer", "n_inner"},
                        {"k", "t_lo", "t_hi", "ev_k", "ev_next", "diff", "diff_stderr", "n_alive", "ok"}),
    "blowup-intro": (
        lambda: detect_blowup(preset("intro"), [2, 3], 0.5, 3, RngPolicy(0), IntegratorConfig(dt_max=0.01)),
        {"rows", "verdict", "notes"}, {"k_max", "median_sup", "max_sup", "exploded_fraction"}),
    "regime-row": (lambda: linear_stability_check(preset("case2"), k_max=12).rows[0], ROW, None),
    "jump-moment-case2": (lambda: _jump_moment("case2"), JUMP_MOMENT, None),
    "jump-moment-case3-witness": (lambda: _jump_moment("case3"), JUMP_MOMENT, None),
    "linear-stability-case3": (lambda: linear_stability_check(preset("case3"), k_max=12),
                         {"epsilon", "beta", "b_max", "rows", "jump_moment", "overall_ok"}, ROW),
    "existence-case2": (lambda: check_existence_conditions(preset("case2")), EXISTENCE,
                        {"eps", "n_eps", "balance"}),
    "existence-intro-inf": (lambda: check_existence_conditions(preset("intro")), EXISTENCE,
                            {"eps", "n_eps", "balance"}),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_shape_is_pinned_and_strict_json(name):
    build, keys, row_keys = REPORTS[name]
    d = build().as_dict()
    assert set(d) == keys
    if row_keys is not None:
        rows = d.get("rows", d.get("tail_rows"))
        assert rows and all(set(r) == row_keys for r in rows)
    jump_moment = d.get("jump_moment", d)
    if "witness" in jump_moment:
        assert set(jump_moment) == JUMP_MOMENT
        witness = jump_moment["witness"]
        assert (witness is not None) == ("case3" in name)
        assert witness is None or set(witness) == {"k", "h", "x"}
    text = json.dumps(d, allow_nan=False)
    # the reports named for them do hold non-finite values
    assert ('"nan"' in text) == name.endswith("-nan")
    assert ('"inf"' in text) == name.endswith("-inf")
