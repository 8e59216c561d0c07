import json
import math
import warnings

import pytest

from zenosde import __version__
from zenosde.cli import (
    EXIT_CONFIG,
    EXIT_EXPLODED,
    EXIT_FINDING,
    EXIT_OK,
    build_preset,
    main,
)
from zenosde.system import ConfigError, load_config, spec_from_dict


def read(p):
    return p.read_bytes()


def manifest_without_timestamp(path):
    data = json.loads(path.read_text())
    data.pop("created_at")
    return data


def test_preset_emits_valid_config(capsys):
    assert main(["preset", "case2"]) == EXIT_OK
    cfg = json.loads(capsys.readouterr().out)
    spec = spec_from_dict(cfg)
    assert spec.drift.values == (-1.0, 0.5)
    assert spec.diffusion.values == (0.3, 2.0)
    assert cfg["meta"]["sources"]["xi_generator"] == "toolkit-default"


def test_preset_unknown_name(capsys):
    assert main(["preset", "nosuch"]) == EXIT_CONFIG
    assert "UnknownPreset" in capsys.readouterr().err


def test_simulate_case2_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--preset", "case2", "--seed", "7", "--horizon", "2.5",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "traj_0.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["seed"] == 7
    assert "traj_0.csv" in manifest["outputs"]


def test_simulate_case3_reports_explosion_via_exit_code(tmp_path):
    out = tmp_path / "boom"
    code = main(["simulate", "--preset", "case3", "--seed", "7", "--out", str(out)])
    assert code == EXIT_EXPLODED
    assert (out / "traj_0.csv").exists()       # status still written
    assert (out / "manifest.json").exists()


def test_growing_config_over_the_threshold_before_a_jump_writes_outputs(tmp_path):
    cfg = {
        "drift": {"kind": "linear-per-regime", "values": [5.0]},
        "diffusion": {"kind": "linear-per-regime", "values": [0.0]},
        "jump": {"kind": "exp-mark-clamped", "alpha": 1.0, "sign": 1, "scale": 1.0},
        "schedule": {"kind": "explicit-list", "times": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
        "xi_generator": {"q": [[0.0]]},
        "eta_transition": {"p": [[1.0]]},
        "initial": {"x0": [10.0], "y0": 1, "h0": 1},
        "horizon": 7.0,
    }
    path = tmp_path / "grow.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "grow"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_EXPLODED
    assert (out / "traj_0.csv").exists()
    assert (out / "manifest.json").exists()


def test_check_exit_codes(tmp_path, capsys):
    assert main(["check", "--preset", "case2", "--epsilon", "0.1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.025" in out               # exponent printed
    assert main(["check", "--preset", "case1", "--epsilon", "0.1"]) == EXIT_FINDING
    out = capsys.readouterr().out
    assert "0.955" in out               # failing margin printed
    assert main(["check", "--preset", "case3", "--epsilon", "0.1"]) == EXIT_FINDING
    out = capsys.readouterr().out
    assert "witness" in out             # jump moment witness printed


def test_check_refuses_a_custom_sequence_whose_maps_end_before_the_last_jump(tmp_path, capsys):
    # case2 realizes 200 jumps; the constants cover them, the maps stop at 100
    cfg = build_preset("case2")
    cfg["jump"] = {"kind": "custom-sequence", "maps": [[-0.5, 0.0]] * 100,
                   "l_seq": [0.25] * 240, "gamma_seq": [0.5 ** k for k in range(1, 241)]}
    path = tmp_path / "short-maps.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["check", "--config", str(path)]) == EXIT_CONFIG
    assert "custom-sequence has no map for k=101" in capsys.readouterr().err
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "custom-sequence has no map for k=101" in capsys.readouterr().err


def test_check_intro_skips_stability_section(capsys):
    assert main(["check", "--preset", "intro"]) == EXIT_FINDING
    out = capsys.readouterr().out
    assert "skipped" in out


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"drift": {,}', encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 1" in err
    good_missing = tmp_path / "missing.json"
    good_missing.write_text('{"horizon": 1.0}', encoding="utf-8")
    assert main(["simulate", "--config", str(good_missing), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "missing" in capsys.readouterr().err


def test_config_file_errors_read_as_the_library_reports_them(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"drift": }', encoding="utf-8")
    for path in (bad, tmp_path / "missing.json"):
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert main(["check", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {exc.value}\n"
        assert str(path) in str(exc.value)


@pytest.mark.parametrize("argv,message", [
    (["probe", "--preset", "intro", "--kind", "blowup", "--kmax", "5,x"], "--kmax"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--krange", "1-20"], "--krange"),
    (["simulate", "--preset", "case2", "--dt", "-1"], "dt_max"),
    (["probe", "--preset", "intro", "--kind", "blowup", "--kmax", ""], "--kmax"),
    (["probe", "--preset", "case2", "--kind", "prob", "--deltas", ""], "--deltas"),
    (["probe", "--preset", "case2", "--kind", "bound", "--paths", "0"], "paths"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--paths", "0", "--krange", "1:2",
      "--inner", "3"], "paths"),
    (["probe", "--preset", "case2", "--kind", "bound", "--paths", "-1"], "paths"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--grid=-1,1", "--paths", "5"],
     "record times"),
    (["probe", "--preset", "case2", "--kind", "prob", "--deltas=-1"], "delta"),
    (["probe", "--preset", "case2", "--kind", "prob", "--deltas", "0"], "delta"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--paths", "1000000000"], "bytes"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--paths", "1000000000"], "bytes"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--inner", "1000000000"], "bytes"),
    (["probe", "--preset", "case2", "--kind", "bound", "--paths", "1000000000"], "bytes"),
])
def test_bad_arguments_exit_one_with_message(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["probe", "--preset", "case2", "--kind", "meansq", "--grid", "1,inf"], "window"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--inner", "0"], "n_inner"),
    (["simulate", "--preset", "case2", "--horizon", "inf"], "horizon"),
    (["simulate", "--preset", "case2", "--paths", "0"], "paths"),
    (["probe", "--preset", "intro", "--kind", "blowup", "--kmax", ""], "--kmax"),
    (["probe", "--preset", "case2", "--kind", "prob", "--deltas", ""], "--deltas"),
    (["probe", "--preset", "case2", "--kind", "bound", "--paths", "0"], "paths"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--paths", "0", "--krange", "1:2",
      "--inner", "3"], "paths"),
    (["probe", "--preset", "case2", "--kind", "bound", "--paths", "-1"], "paths"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--dt", "1e-300"], "dt_max"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--grid=-1,1", "--paths", "5"],
     "record times"),
    (["probe", "--preset", "case2", "--kind", "prob", "--deltas=-1"], "delta"),
    (["probe", "--preset", "case2", "--kind", "prob", "--deltas", "0"], "delta"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--paths", "1000000000"], "bytes"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--paths", "1000000000"], "bytes"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--inner", "1000000000"], "bytes"),
    (["probe", "--preset", "case2", "--kind", "bound", "--paths", "1000000000"], "bytes"),
    (["check", "--preset", "case1", "--epsilon", "0"], "epsilon"),
    (["check", "--preset", "case1", "--epsilon", "-1"], "epsilon"),
    (["check", "--preset", "case1", "--epsilon", "nan"], "epsilon"),
    (["check", "--preset", "case1", "--epsilon", "inf"], "epsilon"),
    (["check", "--preset", "case1", "--epsilon", "nan", "--eps-search"], "epsilon"),
    (["probe", "--preset", "case1", "--kind", "prob", "--eps1", "nan"], "eps1"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--v-beta", "nan"], "beta"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--v-gamma", "nan"], "gamma"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--epsilon", "nan"], "beta"),
    # a kind that does not use a number still writes it to its manifest
    (["probe", "--preset", "case2", "--kind", "meansq", "--paths", "5", "--epsilon", "nan"],
     "epsilon"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--paths", "5", "--v-beta", "inf"],
     "v_beta"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--paths", "5", "--eps1", "nan"], "eps1"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--paths", "5", "--horizon", "nan"],
     "horizon"),
    (["probe", "--preset", "case2", "--kind", "bound", "--horizon", "inf"], "horizon"),
    # one segment's inner values alone would take 1.6 GB
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--paths", "100000", "--inner",
      "2000"], "bytes"),
    # the intro preset's harmonic-to-zero schedule runs backwards: t_2 = 0.5 < t_1 = 1
    (["probe", "--preset", "intro", "--kind", "supermartingale", "--paths", "5", "--inner", "2",
      "--krange", "1:2"], "segment [t_1, t_2] is empty"),
    # usage errors are config errors too
    (["probe", "--preset", "case2", "--kind", "meansq", "--paths", "abc"], "invalid int value"),
    (["simulate", "--preset", "case1", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["probe", "--preset", "case2", "--kind", "supermartingale", "--krange", "-5:1"],
     "--krange: expected one argument"),
    ([], "argument command"),
    (["simulate", "--preset", "case2", "--seed", "-1"],
     "field 'seed' must be a non-negative integer, got -1"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--paths", "5", "--seed", "-1"],
     "field 'seed' must be a non-negative integer, got -1"),
    (["simulate", "--preset", "case2", "--threads", "-3"],
     "field 'threads' must be a positive integer, got -3"),
    (["probe", "--preset", "case2", "--kind", "meansq", "--paths", "5", "--threads", "0"],
     "field 'threads' must be a positive integer, got 0"),
])
def test_rejected_command_leaves_no_output_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "o4"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_help_and_version_exit_zero_and_a_bare_command_exits_one(capsys):
    for argv in (["--help"], ["probe", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
    assert main([]) == EXIT_CONFIG
    assert "config error: zenosde: the following arguments are required: command" \
        in capsys.readouterr().err


def test_seeds_past_64_bits_still_run(tmp_path):
    out = tmp_path / "big"
    assert main(["simulate", "--preset", "case2", "--seed", str(2 ** 64 + 5), "--horizon", "0.2",
                 "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["resolved"]["seed"] == 2 ** 64 + 5


def test_probability_probe_from_a_zero_start_is_refused_before_numpy_warns(tmp_path, capsys):
    cfg = build_preset("case2")
    cfg["initial"]["x0"] = [0.0]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "zero"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["probe", "--config", str(path), "--kind", "prob", "--paths", "5",
                     "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "scales the direction of x0, so x0 must be nonzero" in err
    assert "Warning" not in err
    assert not out.exists()


def test_rerun_manifest_without_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"resolved": {"command": "simulate"}}), encoding="utf-8")
    assert main(["rerun", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "'config'" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("record_stride", 2.5),
    ("paths", 1.5),
    ("dt_max", "x"),
    ("horizon", None),
    ("seed", -1),
    ("paths", 0),
    ("threads", -3),
])
def test_rerun_of_a_hand_edited_manifest_names_the_mistyped_field(tmp_path, capsys, field, value):
    out1 = tmp_path / "first"
    assert main(["simulate", "--preset", "case2", "--horizon", "0.5", "--out", str(out1)]) == EXIT_OK
    manifest = json.loads((out1 / "manifest.json").read_text())
    manifest["resolved"][field] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")
    out2 = tmp_path / "second"
    assert main(["rerun", str(edited), "--out", str(out2)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and repr(field) in err
    assert not out2.exists()


def test_rerun_of_a_manifest_with_an_unused_infinite_number_writes_nothing(tmp_path, capsys):
    # the bound does not read the horizon, so only the field check refuses it
    out1 = tmp_path / "first"
    argv = ["probe", "--preset", "case2", "--kind", "bound", "--paths", "20", "--out", str(out1)]
    assert main(argv) == EXIT_OK
    manifest = json.loads((out1 / "manifest.json").read_text())
    manifest["resolved"]["horizon"] = math.inf
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")
    assert '"horizon": Infinity' in edited.read_text()
    out2 = tmp_path / "second"
    assert main(["rerun", str(edited), "--out", str(out2)]) == EXIT_CONFIG
    assert "'horizon'" in capsys.readouterr().err
    assert not out2.exists()


@pytest.mark.parametrize("text,where", [('{"resolved": ', "line 1, column 14"),
                                        ('{\n  "resolved": {,\n}', "line 2, column 16")])
def test_rerun_of_a_truncated_manifest_names_the_file_and_the_position(tmp_path, capsys, text,
                                                                       where):
    bad = tmp_path / "manifest.json"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["rerun", str(bad), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(bad) in err and where in err
    assert not out.exists()


def test_rerun_of_a_missing_manifest_names_it(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    assert main(["rerun", str(missing), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert str(missing) in capsys.readouterr().err


def test_rerun_refuses_a_manifest_of_another_version(tmp_path, capsys):
    out1 = tmp_path / "first"
    assert main(["simulate", "--preset", "case2", "--horizon", "0.5", "--out", str(out1)]) == EXIT_OK
    manifest = json.loads((out1 / "manifest.json").read_text())
    manifest["tool_version"] = "0.1.0"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest), encoding="utf-8")
    out2 = tmp_path / "second"
    assert main(["rerun", str(old), "--out", str(out2)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "0.1.0" in err and __version__ in err
    assert not out2.exists()


def test_probe_meansq_writes_curves(tmp_path):
    out = tmp_path / "probe"
    code = main(["probe", "--preset", "case2", "--kind", "meansq", "--paths", "40",
                 "--grid", "0.5,1.0", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "meansq.csv").read_text().splitlines()
    assert rows[0] == "t,mean_sq,stderr,median_sq,explosion_fraction"
    assert len(rows) == 3
    assert (out / "meansq.json").exists() and (out / "manifest.json").exists()


def test_probe_bound_on_case2(tmp_path, capsys):
    out = tmp_path / "bound"
    code = main(["probe", "--preset", "case2", "--kind", "bound", "--segment", "1",
                 "--paths", "200", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads((out / "bound.json").read_text())
    assert data["ok"] is True


def test_preset_config_file_round_trip(tmp_path, capsys):
    # a config written by `preset` must drive `simulate` to identical bytes
    assert main(["preset", "case2"]) == EXIT_OK
    cfg_text = capsys.readouterr().out
    f = tmp_path / "case2.json"
    f.write_text(cfg_text, encoding="utf-8")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(f), "--seed", "11", "--horizon", "2.0",
                 "--out", str(out_a)]) == EXIT_OK
    assert main(["simulate", "--preset", "case2", "--seed", "11", "--horizon", "2.0",
                 "--out", str(out_b)]) == EXIT_OK
    assert read(out_a / "traj_0.csv") == read(out_b / "traj_0.csv")
    assert manifest_without_timestamp(out_a / "manifest.json") == \
        manifest_without_timestamp(out_b / "manifest.json")


def test_rerun_reproduces_outputs_byte_identically(tmp_path):
    out1 = tmp_path / "first"
    code = main(["probe", "--preset", "case2", "--kind", "prob", "--paths", "50",
                 "--deltas", "1,0.1", "--eps1", "5", "--seed", "9",
                 "--horizon", "1.5", "--out", str(out1)])
    assert code == EXIT_OK
    out2 = tmp_path / "second"
    assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == EXIT_OK
    for name in ("prob.json", "prob.csv"):
        assert read(out1 / name) == read(out2 / name)
    assert manifest_without_timestamp(out1 / "manifest.json") == \
        manifest_without_timestamp(out2 / "manifest.json")


def test_threads_do_not_change_outputs(tmp_path):
    outs = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}"
        assert main(["probe", "--preset", "case2", "--kind", "meansq", "--paths", "60",
                     "--grid", "0.5,1.5", "--seed", "2", "--threads", threads,
                     "--out", str(out)]) == EXIT_OK
        outs.append(out)
    assert read(outs[0] / "meansq.csv") == read(outs[1] / "meansq.csv")
    assert read(outs[0] / "meansq.json") == read(outs[1] / "meansq.json")


def test_all_presets_build():
    for name in ("intro", "case1", "case2", "case3"):
        spec = spec_from_dict(build_preset(name))
        assert spec.horizon > 0
