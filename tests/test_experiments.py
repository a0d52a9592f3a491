"""Preset plumbing that the acceptance criteria do not reach."""

import json
import tempfile

import pytest

from mulab.cli import main
from mulab.errors import ParseError
from mulab.experiments import PRESETS, run_preset


# every preset, at sizes that take milliseconds (appendix-exact's fixed
# equivalence sweep takes about 2 s): (preset, run_preset overrides, the same
# as labctl flags)
SMALL_PRESETS = [
    ("appendix-exact", {"cases": 20}, ["--set", "cases=20"]),
    ("value-bound", {"trials": 50}, ["--trials", "50"]),
    ("lemma26-random", {"trials": 10, "m": 4, "k": 2},
     ["--trials", "10", "--m", "4", "--k", "2"]),
    ("block-machinery", {"trials": 10, "p": 500}, ["--trials", "10", "--p", "500"]),
    ("indicator-blocks", {"p": 2000, "jmax": 10}, ["--p", "2000", "--jmax", "10"]),
    ("example33", {"n": 2000, "tolerance": 1e-6},
     ["--n", "2000", "--set", "tolerance=1e-6"]),
    ("pnt-trend", {"n": 20000}, ["--n", "20000"]),
    ("dirichlet-cert", {"trials": 10}, ["--trials", "10"]),
    ("ap-trend", {"n": 2000, "hs": (10, 100)}, ["--n", "2000", "--set", "hs=10,100"]),
    ("short-interval", {"x": 2000, "hs": (10, 100), "grid": 4},
     ["--x", "2000", "--set", "hs=10,100", "--set", "grid=4"]),
    ("round-trips", {"n": 2000}, ["--n", "2000"]),
    ("concat-approx", {"span": 200}, ["--set", "span=200"]),
    ("linear-drift", {"n": 2000}, ["--n", "2000"]),
    ("quadratic-rational", {"n": 2000}, ["--n", "2000"]),
    ("block-vs-interval", {"x": 2000, "grid": 4}, ["--x", "2000", "--set", "grid=4"]),
]


def test_small_presets_cover_every_preset():
    assert sorted(case[0] for case in SMALL_PRESETS) == sorted(PRESETS)


@pytest.mark.parametrize("name, overrides, flags", SMALL_PRESETS,
                         ids=[case[0] for case in SMALL_PRESETS])
def test_small_preset_writes_its_manifest_and_labctl_exits_by_passed(
        tmp_path, name, overrides, flags):
    manifest = run_preset(name, tmp_path / "api", overrides=overrides)
    written = json.loads((tmp_path / "api" / "manifest.json").read_text())
    assert written == manifest
    assert written["experiment"] == name
    assert isinstance(written["results"]["passed"], bool)

    code = main(["experiment", name, "--out-dir", str(tmp_path / "cli"), *flags])
    assert code == (0 if written["results"]["passed"] else 5)
    assert json.loads((tmp_path / "cli" / "manifest.json").read_text()) == written


# ---------------------------------------------------------------------------
# overrides are typed by the preset's defaults


# (labctl experiment arguments, the key the error names): each exits 2
BAD_OVERRIDES = [
    (["pnt-trend", "--set", "n=abc"], "'n' must be int"),
    (["short-interval", "--set", "grid=2.5"], "'grid' must be int"),
    (["example33", "--set", "tolerance=tiny"], "'tolerance' must be float"),
    (["ap-trend", "--set", "hs=10,x"], "'hs' must be a comma list of int"),
    (["ap-trend", "--set", "hs="], "'hs' must be a comma list of int"),
    (["round-trips", "--set", "n"], "'n' must be int"),
    (["round-trips", "--n", "2.5"], "'n' must be int"),
    (["round-trips", "--set", "bogus=1"], "unknown parameter 'bogus'"),
]


@pytest.mark.parametrize("via", ["flags", "config"])
@pytest.mark.parametrize("argv, message", BAD_OVERRIDES,
                         ids=["bad_int", "float_for_int", "bad_float", "bad_list",
                              "empty_list", "no_equals", "bad_flag", "unknown_key"])
def test_malformed_override_exits_2_naming_the_key(tmp_path, capsys, argv, message, via):
    name, pairs = argv[0], list(zip(argv[1::2], argv[2::2]))
    if via == "config":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in pairs))
        argv = [name, "--config", str(cfg)]
    assert main(["experiment", *argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flags", "config"])
def test_one_item_for_a_tuple_default(tmp_path, via):
    sets = ["x=500", "grid=2", "hs=10"]
    if via == "config":  # one `set =` line per override, all of them kept
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"set = {text}\n" for text in sets))
        argv = ["--config", str(cfg)]
    else:
        argv = [arg for text in sets for arg in ("--set", text)]
    assert main(["experiment", "short-interval", "--out-dir", str(tmp_path), *argv]) == 0
    params = json.loads((tmp_path / "manifest.json").read_text())["parameters"]
    assert params == {"x": 500, "grid": 2, "hs": [10]}


@pytest.mark.parametrize("name, overrides, message", [
    ("round-trips", {"n": True}, "'n' must be int, got True"),
    ("round-trips", {"n": 2000.0}, "'n' must be int"),
    ("example33", {"tolerance": "1e-6", "n": False}, "'n' must be int"),
    ("ap-trend", {"hs": [10, 100]}, "'hs' must be a comma list of int"),
    ("ap-trend", {"hs": (10, True)}, "'hs' must be a comma list of int"),
], ids=["bool", "float_for_int", "bool_after_text", "list_for_tuple", "bool_item"])
def test_api_values_must_have_the_defaults_type(name, overrides, message):
    with pytest.raises(ParseError, match=message):
        run_preset(name, overrides=overrides)


def test_api_takes_an_int_for_a_float_and_one_item_for_a_tuple():
    params = run_preset("example33", overrides={"n": 500, "tolerance": 1})["parameters"]
    assert params["tolerance"] == 1.0 and type(params["tolerance"]) is float
    params = run_preset("short-interval",
                        overrides={"x": 500, "grid": 2, "hs": 10})["parameters"]
    assert params["hs"] == [10]


def test_seed_is_typed_like_an_override():
    with pytest.raises(ParseError, match="'seed' must be int"):
        run_preset("value-bound", overrides={"seed": 1.5, "trials": 5})
    assert run_preset("value-bound",
                      overrides={"seed": "7", "trials": 5})["parameters"]["seed"] == 7


@pytest.mark.parametrize("argv, message", [
    (["linear-drift", "--set", "c_den=0"], "preset 'linear-drift': parameter 'c_den'"),
    (["quadratic-rational", "--set", "q=0"],
     "preset 'quadratic-rational': parameter 'q'"),
], ids=["linear_drift_c_den", "quadratic_rational_q"])
def test_zero_denominator_exits_2_naming_the_key(capsys, argv, message):
    assert main(["experiment", *argv, "--n", "2000"]) == 2
    assert message in capsys.readouterr().err


def test_seed_for_a_preset_without_one_exits_2(tmp_path, capsys):
    assert main(["experiment", "example33", "--n", "500", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 2
    assert "unknown parameter 'seed' for preset 'example33'" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()
    with pytest.raises(ParseError, match="unknown parameter 'seed'"):
        run_preset("example33", overrides={"seed": 5, "n": 500})


def test_round_trips_without_an_out_dir_leaves_no_temporary_files(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run_preset("round-trips", overrides={"n": 2000})["results"]["passed"]
    assert main(["experiment", "round-trips", "--n", "2000"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_concat_approx_over_no_samples_exits_2(capsys):
    with pytest.raises(ValueError, match="at least one sample"):
        run_preset("concat-approx", overrides={"span": 0})
    assert main(["experiment", "concat-approx", "--set", "span=0"]) == 2
    assert "at least one sample" in capsys.readouterr().err


def test_seed_flag_wins_over_set_and_is_typed_by_the_preset(tmp_path, capsys):
    assert main(["experiment", "value-bound", "--trials", "5", "--seed", "7",
                 "--set", "seed=9", "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["parameters"]["seed"] == 7
    assert main(["experiment", "value-bound", "--trials", "5", "--seed", "abc"]) == 2
    assert "parameter 'seed' must be int, got 'abc'" in capsys.readouterr().err
