"""Preset plumbing that the acceptance criteria do not reach."""

import json

import pytest

from mulab.cli import main
from mulab.experiments import run_preset, run_pnt_trend
from mulab.sieves import save_cache, sieve_mobius


def test_pnt_trend_checks_that_the_cache_covers_n(tmp_path):
    cache = tmp_path / "mu.bin"
    save_cache(sieve_mobius(5000), cache)
    with pytest.raises(ValueError, match="covers n <= 5000, need 20000"):
        run_pnt_trend({"n": 20000, "mu_cache": str(cache)})


# the presets that no other test runs, at sizes that take milliseconds:
# (preset, run_preset overrides, the same as labctl flags)
SMALL_PRESETS = [
    ("pnt-trend", {"n": 20000}, ["--n", "20000"]),
    ("ap-trend", {"n": 2000, "hs": (10, 100)}, ["--n", "2000", "--set", "hs=10,100"]),
    ("short-interval", {"x": 2000, "hs": (10, 100), "grid": 4},
     ["--x", "2000", "--set", "hs=10,100", "--set", "grid=4"]),
    ("concat-approx", {"span": 200}, ["--set", "span=200"]),
    ("linear-drift", {"n": 2000}, ["--n", "2000"]),
    ("quadratic-rational", {"n": 2000}, ["--n", "2000"]),
    ("block-vs-interval", {"x": 2000, "grid": 4}, ["--x", "2000", "--set", "grid=4"]),
]


@pytest.mark.parametrize("name, overrides, flags", SMALL_PRESETS,
                         ids=[case[0] for case in SMALL_PRESETS])
def test_small_preset_writes_its_manifest_and_labctl_exits_by_passed(
        tmp_path, name, overrides, flags):
    manifest = run_preset(name, tmp_path / "api", overrides=overrides)
    written = json.loads((tmp_path / "api" / "manifest.json").read_text())
    assert written == json.loads(json.dumps(manifest))
    assert written["experiment"] == name
    assert isinstance(written["results"]["passed"], bool)

    code = main(["experiment", name, "--out-dir", str(tmp_path / "cli"), *flags])
    assert code == (0 if written["results"]["passed"] else 5)
    assert json.loads((tmp_path / "cli" / "manifest.json").read_text()) == written
