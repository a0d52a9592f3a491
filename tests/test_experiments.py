"""Preset plumbing that the acceptance criteria do not reach."""

import pytest

from mulab.experiments import run_pnt_trend
from mulab.sieves import save_cache, sieve_mobius


def test_pnt_trend_checks_that_the_cache_covers_n(tmp_path):
    cache = tmp_path / "mu.bin"
    save_cache(sieve_mobius(5000), cache)
    with pytest.raises(ValueError, match="covers n <= 5000, need 20000"):
        run_pnt_trend({"n": 20000, "mu_cache": str(cache)})
