import pytest
from hypothesis import settings

from mulab.sieves import sieve_mobius
from mulab.phase_sums import weights_from_table

SHARED_N = 1_001_000  # covers every test that sums against mu

# Property tests replay the same examples on every run and keep no example
# database, so a failure reproduces and a pass is repeatable.
settings.register_profile("mulab", derandomize=True, database=None, deadline=None)
settings.load_profile("mulab")


@pytest.fixture(scope="session")
def mu_table():
    return sieve_mobius(SHARED_N)


@pytest.fixture(scope="session")
def mu_weights(mu_table):
    return weights_from_table(mu_table)
