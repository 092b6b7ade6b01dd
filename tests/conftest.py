import pytest

from mertens import accumulators, constants

POW2_SCHEDULE = [2**k for k in range(16, 27)]


@pytest.fixture(scope="session")
def series_1e8():
    """Checkpoints at 2^16..2^26 and 10^8, one sieve pass."""
    return list(accumulators.accumulate(10**8, POW2_SCHEDULE + [10**8]))


@pytest.fixture(scope="session")
def bundle():
    return constants.compute_B(1e-12)
