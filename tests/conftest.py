from typing import NamedTuple

import numpy as np
import pytest

from mertens import accumulators, constants, primes

POW2_SCHEDULE = [2**k for k in range(16, 27)]


@pytest.fixture(scope="session")
def series_1e8():
    """Checkpoints at 2^16..2^26 and 10^8, one sieve pass."""
    return list(accumulators.accumulate(10**8, POW2_SCHEDULE + [10**8]))


@pytest.fixture(scope="session")
def bundle():
    return constants.compute_B(1e-12)


class Sieved(NamedTuple):
    lo: int
    hi: int
    base: np.ndarray
    primes: np.ndarray
    # the size and the set entries of the bool array that was extracted
    scan: tuple


class SieveCalls(list):
    def stream(self):
        """The calls of the last stream: those that sieve against its base
        primes, not the nested sieves of the base primes themselves."""
        return [c for c in self if c.base is self[-1].base]


@pytest.fixture
def sieved(monkeypatch):
    """The calls of ``primes._sieve_segment`` from here on, as Sieved
    records, each with the array that its extraction scanned."""
    calls, scans = SieveCalls(), []
    real_sieve, real_scan = primes._sieve_segment, np.flatnonzero

    def scan(a):
        scans.append((a.size, np.count_nonzero(a)))
        return real_scan(a)

    def sieve(lo, hi, base):
        scans.clear()
        got = real_sieve(lo, hi, base)
        (seen,) = scans
        calls.append(Sieved(lo, hi, base, got, seen))
        return got

    monkeypatch.setattr(primes, "_sieve_segment", sieve)
    monkeypatch.setattr(np, "flatnonzero", scan)
    return calls
