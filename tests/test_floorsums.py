import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from mertens import primes
from mertens.accumulators import UNIT_BITS, accumulate, exact_sum
from mertens.floorsums import prime_power_sum
from mertens.special import EvaluatedReal


def test_pi_is_exact_at_every_power_of_two():
    schedule = [2**k for k in range(25)]
    pi = {cp.x: cp.pi for cp in accumulate(2**24, schedule)}
    for x in schedule:
        assert prime_power_sum(0, x) == EvaluatedReal(pi[x], 0.0)
    # OEIS A007053
    assert prime_power_sum(0, 2**30).value == 54_400_028


# Both sides of 1009^2, where the prime 1009 joins the recursion, the last
# integer of the sieve's first segment, and 3 * 10^6.
XS = [1008**2, 1009**2 - 1, 1009**2, 1009**2 + 1, 2 * 2**20 + 1, 3 * 10**6]


@functools.lru_cache
def _sieved_sums(s):
    """The exact sums of fl(p^-s) over the primes <= each of XS."""
    p = primes.primes_up_to(max(XS))
    terms = np.array([1 / q**s for q in p.tolist()])
    pieces = exact_sum(terms, ends=p.searchsorted(XS, side="right"))
    return {x: Fraction(t, 1 << UNIT_BITS)
            for x, t in zip(XS, itertools.accumulate(pieces))}


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize("s", [2, 3])
def test_real_sums_lie_within_their_bound_of_the_sieved_sums(s, x):
    sieved = _sieved_sums(s)[x]
    total = prime_power_sum(s, x)
    # the sieved sum is within 2^-53 of itself of the real sum
    gap = abs(Fraction(total.value) - sieved)
    assert gap <= Fraction(total.err_bound) + sieved / 2**53
    assert total.err_bound < 1e-14 * total.value


@pytest.mark.parametrize("s", [0, 2, 3])
def test_every_sum_up_to_2000_against_brute_force(s):
    exact = {0: Fraction(0)}
    for n in range(1, 2001):
        is_prime = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        exact[n] = exact[n - 1] + (Fraction(1, n**s) if is_prime else 0)
    for x in range(1, 2001):
        total = prime_power_sum(s, x)
        if s == 0:
            assert (total.value, total.err_bound) == (exact[x], 0.0)
        else:
            assert abs(Fraction(total.value) - exact[x]) <= total.err_bound
            assert total.err_bound <= 1e-14 * (total.value or 1.0)


@pytest.mark.parametrize("s, x", [(-1, 10), (1, 10), (2, 0), (0, 2**53), (100, 2**11)])
def test_rejects_arguments_outside_its_domain(s, x):
    with pytest.raises(ValueError):
        prime_power_sum(s, x)
