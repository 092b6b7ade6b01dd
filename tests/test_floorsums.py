import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mertens import floorsums, primes
from mertens.accumulators import UNIT_BITS, accumulate, exact_sum
from mertens.floorsums import PAIRS, prime_power_sum
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


def _loop_prime_power_sum(s, x):
    """The recursion with one numpy step per prime p <= sqrt(x), in order:
    the reference that the batch of the primes p^3 > x must match."""
    r = math.isqrt(x)
    V = x // np.arange(1, r + 1)
    u, unit, F = (floorsums.U, 1.0, 60 + s) if s else (0.0, 0.0, 0)
    small, large, eps = floorsums._start(s, x, r, V, F)
    top = float(large[0]) + eps
    v = np.arange(r + 1)
    for p in floorsums._primes_to(r).tolist():
        w = 1 / p**s
        c = small[p - 1]
        m = min(r, x // (p * p))
        j = min(m, r // p)
        large[:j] -= ((large[p - 1 : j * p : p] - c) * w).astype(np.int64)
        large[j:m] -= ((small[V[j:m] // p] - c) * w).astype(np.int64)
        if p * p <= r:
            small[p * p :] -= ((small[v[p * p :] // p] - c) * w).astype(np.int64)
        eps += w * (2 * eps + 4 * u * (top + 2 * eps)) + unit
    value = math.ldexp(float(large[0]), -F)
    return EvaluatedReal(value, (math.ldexp(eps, -F) + u * value) * floorsums.SLACK)


def _tail_pair_count(x):
    p = floorsums._primes_to(math.isqrt(x))
    p = p[p * p > x // p]
    return int((x // (p * p)).sum())


# Both sides of the cubes of 31, 97 and 463, where a prime leaves the loop
# for the batch; 10^8, as H_direct's oracle runs it; and 2^29, whose batch
# takes several blocks.
CUBES = [q**3 + d for q in (31, 97, 463) for d in (-1, 0, 1)]


@pytest.mark.parametrize("s", [0, 2, 3])
def test_the_batch_matches_the_loop_bit_for_bit_up_to_2000(s):
    for x in range(1, 2001):
        assert prime_power_sum(s, x) == _loop_prime_power_sum(s, x)


@pytest.mark.parametrize("x", CUBES)
@pytest.mark.parametrize("s", [0, 2, 3])
def test_the_batch_matches_the_loop_bit_for_bit_at_cubes(s, x):
    assert prime_power_sum(s, x) == _loop_prime_power_sum(s, x)


@pytest.mark.parametrize("s, x", [(2, 10**8), (0, 2**29), (2, 2**29)])
def test_the_batch_matches_the_loop_bit_for_bit_at_large_x(s, x):
    if x == 2**29:
        assert _tail_pair_count(x) > PAIRS
    assert prime_power_sum(s, x) == _loop_prime_power_sum(s, x)


def test_the_pairs_come_in_blocks_of_at_most_PAIRS():
    x = 2**29
    p = floorsums._primes_to(math.isqrt(x))
    m = x // (p * p)
    m = m[m < p]  # the primes p^3 > x
    blocks = list(floorsums._pairs(m))
    assert len(blocks) == -(-_tail_pair_count(x) // PAIRS) > 1
    assert all(len(i) == len(k) <= PAIRS for i, k in blocks)
    i = np.concatenate([i for i, _ in blocks])
    k = np.concatenate([k for _, k in blocks])
    expected = [(a, b) for a in range(m[0]) for b in range(len(m)) if a < m[b]]
    assert list(zip(i.tolist(), k.tolist())) == expected
    assert list(floorsums._pairs(m[:0])) == []


def _python_prefix(s, L, F):
    """The starts' exact prefix as Python ints: the reference for _prefix."""
    terms = ((1 << F + 32) // n**s for n in range(2, L + 1))
    return [0, 0, *(t >> 32 for t in itertools.accumulate(terms))]


# Divided in int64: 2^17, as x = 2^34 needs, and 1024 at s = 3, 4 and 5, as
# H_direct needs; in int64 and past 2^60 in Python ints: at s = 4 and 5;
# n^6 reaches 2^60 at n = 1024 = L; fewer than 1024 terms: in Python ints.
@pytest.mark.parametrize("s, L", [
    (2, 10**4), (2, 2**17), (3, 1024), (4, 1024), (5, 1024), (4, 2**15 + 3),
    (5, 5000), (6, 1024), (6, 1000), (7, 372), (20, 7), (59, 2), (2, 1),
])
def test_the_start_prefix_equals_the_python_ints(s, L):
    F = 60 + s
    table = floorsums._prefix(s, L, F)
    assert table.dtype == np.int64
    assert table.tolist() == _python_prefix(s, L, F)
