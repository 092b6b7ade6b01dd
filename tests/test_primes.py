import ast
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertens import primes


_MU_TABLE = primes.moebius_up_to(10**5)


def trial_division_primes(n):
    """Independent oracle: trial division by odd candidates."""
    out = []
    for m in range(2, n + 1):
        if m > 2 and m % 2 == 0:
            continue
        if all(m % d for d in range(3, math.isqrt(m) + 1, 2)):
            out.append(m)
    return out


def test_small_examples():
    assert list(primes.primes_up_to(10)) == [2, 3, 5, 7]
    assert list(primes.primes_up_to(1)) == []
    assert list(primes.primes_up_to(0)) == []
    assert list(primes.primes_up_to(2)) == [2]


def test_array_is_int64():
    p = primes.primes_up_to(100)
    assert isinstance(p, np.ndarray) and p.dtype == np.int64
    assert len(p) == 25
    for n in (0, 1):
        empty = primes.primes_up_to(n)
        assert isinstance(empty, np.ndarray) and empty.dtype == np.int64
        assert len(empty) == 0


def test_only_the_prime_and_sum_layers_stream_segments():
    # every other module takes its primes from primes_up_to
    src = pathlib.Path(primes.__file__).parent
    callers = sorted(
        f.name for f in src.glob("*.py")
        if re.search(r"\biter_segments\(", f.read_text())
    )
    assert callers == ["accumulators.py", "primes.py"]
    # and the verifier sieves in one place: each check reads a prefix of
    # the array that the suite driver passes it
    text = (src / "verifier.py").read_text()
    sievers = [getattr(node, "name", None) for node in ast.parse(text).body
               if "primes_up_to(" in ast.get_source_segment(text, node)]
    assert sievers == ["run_suite"]


def test_start_skips_segments_below_it():
    n, size = 10**5, 2**10
    every = list(primes.iter_segments(n, segment_size=size))
    tail = list(primes.iter_segments(n, segment_size=size, start=50_000))
    assert tail[0].lo <= 50_000 < tail[0].hi
    # same grid and same bits as the segments of a run from 2
    for a, b in zip(tail, every[len(every) - len(tail):]):
        assert (a.lo, a.hi) == (b.lo, b.hi)
        assert np.array_equal(a.primes(), b.primes())


def test_count_at_2_16():
    # frozen from the trial-division oracle over [2, 2^16]
    assert sum(1 for _ in primes.primes_up_to(65536)) == 6542


def test_matches_trial_division_to_1e5():
    assert list(primes.primes_up_to(10**5)) == trial_division_primes(10**5)
    # every small n, including those whose segment holds the wheel primes
    for n in range(401):
        assert list(primes.primes_up_to(n)) == trial_division_primes(n), n


def check_segment(seg):
    """``bits`` covers the odd integers of [lo, hi); ``scan`` is ``bits``
    followed by count // 32 set entries, and ``primes`` reads exactly
    the set entries of ``bits``."""
    count = len(range(seg.lo | 1, seg.hi, 2))
    assert len(seg.bits) == count
    assert np.array_equal(seg.scan[:count], seg.bits)
    assert seg.scan[count:].all() and seg.scan.size == count + count // 32
    odds = np.flatnonzero(seg.bits) * 2 + seg.odd_base
    want = np.concatenate(([2], odds)) if seg.lo <= 2 < seg.hi else odds
    assert np.array_equal(seg.primes(), want)


@pytest.mark.parametrize("segment_size", [1, 2, 3, 7, 7507, 15015])
def test_small_segments_match_trial_division(segment_size):
    # these sizes start segments at every phase of the 15015-periodic wheel
    # pattern, and put 3..13 in segments of their own; n is even, so the
    # last segment is cut short at hi = n + 1
    n = 2 * 10**4
    segs = list(primes.iter_segments(n, segment_size=segment_size))
    for seg in segs:
        check_segment(seg)
    assert segs[-1].hi == n + 1
    got = np.concatenate([s.primes() for s in segs])
    assert got.tolist() == trial_division_primes(n)


def test_empty_final_segment_at_wheel_phase_0():
    # 30030 = 2 + 2 * 2 * 7507 starts a segment that holds no odd integer,
    # and 30031 // 2 = 15015 puts it at phase 0, with no wheel period to fill
    segs = list(primes.iter_segments(30030, segment_size=7507))
    assert (segs[-1].lo, segs[-1].hi) == (30030, 30031)
    for seg in segs:
        check_segment(seg)


@pytest.mark.parametrize("n", [2**30, 2**34])
def test_sparse_segments_scan_more_than_a_tenth_set(n):
    # below a tenth set, numpy's flatnonzero on bools takes a path 2-3x
    # slower; primes fill less than that of the odd integers here
    seg = next(primes.iter_segments(n, start=n))
    assert seg.hi == n + 1
    assert seg.bits.mean() < 0.1 < seg.scan.mean()
    check_segment(seg)


@pytest.mark.parametrize("x", [2**30, 2**34])
def test_segments_near_large_x_extract_their_bitmap(x):
    seg = next(primes.iter_segments(x + 2**22, start=x))
    assert seg.lo <= x < seg.hi
    check_segment(seg)


@pytest.mark.parametrize("segment_size", [2**10, 2**16, 2**20])
def test_segment_tiling_independent_of_size(segment_size):
    n = 10**7 - 1
    ref = np.concatenate([s.primes() for s in primes.iter_segments(n)])
    got = np.concatenate(
        [s.primes() for s in primes.iter_segments(n, segment_size=segment_size)]
    )
    assert np.array_equal(ref, got)


def test_segments_tile_without_gap_or_overlap():
    segs = list(primes.iter_segments(10**5, segment_size=2**10))
    assert segs[0].lo == 2
    for a, b in zip(segs, segs[1:]):
        assert a.hi == b.lo
    assert segs[-1].hi == 10**5 + 1


class TestMoebius:
    def test_examples(self):
        mu = primes.moebius_up_to(30)
        assert [mu[1], mu[2], mu[4], mu[6]] == [1, -1, 0, 1]
        assert mu[30] == -1  # three distinct prime factors

    def test_prime_and_square_values(self):
        mu = primes.moebius_up_to(100)
        for p in (2, 3, 5, 7, 11, 97):
            assert mu[p] == -1
        for k in range(1, 25):
            assert mu[4 * k] == 0

    def test_partial_sum_to_10(self):
        # frozen from direct factorization of 1..10
        mu = primes.moebius_up_to(10)
        assert sum(mu[1:]) == -1

    def test_divisor_sum_identity_to_1e4(self):
        n = 10**4
        mu = primes.moebius_up_to(n)
        div_sum = np.zeros(n + 1, dtype=np.int64)
        for d in range(1, n + 1):
            div_sum[d::d] += mu[d]
        assert np.all(div_sum[2:] == 0)
        assert div_sum[1] == 1

    @given(st.integers(min_value=2, max_value=10**5))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_implementation(self, n):
        assert _MU_TABLE[n] == self._mu(n)

    @staticmethod
    def _mu(n):
        # reference implementation by factorization
        count = 0
        for p in range(2, math.isqrt(n) + 1):
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                count += 1
        if n > 1:
            count += 1
        return (-1) ** count

    def test_bounds(self):
        with pytest.raises(ValueError):
            primes.moebius_up_to(0)
        mu = primes.moebius_up_to(5)
        with pytest.raises(IndexError):
            mu[6]


class TestLegendreValuation:
    def test_examples(self):
        assert primes.legendre_valuation(10, 2) == 8  # 5 + 2 + 1
        assert primes.legendre_valuation(10, 11) == 0
        # frozen from repeated division of 100! by 5
        assert primes.legendre_valuation(100, 5) == 24

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            primes.legendre_valuation(10, 4)
        with pytest.raises(ValueError):
            primes.legendre_valuation(10, 1)

    @given(st.integers(min_value=0, max_value=300),
           st.sampled_from([2, 3, 5, 7, 11, 13]))
    @settings(max_examples=60, deadline=None)
    def test_matches_factorial_factorization(self, n, p):
        f = math.factorial(n)
        count = 0
        while f and f % p == 0:
            f //= p
            count += 1
        assert primes.legendre_valuation(n, p) == count

    @pytest.mark.parametrize("n", [50, 200, 500])
    def test_weighted_sum_recovers_log_factorial(self, n):
        lhs = math.fsum(
            primes.legendre_valuation(n, p) * math.log(p)
            for p in primes.primes_up_to(n)
        )
        rhs = math.fsum(math.log(k) for k in range(2, n + 1))
        assert abs(lhs - rhs) <= 1e-9 * rhs
