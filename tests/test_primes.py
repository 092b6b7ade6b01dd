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


def segment_primes(n, **kwargs):
    """The primes of each segment of a stream to n, as a list of arrays."""
    return [seg.primes() for seg in primes.iter_segments(n, **kwargs)]


@pytest.mark.parametrize("start", [
    2, 3, 4957, 2049, 2050, 2051, 10**5, 10**5 + 1,
], ids=["2", "3", "prime", "second-1", "second", "second+1", "n", "n+1"])
def test_start_skips_segments_below_it(start, sieved):
    # segments of 2048 integers: the second segment begins at 2050
    n, size = 10**5, 2**10
    ref = primes.primes_up_to(n)
    sieved.clear()
    got = np.concatenate([ref[:0], *segment_primes(n, segment_size=size, start=start)])
    assert np.array_equal(got, ref[ref >= start])
    # the grid of a run from 2, cut at start: nothing below it is sieved
    grid = [(lo, min(lo + 2 * size, n + 1)) for lo in range(2, n + 1, 2 * size)]
    want = [(max(lo, start), hi) for lo, hi in grid if lo + 2 * size > start]
    assert [(c.lo, c.hi) for c in sieved.stream()] == want


def test_count_at_2_16():
    # frozen from the trial-division oracle over [2, 2^16]
    assert sum(1 for _ in primes.primes_up_to(65536)) == 6542


def test_matches_trial_division_to_1e5():
    assert list(primes.primes_up_to(10**5)) == trial_division_primes(10**5)
    # every small n, including those whose segment holds the wheel primes
    for n in range(401):
        assert list(primes.primes_up_to(n)) == trial_division_primes(n), n


def check_segment(call):
    """The scan covers the odd integers of [lo, hi), count of them, then
    count // 32 set entries, and the primes read exactly its set entries
    that are not the tail's (with 2 where [lo, hi) holds it)."""
    count = len(range(call.lo | 1, call.hi, 2))
    size, marked = call.scan
    assert size == count + count // 32
    two = call.lo <= 2 < call.hi
    assert marked == len(call.primes) - two + count // 32
    p = call.primes
    assert p.dtype == np.int64 and (np.diff(p) > 0).all()
    assert p.size == 0 or (call.lo <= p[0] and p[-1] < call.hi)
    assert (p[two:] % 2 == 1).all() and (not two or p[0] == 2)


@pytest.mark.parametrize("segment_size", [1, 2, 3, 7, 7507, 15015])
def test_small_segments_match_trial_division(segment_size, sieved):
    # these sizes start segments at every phase of the 15015-periodic wheel
    # pattern, and put 3..13 in segments of their own; n is even, so the
    # last segment is cut short at hi = n + 1
    n = 2 * 10**4
    got = np.concatenate(segment_primes(n, segment_size=segment_size))
    segs = sieved.stream()
    for call in segs:
        check_segment(call)
    assert segs[-1].hi == n + 1
    assert got.tolist() == trial_division_primes(n)


def test_empty_final_segment_at_wheel_phase_0(sieved):
    # 30030 = 2 + 2 * 2 * 7507 starts a segment that holds no odd integer,
    # and 30031 // 2 = 15015 puts it at phase 0, with no wheel period to fill
    segment_primes(30030, segment_size=7507)
    segs = sieved.stream()
    assert (segs[-1].lo, segs[-1].hi) == (30030, 30031)
    for call in segs:
        check_segment(call)


@pytest.mark.parametrize("n", [2**30, 2**34])
def test_sparse_segments_scan_more_than_a_tenth_set(n, sieved):
    # below a tenth set, numpy's flatnonzero on bools takes a path 2-3x
    # slower; primes fill less than that of the odd integers here
    lo = n - 2 * primes.DEFAULT_SEGMENT_SIZE
    segment_primes(n, start=lo)
    (call,) = [c for c in sieved if c.hi == n + 1]
    count = len(range(call.lo | 1, call.hi, 2))
    size, marked = call.scan
    assert (marked - count // 32) / count < 0.1 < marked / size
    check_segment(call)


@pytest.mark.parametrize("x", [2**30, 2**34])
def test_segments_near_large_x_extract_their_bitmap(x, sieved):
    segment_primes(x + 2**22, start=x)
    (call, *_) = sieved.stream()
    assert call.lo == x < call.hi
    check_segment(call)


@pytest.mark.parametrize("segment_size", [2**10, 2**16, 2**20])
def test_segment_tiling_independent_of_size(segment_size):
    n = 10**7 - 1
    ref = np.concatenate(segment_primes(n))
    got = np.concatenate(segment_primes(n, segment_size=segment_size))
    assert np.array_equal(ref, got)


def test_segments_tile_without_gap_or_overlap(sieved):
    segment_primes(10**5, segment_size=2**10)
    segs = sieved.stream()
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
        assert primes._valuation(10, 2) == 8  # 5 + 2 + 1
        assert primes._valuation(10, 11) == 0
        # frozen from repeated division of 100! by 5
        assert primes._valuation(100, 5) == 24

    @given(st.integers(min_value=0, max_value=300),
           st.sampled_from([2, 3, 5, 7, 11, 13]))
    @settings(max_examples=60, deadline=None)
    def test_matches_factorial_factorization(self, n, p):
        f = math.factorial(n)
        count = 0
        while f and f % p == 0:
            f //= p
            count += 1
        assert primes._valuation(n, p) == count

    @pytest.mark.parametrize("n", [50, 200, 500])
    def test_weighted_sum_recovers_log_factorial(self, n):
        lhs = math.fsum(
            primes._valuation(n, p) * math.log(p)
            for p in primes.primes_up_to(n)
        )
        rhs = math.fsum(math.log(k) for k in range(2, n + 1))
        assert abs(lhs - rhs) <= 1e-9 * rhs
