"""Prime generation, Moebius values, and factorial prime valuations.

Everything downstream (running sums, constants, bound checks) pulls its
primes from here, through one of two sources: ``iter_segments`` streams
them segment by segment, and ``primes_up_to`` materialises them as one
array.  The sieve is segmented and odd-only so that limits up to 2^34
never materialize a full bitmap; segments tile [2, n] exactly, and a
stream may begin at a given start, so a resumed run sieves nothing below
its resume point.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Odd entries per segment; one segment spans twice this many integers.
DEFAULT_SEGMENT_SIZE = 1 << 20

# Moebius lists beyond this are never needed: every series over n that
# uses mu truncates far earlier, and a list of 10^7 ints takes 80 MB.
MOEBIUS_MAX = 10**7


def _wheel_pattern(wheel_primes) -> np.ndarray:
    """Entry j says whether 2j + 1 is prime to every one of ``wheel_primes``.

    The odd multiples of q sit at j = q // 2 + k * q, and the pattern
    repeats after prod(wheel_primes) odd integers.
    """
    pattern = np.ones(math.prod(wheel_primes), dtype=bool)
    for q in wheel_primes:
        pattern[q // 2 :: q] = False
    return pattern


# Odd primes whose multiples, themselves included, every segment starts
# out crossed off: the segment sieve tiles this pattern (period 15015).
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = _wheel_pattern(_WHEEL_PRIMES)


def _sieve_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The primes of [lo, hi), lo >= 2, ascending, as int64, sieved from
    the odd integers against the base primes.

    The bitmap starts as the wheel pattern at the segment's phase, with the
    wheel primes in [lo, hi) put back; the base primes past the wheel then
    cross off their odd multiples from max(p^2, first in the segment).  The
    scan is the bitmap then count // 32 set entries, which keep more than
    10 % of it set up to x = 2^40: numpy's ``flatnonzero`` on bools is 2-3x
    slower below that, and primes are sparser past 4.85e8.
    """
    odd_base = lo | 1
    count = max(0, (hi - odd_base + 1) // 2)
    phase = (odd_base // 2) % _WHEEL.size
    reps = -(-(phase + count) // _WHEEL.size)
    buf = np.empty(reps * _WHEEL.size + count // 32, dtype=bool)
    buf[: reps * _WHEEL.size].reshape(reps, _WHEEL.size)[...] = _WHEEL
    scan = buf[phase : phase + count + count // 32]
    scan[count:] = True
    bits = scan[:count]
    for q in _WHEEL_PRIMES:
        if lo <= q < hi:
            bits[(q - odd_base) // 2] = True
    # base is 2, the wheel primes, then the primes that sieve here
    last = np.searchsorted(base, math.isqrt(hi - 1), side="right")
    p = base[1 + len(_WHEEL_PRIMES) : last]
    start = np.maximum(p * p, -(-lo // p) * p)
    start += p * (start % 2 == 0)
    for q, i in zip(p.tolist(), ((start - odd_base) // 2).tolist()):
        bits[i::q] = False
    odds = np.flatnonzero(scan)[: -(count // 32) or None]
    # int64 before the arithmetic: an int32 intp would overflow past 2^31
    odds = odds.astype(np.int64, copy=False)
    odds *= 2
    odds += odd_base
    if lo <= 2 < hi:
        return np.concatenate(([np.int64(2)], odds))
    return odds


class PrimeSegment(NamedTuple):
    """The integers [lo, hi) of a stream and the base primes that sieve
    them: the arguments of ``_sieve_segment``, which ``primes()`` calls, so
    a segment holds no primes until they are asked for."""

    lo: int
    hi: int
    base: np.ndarray

    def primes(self) -> np.ndarray:
        """Primes in [lo, hi), ascending, as int64."""
        return _sieve_segment(*self)


def iter_segments(n, segment_size=DEFAULT_SEGMENT_SIZE, start=2):
    """Yield the PrimeSegments that tile [max(2, start), n] in ascending
    order.

    Segments lie on the fixed grid lo = 2 + k * 2 * segment_size.  The
    first one yielded is the segment that contains ``start``, cut to begin
    at it, so no integer below ``start`` is ever sieved.
    """
    n = int(n)
    if n < 2:
        return
    base = primes_up_to(math.isqrt(n))
    span = 2 * segment_size
    first = 2 + max(0, start - 2) // span * span
    for lo in range(first, n + 1, span):
        yield PrimeSegment(max(lo, start), min(lo + span, n + 1), base)


def primes_up_to(n) -> np.ndarray:
    """The primes <= n, ascending, as one int64 array (empty when n < 2)."""
    segs = [s.primes() for s in iter_segments(n)]
    return np.concatenate(segs) if segs else np.empty(0, dtype=np.int64)


def moebius_up_to(n: int) -> list[int]:
    """mu(0), ..., mu(n) as a list of ints in {-1, 0, +1}, mu(0) = 0, by a
    sieve over the primes <= n.

    mu flips sign once per distinct prime factor and vanishes on any
    multiple of a prime square.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MOEBIUS_MAX:
        raise ValueError(f"n={n} exceeds Moebius table cap {MOEBIUS_MAX}")
    values = np.ones(n + 1, dtype=np.int8)
    values[0] = 0
    for p in primes_up_to(n).tolist():
        values[p::p] *= -1
        if p * p <= n:
            values[p * p :: p * p] = 0
    return values.tolist()


def _valuation(n: int, p: int) -> int:
    """Exponent of p in n!, for a p known to be prime (Legendre's formula)."""
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total
