"""Prime power sums without a sieve: the Legendre recursion over floor values.

``prime_power_sum(s, x)`` is sum_{p <= x} p^-s with a rigorous bound, by the
method of Lagarias, Miller and Odlyzko (Math. Comp. 1985) that Bach, Klyve
and Sorenson apply to prime harmonic sums (Math. Comp. 2009).  S(v) starts as
sum_{2 <= n <= v} n^-s at v <= r = isqrt(x) and at v = x // i, i <= r; each
prime p <= r in turn does S(v) -= p^-s (S(v // p) - S(p - 1)) for v >= p^2.
That is about x^(3/4) / ln x work in O(sqrt x) memory.  The primes p <= r are
where the same recursion with s = 0 over v <= r steps: no sieve code is used.
The primes with p^3 > x go as one batch, as Deleglise and Rivat split at
x^(1/3) (Math. Comp. 1996): each reads only S(v) for v < x / p < x^(2/3),
which only primes below x^(1/3) move, and moves only S(v) for v >= p^2 >
x^(2/3).  So their updates are independent, and adding each one's terms,
rounded as in the loop, in int64 gives the loop's values bit for bit.

S(v) is an int64 count of 2^-F, F = 60 + s (0 for s = 0), below 2^62 as
S(v) < 3 * 2^-s, so subtractions are exact.  Only the product p^-s d rounds:
within 3u (u = 2^-53) for the cast of d, the product and w = 1 / p**s, which
is rounded once from Python ints, then under one unit where it is cut to an
int.  So one bound eps, in units, holds for every S(v): after each prime,
eps += w (2 eps + 4u (top + 2 eps)) + 1, where top bounds every S(v).  The
starts are exact integer prefix sums, within 2 units, up to L = min(x, max(r,
1024)); past L they add to S(L) the Euler-Maclaurin difference G(L + 1) -
G(v + 1), G(N) = sum_{n >= N} n^-s through B2, whose remainder is below the
first omitted term.  Only +, -, * and / round; no libm function enters.  For
s = 0 nothing rounds, so pi(x) is exact with a bound of 0.  With x^s < 2^1000
no float underflows.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .special import EvaluatedReal

U = 2.0**-53
# Covers the roundings of the bounds' own arithmetic, a few per prime and
# under 2^30 in all, and the (1 + u) factors the recurrence leaves out.
SLACK = 1 + 2.0**-20
# The most pairs (i, p) that one block of the batch holds.  A block makes
# some ten temporaries of its length; at 2^16 they raised the peak RSS of
# the oracle at 10^8 by 1.3 MB, and 2^12 is no slower at 10^8 or 2^34.
PAIRS = 1 << 12
# The most terms of the starts' prefix that one block divides in int64.  In
# one block of 2^17 terms, the oracle at 2^34 peaked 1.9 MB higher in RSS
# than with Python ints; in blocks of 2^14 it peaks 0.75 MB lower.
TERMS = 1 << 14


def _primes_to(r: int) -> np.ndarray:
    """The primes <= r, where C(v) = #{primes <= v} steps: C(v) starts at
    v - 1 and is final for v < p^2 once the primes below p are struck."""
    c = np.maximum(np.arange(-1, r), 0)
    v = np.arange(r + 1)
    for p in range(2, math.isqrt(r) + 1):
        if c[p] > c[p - 1]:
            c[p * p :] -= c[v[p * p :] // p] - c[p - 1]
    return np.flatnonzero(np.diff(c)) + 1


def _tail(s: int, N):
    """G(N) = N^(1-s) / (s-1) + N^-s / 2 + s N^(-s-1) / 12, which is
    sum_{n >= N} n^-s by Euler-Maclaurin through B2, but for a remainder
    below the next term, s (s+1) (s+2) / (720 N^(s+3)).  For float N its
    terms are positive, so it is within (2s + 6)u relative."""
    y = 1.0 / N
    q = y
    for _ in range(s - 1):
        q = q * y
    return q * (N / (s - 1) + 0.5 + s / 12 * y)


def _divide(q, rem, d, bits: int):
    """q * 2^bits + (rem * 2^bits) // d and (rem * 2^bits) % d, for int64
    arrays 0 <= rem < d < 2^61, in steps of k bits with rem * 2^k < 2^62."""
    k = 62 - int(d.max(initial=1)).bit_length()
    while bits > 0:
        b = min(k, bits)
        t, rem = np.divmod(rem << b, d)
        q, bits = (q << b) + t, bits - b
    return q, rem


def _prefix(s: int, L: int, F: int) -> np.ndarray:
    """The exact prefix sums sum_{2 <= n <= v} floor(2^(F + 32) / n^s), cut
    to int64 by >> 32, at v = 0..L, for s >= 2 and F = 60 + s.  When at
    least 1024 terms have n^s <= 2^60, they are divided in int64, TERMS at
    a time, as hi * 2^32 + lo, lo < 2^32: after an exact total T = th * 2^32
    + tl, tl < 2^32, the prefix is th + cumsum(hi) + ((tl + cumsum(lo)) >>
    32), below 3 * 2^60.  Fewer terms are faster as Python ints, and the
    terms past them need Python ints."""
    m = min(L, int(2.0 ** (60 / s)))
    m = m if m >= 1024 else 1
    blocks, total = [], 0
    for a in range(2, m + 1, TERMS):
        d = np.arange(a, min(a + TERMS, m + 1), dtype=np.int64) ** s
        hi, rem = _divide(*np.divmod(1 << 62, d), d, F - 62)
        th, tl = divmod(total, 1 << 32)
        hi = np.cumsum(hi) + th
        lo = np.cumsum(_divide(np.zeros_like(d), rem, d, 32)[0]) + tl
        blocks.append(hi + (lo >> 32))
        total = (int(hi[-1]) << 32) + int(lo[-1])
    terms = ((1 << F + 32) // n**s for n in range(m + 1, L + 1))
    rest = [t >> 32 for t in itertools.accumulate(terms, initial=total)][1:]
    if not blocks:  # a small start: one array from one list is fastest
        return np.array([0, 0, *rest], dtype=np.int64)
    return np.concatenate([[0, 0], *blocks, np.array(rest, dtype=np.int64)])


def _start(s: int, x: int, r: int, V: np.ndarray, F: int):
    """S(v) at v = 0..r and at v = V, in units of 2^-F, and their bound."""
    if s == 0:
        return np.maximum(np.arange(-1, r), 0), V - 1, 0.0
    L = min(x, max(r, 1024))
    table = _prefix(s, L, F)
    large = table[np.minimum(V, L)]
    eps = 2.0
    far = V > L
    if far.any():
        G = _tail(s, float(L + 1))
        large[far] += np.ldexp(G - _tail(s, V[far] + 1.0), F).astype(np.int64)
        # the cut to int, the rounding, and both remainders
        remainder = Fraction(s * (s + 1) * (s + 2) << F + 1, 720 * (L + 1) ** (s + 3))
        eps += 1 + (4 * s + 20) * U * math.ldexp(G, F) + math.ceil(remainder)
    return table[: r + 1], large, eps


def _pairs(m: np.ndarray):
    """The pairs (i, k) with 1 <= i <= m[k], for a non-increasing m, ordered
    by i and then k, as arrays of i - 1 and k in blocks of at most PAIRS."""
    if not len(m):
        return
    n = np.searchsorted(-m, -np.arange(1, m[0] + 1), side="right")
    ends = np.cumsum(n)  # pairs with i - 1 < e end at ends[e]
    for a in range(0, int(ends[-1]), PAIRS):
        at = np.arange(a, min(a + PAIRS, ends[-1]))
        i = np.searchsorted(ends, at, side="right")
        yield i, at - (ends[i] - n[i])


def prime_power_sum(s: int, x: int) -> EvaluatedReal:
    """sum_{p <= x} p^-s over the primes, with a rigorous bound, for
    integers s >= 0, s != 1, and 1 <= x < 2^53 with x^s < 2^1000."""
    if s < 0 or s == 1 or not 1 <= x < 2**53 or int(x) ** s >= 2**1000:
        raise ValueError(f"prime_power_sum needs an integer s >= 0, s != 1, "
                         f"and 1 <= x < 2^53 with x^s < 2^1000; got {s}, {x}")
    r = math.isqrt(x)
    V = x // np.arange(1, r + 1)  # large[i - 1] holds S(x // i)
    u, unit, F = (U, 1.0, 60 + s) if s else (0.0, 0.0, 0)
    small, large, eps = _start(s, x, r, V, F)
    top = float(large[0]) + eps
    v = np.arange(r + 1)
    ps = _primes_to(r)
    ws = [1 / p**s for p in ps.tolist()]
    head = ps[ps * ps <= x // ps].tolist()  # the primes p^3 <= x
    for p, w in zip(head, ws):
        c = small[p - 1]
        m = min(r, x // (p * p))  # S(x // i) moves for i <= m
        j = min(m, r // p)  # and reads S(x // (i p)) from large for i <= j
        # large first: it reads the small values that this prime moves
        large[:j] -= ((large[p - 1 : j * p : p] - c) * w).astype(np.int64)
        large[j:m] -= ((small[V[j:m] // p] - c) * w).astype(np.int64)
        if p * p <= r:
            small[p * p :] -= ((small[v[p * p :] // p] - c) * w).astype(np.int64)
    tail = ps[len(head) :]
    c, w = small[tail - 1], np.array(ws[len(head) :])
    for i, k in _pairs(x // (tail * tail)):
        q = (i + 1) * tail[k]  # S(x // q), from large for q <= r as in the loop
        d = np.where(q <= r, large[np.minimum(q, r) - 1], small[np.minimum(x // q, r)])
        t = ((d - c[k]) * w[k]).astype(np.int64)
        cuts = np.flatnonzero(np.diff(i, prepend=-1))
        large[i[cuts]] -= np.add.reduceat(t, cuts)
    for w in ws:
        eps += w * (2 * eps + 4 * u * (top + 2 * eps)) + unit
    value = math.ldexp(float(large[0]), -F)
    return EvaluatedReal(value, (math.ldexp(eps, -F) + u * value) * SLACK)
