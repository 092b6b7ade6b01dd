"""Explicit inequality, identity, and table checks over computed prime data.

Each check returns or yields BoundReports: claimed bound, observed value,
margin, pass/fail.  A report's verdict is always recomputable from (observed,
bound) alone: it passes iff its margin is at least 0.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

from . import accumulators, primes, special
from .accumulators import CUTS, SumCheckpoint, _round_once
from .constants import ConstantsBundle

TWO_PI_LOG_ROOT = math.log(math.sqrt(2 * math.pi))


class BoundReport(NamedTuple):
    name: str
    params: dict
    observed: float
    bound: float
    margin: float
    passed: bool


class ErrorTableRow(NamedTuple):
    """One row of the error table at checkpoint x.

    signed_error is sum_{p<=x} 1/p - ln ln x - B with B = bundle.B.value
    and no offset; true_error is |signed_error|; ratio is
    true_error / schoenfeld_bound.  Both errors are uncertain by
    bundle.B.err_bound plus the float rounding of sum 1/p, of ln ln x and
    of the two subtractions: a few ulps of sum 1/p.
    """

    x: int
    true_error: float
    schoenfeld_bound: float
    ratio: float
    signed_error: float


def _report(name, params, observed, bound, lo=None, hi=None) -> BoundReport:
    """The verdict that ``observed`` lies in [lo, hi], by default
    [-bound, bound]; pass an infinity for a one-sided bound.  The margin is
    the distance into that interval, and a report passes iff it is at
    least 0: a bound that fails by any amount fails."""
    lo = -bound if lo is None else lo
    hi = bound if hi is None else hi
    margin = min(observed - lo, hi - observed)
    return BoundReport(name, params, observed, bound, margin, margin >= 0)


def _upto(p: np.ndarray, x) -> np.ndarray:
    """The primes <= x, a prefix of ``p``: the primes up to at least x."""
    return p[: p.searchsorted(x, side="right")]


# --- Grossehilfsatz 1: |sum ln p / p - ln x| < 2 ------------------------

def check_grossehilfsatz1(series: Iterable[SumCheckpoint]) -> Iterator[BoundReport]:
    for cp in series:
        if cp.x < 2:
            continue
        R = cp.logp_over_p - math.log(cp.x)
        yield _report("grossehilfsatz1", {"x": cp.x}, R, 2.0)


# --- Chebyshev theta bounds ---------------------------------------------

CHEBYSHEV_BAND_MIN_X = 38750
CHEBYSHEV_LOWER = 0.904
CHEBYSHEV_UPPER = 1.113


def check_theta(series: Iterable[SumCheckpoint]) -> Iterator[BoundReport]:
    for cp in series:
        if cp.x < 2:
            continue
        yield _report("theta_lt_2x", {"x": cp.x}, cp.theta, 2.0 * cp.x)
        if cp.x >= CHEBYSHEV_BAND_MIN_X:
            # two-sided band, reported as the distance into the band
            lo, hi = CHEBYSHEV_LOWER * cp.x, CHEBYSHEV_UPPER * cp.x
            yield _report("chebyshev_band", {"x": cp.x}, cp.theta, hi, lo=lo, hi=hi)


# --- chi(x) - chi(x/2) < x ----------------------------------------------

def _chi_roots(x: int) -> list[int]:
    """floor(x^(1/k)) in integers for each k with 2^k <= x, that is, while
    it is >= 2: chi(x) is the sum of theta at these.  A float root is only
    a guess: it read 3,124 for the cube root of 5^15."""
    roots = []
    for k in range(1, int(x).bit_length()):
        r = x if k == 1 else math.isqrt(x) if k == 2 else int(x ** (1.0 / k))
        while r**k > x:
            r -= 1
        while (r + 1) ** k <= x:
            r += 1
        roots.append(r)
    return roots


def check_chi_inequality(x: int, p: np.ndarray) -> BoundReport:
    if x <= 1:
        raise ValueError(f"x must be > 1, got {x}")
    up, down = _chi_roots(x), _chi_roots(x // 2)
    roots = sorted({*up, *down})
    p = _upto(p, x)
    # theta at every root, each an exact sum rounded once
    pieces = accumulators.exact_sum(np.log(p), p.searchsorted(roots, side="right"))
    theta = {r: _round_once(s) for r, s in zip(roots, itertools.accumulate(pieces))}
    observed = sum(theta[r] for r in up) - sum(theta[r] for r in down)
    return _report("chi_difference", {"x": x}, observed, float(x))


# --- Stirling bounds -----------------------------------------------------

def _log_factorial(n: int) -> float:
    return accumulators.range_sum(np.log, 1, n)


def _binet_terms(m: np.ndarray) -> np.ndarray:
    """(m + 1/2) ln(1 + 1/m) - 1 at each integer m >= 1 of a float64 array,
    via its power series in 1/m, each m stopping at its own stop rule.

    Direct evaluation cancels ~1 against ~1 and loses everything below
    1e-16; the series keeps full relative accuracy on a term of size
    ~1/(12 m^2).  Coefficient of (1/m)^j is (-1)^j (j-1)/(2 j (j+1)).
    At m = 1 the series never meets its stop rule, but t_1 ~ 0.04 is
    large enough that direct evaluation keeps precision.
    """
    u = 1.0 / m
    power = u * u
    total = np.where(m == 1, 1.5 * math.log(2.0) - 1.0, 0.0)
    live = m > 1
    j = 2
    while live.any():
        term = power * (j - 1) / (2.0 * j * (j + 1))
        total = np.where(live, total + term if j % 2 == 0 else total - term, total)
        live &= term >= 1e-18 * total
        power *= u
        j += 1
    return total


def stirling_lambda(n: int) -> float:
    """lambda in ln n! = n ln n - n + ln(n)/2 + ln sqrt(2 pi) + lambda/(12n).

    lambda/(12n) equals the tail sum of (m + 1/2) ln(1 + 1/m) - 1 over
    m >= n (the telescoped Stirling remainder).  The head is one exact
    sum rounded once; the remainder past N is bracketed by the enveloping
    partial sums 1/(12N) - 1/(360 N^3) < tail < same + 1/(1260 N^5),
    so the absolute error in lambda is below 12n/(2520 N^5) ~ 1e-15.
    Naive subtraction of the two ~n ln n quantities would drown lambda's
    distance from 1 in rounding noise already around n = 10^4.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    N = max(n, 2000)
    head = accumulators.range_sum(_binet_terms, n, N - 1)
    tail = 1.0 / (12 * N) - 1.0 / (360 * N**3) + 0.5 / (1260 * N**5)
    return 12 * n * (head + tail)


def check_stirling(x: float) -> list[BoundReport]:
    """Both one-sided factorial bounds at real x >= 4, and the lambda form.

    With h(t) = t ln t - t + ln(t)/2 and n = [x], the upper bound ln n! <=
    h(x) + ln sqrt(2 pi) + 1/(12x) is checked as lambda(n)/(12n) - (h(x) -
    h(n)) <= 1/(12x): at an integer x its margin, about 1/(360 x^3), is far
    below an ulp of x ln x."""
    if x < 4:
        raise ValueError(f"x must be >= 4, got {x}")
    n = math.floor(x)
    lam = stirling_lambda(n)
    hx, hn = (t * math.log(t) - t + 0.5 * math.log(t) for t in (x, n))
    remainder = lam / (12 * n) - (hx - hn)
    reports = [_report("stirling_upper", {"x": x}, remainder, 1 / (12 * x), lo=-math.inf)]
    lf_half = _log_factorial(math.floor(x / 2))
    lower = (
        x * math.log(x) - x * math.log(2) - math.log(x) - x
        + TWO_PI_LOG_ROOT + math.log(2) - 2 / (x - 2)
    )
    # lower bound: 2 ln([x/2]!) > lower, report the (positive) gap
    reports.append(_report("stirling_lower", {"x": x}, 2 * lf_half, lower,
                           lo=lower, hi=math.inf))
    if n >= 5:
        reports.append(_report("stirling_lambda", {"n": n}, lam, 1.0))
    return reports


# --- Legendre factorial identity ----------------------------------------

def check_legendre_factorial(n: int, p: np.ndarray) -> BoundReport:
    if not 2 <= n <= 10**6:
        raise ValueError(f"n must be in [2, 10^6], got {n}")
    # _valuation takes q as prime, and every q here is sieved
    lhs = math.fsum(primes._valuation(n, q) * math.log(q)
                    for q in _upto(p, n).tolist())
    rhs = _log_factorial(n)
    rel = abs(lhs - rhs) / rhs
    return _report("legendre_factorial", {"n": n}, rel, 1e-8)


# --- Abel summation identity with pi(x) ---------------------------------

def check_abel_pi_identity(series: Sequence[SumCheckpoint],
                           p: np.ndarray) -> Iterator[BoundReport]:
    series = [cp for cp in series if cp.x >= 2]
    # The primes to the largest threshold; each checkpoint takes a prefix.
    all_p = _upto(p, max((cp.x for cp in series), default=0))
    ks = all_p.searchsorted([cp.x for cp in series], side="right").tolist()
    # pi is a step function: the integral of pi(t)/t^2 over [2, x] is the
    # exact sum of the pieces j (1/p_j - 1/p_{j+1}), j < k = pi(x), and of
    # k (1/p_k - 1/x).  heads[k] sums the first k - 1, one exact_sum per CUTS.
    heads, total = {1: 0}, 0
    cuts = sorted(set(ks))
    for lo in range(0, len(all_p) - 1, CUTS):
        r = 1.0 / all_p[lo : lo + CUTS + 1]
        pieces = np.arange(lo + 1, lo + len(r)) * (r[:-1] - r[1:])
        # the k with lo + 1 < k <= lo + len(r)
        inside = cuts[bisect.bisect_right(cuts, lo + 1)
                      : bisect.bisect_right(cuts, lo + len(r))]
        ends = [k - 1 - lo for k in inside] + [len(pieces)]
        sums = accumulators.exact_sum(pieces, ends)
        _, *at_cuts, total = itertools.accumulate(sums, initial=total)
        heads.update(zip(inside, at_cuts))
    for cp, k in zip(series, ks):
        last = k * (1.0 / float(all_p[k - 1]) - 1.0 / cp.x)
        rhs = k / cp.x + _round_once(heads[k] + accumulators._units(last))
        rel = abs(cp.recip_sum - rhs) / cp.recip_sum
        yield _report("abel_pi_identity", {"x": cp.x}, rel, 1e-10)


# --- Remainder identity and its bound -----------------------------------

def check_remainder_identity(G: int, rho: float, p: np.ndarray) -> BoundReport:
    n_tail = special.log_weighted_tail_direct(G, rho)  # checks G and rho
    s = 1.0 + rho
    full = special.prime_zeta(s)
    head = math.fsum(q ** -s for q in _upto(p, G).tolist())
    prime_tail = full.value - head
    remainder = prime_tail - n_tail.value
    bound = 4.0 / math.log(G + 1) + 1.0 / (G * math.log(G + 1))
    return _report("remainder_bound", {"G": G, "rho": rho}, remainder, bound)


# --- Grossehilfsatz 2 ----------------------------------------------------

def grossehilfsatz2_residual(G: int, rho: float) -> float:
    """tail(G, rho) - [ln(1/rho) - ln ln G - gamma]."""
    tail = special.log_weighted_tail_boas(G, rho)
    gamma = special.euler_gamma()
    return tail.value - (math.log(1.0 / rho) - math.log(math.log(G)) - gamma.value)


def check_grossehilfsatz2(G: int, rhos: list[float]) -> list[BoundReport]:
    if G < 10:
        raise ValueError(f"G must be >= 10, got {G}")
    limit = 1.0 / math.log(G)
    if any(not 0 < r < limit for r in rhos):
        raise ValueError(f"each rho must lie in (0, {limit:.4g})")
    if any(b >= a for a, b in zip(rhos, rhos[1:])):
        raise ValueError("rhos must be strictly decreasing")
    residuals = [grossehilfsatz2_residual(G, r) for r in rhos]
    reports = []
    mags = [abs(r) for r in residuals]
    decreasing = all(b < a for a, b in zip(mags, mags[1:]))
    reports.append(BoundReport(
        "grossehilfsatz2_monotone", {"G": G, "rhos": list(rhos)},
        mags[-1], mags[0], mags[0] - mags[-1], decreasing))
    rho_min = rhos[-1]
    # 10 * rho * ln G is the engineering allowance for the o(rho) slack
    bound = 1.0 / (G * math.log(G)) + 10.0 * rho_min * math.log(G)
    reports.append(_report(
        "grossehilfsatz2_final", {"G": G, "rho": rho_min}, residuals[-1], bound,
    ))
    return reports


# --- Mertens product theorem --------------------------------------------

def check_mertens_product(G: int, p: np.ndarray) -> BoundReport:
    if G < 3:
        raise ValueError(f"G must be >= 3, got {G}")
    # np.log1p rounds 28 of the primes to 2^20 otherwise than math.log1p;
    # fsum rounds once, so taking the terms CUTS at a time moves no bit
    p = _upto(p, G)
    terms = ((-1.0 / p[lo : lo + CUTS]).tolist() for lo in range(0, len(p), CUTS))
    log_product = -math.fsum(map(math.log1p, itertools.chain.from_iterable(terms)))
    gamma = special.euler_gamma().value
    delta = log_product - gamma - math.log(math.log(G))
    bound = (
        4.0 / math.log(G + 1) + 2.0 / (G * math.log(G)) + 1.0 / (2.0 * G)
    )
    return _report("mertens_product", {"G": G}, delta, bound)


# --- Mertens error table and delta bounds --------------------------------

DUSART_UPPER_MIN_X = 10372
WOLF_TABLE_MIN_X = 2**16  # the first x of the rows verify --wolf-table prints


def _dusart_width(x: float) -> float:
    lx = math.log(x)
    return 1.0 / (10 * lx**2) + 4.0 / (15 * lx**3)


def error_table(series: Iterable[SumCheckpoint], B: float,
                min_x: int = 16) -> Iterator[ErrorTableRow]:
    """The ErrorTableRow of each checkpoint x >= max(min_x, 16), with no
    published convention (no 1/(2x) offset, no truncated B) applied.

    The Schoenfeld comparison is an empirical observation (the bound is
    conditional on RH), never a proof.
    """
    for cp in series:
        if cp.x < max(min_x, 16):
            continue
        lx = math.log(cp.x)
        signed = cp.recip_sum - math.log(lx) - B
        schoenfeld = (3 * lx + 4) / (8 * math.pi * math.sqrt(cp.x))
        true_err = abs(signed)
        yield ErrorTableRow(cp.x, true_err, schoenfeld, true_err / schoenfeld, signed)


def mertens_error_table(series: Iterable[SumCheckpoint],
                        bundle: ConstantsBundle) -> Iterator[BoundReport]:
    """The Mertens, modern, Dusart and Schoenfeld delta checks at each row
    of the error table."""
    for row in error_table(series, bundle.B.value):
        x, signed = float(row.x), row.signed_error
        lx = math.log(x)
        # Mertens (1.2), stated with ln ln [x]: x is an integer, so that is
        # ln ln x, and the delta is ``signed``
        bound_mertens = 4.0 / math.log(x + 1) + 2.0 / (x * lx)
        yield _report("mertens_delta", {"x": row.x}, signed, bound_mertens)
        yield _report("modern_delta", {"x": row.x}, signed, 4.0 / lx)
        w = _dusart_width(x)
        yield _report("dusart_lower", {"x": row.x}, signed, -w, lo=-w, hi=math.inf)
        if x >= DUSART_UPPER_MIN_X:
            yield _report("dusart_upper", {"x": row.x}, signed, w, lo=-math.inf)
        # RH-conditional: an empirical observation only, never a proof
        yield _report("schoenfeld_rh", {"x": row.x}, signed, row.schoenfeld_bound)


# --- Suite driver --------------------------------------------------------

CHECK_NAMES = (
    "grossehilfsatz1", "theta", "chi", "stirling", "legendre",
    "abel", "remainder", "grossehilfsatz2", "product", "table",
)


def select_checks(only=None) -> set[str]:
    """The checks that ``only`` names, or all CHECK_NAMES if it names none;
    a ValueError names those that are not checks."""
    want = set(only) if only else set(CHECK_NAMES)
    if unknown := want - set(CHECK_NAMES):
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    return want


def run_suite(series: Sequence[SumCheckpoint], bundle: ConstantsBundle,
              only=None) -> Iterator[BoundReport]:
    """Yield the reports of the verification suite over a checkpoint
    series, each as its check makes it.

    ``only`` restricts to a subset of CHECK_NAMES, and a name that is none
    raises ValueError at the first iteration, not at the call.  The checks
    that need primes take them from one sieve, to the largest x that the
    selected ones reach, released when the suite is done.
    """
    want = select_checks(only)
    x_max = max((cp.x for cp in series), default=0)
    abel_series = [cp for cp in series if cp.x <= 2**20]
    # where each check that needs primes runs, each x once (x_max may be a
    # fixed point); one sieve reaches them all
    at = {
        "chi": dict.fromkeys((4, 100, 10**4, min(10**6, max(4, x_max)))),
        "legendre": (10, 100, 10**4),
        "abel": [cp.x for cp in abel_series],
        "remainder": (3, 10, 100, 10**4),
        "product": dict.fromkeys((3, 10, min(2**20, max(3, x_max)))),
    }
    limit = max((x for name in want & at.keys() for x in at[name]), default=0)
    p = primes.primes_up_to(limit) if limit else np.empty(0, dtype=np.int64)
    if "grossehilfsatz1" in want:
        yield from check_grossehilfsatz1(series)
    if "theta" in want:
        yield from check_theta(series)
    if "chi" in want:
        yield from (check_chi_inequality(x, p) for x in at["chi"])
    if "stirling" in want:
        for x in (4.0, 5.0, 100.0, 10**4):
            yield from check_stirling(x)
    if "legendre" in want:
        yield from (check_legendre_factorial(n, p) for n in at["legendre"])
    if "abel" in want:
        yield from check_abel_pi_identity(abel_series, p)
    if "remainder" in want:
        for G in at["remainder"]:
            for rho in (1.0, 0.5, 0.1):
                yield check_remainder_identity(G, rho, p)
    if "grossehilfsatz2" in want:
        yield from check_grossehilfsatz2(10**4, [1e-2, 1e-3, 1e-4])
    if "product" in want:
        yield from (check_mertens_product(G, p) for G in at["product"])
    if "table" in want:
        yield from mertens_error_table(series, bundle)
