"""Zeta, prime zeta, Euler's constant, E1, and logarithmic tail sums.

Every evaluation returns an EvaluatedReal: the value plus a rigorous
absolute bound on the truncation error.  Truncation bounds deliberately
exclude floating-point rounding, except those of euler_gamma and E1, which
work in 40-digit decimal, round once and cover it; callers that need a total
allowance add ROUNDING_ALLOWANCE (relative) on top.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import accumulators, primes

# Documented global allowance for accumulated binary64 rounding, relative.
ROUNDING_ALLOWANCE = 1e-13


@dataclass(frozen=True)
class EvaluatedReal:
    value: float
    err_bound: float

    def __post_init__(self):
        if self.err_bound < 0:
            raise ValueError("err_bound must be nonnegative")


class DomainError(ValueError):
    """Argument outside the function's domain."""


# Bernoulli numbers B2..B18, exact, for the Euler-Maclaurin corrections.
_BERNOULLI = {2 * k: Fraction(b) for k, b in enumerate(
    "1/6 -1/30 1/42 -1/30 5/66 -691/2730 7/6 -3617/510 43867/798".split(), 1)}


def _em_correction(s: float, N: int, k: int) -> float:
    """k-th Euler-Maclaurin correction term for zeta: B_2k/(2k)! *
    s(s+1)...(s+2k-2) * N^(1-s-2k)."""
    coeff = float(_BERNOULLI[2 * k]) / math.factorial(2 * k)
    rising = 1.0
    for j in range(2 * k - 1):
        rising *= s + j
    # N^(1-s-2k) via exp/log to dodge overflow in intermediate powers
    return coeff * rising * math.exp((1 - s - 2 * k) * math.log(N))


def zeta(s: float) -> EvaluatedReal:
    """Riemann zeta for real s > 1 by Euler-Maclaurin.

    N = 64 direct terms, trapezoid tail, Bernoulli corrections through B8;
    err_bound is the magnitude of the first omitted correction.
    """
    if s <= 1:
        raise DomainError(f"zeta requires s > 1, got {s}")
    N = 64
    direct = math.fsum(n ** -s for n in range(1, N))
    tail = math.exp((1 - s) * math.log(N)) / (s - 1) + 0.5 * N ** -s
    corr = math.fsum(_em_correction(s, N, k) for k in range(1, 5))
    err = abs(_em_correction(s, N, 5))
    return EvaluatedReal(direct + tail + corr, err)


def log_zeta(s: float) -> EvaluatedReal:
    """ln zeta(s) for s > 1, with the propagated truncation bound."""
    z = zeta(s)
    return EvaluatedReal(math.log(z.value), z.err_bound / (z.value - z.err_bound))


@lru_cache(maxsize=1)
def _small_moebius():
    return primes.moebius_up_to(256)


@lru_cache(maxsize=8)
def prime_zeta(s: float) -> EvaluatedReal:
    """P(s) = sum over primes of p^-s, via Moebius inversion of ln zeta.

    P(s) = sum_{k>=1} mu(k)/k * ln zeta(k s); truncated once
    ln zeta(k s) < 5e-16 and the geometric tail (ratio ~ 2^-s) is folded
    into err_bound.
    """
    if s <= 1:
        raise DomainError(f"prime_zeta requires s > 1, got {s}")
    mu = _small_moebius()
    terms = []
    err = 0.0
    k = 0
    while True:
        k += 1
        m = mu[k]
        lz = log_zeta(k * s)
        if m != 0:
            terms.append(m * lz.value / k)
            err += lz.err_bound / k
        if lz.value < 5e-16 and k >= 2:
            # remaining terms: |ln zeta(js)| <= 2^(-js+1); geometric sum
            ratio = 2.0 ** -s
            tail = 2.0 * 2.0 ** (-(k + 1) * s) / (1 - ratio)
            err += tail
            break
    return EvaluatedReal(math.fsum(terms), err)


@lru_cache(maxsize=1)
def euler_gamma(N: int = 64) -> EvaluatedReal:
    """Euler's constant by Euler-Maclaurin at N, in decimal, rounded once.

    gamma = H_(N-1) + 1/(2N) - ln N + sum_{k=1..8} B_2k / (2k N^2k) + R, and
    1/t is completely monotone, so R lies between 0 and the B18 term (9.4e-33
    at N = 64).  The corrections are one exact Fraction.  Each of the 2N + 2
    decimal operations errs by at most half a unit in the 40th digit of a
    result below ln N + 3.  err_bound adds R's bound, those errors and the
    final rounding, so it covers the rounding.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise DomainError(f"euler_gamma requires an integer N >= 1, got {N!r}")
    N = int(N)
    corr = Fraction(1, 2 * N) + sum(_BERNOULLI[k] / (k * N**k) for k in range(2, 17, 2))
    ctx = decimal.Context(prec=40, rounding=decimal.ROUND_HALF_EVEN)
    with decimal.localcontext(ctx):
        harmonic = sum(map(decimal.Decimal(1).__truediv__, range(1, N)))
        gamma = (harmonic + decimal.Decimal(corr.numerator) / corr.denominator
                 - decimal.Decimal(N).ln())
    return _rounded(gamma, _BERNOULLI[18] / (18 * N**18)
                    + Fraction((N + 1) * (math.log(N) + 3)) / 10**39)


def _rounded(exact: decimal.Decimal, bound: Fraction) -> EvaluatedReal:
    """``exact`` rounded once to a float; err_bound adds |fl - exact| to
    ``bound``, exact's own distance from the true value, rounded up."""
    value = float(exact)
    err = abs(Fraction(value) - Fraction(exact)) + bound
    return EvaluatedReal(value, math.nextafter(float(err), math.inf))


@lru_cache(maxsize=32)
def exp_integral_e1(x: float) -> EvaluatedReal:
    """E1(x) = integral of exp(-t)/t from x to infinity, x > 0, in 40-digit
    decimal on both branches, rounded once.

    x <= 1: -gamma - ln x + sum_{k>=1} (-1)^(k+1) x^k / (k k!) (DLMF 6.6.2),
    from gamma's float, exact as a Decimal, until a term is below 1e-32;
    the terms alternate and fall, so that term bounds the rest.  Each
    operation errs by at most half a unit in the 40th digit of a result below
    M = |ln x| + 2, and x/k <= 1 shrinks the error carried in x^k/k!
    (at most 1), so the K terms made and the 3 steps before them err by at
    most 1.5 (K + 1) M 10^-39.  err_bound adds gamma's bound, the omitted
    term, that error and the rounding.

    x > 1: modified Lentz on exp(-x) / (x + 1 - 1/(x + 3 - 4/(...))) to
    |delta - 1| < 1e-32, 349 terms at x = 1.0000001 and 63 at ln 1024.
    err_bound adds 1e-30 of E1 and the rounding: from there to x = 50 the
    value lay within 8.5e-32 of 60-digit mpmath.e1, relative.  The
    remainder checks ask for 4 values 8 times: hence the cache.
    """
    if x <= 0:
        raise DomainError(f"E1 requires x > 0, got {x}")
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=40)):
        eps = D("1e-32")
        if x <= 1.0:
            gamma = euler_gamma()
            e1 = -D(gamma.value) - D(x).ln()
            power = D(1)
            for k in itertools.count(1):
                power = power * D(x) / k
                if (term := power / k) < eps:
                    break
                e1 += term if k % 2 else -term
            work = Fraction(3 * (k + 1) * (abs(math.log(x)) + 2)) / (2 * 10**39)
            return _rounded(e1, Fraction(gamma.err_bound) + Fraction(term) + work)
        b = D(x) + 1
        c, d = D(10) ** 300, 1 / b
        h = d
        for i in itertools.count(1):
            b += 2
            d = 1 / (b - i * i * d)
            c = b - i * i / c
            delta = c * d
            h *= delta
            if abs(delta - 1) < eps:
                break
        e1 = (-D(x)).exp() * h
    return _rounded(e1, Fraction(e1) / 10**30)


def _tail_f(n, rho):
    """f(n) = 1 / (n^(1+rho) * ln n), the remainder-series summand."""
    return n ** -(1.0 + rho) / np.log(n)


def _tail_fprime(n: float, rho: float) -> float:
    ln = math.log(n)
    return -(n ** -(2.0 + rho)) * (1.0 + rho + 1.0 / ln) / ln


def _tail_fthird(t: float, rho: float) -> float:
    a, ln = 1.0 + rho, math.log(t)
    poly = (a * (a + 1) * (a + 2) + (3 * a * a + 6 * a + 2) / ln
            + 6 * (a + 1) / ln**2 + 6 / ln**3)
    return -(t ** -(a + 3)) * poly / ln


def log_weighted_tail_direct(G: int, rho: float) -> EvaluatedReal:
    """sum_{n>G} 1/(n^(1+rho) ln n): direct terms to N, Euler-Maclaurin past N.

    With f(t) = t^-a / ln t, a = 1 + rho and N = max(G, 2^10), the terms
    G < n <= N are summed exactly and rounded once, and
    sum_{n>N} f(n) = E1(rho ln N) - f(N)/2 - f'(N)/12 + R,
    where E1(rho ln N) is the integral of f from N (substitute u = ln t).
    For t > 1, f(t) is the integral of t^-(a+s) over s > 0, so f is
    completely monotone, and R then lies between 0 and the B4 term
    f'''(N)/720, with f'''(t) = -t^(-a-3) [a(a+1)(a+2)/L
    + (3a^2+6a+2)/L^2 + 6(a+1)/L^3 + 6/L^4], L = ln t.  err_bound is
    |f'''(N)|/720 plus E1's bound.
    """
    _check_tail_domain(G, rho)
    N = max(G, 1 << 10)
    direct = accumulators.range_sum(lambda n: _tail_f(n, rho), G + 1, N)
    tail = exp_integral_e1(rho * math.log(N))
    f_N = float(_tail_f(np.float64(N), rho))
    value = math.fsum([direct, tail.value, -f_N / 2, -_tail_fprime(N, rho) / 12])
    return EvaluatedReal(value, abs(_tail_fthird(N, rho)) / 720 + tail.err_bound)


def log_weighted_tail_boas(G: int, rho: float) -> EvaluatedReal:
    """Same tail by the half-offset Euler-Maclaurin form.

    tail = integral from G+1/2 of f, plus theta/8 * f'(G+1) for some
    theta in (0,1); we take theta = 1/2 and report half the theta-range
    width as the bound.
    """
    _check_tail_domain(G, rho)
    integral = exp_integral_e1(rho * math.log(G + 0.5))
    fp = _tail_fprime(G + 1.0, rho)
    return EvaluatedReal(
        integral.value + fp / 16.0, abs(fp) / 16.0 + integral.err_bound
    )


def _check_tail_domain(G, rho):
    if G < 3:
        raise DomainError(f"tail requires G >= 3, got {G}")
    if not 0 < rho <= 1:
        raise DomainError(f"tail requires 0 < rho <= 1, got {rho}")


def sum_log_over_n_squared(N: int = 10**4) -> EvaluatedReal:
    """sum_{n>=2} ln n / n^2 by direct terms plus Euler-Maclaurin tail.

    This is the series whose value 0.93754825... feeds the 3/2-weighted
    prime-power bound in the first fundamental lemma.
    """
    direct = accumulators.range_sum(lambda n: np.log(n) / n**2, 2, N - 1)
    lnN = math.log(N)
    integral = (lnN + 1.0) / N
    f_N = lnN / N**2
    fp_N = (1.0 - 2.0 * lnN) / N**3
    fppp_N = (26.0 - 24.0 * lnN) / N**5
    value = direct + integral + f_N / 2.0 - fp_N / 12.0
    return EvaluatedReal(value, abs(fppp_N) / 720.0)
