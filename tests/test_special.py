import decimal
import functools
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from mertens import accumulators, primes, special, verifier
from mertens.accumulators import BLOCK
from mertens.special import (
    DomainError,
    euler_gamma,
    exp_integral_e1,
    log_weighted_tail_boas,
    log_weighted_tail_direct,
    prime_zeta,
    sum_log_over_n_squared,
    zeta,
)


class TestZeta:
    def test_at_2(self):
        assert zeta(2).value == pytest.approx(math.pi**2 / 6, abs=1e-14)

    def test_large_s_dominated_by_first_terms(self):
        assert abs(zeta(60).value - (1 + 2.0**-60)) < 1e-16

    def test_near_one_against_direct_sum_oracle(self):
        # oracle: 10^7 direct terms plus an integral-tail bracket
        s = 1.001
        n = np.arange(1, 10**7 + 1, dtype=np.float64)
        direct = math.fsum((n**-s).tolist())
        lo = direct + (10**7 + 1) ** (1 - s) / (s - 1)
        hi = direct + (10**7) ** (1 - s) / (s - 1)
        assert lo <= zeta(s).value <= hi

    def test_relative_accuracy_claim(self):
        for s in (1.001, 1.5, 3.0, 10.0):
            z = zeta(s)
            assert z.err_bound <= 1e-15 * z.value

    def test_strictly_decreasing_toward_one(self):
        values = [zeta(s).value for s in (1.01, 1.5, 2, 3, 5, 10, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta(1.0)
        with pytest.raises(DomainError):
            zeta(0.5)


def _direct_prime_zeta(s, limit=10**7):
    """Oracle: direct sum over sieved primes with a rigorous tail bound."""
    p = primes.primes_up_to(limit).astype(np.float64)
    total = math.fsum((p**-float(s)).tolist())
    # tail over all integers > limit: integral comparison
    tail = limit ** (1 - s) / (s - 1)
    return total, tail


class TestPrimeZeta:
    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_against_direct_prime_sum(self, s):
        direct, tail = _direct_prime_zeta(s)
        pz = prime_zeta(float(s))
        # err_bound is truncation-only; add the documented rounding allowance
        slack = special.ROUNDING_ALLOWANCE * abs(pz.value)
        assert abs(pz.value - direct) <= tail + pz.err_bound + slack

    def test_known_leading_digits(self):
        # frozen from the direct-sum oracle (primes <= 10^7, tail < 1e-7)
        assert prime_zeta(2.0).value == pytest.approx(0.4522474200, abs=1e-8)
        assert prime_zeta(4.0).value == pytest.approx(0.0769931397, abs=1e-9)

    def test_large_s_first_prime_dominates(self):
        pz = prime_zeta(50.0)
        assert abs(pz.value - 2.0**-50) < 3.0**-50

    def test_asymptotic_residual_shrinks(self):
        from mertens import constants
        H = constants.compute_H(1e-12)[0].value
        def residual(rho):
            return prime_zeta(1 + rho).value - math.log(1 / rho) + H
        r2, r3, r4 = residual(1e-2), residual(1e-3), residual(1e-4)
        assert abs(r4) < abs(r3) < abs(r2)
        assert abs(r4) < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            prime_zeta(1.0)


class TestEulerGamma:
    def test_value_from_independent_em_parameters(self):
        # same identity, different truncation point: an internal consistency
        # check that the Bernoulli corrections converged, within both bounds
        g_default = euler_gamma()
        g_other = euler_gamma(10**5)
        assert abs(g_default.value - g_other.value) <= (
            g_default.err_bound + g_other.err_bound)

    def test_quadrature_of_log_weight_integral(self):
        # integral of ln(v) e^-v over (0, inf) equals -gamma
        val, err = scipy.integrate.quad(
            lambda v: math.log(v) * math.exp(-v), 0, np.inf, limit=200,
            points=None,
        )
        assert abs(val + euler_gamma().value) < 1e-10

    def test_quadrature_of_split_integrand(self):
        # integral of 1/(e^x - 1) - 1/(x e^x) over (0, inf) equals +gamma
        def f(x):
            if x < 1e-4:
                # series expansion near 0: 1/(e^x-1) - 1/(x e^x) -> 1/2 + ...
                return 0.5 + x / 12.0 - x**2 / 24.0
            if x > 700.0:  # avoid exp overflow; value is ~e^-700
                return 0.0
            return 1.0 / math.expm1(x) - 1.0 / (x * math.exp(x))
        val, err = scipy.integrate.quad(f, 0, np.inf, limit=200)
        assert abs(val - euler_gamma().value) < 1e-8

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, 10**6])
    def test_is_the_one_array_formula(self, n):
        # H_(n-1) + 1/(2n) - ln n + sum_{k<=8} B_2k / (2k n^2k), rounded once
        # from 50 digits; the bound covers the B18 term and the rounding
        with mpmath.workdps(50):
            exact = mpmath.harmonic(n - 1) + mpmath.mpf(1) / (2 * n) - mpmath.log(n)
            exact += mpmath.fsum(mpmath.bernoulli(k) / (k * mpmath.mpf(n) ** k)
                                 for k in range(2, 17, 2))
            omitted = mpmath.bernoulli(18) / (18 * mpmath.mpf(n) ** 18)
            g = special.euler_gamma.__wrapped__(n)
            assert g.value == float(exact)
            assert g.err_bound >= omitted + abs(g.value - exact)
            assert abs(g.value - mpmath.euler) <= g.err_bound

    def test_within_its_bound_of_mpmath(self):
        # the one rounding of the 64-term sum: 0.5772156649015341 at the
        # 10^6-term float formula was 1.2e-15 off, with a bound of 4e-51
        g = euler_gamma()
        with mpmath.workdps(50):
            assert g.value == float(mpmath.euler) == 0.5772156649015329
            assert abs(g.value - mpmath.euler) <= g.err_bound < 2**-56

    @pytest.mark.parametrize("n", [2.5, 1e6, 0, -3, "10", None])
    def test_domain(self, n):
        with pytest.raises(DomainError):
            euler_gamma(n)


class TestExpIntegralE1:
    def test_at_one_against_quadrature(self):
        val, _ = scipy.integrate.quad(
            lambda t: math.exp(-t) / t, 1.0, np.inf, limit=200
        )
        assert exp_integral_e1(1.0).value == pytest.approx(val, abs=1e-12)

    def test_against_scipy_across_range(self):
        for x in (0.01, 0.1, 0.5, 1.0, 1.5, 3.0, 10.0, 30.0):
            ours = exp_integral_e1(x).value
            ref = scipy.special.exp1(x)
            assert abs(ours - ref) <= 1e-13 * max(abs(ref), 1e-300) + 1e-16

    def test_small_x_log_singularity(self):
        x = 1e-8
        assert exp_integral_e1(x).value + math.log(x) == pytest.approx(
            -euler_gamma().value, abs=1e-6
        )

    def test_large_x_integrand_bound(self):
        v = exp_integral_e1(50.0).value
        assert 0 < v < math.exp(-50) / 50 * (1 + 1e-10)

    @pytest.mark.parametrize("x", [
        1e-6, 1e-3, 0.01, 0.01 * math.log(10**4 + 0.5), 0.1 * math.log(1024),
        0.1 * math.log(10**4), 0.5, 1.0,
        1.0000001, 1.5, 2.0, 3.0, math.log(1024), 0.5 * math.log(1024),
        math.log(10**4), 0.5 * math.log(10**4),
    ])
    def test_series_bound_covers_its_rounding(self, x):
        # the arguments of the tails at rho = 0.01, 0.1, 0.5 and 1, on both
        # branches.  With the truncation and gamma's bound alone, the series
        # bound was 5e-18 against an error of 2.5e-15 at 1e-6 and of 1.2e-17
        # at 1; in float, the continued fraction's was 8.8e-17 against an
        # error of 7.5e-16 at 1.0000001
        got = exp_integral_e1(x)
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(got.value) - mpmath.e1(mpmath.mpf(x)))
        assert err <= got.err_bound

    def test_branches_agree_at_switchover(self):
        # 1.0 takes the series, the next float the continued fraction
        a = exp_integral_e1(1.0).value
        b = exp_integral_e1(math.nextafter(1.0, 2)).value
        assert abs(a - b) < 1e-12

    def test_series_bound_is_derived_and_tight(self, monkeypatch):
        # 60 points from 1e-8 to 1, and every argument of the suite's tails
        # at most 1: each value lies within its bound of 50-digit mpmath.e1,
        # and the bound is no looser than the rounding, gamma's bound and
        # 1e-30 for the truncation and the decimal working error
        args = []

        def spy(x):
            args.append(x)
            return exp_integral_e1(x)

        monkeypatch.setattr(special, "exp_integral_e1", spy)
        list(verifier.run_suite([], None, only=["remainder", "grossehilfsatz2"]))
        xs = [10.0 ** (-8 + 8 * i / 59) for i in range(60)]
        xs += sorted({x for x in args if x <= 1})
        assert len(xs) == 65
        gamma = euler_gamma().err_bound
        for x in xs:
            got = exp_integral_e1(x)
            with mpmath.workdps(50):
                err = abs(mpmath.mpf(got.value) - mpmath.e1(mpmath.mpf(x)))
            assert err <= got.err_bound, x
            assert got.err_bound <= math.ulp(got.value) / 2 + gamma + 1e-30, x

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_integral_e1(0.0)
        with pytest.raises(DomainError):
            exp_integral_e1(-1.0)


def _tail_oracle(G, rho, K=6, M=4000):
    """sum_{n>G} 1/(n^(1+rho) ln n) at 40 digits: the terms to max(G, M),
    then Euler-Maclaurin through B_2K, whose remainder at K = 6 is below
    1e-30.  mpmath.nsum is no oracle here: it was off by 0.2 at rho = 0.1."""
    with mpmath.workdps(40):
        a = 1 + mpmath.mpf(rho)

        def f(t):
            return t**-a / mpmath.log(t)

        M = max(G, M)
        total = mpmath.fsum(f(mpmath.mpf(n)) for n in range(G + 1, M + 1))
        total += mpmath.e1((a - 1) * mpmath.log(M)) - f(mpmath.mpf(M)) / 2
        for k in range(1, K + 1):
            c = mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
            total -= c * mpmath.diff(f, mpmath.mpf(M), 2 * k - 1)
        return total


class TestLogWeightedTail:
    def test_boas_bracket_on_inverse_squares(self):
        # template check with f(n) = 1/n^2 at n = 10: the half-offset
        # integral plus the theta/8 derivative term must bracket the tail
        true_tail = zeta(2).value - math.fsum(1 / k**2 for k in range(1, 11))
        integral = 1.0 / 10.5
        fprime = -2.0 / 11**3
        lo, hi = integral + fprime / 8.0, integral
        assert lo < true_tail < hi

    def test_routes_agree(self):
        a, b = log_weighted_tail_direct(100, 0.5), log_weighted_tail_boas(100, 0.5)
        assert abs(a.value - b.value) <= a.err_bound + b.err_bound

    def test_routes_agree_various(self):
        for G, rho in [(10, 0.3), (1000, 0.05), (10**4, 0.01), (50, 0.9)]:
            a = log_weighted_tail_direct(G, rho)
            b = log_weighted_tail_boas(G, rho)
            assert abs(a.value - b.value) <= a.err_bound + b.err_bound

    def test_integral_comparison_bound(self):
        G, rho = 10**4, 0.99
        a = log_weighted_tail_direct(G, rho)
        assert a.value < 1.0 / (rho * G**rho * math.log(G))

    def test_direct_route_against_plain_summation(self):
        # brute force far past the cutoff for a quickly convergent case
        G, rho = 10, 0.9
        n = np.arange(G + 1, 10**7, dtype=np.float64)
        brute = math.fsum((n ** -(1 + rho) / np.log(n)).tolist())
        a = log_weighted_tail_direct(G, rho)
        assert a.value == pytest.approx(brute, abs=1e-7)

    @pytest.mark.parametrize("rho", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("G", [3, 10, 100, 10**4, 2 * 10**4])
    def test_direct_route_is_the_one_array_formula(self, G, rho):
        # one exact sum over G < n <= N, rounded once, then Euler-Maclaurin
        # through the f' term; within err_bound + 1e-14 of the 40-digit
        # oracle, where the direct sum to 10^6 read 9.1e-9 off at rho = 0.1
        N = max(G, 2**10)
        n = np.arange(G + 1, N + 1, dtype=np.float64)
        # the exact sum, rounded once: int / int rounds correctly
        direct = (accumulators.exact_sum(special._tail_f(n, rho), [len(n)])[0]
                  / 2**accumulators.UNIT_BITS)
        tail = exp_integral_e1(rho * math.log(N))
        f_N = float(special._tail_f(np.float64(N), rho))
        value = math.fsum(
            [direct, tail.value, -f_N / 2, -special._tail_fprime(N, rho) / 12])
        got = log_weighted_tail_direct(G, rho)
        assert got.value == value
        assert got.err_bound < 2.5e-15
        assert abs(got.value - float(_tail_oracle(G, rho))) <= got.err_bound + 1e-14
        # f is completely monotone, so the remainder past the f' term lies
        # between f'''(N)/720 and 0: the bound covers it, E1's alone does not
        with mpmath.workdps(40):
            rest = _tail_oracle(N, rho) - _tail_oracle(N, rho, K=1, M=N)
        assert 0 <= -rest <= got.err_bound

    @pytest.mark.parametrize("t, rho", [(3.0, 1.0), (50.0, 0.5), (1024.0, 0.1), (2e4, 1e-3)])
    def test_third_derivative_is_the_closed_form(self, t, rho):
        with mpmath.workdps(40):
            a = 1 + mpmath.mpf(rho)
            exact = mpmath.diff(lambda u: u**-a / mpmath.log(u), mpmath.mpf(t), 3)
        assert special._tail_fthird(t, rho) == pytest.approx(float(exact), rel=1e-13)

    def test_domain(self):
        # rho = 1 lies inside: the remainder identity needs it
        assert log_weighted_tail_direct(10, 1.0).value == 0.030306183021640162
        # the remainder check raises the tail's own error, before prime_zeta
        check = functools.partial(verifier.check_remainder_identity, p=np.array([2, 3, 5]))
        for tail in (log_weighted_tail_direct, log_weighted_tail_boas, check):
            for rho in (0.0, -0.1, 1.5):
                with pytest.raises(DomainError):
                    tail(10, rho)
            with pytest.raises(DomainError):
                tail(2, 0.5)


def test_sum_log_over_n_squared():
    v = sum_log_over_n_squared()
    assert v.value == pytest.approx(0.9375482543, abs=1e-9)


def test_np_log_and_math_log_are_within_1_ulp():
    # The package's one libm assumption: np.log and math.log return ln v
    # within 1 ulp.  The checkpoint terms ln p and ln p / p, and the checks
    # that read them, rely on it; so does the sieve-free route to sum ln p / p.
    # Tested on every prime <= 2^20 and on 2^k +- 1, k <= 40, against
    # 40-digit Decimal.ln; the worst errors read about 0.5 ulp.
    ctx = decimal.Context(prec=40)
    ks = range(1, 41)
    v = sorted({*primes.primes_up_to(2**20).tolist(), *(2**k + 1 for k in ks),
                *(2**k - 1 for k in ks if k > 1)})
    exact = [ctx.ln(n) for n in v]
    for name, logs in (("np.log", np.log(np.array(v, dtype=np.float64)).tolist()),
                       ("math.log", [math.log(n) for n in v])):
        worst = max(abs(ctx.subtract(decimal.Decimal(y), ln)) / decimal.Decimal(math.ulp(y))
                    for y, ln in zip(logs, exact))
        assert worst < 1, (name, worst)
