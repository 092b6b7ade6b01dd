import math
import signal
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest

from mertens import accumulators, primes, special, verifier
from mertens.verifier import (
    check_abel_pi_identity,
    check_chi_inequality,
    check_grossehilfsatz1,
    check_grossehilfsatz2,
    check_legendre_factorial,
    check_mertens_product,
    check_remainder_identity,
    check_stirling,
    check_theta,
    mertens_error_table,
    stirling_lambda,
)


@pytest.fixture(scope="module")
def small_series():
    return list(accumulators.accumulate(2**20, [2, 10, 100, 2**16, 2**20]))


@pytest.fixture(scope="module")
def p20():
    """The primes up to 2^20, as the suite sieves them for every check."""
    return primes.primes_up_to(2**20)


def report_by_x(reports, x):
    return next(r for r in reports if r.params.get("x") == x)


class TestGrossehilfsatz1:
    def test_values_and_verdicts(self, small_series):
        reports = check_grossehilfsatz1(small_series)
        r10 = report_by_x(reports, 10)
        assert r10.observed == pytest.approx(
            1.312652433140255 - math.log(10), abs=1e-12
        )
        assert r10.passed
        r2 = report_by_x(reports, 2)
        assert r2.observed == pytest.approx(math.log(2) / 2 - math.log(2), abs=1e-15)
        assert all(r.passed for r in reports)

    def test_skips_sub_2_thresholds(self):
        # x = 1 gets no report at all, not a PASS that checked nothing
        series = list(accumulators.accumulate(10, [1, 10]))
        reports = check_grossehilfsatz1(series)
        assert [r.params["x"] for r in reports] == [10]
        assert reports[0].passed

    def test_pass_flag_recomputable(self, small_series):
        for r in check_grossehilfsatz1(small_series):
            assert r.passed == (r.bound - abs(r.observed) >= -1e-13 * r.bound)


class TestTheta:
    def test_small_values(self, small_series):
        reports = [r for r in check_theta(small_series) if r.name == "theta_lt_2x"]
        r100 = report_by_x(reports, 100)
        assert r100.observed == pytest.approx(83.72839039906393, abs=1e-9)
        assert r100.bound == 200.0
        r2 = report_by_x(reports, 2)
        assert r2.observed == pytest.approx(math.log(2), abs=1e-15)

    def test_band_only_above_threshold(self, small_series):
        bands = [r for r in check_theta(small_series) if r.name == "chebyshev_band"]
        assert {r.params["x"] for r in bands} == {2**16, 2**20}
        assert all(r.passed for r in bands)

    def test_band_at_2_16(self, small_series):
        bands = [r for r in check_theta(small_series) if r.name == "chebyshev_band"]
        r = report_by_x(bands, 2**16)
        assert 0.904 * 2**16 < r.observed < 1.113 * 2**16


class TestChi:
    def test_hand_enumeration_at_4(self, p20):
        r = check_chi_inequality(4, p20)
        # chi(4) - chi(2) = (ln2 + ln3 + ln2) - ln2 = ln 6
        assert r.observed == pytest.approx(math.log(6), abs=1e-12)
        assert r.bound == 4.0 and r.passed

    def test_smallest_case(self, p20):
        r = check_chi_inequality(2, p20)
        assert r.observed == pytest.approx(math.log(2), abs=1e-15)
        assert r.passed

    def test_large(self, p20):
        assert check_chi_inequality(10**6, p20).passed

    def test_rejects_one(self, p20):
        with pytest.raises(ValueError):
            check_chi_inequality(1, p20)

    @pytest.mark.parametrize("x", [5**15, 10**12, 2**36])
    def test_roots_are_exact_where_the_float_root_is_low(self, x):
        # the float cube roots of these read 3,124, 9,999 and 4,095
        assert_floor_roots(x, verifier._chi_roots(x))
        assert verifier._chi_roots(x)[2] == round(x ** (1 / 3))

    def test_roots_at_and_below_every_small_power(self):
        for m in range(2, 2000):
            for k in range(1, 6):
                for x, root in ((m**k, m), (m**k - 1, m - 1)):
                    roots = verifier._chi_roots(x)
                    assert_floor_roots(x, roots)
                    # a root below 2 is not listed
                    assert roots[k - 1 : k] == [root][: root >= 2]


def assert_floor_roots(x: int, roots: list[int]):
    """roots[k - 1] is floor(x^(1/k)), in integers, for each k with
    2^k <= x, and there is no other."""
    assert len(roots) == x.bit_length() - 1
    for k, r in enumerate(roots, 1):
        assert r**k <= x < (r + 1) ** k, (x, k, r)


def _rounded_once(values: np.ndarray) -> float:
    """The exact sum of float64 ``values``, rounded once, by Fractions."""
    return float(sum(map(Fraction, values.tolist())))


class TestExactSums:
    @pytest.mark.parametrize("x", [4, 100, 10**4, 10**6])
    def test_chi_sums_theta_exactly_at_each_root(self, x):
        p = primes.primes_up_to(x)
        logs = np.log(p)

        def chi(y):
            total, k = 0.0, 1
            while (root := y ** (1.0 / k)) >= 2.0:
                n = int(p.searchsorted(math.floor(root + 1e-12), side="right"))
                total += _rounded_once(logs[:n])
                k += 1
            return total

        assert check_chi_inequality(x, p).observed == chi(float(x)) - chi(x / 2.0)

    @pytest.mark.parametrize("n", [4, 100, 10**4])
    def test_log_factorial_is_rounded_once(self, n):
        expected = _rounded_once(np.log(np.arange(1, n + 1.0)))
        assert verifier._log_factorial(n) == expected


class TestStirling:
    def test_lambda_examples(self):
        # frozen from direct evaluation of both sides
        assert stirling_lambda(5) == pytest.approx(0.9986814713892, abs=1e-9)
        lam100 = stirling_lambda(100)
        assert lam100 == pytest.approx(0.9999966, abs=1e-6)
        assert abs(lam100) < 1

    def test_bounds_at_4(self):
        reports = check_stirling(4.0)
        upper = next(r for r in reports if r.name == "stirling_upper")
        # the Stirling remainder lambda(4)/48 against the bound 1/48
        assert upper.observed == pytest.approx(stirling_lambda(4) / 48, abs=1e-15)
        assert upper.observed == pytest.approx(0.0207907, abs=1e-7)
        assert upper.bound == 1 / 48
        assert upper.passed and upper.margin > 0

    def test_all_pass_at_various_x(self):
        for x in (4.0, 4.5, 10.0, 1000.0, 12345.6):
            assert all(r.passed for r in check_stirling(x))

    def test_lambda_at_1_takes_the_closed_form(self):
        # ln 1! = 0, so lambda = 12 (1 - ln sqrt(2 pi)).  The series never
        # meets its stop rule at m = 1, so the alarm ends the test if that
        # term enters the array loop
        def stuck(*_):
            raise TimeoutError("m = 1 entered the series loop")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(10)
        try:
            lam = stirling_lambda(1)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert abs(lam - 12 * (1 - math.log(math.sqrt(2 * math.pi)))) <= 1e-14

    def test_lambda_in_unit_interval_log_sampled(self):
        n = 5
        while n <= 10**6:
            assert 0 < stirling_lambda(n) < 1
            n *= 10


class TestLegendreFactorial:
    def test_examples(self, p20):
        # ln 10! = 15.104412573075516..., against which the check compares
        assert verifier._log_factorial(10) == 15.104412573075516
        assert check_legendre_factorial(10, p20).passed
        assert check_legendre_factorial(2, p20).passed
        assert check_legendre_factorial(10**4, p20).passed

    def test_domain(self, p20):
        with pytest.raises(ValueError):
            check_legendre_factorial(1, p20)


class TestAbelPiIdentity:
    def test_at_10(self, p20):
        series = list(accumulators.accumulate(10, [10]))
        r = check_abel_pi_identity(series, p20)[0]
        assert r.passed
        # both sides equal sum 1/p over {2,3,5,7}
        assert series[0].recip_sum == pytest.approx(
            1.1761904761904762, abs=1e-15
        )

    def test_at_2_empty_integral(self, p20):
        series = list(accumulators.accumulate(2, [2]))
        r = check_abel_pi_identity(series, p20)[0]
        assert r.passed and r.observed <= 1e-15

    def test_within_tolerance_up_to_2_20(self, small_series, p20):
        assert all(r.passed for r in check_abel_pi_identity(small_series, p20))


class TestRemainderIdentity:
    @pytest.mark.parametrize("G,rho", [(10, 0.5), (100, 0.1), (3, 1.0)])
    def test_examples_pass(self, G, rho, p20):
        r = check_remainder_identity(G, rho, p20)
        assert r.passed and r.margin > 0


class TestGrossehilfsatz2:
    def test_monotone_and_final_bound(self):
        reports = check_grossehilfsatz2(10**4, [1e-2, 1e-3, 1e-4])
        assert all(r.passed for r in reports)

    def test_small_G(self):
        reports = check_grossehilfsatz2(10, [1e-3, 1e-4])
        final = next(r for r in reports if r.name == "grossehilfsatz2_final")
        assert final.passed

    def test_route_consistency(self):
        from mertens import special
        for G, rho in [(10**4, 1e-3), (100, 1e-2)]:
            a = special.log_weighted_tail_direct(G, rho)
            b = special.log_weighted_tail_boas(G, rho)
            assert abs(a.value - b.value) <= a.err_bound + b.err_bound

    def test_rejects_bad_rhos(self):
        with pytest.raises(ValueError):
            check_grossehilfsatz2(10**4, [1e-4, 1e-3])
        with pytest.raises(ValueError):
            check_grossehilfsatz2(10**4, [0.5])


class TestMertensProduct:
    def test_at_10_direct(self, p20):
        from mertens import special
        r = check_mertens_product(10, p20)
        expected = (
            -math.fsum(math.log1p(-1 / p) for p in (2, 3, 5, 7))
            - special.euler_gamma().value
            - math.log(math.log(10))
        )
        assert r.observed == pytest.approx(expected, abs=1e-14)
        assert r.passed

    @pytest.mark.parametrize("G", [3, 10, 2**20])
    def test_passes(self, G, p20):
        r = check_mertens_product(G, p20)
        assert r.passed and r.margin > 0

    @pytest.mark.parametrize("G", [3, 10, 2**20])
    def test_digits_are_one_fsum_of_math_log1p(self, G, p20):
        # np.log1p rounds 28 of the primes to 2^20 otherwise than math.log1p,
        # which moves the digits at G = 2^20
        terms = (-1.0 / p20[: p20.searchsorted(G, side="right")]).tolist()
        expected = (-math.fsum(map(math.log1p, terms))
                    - special.euler_gamma().value - math.log(math.log(G)))
        assert check_mertens_product(G, p20).observed == expected


class TestErrorTable:
    def test_rows_and_reports(self, small_series, bundle):
        rows, reports = mertens_error_table(small_series, bundle)
        assert [r.x for r in rows] == [2**16, 2**20]
        for row in rows:
            assert 0 < row.ratio < 1
            assert row.true_error == abs(row.signed_error)
        assert all(r.passed for r in reports)

    def test_dusart_upper_domain(self, small_series, bundle):
        _, reports = mertens_error_table(small_series, bundle)
        uppers = {r.params["x"] for r in reports if r.name == "dusart_upper"}
        assert uppers == {2**16, 2**20}  # only x >= 10372

    def test_mertens_delta_uses_floor_form(self, small_series, bundle):
        _, reports = mertens_error_table(small_series, bundle)
        r = report_by_x(
            [r for r in reports if r.name == "mertens_delta"], 2**16
        )
        assert r.bound == pytest.approx(
            4 / math.log(2**16 + 1) + 2 / (2**16 * math.log(2**16)), abs=1e-15
        )


class TestSuite:
    def test_run_suite_all_pass(self, small_series, bundle):
        reports, rows = verifier.run_suite(small_series, bundle)
        assert reports and all(r.passed for r in reports)
        assert rows

    def test_only_filter(self, small_series, bundle):
        reports, rows = verifier.run_suite(
            small_series, bundle, only=["grossehilfsatz1"]
        )
        assert {r.name for r in reports} == {"grossehilfsatz1"}
        assert rows == []

    @pytest.mark.parametrize("x_max", [2, 10, 100, 10**4, 2**20])
    def test_no_check_runs_twice(self, bundle, x_max):
        # the chi and product points at x_max may equal a fixed point
        series = list(accumulators.accumulate(x_max, [x_max]))
        reports, _ = verifier.run_suite(series, bundle)
        keys = [(r.name, repr(r.params)) for r in reports]
        assert len(keys) == len(set(keys))

    def test_unknown_check_rejected(self, small_series, bundle):
        with pytest.raises(ValueError):
            verifier.run_suite(small_series, bundle, only=["nope"])

    @pytest.fixture
    def sieves(self, monkeypatch):
        """The limits of the primes_up_to calls that verifier makes, weak
        references to the arrays they return, and its accumulate calls."""
        seen = {"limits": [], "arrays": [], "streams": []}
        real, stream = primes.primes_up_to, accumulators.accumulate

        def spy(n):
            p = real(n)
            # the base primes of the sieve itself are not the verifier's
            if sys._getframe(1).f_globals["__name__"] == verifier.__name__:
                seen["limits"].append(n)
                seen["arrays"].append(weakref.ref(p))
            return p

        def stream_spy(*args, **kwargs):
            seen["streams"].append(args)
            return stream(*args, **kwargs)

        monkeypatch.setattr(verifier.primes, "primes_up_to", spy)
        monkeypatch.setattr(verifier.accumulators, "accumulate", stream_spy)
        return seen

    def test_the_suite_sieves_once(self, small_series, bundle, sieves):
        reports, _ = verifier.run_suite(small_series, bundle,
                                        only=verifier.CHECK_NAMES)
        assert all(r.passed for r in reports)
        # abel and product reach 2^20; chi 10^6, legendre and remainder 10^4
        assert sieves["limits"] == [2**20]
        assert sieves["streams"] == []
        # the array is released when the suite returns
        assert [ref() for ref in sieves["arrays"]] == [None]

    def test_the_remainder_checks_sieve_to_10_4(self, small_series, bundle, sieves):
        verifier.run_suite(small_series, bundle, only=["remainder"])
        assert sieves["limits"] == [10**4]
        # no check that needs primes, so no sieve
        verifier.run_suite(small_series, bundle, only=["theta", "table"])
        assert sieves["limits"] == [10**4]

    def test_a_check_called_alone_sieves_nothing(self, small_series, p20, sieves):
        # each of the five reads the prefix of the array it is given
        assert check_chi_inequality(10**6, p20).passed
        assert check_legendre_factorial(10**4, p20).passed
        assert all(r.passed for r in check_abel_pi_identity(small_series, p20))
        assert check_remainder_identity(10**4, 1.0, p20).passed
        assert check_mertens_product(2**20, p20).passed
        assert sieves["limits"] == [] and sieves["streams"] == []


def test_the_remainder_checks_sum_at_most_2_10_terms_each(monkeypatch):
    # each check sums f directly only over G < n <= max(G, 2^10), and
    # evaluates f once more at that end for Euler-Maclaurin
    terms = []
    real = special._tail_f

    def counted(n, rho):
        terms.append(np.size(n))
        return real(n, rho)

    monkeypatch.setattr(special, "_tail_f", counted)
    reports, _ = verifier.run_suite([], None, only=["remainder"])
    assert len(reports) == 12
    assert sum(terms) <= 12 * 2**10 + 12
