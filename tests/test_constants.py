import math

import pytest

from mertens import accumulators, constants, floorsums, primes
from mertens.constants import H_direct, compute_B, compute_H


def test_H_eleven_digits():
    H, _, _ = compute_H(1e-12)
    assert H.value == pytest.approx(0.31571845205, abs=5e-11)


def test_first_ledger_term_is_half_log_zeta2():
    _, ledger, _ = compute_H(1e-12)
    n, mu, term = ledger[0]
    assert (n, mu) == (2, -1)
    assert term == pytest.approx(0.2488501512353727, abs=1e-12)


def test_ledger_sign_pattern():
    _, ledger, _ = compute_H(1e-12)
    signs = {n: math.copysign(1, term) for n, _, term in ledger}
    assert [signs[n] for n in (2, 3, 5, 6, 7, 10)] == [1, 1, 1, -1, 1, -1]


def test_ledger_only_squarefree():
    _, ledger, _ = compute_H(1e-12)
    ns = [n for n, _, _ in ledger]
    assert 4 not in ns and 8 not in ns and 9 not in ns and 12 not in ns
    assert all(mu in (-1, 1) for _, mu, _ in ledger)


def test_ledger_sums_to_H_within_tail():
    H, ledger, tail = compute_H(1e-12)
    assert abs(math.fsum(t for _, _, t in ledger) - H.value) <= tail


def test_first_omitted_term_below_tail_bound():
    from mertens import special
    _, ledger, tail = compute_H(1e-10)
    n_next = ledger[-1][0] + 1
    omitted = special.log_zeta(n_next).value / n_next
    assert omitted < tail


def test_B_value_and_consistency():
    bundle = compute_B(1e-12)
    assert bundle.B.value == pytest.approx(0.2614972128, abs=5e-11)
    assert bundle.gamma.value - bundle.H.value - bundle.B.value == 0.0


def test_B_within_its_own_bound_of_mpmath():
    # no rounding allowance: gamma's bound covers its one rounding, and at
    # the 10^6-term float formula B was 1.26e-15 off against 2.90e-16
    mpmath = pytest.importorskip("mpmath")
    B = compute_B(1e-15).B
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(B.value) - mpmath.mertens) <= B.err_bound


def test_tol_validation():
    for bad in (1e-16, 1e-2, 0.5):
        with pytest.raises(ValueError):
            compute_H(bad)
        with pytest.raises(ValueError):
            compute_B(bad)


def test_H_direct_agreement_loose():
    d = H_direct(10**3)
    H, _, _ = compute_H(1e-12)
    assert abs(d.value - H.value) < 2e-3


def test_H_direct_monotone_from_below():
    H, _, _ = compute_H(1e-12)
    d4 = H_direct(10**4).value
    d5 = H_direct(10**5).value
    assert d4 < d5 < H.value


def test_H_direct_agreement_at_1e7():
    d = H_direct(10**7)
    H, _, _ = compute_H(1e-12)
    assert abs(d.value - H.value) < 2e-7


def test_H_direct_lies_within_its_bound_of_the_sum_over_all_primes():
    # the oracle as it was when it sieved: every prime in one array and one
    # exact sum of the float64 terms fl(p^-k) per k, which differs from the
    # real sum by at most 2^-53 of it
    limit = 3 * 10**6
    p = primes.primes_up_to(limit).tolist()
    parts, bound = [], 0.0
    for k in range(2, 60):
        c = limit if k == 2 else min(limit, int(10.0 ** (18.0 / k)))
        terms = [1 / q**k for q in p if q <= c]
        # the exact sum, rounded once: int / int rounds correctly
        sieved = accumulators.exact_sum(terms, [len(terms)])[0] / 2**accumulators.UNIT_BITS
        total = floorsums.prime_power_sum(k, c)
        assert abs(total.value - sieved) <= total.err_bound + 2**-53 * sieved
        parts.append(sieved / k)
        bound += total.err_bound / k
    H = math.fsum(parts)
    # the recursion's bounds, then 2^-53 H for the terms fl(p^-k), and as
    # much for each /k and each fsum, on either side
    assert bound < 1e-15
    assert abs(H_direct(limit).value - H) <= bound + 5 * 2**-53 * H


def test_H_direct_runs_to_its_limit_for_k_2():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    H = mpmath.euler - mpmath.mertens
    d30, d34 = H_direct(2**30), H_direct(2**34)
    # the primes past 10^9 move H_direct by about 2e-11
    assert d30.value != d34.value
    assert abs(mpmath.mpf(d34.value) - H) <= d34.err_bound < 3e-11
    assert abs(mpmath.mpf(d30.value) - H) <= d30.err_bound


def test_H_direct_needs_no_sieve(monkeypatch):
    def fail(*args):
        raise AssertionError("a segment was sieved")

    # the series sieves for its Moebius values
    H, _, _ = compute_H(1e-15)
    monkeypatch.setattr(primes, "_sieve_segment", fail)
    d = H_direct(10**8)
    assert abs(d.value - H.value) <= d.err_bound + H.err_bound


def test_H_direct_rejects_small_limit():
    with pytest.raises(ValueError):
        H_direct(100)


def test_H_direct_refuses_a_limit_over_budget_before_sieving(monkeypatch):
    def fail(*args):
        raise AssertionError("a segment was sieved")

    monkeypatch.setattr(primes, "_sieve_segment", fail)
    with pytest.raises(accumulators.BudgetError):
        H_direct(accumulators.MAX_DEFAULT_LIMIT + 1)


def test_json_dict_shape():
    doc = compute_B(1e-10).to_json_dict()
    assert doc["schema"] == "mertens-constants v1"
    assert set(doc) >= {"gamma", "H", "B", "term_ledger", "tail_bound"}
    assert doc["term_ledger"][0][0] == 2
