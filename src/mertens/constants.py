"""The constants gamma, H, and B = gamma - H.

H is computed by the rapidly convergent Moebius-weighted series over
ln zeta(n)/n, with a per-term ledger and a rigorous geometric tail
bound.  H_direct is the independent oracle: the double sum over prime
powers, sieve-free, bounded for its rounding and every omitted term.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import accumulators, floorsums, primes, special
from .special import EvaluatedReal

TOL_MIN = 1e-15
TOL_MAX = 1e-3


@dataclass(frozen=True)
class ConstantsBundle:
    gamma: EvaluatedReal
    H: EvaluatedReal
    B: EvaluatedReal
    # ordered (n, mu(n), contribution of -mu(n) ln zeta(n)/n to H)
    term_ledger: list[tuple[int, int, float]]
    tail_bound: float

    def to_json_dict(self) -> dict:
        return {"schema": "mertens-constants v1", **asdict(self)}


def _series_cutoff(tol: float) -> int:
    # ln zeta(n) < zeta(n) - 1 < 2^(1-n); the tail past n_max is below
    # sum_{n>n_max} 2^(1-n)/n < 2^(2-n_max)/(n_max+1).
    n = 2
    while 2.0 ** (2 - n) / (n + 1) >= tol / 2:
        n += 1
    return n


def compute_H(tol: float):
    """H = -sum_{n>=2} mu(n) ln zeta(n)/n with ledger and tail bound.

    Returns (EvaluatedReal, ledger, tail_bound); the sign convention
    keeps H positive, so the n=2 ledger entry is +ln(zeta(2))/2.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must be in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    n_max = _series_cutoff(tol)
    mu = primes.moebius_up_to(n_max)
    ledger = []
    zeta_err = 0.0
    for n in range(2, n_max + 1):
        m = mu[n]
        if m == 0:
            continue
        lz = special.log_zeta(n)
        ledger.append((n, m, -m * lz.value / n))
        zeta_err += lz.err_bound / n
    tail_bound = 2.0 ** (2 - n_max) / (n_max + 1)
    value = math.fsum(t for _, _, t in ledger)
    return EvaluatedReal(value, tail_bound + zeta_err), ledger, tail_bound


def compute_B(tol: float) -> ConstantsBundle:
    """B = gamma - H, bundled with the H ledger and combined error bound."""
    H, ledger, tail_bound = compute_H(tol)
    gamma = special.euler_gamma()
    B = EvaluatedReal(gamma.value - H.value, gamma.err_bound + H.err_bound)
    return ConstantsBundle(
        gamma=gamma, H=H, B=B, term_ledger=ledger, tail_bound=tail_bound
    )


def check_prime_limit(prime_limit: int) -> int:
    """``prime_limit`` if ``H_direct`` takes it; else ValueError, or
    BudgetError past the desk-scale budget."""
    if prime_limit < 10**3:
        raise ValueError(f"prime_limit must be >= 1000, got {prime_limit}")
    if prime_limit > accumulators.MAX_DEFAULT_LIMIT:
        raise accumulators.BudgetError(
            f"prime_limit={prime_limit} exceeds the desk-scale budget "
            f"{accumulators.MAX_DEFAULT_LIMIT}")
    return prime_limit


def H_direct(prime_limit: int) -> EvaluatedReal:
    """Oracle for H: sum_{k >= 2} (1/k) sum_{p <= c_k} p^-k, each prime sum
    from ``floorsums.prime_power_sum``, with no sieve; c_2 = prime_limit, and
    c_k = min(prime_limit, 10^(18/k)), where p^-k < 10^-18, until c_k < 2 at
    k = 60.  The bound adds to the sums' own bounds every term left out: the
    primes past each c_k, sum_{n > c} n^-k / k <= c^(1-k) / (k (k-1)); all
    k >= 60, 2^(2-k) / k for k = 60, as sum_{n >= 2} n^-k <= 2^(1-k); and
    u = 2^-53 of H for the divisions by k and as much for the fsum."""
    check_prime_limit(prime_limit)
    parts, err = [], []
    k = 2
    while (cutoff := 10.0 ** (18.0 / k)) >= 2.0:
        c = prime_limit if k == 2 else min(prime_limit, int(cutoff))
        total = floorsums.prime_power_sum(k, c)
        parts.append(total.value / k)
        err += [total.err_bound / k, 1 / (c ** (k - 1) * k * (k - 1))]
        k += 1
    value = math.fsum(parts)
    err += [2.0 ** (2 - k) / k, 2 * floorsums.U * value]
    return EvaluatedReal(value, math.fsum(err) * floorsums.SLACK)
