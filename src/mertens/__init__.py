"""Prime reciprocal sums, the Mertens constant, and explicit-bound checks."""

from .accumulators import (
    SumCheckpoint,
    accumulate,
    load_checkpoints,
    write_checkpoints,
)
from .constants import ConstantsBundle, H_direct, compute_B, compute_H
from .primes import moebius_up_to, primes_up_to
from .special import (
    EvaluatedReal,
    euler_gamma,
    exp_integral_e1,
    prime_zeta,
    zeta,
)
from .verifier import BoundReport, ErrorTableRow, mertens_error_table, run_suite

__all__ = [
    "BoundReport",
    "ConstantsBundle",
    "ErrorTableRow",
    "EvaluatedReal",
    "H_direct",
    "SumCheckpoint",
    "accumulate",
    "compute_B",
    "compute_H",
    "euler_gamma",
    "exp_integral_e1",
    "load_checkpoints",
    "mertens_error_table",
    "moebius_up_to",
    "prime_zeta",
    "primes_up_to",
    "run_suite",
    "write_checkpoints",
    "zeta",
]
