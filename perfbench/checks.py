"""Output checks for the benchmark's CLI invocations.

Each check returns a list of error strings; an empty list means the
output is correct.  Values are compared with the reference files under
``reference/`` (written by make_reference.py) and with OEIS A007053.
Sums are compared within a relative tolerance, never bytewise, so that a
change that moves the last ulp of a sum still passes.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SUMS_REFERENCE = os.path.join(HERE, "reference", "sums.csv.gz")
ANALYSIS_REFERENCE = os.path.join(HERE, "reference", "analysis.json")

# mertens.special.ROUNDING_ALLOWANCE at the commit that defined the
# benchmark; fixed here so that the check does not move with the program.
ROUNDING_ALLOWANCE = 1e-13

CHECKPOINT_HEADER = "mertens-checkpoints v1"

# OEIS A007053: pi(2^k), the number of primes <= 2^k.
A007053 = {
    16: 6542, 17: 12251, 18: 23000, 19: 43390, 20: 82025, 21: 155611,
    22: 295947, 23: 564163, 24: 1077871, 25: 2063689, 26: 3957809,
    27: 7603553, 28: 14630843, 29: 28192750, 30: 54400028,
}


def load_sums_reference(path=SUMS_REFERENCE) -> dict[int, tuple]:
    """x -> (pi, sum 1/p, sum ln p / p, theta) at this commit."""
    with gzip.open(path, "rt", encoding="ascii") as fh:
        rows = csv.reader(fh)
        next(rows)
        return {
            int(x): (int(pi), float(r), float(l), float(t))
            for x, pi, r, l, t in rows
        }


def load_analysis_reference(path=ANALYSIS_REFERENCE) -> dict:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def read_checkpoints(path) -> tuple[list[str], list[tuple]]:
    """The file's lines and its rows as (x, pi, recip, logp, theta).

    Each sum is the value the package checks: the sum plus its carry.
    """
    with open(path, encoding="ascii", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"{path}: missing header {CHECKPOINT_HEADER!r}")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 8:
            raise ValueError(f"{path}: expected 8 fields in {line!r}")
        rows.append((
            int(f[0]), int(f[1]),
            float(f[2]) + float(f[3]),
            float(f[4]) + float(f[5]),
            float(f[6]) + float(f[7]),
        ))
    return lines, rows


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= ROUNDING_ALLOWANCE * abs(ref)


def check_rows(rows, expected_xs, reference) -> list[str]:
    """Row thresholds, exact pi, A007053 at powers of two, and the sums."""
    errors = []
    xs = [r[0] for r in rows]
    if xs != list(expected_xs):
        return [f"thresholds differ: {len(xs)} rows, expected {len(expected_xs)}"]
    for x, pi, *sums in rows:
        ref_pi, *ref_sums = reference[x]
        k = x.bit_length() - 1
        if x == 1 << k and k in A007053 and pi != A007053[k]:
            errors.append(f"pi(2^{k}) = {pi}, A007053 gives {A007053[k]}")
        if pi != ref_pi:
            errors.append(f"pi({x}) = {pi}, reference {ref_pi}")
        for label, v, ref in zip(("recip", "logp_over_p", "theta"), sums, ref_sums):
            if not _close(v, ref):
                errors.append(f"{label}({x}) = {v!r}, reference {ref!r}")
    return errors


def check_sums_output(stdout: str, n_rows: int, path: str) -> list[str]:
    lines = stdout.splitlines()
    want = f"wrote {n_rows} checkpoints to {path}"
    if len(lines) != n_rows + 1 or lines[-1] != want:
        return [f"stdout: expected {n_rows} rows and {want!r}"]
    return []


def check_constants_output(stdout: str, reference: dict) -> list[str]:
    """B against mpmath.mertens, and H against its direct oracle."""
    try:
        doc = json.loads(stdout)
        B, B_err = doc["B"]["value"], doc["B"]["err_bound"]
        agreement, agreement_bound = doc["H_agreement"], doc["H_agreement_bound"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"constants output unreadable: {exc!r}"]
    errors = []
    B_ref = float(reference["mpmath_mertens"])
    # err_bound alone excludes binary64 rounding, so add the allowance.
    if not abs(B - B_ref) <= B_err + ROUNDING_ALLOWANCE * abs(B_ref):
        errors.append(f"B = {B!r} is {abs(B - B_ref):.3g} from mpmath.mertens")
    if not agreement <= agreement_bound:
        errors.append(f"H_agreement {agreement!r} > bound {agreement_bound!r}")
    return errors


def parse_report(text: str) -> tuple[list[int], list[list[str]], str]:
    """Table thresholds, (verdict, name, params) per check, and last line."""
    table_xs, checks = [], []
    lines = text.splitlines()
    for line in lines[:-1]:
        if line.startswith(("PASS ", "FAIL ")):
            # "<verdict> <name> <params> observed=...": params may be empty.
            checks.append(line.split(" observed=", 1)[0].split(" ", 2))
        elif line[:1].isdigit():
            table_xs.append(int(line.split(",", 1)[0]))
    return table_xs, checks, lines[-1] if lines else ""


def check_verify_output(stdout: str, report_path: str, reference: dict) -> list[str]:
    errors = []
    if not os.path.exists(report_path):
        errors.append("report file missing")
    else:
        with open(report_path, encoding="ascii", newline="") as fh:
            if fh.read() != stdout:
                errors.append("report file differs from stdout")
    table_xs, checks, last = parse_report(stdout)
    if table_xs != reference["table_xs"]:
        errors.append(f"table thresholds {table_xs} != reference")
    if [c[1:] for c in checks] != reference["checks"]:
        errors.append("check names or params differ from the reference")
    failed = [c[1] for c in checks if c[0] != "PASS"]
    if failed:
        errors.append(f"checks failed: {sorted(set(failed))}")
    want = f"checks: {len(reference['checks'])} run, 0 failed"
    if last != want:
        errors.append(f"last line {last!r}, expected {want!r}")
    return errors
