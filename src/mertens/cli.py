"""Command-line surface: run sieves, compute constants, verify bounds.

Exit codes: 0 all pass, 1 a bound check failed, 2 usage or I/O error.
Identical configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

import numpy as np

from . import accumulators, constants, verifier
from .accumulators import BudgetError, CheckpointFormatError, _fmt

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_USAGE = 2

OUTPUT_DIR_ENV = "MERTENS_OUT_DIR"

POW2_FIRST = 16
# The most thresholds a schedule may have.  sums streams its rows and holds 8
# bytes a threshold, but verify holds a row and its reports, about 0.9 kB a
# threshold: verify --only theta to 2^14, 2^16 and 2^18, every 1, peaked at
# 39.0, 75.1 and 251.0 MB; 2^20 thresholds would take about 1 GB.
MAX_CHECKPOINTS = 1 << 20
# --workers is accepted so that existing command lines keep working.  It has
# no effect until the process pool of ROADMAP item 8 lands.
MAX_WORKERS = 64
WORKERS_HELP = (f"an integer in [1, {MAX_WORKERS}], accepted for existing "
                "command lines; no effect until ROADMAP item 8 lands")


class UsageError(Exception):
    pass


def parse_scale(text: str) -> int:
    """Accept an integer in [1, 2^63) in plain, a^b, or 1e6 notation."""
    text = text.strip()
    try:
        if "^" in text:
            base, exp = (int(t) for t in text.split("^"))
            # a >= 2 reaches 2^63 by b = 63: never compute a larger a^b
            in_range = base >= 0 and exp >= 0 and (base <= 1 or exp < 63)
            value = base ** exp if in_range else None
        elif "e" in text.lower() or "." in text:
            v = float(text)
            value = int(v) if v.is_integer() else v
        else:
            value = int(text)
    except ValueError:
        raise UsageError(f"cannot parse integer scale {text!r}") from None
    if not (isinstance(value, int) and 1 <= value < 2**63):
        raise UsageError(f"scale {text!r} is not an integer in [1, 2^63)")
    return value


def _checked_at_parse_time(check):
    """An argparse type that calls ``check`` on the text and reports its
    UsageError or ValueError as argparse's own error, which exits 2."""
    def parse(text: str):
        try:
            return check(text)
        except (UsageError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _check_workers(workers: int) -> int:
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(
            f"workers must be an integer in [1, {MAX_WORKERS}], got {workers}")
    return workers


# Both are checked at parse time: a bad --workers exits 2 before any sieve,
# and a bad --prime-limit, with or without --oracle, before compute_B.
parse_workers = _checked_at_parse_time(lambda t: _check_workers(int(t)))
parse_prime_limit = _checked_at_parse_time(
    lambda t: constants.check_prime_limit(parse_scale(t)))


def parse_schedule(spec: str, n_max: int) -> np.ndarray:
    """Schedule mini-language: 'pow2', comma list, or 'a..b:step'.
    Returns the thresholds as one int64 array."""
    spec = spec.strip()
    if spec == "pow2":
        # 2^16 .. 2^floor(log2 n_max)
        ts = [1 << k for k in range(POW2_FIRST, n_max.bit_length())]
        return np.array(ts or [n_max], dtype=np.int64)
    if ".." in spec:
        head, _, step_s = spec.partition(":")
        a_s, _, b_s = head.partition("..")
        if not step_s:
            raise UsageError("range schedule needs a..b:step")
        a, b, step = parse_scale(a_s), parse_scale(b_s), parse_scale(step_s)
        if b < a:
            raise UsageError(f"bad range schedule {spec!r}")
        # refused before the array is built, which could be any length
        if b - (b - a) % step > n_max:
            raise UsageError(f"schedule {spec!r} exceeds --max {n_max}")
        ts = range(a, b + 1, step)  # its len is (b - a) // step + 1
    else:
        ts = [parse_scale(tok) for tok in spec.split(",") if tok.strip()]
        if not ts:
            raise UsageError(f"schedule {spec!r} has no thresholds")
    if len(ts) > MAX_CHECKPOINTS:
        raise UsageError(f"schedule has {len(ts)} thresholds, over {MAX_CHECKPOINTS}")
    if isinstance(ts, range):
        # not through a list, whose 2^20 ints would take some 40 MB
        return np.arange(ts.start, ts.stop, ts.step, dtype=np.int64)
    return np.array(ts, dtype=np.int64)


def _out_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def cmd_sums(args) -> int:
    n_max = parse_scale(args.max)
    # before the schedule, whose length can grow with --max
    accumulators.check_budget(n_max, args.force)
    schedule = parse_schedule(args.schedule, n_max)
    path = _out_path(args.checkpoints)
    old = accumulators.load_checkpoints(path) \
        if args.resume and os.path.exists(path) else []
    # each row goes to the file as it is read or sieved, and to stdout from
    # its file columns after x: pi and the three *_sum at 0, 1, 3 and 5
    rows = accumulators.extend(old, n_max, schedule, force=args.force)
    n = accumulators.write_checkpoints(rows, path, echo=lambda cp, f: print(
        f"x={cp.x} pi={f[0]} recip={f[1]} logp_over_p={f[3]} theta={f[5]}"))
    print(f"wrote {n} checkpoints to {path}")
    return EXIT_OK


def cmd_constants(args) -> int:
    bundle = constants.compute_B(args.tol)
    doc = bundle.to_json_dict()
    if args.oracle:
        direct = constants.H_direct(args.prime_limit)
        doc["H_direct"] = {"value": direct.value, "err_bound": direct.err_bound}
        doc["H_agreement"] = abs(direct.value - bundle.H.value)
        doc["H_agreement_bound"] = direct.err_bound + bundle.H.err_bound
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_OK


def _series_for_verify(args):
    # the checks read the rows more than once
    if args.checkpoints and os.path.exists(_out_path(args.checkpoints)) \
            and not args.max:
        return list(accumulators.load_checkpoints(_out_path(args.checkpoints)))
    if not args.max:
        raise UsageError("verify needs --max or an existing --checkpoints file")
    n_max = parse_scale(args.max)
    accumulators.check_budget(n_max, args.force)
    schedule = parse_schedule(args.schedule, n_max)
    rows = list(accumulators.accumulate(n_max, schedule, force=args.force))
    if args.checkpoints:
        accumulators.write_checkpoints(rows, _out_path(args.checkpoints))
    return rows


def _report_lines(reports, rows):
    """Yield the report's lines one at a time: the rows, if any, then each
    report, then the count of checks run and failed."""
    if rows:
        yield "x,true_error,schoenfeld_bound,ratio,signed_error"
        for r in rows:
            yield ",".join([str(r.x), *map(_fmt, r[1:])])
    for rep in reports:
        params = " ".join(f"{k}={v}" for k, v in sorted(rep.params.items()))
        yield (f"{'PASS' if rep.passed else 'FAIL'} {rep.name} {params} "
               f"observed={_fmt(rep.observed)} bound={_fmt(rep.bound)} "
               f"margin={_fmt(rep.margin)}")
    n_fail = sum(not r.passed for r in reports)
    yield f"checks: {len(reports)} run, {n_fail} failed"


def cmd_verify(args) -> int:
    # compute_B checks --tol, so a bad value fails before any sieving
    bundle = constants.compute_B(args.tol)
    series = _series_for_verify(args)
    only = args.only.split(",") if args.only else None
    reports, rows = verifier.run_suite(series, bundle, only=only)
    if not reports:
        raise UsageError("no check applies to these thresholds")
    # each line goes to stdout and to the report as it is formatted; the
    # report replaces its old bytes only once the last line is written
    with accumulators.open_atomic(_out_path(args.report)) if args.report \
            else contextlib.nullcontext() as fh:
        for line in _report_lines(reports, rows if args.wolf_table else []):
            print(line)
            if fh:
                print(line, file=fh)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_BOUND_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mertens",
        description="Prime reciprocal sums, the Mertens constant, and "
                    "explicit-bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sums", help="sieve and record checkpointed prime sums")
    p.add_argument("--max", required=True, help="upper limit (e.g. 2^20, 1e6)")
    p.add_argument("--schedule", default="pow2")
    p.add_argument("--checkpoints", default="checkpoints.csv")
    p.add_argument("--workers", type=parse_workers, default=1,
                   help=WORKERS_HELP)
    p.add_argument("--force", action="store_true",
                   help="allow limits beyond the desk-scale budget")
    p.add_argument("--resume", action="store_true",
                   help="extend an existing checkpoint file")
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("constants", help="compute gamma, H, and B with ledger")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--oracle", action="store_true",
                   help="include the direct prime-power oracle for H")
    p.add_argument("--prime-limit", type=parse_prime_limit, default="1e7")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify", help="run the bound/identity suite")
    p.add_argument("--max", help="upper limit (e.g. 2^20)")
    p.add_argument("--schedule", default="pow2")
    p.add_argument("--checkpoints", help="checkpoint file to load or write")
    p.add_argument("--report", help="write the report to this file too")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--only", help="comma list of checks "
                   f"({','.join(verifier.CHECK_NAMES)})")
    p.add_argument("--wolf-table", action="store_true")
    p.add_argument("--workers", type=parse_workers, default=1,
                   help=WORKERS_HELP)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # Move the import heap to the permanent generation, so that neither the
    # collections of this run nor those at interpreter exit scan it again.
    # Here and not at import, so importing mertens leaves gc as it was.
    gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, BudgetError, CheckpointFormatError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
