"""Single-pass exact running sums over the primes, with checkpoints.

One sieve pass records pi(x), sum 1/p, sum ln(p)/p, and theta(x) at a
schedule of thresholds.  Each block of terms is summed by ``exact_sum``,
cut at the thresholds inside it, into exact integer running sums, so a
checkpoint depends only on x: not on segment size, resume point or
blocking.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from . import primes

# Refuse larger runs without an explicit override; keeps default runs at
# desk scale (minutes, constant memory).
MAX_DEFAULT_LIMIT = 1 << 34

FILE_HEADER = "mertens-checkpoints v1"


class BudgetError(ValueError):
    """Requested limit exceeds the configured compute budget."""


class CheckpointFormatError(ValueError):
    """Malformed checkpoint file; reports line number and field."""

    def __init__(self, line: int, field_name: str, message: str):
        self.line = line
        self.field = field_name
        super().__init__(f"line {line}, field {field_name!r}: {message}")


# Primes per block of a stream: a stream holds one block and one row of
# terms, about 2 MB at any segment size.  2^15 peaks about 1 MB lower, but
# has twice the blocks, and a block has a fixed cost of about 120 us (three
# kernel calls), which made a stream to 2^30 about 4 % slower.
BLOCK = 1 << 16

# The most cuts that one ``exact_sum`` call takes, and the most values that a
# list next to it holds: a piece's exact sum is a Python int of about 170
# bytes, so 2^16 cuts per call held about 32 MiB in three lists.  An exact
# sum does not depend on how its terms are split between calls.
CUTS = 1 << 12


# Every float64 is an integer multiple of 2^-1074, so the package keeps an
# exact sum of float64 values as a Python int counting that unit: adding
# two such sums needs no gcd, unlike adding rationals.
UNIT_BITS = 1074


def exact_sum(x: np.ndarray, ends) -> list[int]:
    """The exact sum of each piece x[e_{i-1}:e_i] (e_0 = 0) of a float64
    array, in one call, as a list of ints counting 2^-UNIT_BITS.  ``ends``
    is a non-decreasing sequence of piece ends in [0, len(x)]; an empty
    piece sums to 0, and values past the last end are not summed.

    Each value is read from its IEEE-754 bits: a sign, a biased exponent E
    and 52 mantissa bits m, worth ([E > 0] * 2^52 + m) * 2^(max(E, 1) - 1075).
    A run of at most 2^9 values with one sign and one E in one piece shares
    its top 12 bits k, so its raw bits' uint64 total, mod 2^64, less size *
    (k - [E > 0]) * 2^52 is exactly its total T = sum m + size * [E > 0] *
    2^52 < 2^62.  One sort groups the signed run totals by (piece, max(E,
    1)), and they are summed in two limbs, T = hi * 2^27 + lo: below 2^36
    values, sum lo < 2^36 * 2^27 = 2^63 and sum |hi| <= n * 2^26 + runs <
    2^62 + 2^36.  The Python combine visits only the groups present, and no
    array is as long as pieces times exponents.  Monotone input, such as the
    terms of a prime sum, has a few runs a piece besides one per 2^9 values;
    any other order has up to one run per value and is as exact.  A call
    takes 3 bytes a value, the int16 ``key`` and the bool ``run`` mask, and
    ``x`` is copied only if not a contiguous float64 array.  Raises
    ValueError on NaN, infinity, 2^36 values or more, or bad ends.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size >= 1 << 36:
        raise ValueError("exact_sum needs fewer than 2^36 values")
    cuts = np.asarray(ends, dtype=np.int64)
    if cuts.size and (cuts[0] < 0 or cuts[-1] > x.size
                      or (cuts[1:] < cuts[:-1]).any()):
        raise ValueError("ends must be non-decreasing, within [0, len(x)]")
    n = int(cuts[-1]) if cuts.size else 0
    sums = [0] * cuts.size
    if n:
        key, run = np.empty(n, dtype=np.int16), np.empty(n + 1, dtype=bool)
        bits = x[:n].view(np.uint64)
        # the sign and E, negative exactly when the sign bit is set; the cast
        # to int16 is buffered, so it makes no temporary as long as x
        np.right_shift(bits.view(np.int64), 52, out=key, casting="unsafe")
        # a run starts where the key changes, at each cut and at every
        # 2^9-th value, so no run spans two pieces; the last ends at n
        np.not_equal(key[1:], key[:-1], out=run[1:n])
        run[cuts] = True
        run[:: 1 << 9] = True
        bounds = np.flatnonzero(run)
        starts, size = bounds[:-1], np.diff(bounds)
        # every value shares its run's key, so the run keys cover them all
        k = key[starts].astype(np.int64)
        e = k & 0x7FF
        if e.max() == 0x7FF:
            raise ValueError("exact_sum needs finite values")
        total = (np.add.reduceat(bits, starts) - size.view(np.uint64)
                 * ((k - np.minimum(e, 1)).view(np.uint64) << 52)).view(np.int64)
        np.negative(total, out=total, where=k < 0)
        # sort the runs by (piece, exponent), so that the groups, and the
        # work and memory they take, follow the runs
        key = cuts.searchsorted(starts, side="right") << 11 | np.maximum(e, 1)
        order = key.argsort()
        key, total = key[order], total[order]
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        lo = np.add.reduceat(total & ((1 << 27) - 1), first)
        hi = np.add.reduceat(total >> 27, first)
        for k, h, l in zip(key[first].tolist(), hi.tolist(), lo.tolist()):
            sums[k >> 11] += ((h << 27) + l) << ((k & 0x7FF) - 1)
    return sums


def _units(v: float) -> int:
    """The float ``v`` as an exact count of 2^-UNIT_BITS."""
    num, den = v.as_integer_ratio()
    return num << (UNIT_BITS + 1 - den.bit_length())


def _round_once(total: int) -> float:
    """An exact sum ``total``, counting 2^-UNIT_BITS, rounded once: int / int
    rounds correctly in CPython."""
    return total / (1 << UNIT_BITS)


def _split(total: int) -> tuple[float, float]:
    """The sum rounded once, and the residual: exact for every streamed sum."""
    head = _round_once(total)
    return head, _round_once(total - _units(head))


class SumCheckpoint(NamedTuple):
    """All four running prime sums at threshold x.

    Each real-valued sum is two floats: ``*_sum`` is the exact sum of the
    float64 terms rounded once and ``*_comp`` the exact residual, so e.g.
    recip_sum + recip_comp, added exactly, is the exact sum of 1/p.
    """

    x: int
    pi: int
    recip_sum: float
    recip_comp: float
    logp_over_p: float
    logp_comp: float
    theta: float
    theta_comp: float


# The sums before the first prime: every first row follows them, and a
# fresh stream goes on from them.
_NO_PRIMES = SumCheckpoint(-1, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def check_budget(n_max: int, force: bool = False) -> None:
    """Raise BudgetError if a stream to ``n_max`` exceeds the desk-scale
    budget and ``force`` is not set.  The CLI calls it before it builds a
    schedule, whose length can grow with n_max."""
    if n_max > MAX_DEFAULT_LIMIT and not force:
        raise BudgetError(
            f"n_max={n_max} exceeds the desk-scale budget {MAX_DEFAULT_LIMIT}; "
            "pass force=True (CLI: sums/verify --force) to override"
        )


def accumulate(
    n_max,
    schedule,
    segment_size=primes.DEFAULT_SEGMENT_SIZE,
    force=False,
    rows: Iterable[SumCheckpoint] = (),
) -> Iterator[SumCheckpoint]:
    """Yield ``rows``, then all four sums at each threshold past the last
    of them, from one pass over the primes.

    ``schedule`` is an ascending sequence of integer thresholds <= n_max,
    taken as one int64 array and checked when the first row is asked for.
    ``rows``, such as a checkpoint file being resumed, are rows of this
    stream in order: the leading thresholds that are the x of a row are
    walked beside them, the rest must lie past the last row, and the sums
    go on from it, or from ``_NO_PRIMES`` when there is none.  The stream
    stops at its last threshold.  Each row is yielded as soon as the primes
    up to its threshold are summed, and none is kept, so the rows take no
    memory that grows with the schedule.  Each segment's primes are summed
    in passes over blocks of at most BLOCK of them, each pass one
    ``exact_sum`` call per sum, cut at up to CUTS thresholds inside the
    block, so a block with at most CUTS thresholds costs three calls however
    many it has, and no list of a pass is longer than CUTS + 1.
    """
    n_max = int(n_max)
    check_budget(n_max, force)
    schedule = np.asarray(schedule, dtype=np.int64)
    # in slices that overlap by one, so no temporary is as long as the schedule
    if any((s[1:] <= s[:-1]).any() for s in (
            schedule[k : k + CUTS + 1] for k in range(0, schedule.size, CUTS))):
        raise ValueError("schedule must be strictly ascending")
    if schedule.size and schedule[-1] > n_max:
        raise ValueError(f"schedule exceeds n_max={n_max}")

    i, last = 0, _NO_PRIMES  # i: the next threshold of the schedule to record
    for last in rows:
        if i < schedule.size and schedule[i] == last.x:
            i += 1
        yield last
    if last.x > n_max:
        raise ValueError(f"the last resumed row, x={last.x}, is past n_max={n_max}")
    if i < schedule.size and schedule[i] <= last.x:
        raise ValueError(f"threshold {schedule[i]} is at or below the last "
                         f"resumed row, x={last.x}, but no resumed row has it")
    pi = last.pi
    # exact running sums of 1/p, ln(p)/p and ln p, counting 2^-UNIT_BITS
    sums = [_units(last[k]) + _units(last[k + 1]) for k in (2, 4, 6)]

    floats, terms = np.empty((2, BLOCK), dtype=np.float64)

    def record(xs):
        """The rows at thresholds ``xs``, which all see the same primes."""
        vals = [v for s in sums for v in _split(s)] if len(xs) else []
        return [SumCheckpoint(x, pi, *vals) for x in xs.tolist()]

    # no row needs a prime past the last threshold, whatever n_max is
    top = int(schedule[-1]) if i < schedule.size else 0
    for seg in primes.iter_segments(top, segment_size, max(2, last.x + 1)):
        rest = seg.primes()
        while len(rest):
            # a pass takes the next block of at most BLOCK primes; the
            # thresholds below its last prime cut it, the others wait for
            # the next pass, and past CUTS of them, so do the primes after
            # the CUTS-th
            block = rest[:BLOCK]
            below = int(schedule[i : i + CUTS + 1].searchsorted(block[-1]))
            j = i + min(below, CUTS)
            seen = block.searchsorted(schedule[i:j], side="right")
            n = len(block) if below <= CUTS else int(seen[-1])
            # one cut for all the thresholds that see the same primes, the
            # last of them at i + last[k]; a cut at 0 sees none of the pass
            last = np.flatnonzero(np.diff(seen, append=n))
            ends = seen[last].tolist() + [n]
            bounds = (last + (i + 1)).tolist() + [j]
            # one float64 copy of the pass for the three ufuncs, one row of terms
            p, t = floats[:n], terms[:n]
            p[:] = block[:n]
            np.divide(1.0, p, out=t)
            recip = exact_sum(t, ends)
            np.log(p, out=t)
            logp = exact_sum(t, ends)
            np.divide(t, p, out=t)
            pieces = zip(ends, bounds, recip, exact_sum(t, ends), logp)
            pi0 = pi
            for e, b, *piece in pieces:
                sums = [s + d for s, d in zip(sums, piece)]
                pi = pi0 + e
                yield from record(schedule[i:b])
                i = b
            rest = rest[n:]
        # views that would keep the segment's primes through the next sieve
        rest = block = None
    yield from record(schedule[i:])


def range_sum(f, a: int, b: int) -> float:
    """The exact sum of f(n) over the integers a <= n <= b, rounded once.
    ``f`` maps float64 arrays of at most BLOCK consecutive integers to their
    terms; a call takes 3 bytes a value, so memory does not grow with b - a."""
    total = 0
    for lo in range(a, b + 1, BLOCK):
        n = np.arange(lo, min(lo + BLOCK, b + 1), dtype=np.float64)
        total += exact_sum(f(n), [len(n)])[0]
    return _round_once(total)


def _fmt(v: float) -> str:
    # 17 significant digits: binary64 round-trips exactly.
    return f"{v:.16E}"


@contextlib.contextmanager
def open_atomic(path):
    """Open ``path`` to write ASCII text that replaces it only on success.

    The text goes to a temporary file in the same directory, which is
    fsynced and then renamed over ``path``: after a crash or an error at
    any point, ``path`` holds either its old bytes or all of the new ones.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_checkpoints(rows: Iterable[SumCheckpoint], path, echo=None) -> int:
    """Write ``rows`` to a checkpoint file at ``path``, each as it arrives,
    and return how many there were; ``echo(row, fields)``, if given, gets
    each row and the strings of its line after x.  A row is formatted only
    when pi or a real differs, bit for bit, from the row before; a row that
    repeats them, as most rows of a dense schedule do, is written and
    echoed with the same strings.  ``path`` is replaced only once the last
    row is written: if anything raises, it keeps its old bytes."""
    n, key = 0, None
    with open_atomic(path) as fh:
        fh.write(FILE_HEADER + "\n")
        for n, c in enumerate(rows, 1):
            now = struct.pack("q6d", *c[1:])
            if now != key:
                key, fields = now, [str(c.pi), *map(_fmt, c[2:])]
                text = ",".join(fields)
            fh.write(f"{c.x},{text}\n")
            if echo:
                echo(c, fields)
    return n


def load_checkpoints(path) -> Iterator[SumCheckpoint]:
    """Yield the rows of the checkpoint file at ``path`` line by line, each once
    it is checked against the row before: a bad row raises when reached."""
    names = SumCheckpoint._fields
    # a non-ASCII byte reads as a surrogate, refused with its line and field
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        if fh.readline().rstrip("\n") != FILE_HEADER:
            raise CheckpointFormatError(1, "header", f"expected {FILE_HEADER!r}")
        prev = _NO_PRIMES
        for ln, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(names):
                raise CheckpointFormatError(
                    ln, names[min(len(parts), len(names) - 1)],
                    f"expected {len(names)} fields, got {len(parts)}",
                )
            try:
                for k, raw in enumerate(parts):
                    parts[k] = int(raw) if k < 2 else float(raw)
            except ValueError as exc:
                raise CheckpointFormatError(ln, names[k], str(exc)) from None
            cp = SumCheckpoint._make(parts)
            _check_row(ln, cp, prev)
            yield cp
            prev = cp


def _check_row(ln: int, cp: SumCheckpoint, prev: SumCheckpoint) -> None:
    """Raise CheckpointFormatError unless ``cp`` can follow row ``prev``."""
    names = SumCheckpoint._fields
    for k in range(2, 8):
        if not math.isfinite(cp[k]):
            raise CheckpointFormatError(ln, names[k], "not a finite number")
    if not 0 <= cp.pi <= cp.x:
        raise CheckpointFormatError(ln, "pi", f"{cp.pi} is outside [0, x={cp.x}]")
    if cp.x <= prev.x:
        raise CheckpointFormatError(ln, "x", "thresholds must be strictly increasing")
    for k in (1, 2, 4, 6):
        if cp[k] < prev[k]:
            raise CheckpointFormatError(
                ln, names[k], f"{cp[k]!r} decreases from {prev[k]!r} on the row before"
            )
    # every prime is >= 2, so theta >= pi ln 2; the slack covers rounding
    if cp.theta < cp.pi * math.log(2) * (1 - 1e-12):
        raise CheckpointFormatError(
            ln, "theta", f"{cp.theta!r} is below pi ln 2 for pi={cp.pi}"
        )
    # a residual within half an ulp of its sum, so that sum + residual
    # rounds to the sum, as for every row that write_checkpoints writes
    for k in (2, 4, 6):
        if cp[k] + cp[k + 1] != cp[k]:
            raise CheckpointFormatError(
                ln, names[k + 1], f"{cp[k + 1]!r} is over half an ulp of {names[k]}"
            )
