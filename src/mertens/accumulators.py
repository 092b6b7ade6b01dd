"""Single-pass exact running sums over the primes, with checkpoints.

One sieve pass records pi(x), sum 1/p, sum ln(p)/p, and theta(x) at a
schedule of thresholds.  Each chunk of terms is summed by ``exact_sum``
into exact rational running sums, so a checkpoint depends only on x: not
on segment size, worker count, resume point or chunking.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import primes

# Refuse larger runs without an explicit override; keeps default runs at
# desk scale (minutes, constant memory).
MAX_DEFAULT_LIMIT = 1 << 34

FILE_HEADER = "mertens-checkpoints v1"
_FIELDS = (
    "x", "pi", "recip_sum", "recip_comp",
    "logp_over_p", "logp_comp", "theta", "theta_comp",
)


class BudgetError(ValueError):
    """Requested limit exceeds the configured compute budget."""


class CheckpointFormatError(ValueError):
    """Malformed checkpoint file; reports line number and field."""

    def __init__(self, line: int, field_name: str, message: str):
        self.line = line
        self.field = field_name
        super().__init__(f"line {line}, field {field_name!r}: {message}")


# Primes per block of a stream: a scratch holds one block, so the working
# set of a stream is a few MB at any segment size.
BLOCK = 1 << 16


class SumScratch:
    """Work arrays for ``exact_sum``, and ``rows`` of terms for a stream.

    A stream makes one scratch and passes it to every call, so the arrays
    are allocated, and their pages touched, once and not per chunk.  They
    grow to the largest input seen.
    """

    def __init__(self, size: int = 0, rows: int = 0):
        self.size = -1
        self._rows = rows
        self.fit(size)

    def fit(self, n: int) -> None:
        """Make room for ``n`` values."""
        if n > self.size:
            self.frac = np.empty(n, dtype=np.float64)
            self.exp = np.empty(n, dtype=np.int32)
            self.mant = np.empty(n, dtype=np.int64)
            self.run = np.empty(n, dtype=bool)
            self.rows = np.empty((self._rows, n), dtype=np.float64)
            self.size = n


def exact_sum(x: np.ndarray, scratch: SumScratch | None = None) -> Fraction:
    """The exact rational sum of a float64 array, in any order.

    Each value is split as x = m * 2^e with an integer |m| < 2^53.  The
    mantissas are summed in two int64 limbs, m = hi * 2^26 + lo, first over
    each run of equal exponents and then, run totals only, per exponent;
    neither step can overflow below 2^36 values.  The per-exponent totals
    are combined once in Python integers.  Monotone input, such as the
    terms of a prime sum, has a few runs; any other order has up to one run
    per value and is as exact.  Every array as long as ``x`` comes from
    ``scratch``, a fresh one when it is None.  Raises ValueError on NaN,
    infinity, or 2^36 values or more.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n >= 1 << 36:
        raise ValueError("exact_sum needs fewer than 2^36 values")
    if not n:
        return Fraction(0)
    if scratch is None:
        scratch = SumScratch()
    scratch.fit(n)
    frac, exp = scratch.frac[:n], scratch.exp[:n]
    mant, run = scratch.mant[:n], scratch.run[:n]
    if not np.isfinite(x, out=run).all():
        raise ValueError("exact_sum needs finite values")
    np.frexp(x, out=(frac, exp))
    np.multiply(frac, 2.0**53, out=mant, casting="unsafe")
    run[0] = True
    np.not_equal(exp[1:], exp[:-1], out=run[1:])
    starts = np.flatnonzero(run)
    key = exp[starts]
    base = min(int(key.min()), 0)
    key -= base
    hi = np.zeros(int(key.max()) + 1, dtype=np.int64)
    lo = np.zeros_like(hi)
    # the low limbs take the memory of frac, which mant has replaced
    low = frac.view(np.int64)
    np.bitwise_and(mant, (1 << 26) - 1, out=low)
    np.add.at(lo, key, np.add.reduceat(low, starts))
    mant >>= 26
    np.add.at(hi, key, np.add.reduceat(mant, starts))
    limbs = enumerate(zip(hi.tolist(), lo.tolist()))
    total = sum(((h << 26) + l) << k for k, (h, l) in limbs)
    return Fraction(total, 1 << (53 - base))


def _split(total: Fraction) -> tuple[float, float]:
    """The sum rounded once, and the residual: exact for every streamed sum."""
    head = float(total)
    return head, float(total - Fraction(head))


@dataclass(frozen=True)
class SumCheckpoint:
    """All four running prime sums at threshold x.

    Each real-valued sum is two floats: ``*_sum`` is the exact sum of the
    float64 terms rounded once and ``*_comp`` the exact residual, so e.g.
    ``Fraction(recip_sum) + Fraction(recip_comp)`` is the exact sum of 1/p.
    """

    x: int
    pi: int
    recip_sum: float
    recip_comp: float
    logp_over_p: float
    logp_comp: float
    theta: float
    theta_comp: float

    @property
    def recip(self) -> float:
        return self.recip_sum + self.recip_comp

    @property
    def logp(self) -> float:
        return self.logp_over_p + self.logp_comp

    @property
    def theta_value(self) -> float:
        return self.theta + self.theta_comp


@dataclass(frozen=True)
class CheckpointSeries:
    schedule: str
    checkpoints: list[SumCheckpoint] = field(default_factory=list)

    def __iter__(self):
        return iter(self.checkpoints)

    def __len__(self):
        return len(self.checkpoints)


def accumulate(
    n_max,
    schedule,
    segment_size=primes.DEFAULT_SEGMENT_SIZE,
    workers=1,
    force=False,
    _resume_from: SumCheckpoint | None = None,
) -> CheckpointSeries:
    """Stream primes once and checkpoint all four sums at each threshold.

    ``schedule`` is an ascending list of integer thresholds <= n_max.
    """
    n_max = int(n_max)
    schedule = [int(t) for t in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly ascending")
    if schedule and schedule[-1] > n_max:
        raise ValueError(f"schedule exceeds n_max={n_max}")
    if n_max > MAX_DEFAULT_LIMIT and not force:
        raise BudgetError(
            f"n_max={n_max} exceeds the desk-scale budget {MAX_DEFAULT_LIMIT}; "
            "pass force=True (CLI: --force) to override"
        )

    pi = 0
    # exact running sums of 1/p, ln(p)/p and ln p
    sums = [Fraction(0)] * 3
    start = 2
    if _resume_from is not None:
        cp = _resume_from
        pi = cp.pi
        sums = [
            Fraction(cp.recip_sum) + Fraction(cp.recip_comp),
            Fraction(cp.logp_over_p) + Fraction(cp.logp_comp),
            Fraction(cp.theta) + Fraction(cp.theta_comp),
        ]
        start = cp.x + 1
        schedule = [t for t in schedule if t > cp.x]

    out: list[SumCheckpoint] = []
    pending = list(schedule)
    scratch = SumScratch(BLOCK, rows=3)

    def record(x):
        out.append(SumCheckpoint(x, pi, *(v for s in sums for v in _split(s))))

    for seg in primes.iter_segments(
        n_max, segment_size=segment_size, workers=workers, start=start
    ):
        p_all = seg.primes()
        if start > seg.lo:
            p_all = p_all[p_all >= start]
        lo = 0
        # Split the segment at every threshold falling inside it so a
        # checkpoint sees exactly the primes <= its threshold.
        while pending and pending[0] < seg.hi:
            t = pending.pop(0)
            hi = int(np.searchsorted(p_all, t, side="right"))
            _consume(sums, p_all[lo:hi], scratch)
            pi += hi - lo
            lo = hi
            record(t)
        _consume(sums, p_all[lo:], scratch)
        pi += len(p_all) - lo
    while pending:
        record(pending.pop(0))

    return CheckpointSeries(
        schedule=",".join(str(c.x) for c in out), checkpoints=out
    )


def _consume(sums: list[Fraction], chunk: np.ndarray, scratch: SumScratch) -> None:
    """Add the exact sums of 1/p, ln(p)/p and ln p over ``chunk``."""
    for i in range(0, len(chunk), BLOCK):
        block = chunk[i : i + BLOCK]
        recip, logp_over_p, logp = scratch.rows[:, : len(block)]
        recip[...] = block
        np.log(recip, out=logp)
        np.divide(logp, recip, out=logp_over_p)
        np.divide(1.0, recip, out=recip)
        for j, terms in enumerate((recip, logp_over_p, logp)):
            sums[j] += exact_sum(terms, scratch)


def inverse_power_sums(n, powers) -> list[Fraction]:
    """The exact sum of p^-k over the primes p <= min(n, limit), for each
    (k, limit) in ``powers``, in one stream of the primes <= n.

    Like ``accumulate``, it holds one segment and one scratch at a time,
    so its memory does not grow with n.
    """
    sums = [Fraction(0)] * len(powers)
    scratch = SumScratch(BLOCK, rows=2)
    for seg in primes.iter_segments(n):
        chunk = seg.primes()
        for i in range(0, len(chunk), BLOCK):
            block = chunk[i : i + BLOCK]
            p, terms = scratch.rows[:, : len(block)]
            p[...] = block
            for j, (k, limit) in enumerate(powers):
                c = int(np.searchsorted(p, limit, side="right"))
                if c:
                    np.power(p[:c], -float(k), out=terms[:c])
                    sums[j] += exact_sum(terms[:c], scratch)
    return sums


def extend(series: CheckpointSeries, n_max, schedule, **kwargs) -> CheckpointSeries:
    """Extend a series to new thresholds without recomputing covered ones."""
    if not series.checkpoints:
        return accumulate(n_max, schedule, **kwargs)
    last = series.checkpoints[-1]
    new = [t for t in schedule if t > last.x]
    tail = accumulate(n_max, new, _resume_from=last, **kwargs)
    merged = series.checkpoints + tail.checkpoints
    return CheckpointSeries(
        schedule=",".join(str(c.x) for c in merged), checkpoints=merged
    )


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


def save_checkpoints(series: CheckpointSeries, path) -> None:
    with open_atomic(path) as fh:
        fh.write(FILE_HEADER + "\n")
        for c in series.checkpoints:
            row = [
                str(c.x), str(c.pi),
                _fmt(c.recip_sum), _fmt(c.recip_comp),
                _fmt(c.logp_over_p), _fmt(c.logp_comp),
                _fmt(c.theta), _fmt(c.theta_comp),
            ]
            fh.write(",".join(row) + "\n")


def load_checkpoints(path) -> CheckpointSeries:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FILE_HEADER:
        raise CheckpointFormatError(1, "header", f"expected {FILE_HEADER!r}")
    cps = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(_FIELDS):
            raise CheckpointFormatError(
                ln, _FIELDS[min(len(parts), len(_FIELDS) - 1)],
                f"expected {len(_FIELDS)} fields, got {len(parts)}",
            )
        vals = {}
        for name, raw in zip(_FIELDS, parts):
            try:
                vals[name] = int(raw) if name in ("x", "pi") else float(raw)
            except ValueError as exc:
                raise CheckpointFormatError(ln, name, str(exc)) from None
        cp = SumCheckpoint(**vals)
        _check_row(ln, cp, cps[-1] if cps else None)
        cps.append(cp)
    return CheckpointSeries(
        schedule=",".join(str(c.x) for c in cps), checkpoints=cps
    )


# The sums before the first prime, which every first row must reach.
_NO_PRIMES = SumCheckpoint(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _check_row(ln: int, cp: SumCheckpoint, prev: SumCheckpoint | None) -> None:
    """Raise CheckpointFormatError unless ``cp`` can follow row ``prev``."""
    for name in _FIELDS[2:]:
        if not math.isfinite(getattr(cp, name)):
            raise CheckpointFormatError(ln, name, "not a finite number")
    if not 0 <= cp.pi <= cp.x:
        raise CheckpointFormatError(ln, "pi", f"{cp.pi} is outside [0, x={cp.x}]")
    if prev is not None and cp.x <= prev.x:
        raise CheckpointFormatError(ln, "x", "thresholds must be strictly increasing")
    for name in ("pi", "recip_sum", "logp_over_p", "theta"):
        now, before = getattr(cp, name), getattr(prev or _NO_PRIMES, name)
        if now < before:
            raise CheckpointFormatError(
                ln, name, f"{now!r} decreases from {before!r} on the row before"
            )
    # every prime is >= 2, so theta >= pi ln 2; the slack covers rounding
    if cp.theta < cp.pi * math.log(2) * (1 - 1e-12):
        raise CheckpointFormatError(
            ln, "theta", f"{cp.theta!r} is below pi ln 2 for pi={cp.pi}"
        )
