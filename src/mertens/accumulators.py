"""Single-pass compensated running sums over the primes, with checkpoints.

One sieve pass records pi(x), sum 1/p, sum ln(p)/p, and theta(x) at a
schedule of thresholds.  Per-chunk sums are exact (math.fsum); chunk
totals feed a Neumaier accumulator whose carry term is preserved in the
checkpoint file, so save/load round-trips are value-identical and runs
are bit-identical for any worker count (the reduction is always in
ascending prime order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


class Neumaier:
    """Compensated accumulator: running sum plus rounding carry."""

    __slots__ = ("total", "comp")

    def __init__(self, total=0.0, comp=0.0):
        self.total = total
        self.comp = comp

    def add(self, value: float) -> None:
        t = self.total + value
        if abs(self.total) >= abs(value):
            self.comp += (self.total - t) + value
        else:
            self.comp += (value - t) + self.total
        self.total = t

    @property
    def value(self) -> float:
        return self.total + self.comp


@dataclass(frozen=True)
class SumCheckpoint:
    """All four running prime sums at threshold x.

    Real-valued sums carry their compensation term; the checked value of
    e.g. sum 1/p is ``recip_sum + recip_comp``.
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


def _chunk_add(acc: Neumaier, values: np.ndarray) -> None:
    acc.add(math.fsum(values.tolist()))


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
    recip, logp, theta = Neumaier(), Neumaier(), Neumaier()
    start = 2
    if _resume_from is not None:
        cp = _resume_from
        pi = cp.pi
        recip = Neumaier(cp.recip_sum, cp.recip_comp)
        logp = Neumaier(cp.logp_over_p, cp.logp_comp)
        theta = Neumaier(cp.theta, cp.theta_comp)
        start = cp.x + 1
        schedule = [t for t in schedule if t > cp.x]

    out: list[SumCheckpoint] = []
    pending = list(schedule)

    def record(x):
        out.append(SumCheckpoint(
            x=x, pi=pi,
            recip_sum=recip.total, recip_comp=recip.comp,
            logp_over_p=logp.total, logp_comp=logp.comp,
            theta=theta.total, theta_comp=theta.comp,
        ))

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
            _consume(p_all[lo:hi], recip, logp, theta)
            pi += hi - lo
            lo = hi
            record(t)
        _consume(p_all[lo:], recip, logp, theta)
        pi += len(p_all) - lo
    while pending:
        record(pending.pop(0))

    return CheckpointSeries(
        schedule=",".join(str(c.x) for c in out), checkpoints=out
    )


def _consume(chunk: np.ndarray, recip, logp, theta) -> None:
    if len(chunk) == 0:
        return
    p = chunk.astype(np.float64)
    logs = np.log(p)
    _chunk_add(recip, 1.0 / p)
    _chunk_add(logp, logs / p)
    _chunk_add(theta, logs)


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


def save_checkpoints(series: CheckpointSeries, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
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
        cps.append(SumCheckpoint(**vals))
    for a, b in zip(cps, cps[1:]):
        if b.x <= a.x:
            raise CheckpointFormatError(
                2 + cps.index(b), "x", "thresholds must be strictly increasing"
            )
    return CheckpointSeries(
        schedule=",".join(str(c.x) for c in cps), checkpoints=cps
    )
