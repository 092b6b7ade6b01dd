"""Spans around the public functions of the mertens modules, from outside.

``install()`` replaces every public function of ``primes``,
``accumulators``, ``special``, ``constants``, ``verifier`` and ``cli`` (and
the method ``PrimeSegment.primes``) by a wrapper that records a span.  The
modules call each other through module attributes and module globals, so
the wrappers see the calls between layers as well as the calls from the
CLI.  Nothing inside the package is edited.

A span is ``[name, start, end, parent, busy]``: ``parent`` is the index of
the span that was running when this one began (or -1), and ``busy`` is the
time spent inside it.  For an ordinary call ``busy == end - start``.  A
generator (``iter_segments``, ``primes_up_to``) gets one span whose
``busy`` sums the time spent inside its ``next()`` calls, so the time its
consumer spends between two items is not counted.  A span's self time is
its ``busy`` minus the ``busy`` of its direct children; the spans of one
thread nest, so the children never overlap.

Spans are kept in memory and written, with the counters, when the
process ends.  ``layer_metrics`` turns one such dump into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from collections import Counter

MODULES = ("primes", "accumulators", "special", "constants", "verifier", "cli")

# CHECK_NAMES of mertens.verifier, each with the function that runs it.
CHECK_FUNCTIONS = {
    "grossehilfsatz1": "check_grossehilfsatz1",
    "theta": "check_theta",
    "chi": "check_chi_inequality",
    "stirling": "check_stirling",
    "legendre": "check_legendre_factorial",
    "abel": "check_abel_pi_identity",
    "remainder": "check_remainder_identity",
    "grossehilfsatz2": "check_grossehilfsatz2",
    "product": "check_mertens_product",
    "table": "mertens_error_table",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        # Highest integer whose primes this process has already extracted.
        self._covered = 0

    def _open(self, name: str) -> int:
        self.spans.append([name, None, None, self._stack[-1] if self._stack else -1, 0.0])
        return len(self.spans) - 1

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name, fn, on_result=None):
        """Wrap a plain function; ``on_result(args, kwargs, result)`` counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Spans nest only within one thread; record the main thread's.
            if threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            idx = self._open(name)
            span = self.spans[idx]
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[4] = span[2] - span[1]
                self._stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn, on_start=None, on_item=None):
        """Wrap a generator function; one span accrues each ``next()``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if on_start is not None:
                on_start()
            return self._drive(idx, fn(*args, **kwargs), on_item)

        return wrapper

    def _drive(self, idx, gen, on_item):
        span = self.spans[idx]
        while True:
            self._stack.append(idx)
            t = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if span[1] is None:
                    span[1] = t
                span[2] = end
                span[4] += end - t
            if on_item is not None:
                on_item(item)
            yield item

    # --- counters ---------------------------------------------------------

    def _on_segment(self, seg):
        self.counters["primes.segments"] += 1
        self.counters["primes.integers_sieved"] += seg.hi - seg.lo

    def _on_extract(self, args, kwargs, result):
        seg = args[0]
        self.counters["primes.primes_extracted"] += len(result)
        if not self._inside("accumulators.accumulate"):
            # Outside accumulate a caller uses every prime it extracts, but
            # primes this process extracted before are re-sieved work.
            fresh = len(result) - int(result.searchsorted(self._covered))
            self.counters["primes.primes_consumed"] += fresh
        self._covered = max(self._covered, seg.hi)

    def _on_accumulate(self, args, kwargs, series):
        # accumulate sums only the primes above its resume point.
        resume = kwargs.get("_resume_from")
        last = series.checkpoints[-1].pi if series.checkpoints else 0
        self.counters["primes.primes_consumed"] += last - (resume.pi if resume else 0)

    def _on_save(self, args, kwargs, result):
        series, path = args[0], args[1]
        self.counters["accumulators.checkpoints"] += len(series)
        self.counters["accumulators.bytes_written"] += os.path.getsize(path)

    def _on_load(self, args, kwargs, result):
        self.counters["accumulators.bytes_read"] += os.path.getsize(args[0])

    def _on_suite(self, args, kwargs, result):
        reports = result[0]
        self.counters["verifier.reports"] += len(reports)
        self.counters["verifier.failed"] += sum(not r.passed for r in reports)

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        hooks = {
            "accumulators.accumulate": self._on_accumulate,
            "accumulators.save_checkpoints": self._on_save,
            "accumulators.load_checkpoints": self._on_load,
            "verifier.run_suite": self._on_suite,
        }
        for short in MODULES:
            mod = importlib.import_module(f"mertens.{short}")
            for attr, obj in list(vars(mod).items()):
                # callable() rather than isfunction(): euler_gamma is an
                # lru_cache object.
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    on_start = on_item = None
                    if name == "primes.iter_segments":
                        on_start = lambda: self.counters.update(["primes.sieve_calls"])
                        on_item = self._on_segment
                    setattr(mod, attr, self.wrap_generator(name, obj, on_start, on_item))
                else:
                    setattr(mod, attr, self.wrap(name, obj, hooks.get(name)))
        seg_cls = importlib.import_module("mertens.primes").PrimeSegment
        seg_cls.primes = self.wrap("primes.extract", seg_cls.primes, self._on_extract)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


# --- per-layer metrics from a dump -----------------------------------------

def _busy(spans, name, parent=None):
    return sum(
        s[4] for s in spans
        if s[0] == name and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent))
    )


def _self_times(spans):
    own = [s[4] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[4]
    return own


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced process (values add over processes).

    In place of the ratio ``primes.useful_frac`` it returns the count
    ``primes.primes_consumed``; callers add it and ``primes.primes_extracted``
    over processes and divide once.
    """
    spans, counters = dump["spans"], dump["counters"]
    own = _self_times(spans)

    def self_of(pred):
        return sum(t for s, t in zip(spans, own) if pred(s[0]))

    m = {
        "primes.base_sieve_s": _busy(spans, "primes.simple_sieve", parent="primes.iter_segments"),
        "primes.segment_sieve_s": self_of(lambda n: n == "primes.iter_segments"),
        "primes.extract_s": _busy(spans, "primes.extract"),
        "primes.primes_up_to_s": _busy(spans, "primes.primes_up_to"),
        "accumulators.accumulate_s": _busy(spans, "accumulators.accumulate"),
        "accumulators.sum_self_s": self_of(lambda n: n == "accumulators.accumulate"),
        "accumulators.save_s": _busy(spans, "accumulators.save_checkpoints"),
        "accumulators.load_s": _busy(spans, "accumulators.load_checkpoints"),
        "cli.self_s": self_of(lambda n: n.startswith("cli.")),
    }
    for fn in ("euler_gamma", "prime_zeta", "log_weighted_tail_direct", "exp_integral_e1"):
        m[f"special.{fn}_s"] = _busy(spans, f"special.{fn}")
    for fn in ("compute_B", "H_direct"):
        m[f"constants.{fn}_s"] = _busy(spans, f"constants.{fn}")
    for check, fn in CHECK_FUNCTIONS.items():
        m[f"verifier.{check}_s"] = _busy(spans, f"verifier.{fn}")
    for key in (
        "primes.segments", "primes.integers_sieved", "primes.sieve_calls",
        "primes.primes_extracted", "primes.primes_consumed",
        "accumulators.checkpoints", "accumulators.bytes_written",
        "accumulators.bytes_read", "verifier.reports", "verifier.failed",
    ):
        m[key] = counters.get(key, 0)
    return m
