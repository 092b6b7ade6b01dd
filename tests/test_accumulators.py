import itertools
import math
import os
import pathlib
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertens import accumulators, constants, primes, special, verifier
from mertens.accumulators import (
    BLOCK,
    CUTS,
    BudgetError,
    CheckpointFormatError,
    SumCheckpoint,
    UNIT_BITS,
    accumulate,
    exact_sum,
    load_checkpoints,
    write_checkpoints,
)


def test_sums_at_10():
    cp = list(accumulate(10, [10]))[0]
    assert cp.pi == 4
    assert cp.theta == pytest.approx(math.log(210), abs=1e-14)
    # ln2/2 + ln3/3 + ln5/5 + ln7/7, frozen from direct evaluation
    assert cp.logp_over_p == pytest.approx(1.312652433140255, abs=1e-14)
    assert cp.recip_sum == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, abs=1e-15)


def test_empty_prime_set():
    cp = list(accumulate(1, [1]))[0]
    assert (cp.pi, cp.recip_sum, cp.logp_over_p, cp.theta) == (0, 0.0, 0.0, 0.0)


def test_pi_matches_stream_count():
    series = list(accumulate(10**5, [10**3, 10**4, 10**5]))
    for cp in series:
        assert cp.pi == sum(1 for _ in primes.primes_up_to(cp.x))


def test_checkpoints_nondecreasing():
    cps = list(accumulate(10**5, [10, 100, 10**3, 10**4, 10**5]))
    for a, b in zip(cps, cps[1:]):
        assert a.pi <= b.pi
        assert a.recip_sum <= b.recip_sum
        assert a.logp_over_p <= b.logp_over_p
        assert a.theta <= b.theta
        # orderings that actually hold at every threshold
        assert b.recip_sum < b.pi
        assert b.theta < b.pi * math.log(b.x)


def test_threshold_mid_segment_equals_exact_run():
    # a checkpoint inside a segment sees exactly the primes <= threshold
    series = list(accumulate(10**5, [33333], segment_size=2**10))
    direct = list(accumulate(33333, [33333], segment_size=2**10))
    assert series[0] == direct[0]


def test_determinism_across_worker_and_segment_schedules():
    decades = [10**k for k in range(3, 8)]
    ref = list(accumulate(10**7, decades))
    for segment_size in (2**10, 2**16, 2**20):
        run = list(accumulate(10**7, decades, segment_size=segment_size))
        assert run == ref, segment_size


@given(
    st.integers(min_value=1, max_value=2 * 10**5 - 1),
    st.sampled_from([2**10, 2**12, 2**16]),
)
@settings(max_examples=25, deadline=None)
def test_extend_from_any_resume_point_equals_single_run(resume_at, size):
    n_max = 2 * 10**5
    schedule = sorted({resume_at, 10**3, 10**4, 10**5, n_max})
    first = list(accumulate(
        resume_at, [t for t in schedule if t <= resume_at], segment_size=size
    ))
    extended = list(accumulators.extend(first, n_max, schedule, segment_size=size))
    assert extended == list(accumulate(n_max, schedule))


def test_budget_guard():
    with pytest.raises(BudgetError):
        list(accumulate(2**34 + 1, [2**20]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        list(accumulate(100, [50, 50]))
    with pytest.raises(ValueError):
        list(accumulate(100, [50, 200]))


def test_resume_matches_single_run():
    first = list(accumulate(10**4, [10**3, 10**4]))
    extended = list(accumulators.extend(first, 10**5, [10**5]))
    full = list(accumulate(10**5, [10**3, 10**4, 10**5]))
    assert extended == full


def test_resume_sieves_only_from_the_resume_segment(sieved):
    n_max, size = 10**5, 2**10
    schedule = list(range(1000, n_max + 1, 1000))
    first = list(accumulate(60_000, schedule[:60], segment_size=size))
    full = list(accumulate(n_max, schedule, segment_size=size))
    extended = list(accumulators.extend(first, n_max, schedule, segment_size=size))
    segs = sieved.stream()
    # the resumed stream spans about 20 segments of 2048 integers, and the
    # first begins at the resume point
    assert len(segs) > 10
    assert all(c.hi > 60_001 for c in segs)
    assert min(c.lo for c in segs) == 60_001
    assert extended == full


def _live_while_sieving(monkeypatch):
    """The list of the calls of ``primes._sieve_segment`` from here on that
    begin while the memory of the array that the call before returned is
    still alive, through that array or any view of it."""
    held, last = [], [lambda: None]
    real = primes._sieve_segment

    def spy(lo, hi, base):
        if last[0]() is not None:
            held.append((lo, hi))
        got = real(lo, hi, base)
        last[0] = weakref.ref(got if got.base is None else got.base)
        return got

    monkeypatch.setattr(primes, "_sieve_segment", spy)
    return held


def test_no_segment_outlives_the_next_sieve(monkeypatch):
    # the primes of a segment, or a block (a view of them), that lived
    # through the next sieve held one segment more, 1.4-3 MB at 2^24-2^28
    n = 2**22
    schedule = range(2**10, n + 1, 2**10)
    held = _live_while_sieving(monkeypatch)
    assert sum(1 for _ in accumulate(n, schedule)) == len(schedule)
    first = list(accumulate(n // 3, schedule[: len(schedule) // 3],
                            segment_size=2**16))
    extended = list(accumulators.extend(first, n, schedule, segment_size=2**16))
    assert len(extended) == len(schedule)
    assert held == []


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        series = list(accumulate(10**4, [100, 10**3, 10**4]))
        path = tmp_path / "cp.csv"
        write_checkpoints(series, path)
        again = list(load_checkpoints(path))
        assert again == series

    def test_truncated_file_reports_line(self, tmp_path):
        path = tmp_path / "cp.csv"
        series = list(accumulate(10**3, [10**3]))
        write_checkpoints(series, path)
        text = path.read_text()
        path.write_text(text[: text.rindex(",") ])
        with pytest.raises(CheckpointFormatError) as exc:
            list(load_checkpoints(path))
        assert exc.value.line == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cp.csv"
        path.write_text("something else\n")
        with pytest.raises(CheckpointFormatError) as exc:
            list(load_checkpoints(path))
        assert exc.value.line == 1

    def test_bad_field_named(self, tmp_path):
        path = tmp_path / "cp.csv"
        path.write_text(
            accumulators.FILE_HEADER
            + "\n10,4,1.0,0.0,not-a-number,0.0,5.0,0.0\n"
        )
        with pytest.raises(CheckpointFormatError) as exc:
            list(load_checkpoints(path))
        assert exc.value.line == 2
        assert exc.value.field == "logp_over_p"

    @pytest.mark.parametrize("field, raw", [
        ("recip_comp", "nan"),
        ("logp_over_p", "inf"),
        ("theta_comp", "-inf"),
        ("pi", "101"),  # pi > x
        ("pi", "-1"),
        ("pi", "3"),  # 4 primes <= 10 on the row before
        ("recip_sum", "1.0"),  # 1/2 + 1/3 + 1/5 + 1/7 on the row before
        ("logp_over_p", "1.3"),
        ("theta", "5.3"),
        # rises from the row before, but 25 primes make theta >= 25 ln 2
        ("theta", "10.0"),
        # over half an ulp of recip_sum, so the pair does not round to it
        ("recip_comp", "1.0E-10"),
    ])
    def test_impossible_row_names_line_and_field(self, field, raw, tmp_path):
        path = tmp_path / "cp.csv"
        write_checkpoints(accumulate(100, [10, 100]), path)
        lines = path.read_text().splitlines()
        row = dict(zip(SumCheckpoint._fields, lines[2].split(",")))
        row[field] = raw
        lines[2] = ",".join(row.values())
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointFormatError) as exc:
            list(load_checkpoints(path))
        assert (exc.value.line, exc.value.field) == (3, field)

    def test_first_row_is_checked_against_no_primes(self, tmp_path):
        path = tmp_path / "cp.csv"
        path.write_text(
            accumulators.FILE_HEADER
            + "\n1,0,-1.0E-300,0.0,0.0,0.0,0.0,0.0\n"
        )
        with pytest.raises(CheckpointFormatError) as exc:
            list(load_checkpoints(path))
        assert (exc.value.line, exc.value.field) == (2, "recip_sum")

    @given(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=8, max_size=8,
    ))
    @settings(max_examples=50, deadline=None)
    def test_seventeen_digit_reals_round_trip_to_last_bit(self, vals):
        # print-parse identity for the file's real format
        for v in vals:
            assert float(f"{v:.16E}") == v

    def test_a_row_is_formatted_again_when_a_zero_changes_sign(self):
        # -0.0 == 0.0, but the two print differently
        a = SumCheckpoint(3, 1, 0.5, 0.0, 0.5, 0.0, 1.0, 0.0)
        rows = [a, a._replace(x=4), a._replace(x=5, logp_comp=-0.0),
                a._replace(x=6, logp_comp=-0.0), a._replace(x=7, pi=2)]
        texts = list(accumulators.with_text(rows, lambda c: f"{c.pi} {c.logp_comp}"))
        assert [c for c, _ in texts] == rows
        assert [t for _, t in texts] == ["1 0.0", "1 0.0", "1 -0.0", "1 -0.0", "2 0.0"]
        # the text of a repeated row is the same object, not a new string
        assert texts[0][1] is texts[1][1]

    def test_file_round_trip_bit_exact(self, tmp_path):
        series = list(accumulate(2**16, [2**10, 2**16]))
        path = tmp_path / "cp.csv"
        write_checkpoints(series, path)
        again = load_checkpoints(path)
        for a, b in zip(series, again):
            assert a.recip_sum == b.recip_sum
            assert a.recip_comp == b.recip_comp
            assert a.logp_comp == b.logp_comp
            assert a.theta_comp == b.theta_comp


def _exact_prime_sums(x):
    p = primes.primes_up_to(x).astype(np.float64)
    logs = np.log(p)
    return [sum(map(Fraction, t.tolist()), Fraction(0))
            for t in (1.0 / p, logs / p, logs)]


def test_checkpoints_are_exact_sums_rounded_once():
    schedule = [1, 2, 10, 100, 1000, 12345, 50_000, 2**16]
    exact = {x: _exact_prime_sums(x) for x in schedule}
    for size in (2**10, 2**20):
        for cp in accumulate(2**16, schedule, segment_size=size):
            pairs = [(cp.recip_sum, cp.recip_comp),
                     (cp.logp_over_p, cp.logp_comp), (cp.theta, cp.theta_comp)]
            for (s, c), total in zip(pairs, exact[cp.x]):
                assert Fraction(s) + Fraction(c) == total
                assert s == float(total)


# A v1 file whose *_comp fields hold a rounding carry, not the exact
# residual of the rounded sum; such a file still loads and resumes.
CARRY_FILE = (
    "mertens-checkpoints v1\n"
    "10,4,1.1761904761904762E+00,0.0000000000000000E+00,"
    "1.3126524331402549E+00,0.0000000000000000E+00,"
    "5.3471075307174685E+00,0.0000000000000000E+00\n"
    "65536,6542,2.6678239738251586E+00,2.2204460492503131E-16,"
    "9.7611210881963437E+00,6.6613381477509392E-16,"
    "6.5174262027211036E+04,4.2899017671516049E-13\n"
)


def test_resume_from_a_file_with_a_rounding_carry(tmp_path):
    path = tmp_path / "cp.csv"
    path.write_text(CARRY_FILE)
    extended = list(accumulators.extend(load_checkpoints(path), 2**17, [2**17]))
    got = extended[-1]
    want = list(accumulate(2**17, [2**17]))[0]
    assert got.pi == want.pi
    for a, b in [(got.recip_sum, want.recip_sum), (got.logp_over_p, want.logp_over_p),
                 (got.theta, want.theta)]:
        assert abs(a - b) <= math.ulp(b)


finite = st.floats(allow_nan=False, allow_infinity=False)
subnormal = st.floats(min_value=-2.2250738585072014e-308,
                      max_value=2.2250738585072014e-308)
wide = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023))
zero = st.sampled_from([0.0, -0.0])
MAX = float(np.finfo(np.float64).max)


def _exact(x):
    """The exact sum of ``x`` as one piece, a Fraction."""
    return Fraction(exact_sum(x, [len(x)])[0], 1 << UNIT_BITS)


class TestExactSum:
    @given(
        st.lists(st.one_of(finite, subnormal, wide, zero), max_size=60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_oracle_in_any_order(self, vals, rnd):
        exact = sum(map(Fraction, vals), Fraction(0))
        # sorted input has one run per exponent, shuffled up to one per value
        for order in (sorted(vals), sorted(vals, reverse=True)):
            assert _exact(np.array(order, dtype=np.float64)) == exact
        rnd.shuffle(vals)
        assert _exact(np.array(vals, dtype=np.float64)) == exact

    def test_limbs_carry_past_2_53(self):
        # 10^5 full 53-bit mantissas in one exponent bin, both signs
        v = np.nextafter(1.0, 2.0)
        x = np.concatenate([np.full(10**5, v), np.full(3, -v / 3)])
        assert _exact(x) == 10**5 * Fraction(v) + 3 * Fraction(-v / 3)

    def test_one_long_run_and_a_run_per_value(self):
        v = np.nextafter(1.0, 2.0)
        # 2^20 values of one exponent, which the kernel cuts into 2^11 runs,
        # then 3
        x = np.concatenate([np.full(2**20, v), np.full(3, -v / 3 * 2)])
        assert _exact(x) == 2**20 * Fraction(v) + 3 * Fraction(-v / 3 * 2)
        # the exponent changes at every value, and each exponent recurs
        exps = np.tile(np.arange(-1074, 1024, 7), 3)
        x = np.ldexp(np.resize([v, -0.75, 0.625 + 2**-40], exps.size), exps)
        assert np.all(np.frexp(x)[1][1:] != np.frexp(x)[1][:-1])
        assert _exact(x) == sum(map(Fraction, x.tolist()), Fraction(0))

    def test_empty_and_zero(self):
        assert _exact(np.array([])) == 0
        assert _exact(np.zeros(5)) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            _exact(np.array([1.0, bad, 2.0]))

    @given(st.lists(
        st.lists(st.one_of(finite, subnormal, wide, zero), max_size=60),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=200, deadline=None)
    def test_one_scratch_for_a_sequence_of_arrays(self, arrays):
        # each call takes its work arrays from np.empty, which may hand back
        # the memory of the call before: no value of one call may leak into
        # the next, as the lengths rise or fall
        for _ in range(2):
            for vals in arrays:
                x = np.array(vals, dtype=np.float64)
                assert _exact(x) == sum(map(Fraction, vals), Fraction(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_with_a_used_scratch(self, bad):
        # each call's np.empty work arrays may reuse the memory of the last
        x = np.array([2.0**-1074, -0.0, 3.5, 1e300])
        assert _exact(x) == sum(map(Fraction, x.tolist()))
        with pytest.raises(ValueError):
            _exact(np.array([1.0, bad]))
        # the finite values of the rejected call leave no trace behind
        assert _exact(x[1:3]) == Fraction(3.5)


    @given(
        st.lists(st.one_of(finite, subnormal, wide, zero), max_size=60),
        st.randoms(use_true_random=False),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_piece_matches_fraction_oracle(self, vals, rnd, data):
        n = len(vals)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=8)))
        rnd.shuffle(vals)
        for order in (vals, sorted(vals)):
            x = np.array(order, dtype=np.float64)
            # random cuts, which may repeat and stop short of the end, and
            # cuts next to both ends
            for ends in (cuts, cuts + [n], [1, n - 1, n] if n >= 2 else [n]):
                want = [sum(map(Fraction, order[a:b]), Fraction(0))
                        for a, b in zip([0] + ends, ends)]
                got = exact_sum(x, ends)
                assert [Fraction(v, 1 << UNIT_BITS) for v in got] == want

    def test_many_pieces_over_wide_exponents_take_memory_by_the_runs(self):
        # 4,000 values, each its own piece, with exponents over -1000..1000:
        # bins for every (piece, exponent) pair would take about 190 MB
        rnd = np.random.default_rng(7)
        x = np.ldexp(rnd.uniform(0.5, 1.0, 4000), rnd.integers(-1000, 1000, 4000))
        ends = list(range(1, 4001))
        tracemalloc.start()
        try:
            got = exact_sum(x, ends)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert got == [int(Fraction(v) * (1 << UNIT_BITS)) for v in x.tolist()]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pieces_reject_non_finite(self, bad):
        with pytest.raises(ValueError):
            exact_sum(np.array([1.0, 2.0, bad, 2.0]), [1, 3, 4])

    @pytest.mark.parametrize("ends", [[2, 1], [-1, 3], [1, 4]])
    def test_pieces_reject_ends_out_of_order_or_range(self, ends):
        with pytest.raises(ValueError):
            exact_sum(np.ones(3), ends)

    @pytest.mark.parametrize("count", [2**9 - 1, 2**9, 2**9 + 1, 3 * 2**9 + 5])
    @pytest.mark.parametrize("v", [2 - 2**-52, -(2 - 2**-52), MAX, -MAX])
    def test_runs_of_the_largest_mantissa_across_2_9_edges(self, count, v):
        # every mantissa bit set, so each run of at most 2^9 values sums to
        # its largest total, at E = 0x3FF and at E = 0x7FE, the largest
        # float; cuts fall next to the first 2^9 edge
        x = np.full(count, v)
        assert _exact(x) == count * Fraction(v)
        ends = sorted(min(c, count) for c in (2**9 - 1, 2**9, 2**9 + 1, count))
        want = [(b - a) * Fraction(v) for a, b in zip([0] + ends, ends)]
        got = exact_sum(x, ends)
        assert [Fraction(s, 1 << UNIT_BITS) for s in got] == want

    @pytest.mark.parametrize("E", [0, 1, 0x7FE])
    def test_runs_of_every_length_up_to_2_9(self, E):
        # a run of each length 1..2^9 at one E, signs alternating so that no
        # two runs share a key; half the runs have every mantissa bit set,
        # where the run's uint64 total of raw bits wraps most often, and at
        # E = 0 some are +0.0 or -0.0
        rnd = np.random.default_rng(E)
        sizes = np.arange(1, 2**9 + 1)
        sign = np.repeat(sizes % 2, sizes).astype(np.uint64) << np.uint64(63)
        m = rnd.integers(0, 2**52, sizes.sum(), dtype=np.uint64)
        m[np.repeat(sizes % 4 < 2, sizes)] = 2**52 - 1
        m[np.repeat(sizes % 8 == 2, sizes)] = 0
        x = (sign | np.uint64(E) << np.uint64(52) | m).view(np.float64)
        prefix = [0, *itertools.accumulate(map(Fraction, x.tolist()))]
        edges = np.cumsum(sizes).tolist()
        # no cuts but the end; a cut on every run edge; a cut on every
        # 2^9-th value, and every 2^9-th value plus one
        for ends in ([len(x)], edges, list(range(2**9, len(x), 2**9)) + [len(x)],
                     list(range(2**9 + 1, len(x), 2**9))):
            want = [prefix[b] - prefix[a] for a, b in zip([0] + ends, ends)]
            got = exact_sum(x, ends)
            assert [Fraction(t, 1 << UNIT_BITS) for t in got] == want

    def test_long_runs_of_zeros_and_subnormals_next_to_normals(self):
        tiny = 2.0**-1074
        # the largest subnormal has every mantissa bit set and no implicit bit
        big_sub = 2.0**-1022 - tiny
        x = np.concatenate([
            np.full(600, 0.0), np.full(700, -0.0), [1.5, -(2 - 2**-52), 3.0],
            np.full(1100, big_sub), np.full(530, -tiny * 3), [-1.5],
            np.full(515, 2.0**-1022), np.full(520, -0.0), [-big_sub, 2.0**-1022],
        ])
        vals = x.tolist()
        exact = sum(map(Fraction, vals), Fraction(0))
        assert _exact(x) == exact
        ends = [512, 600, 1300, 1302, 2403, 2933, 3449, len(x)]
        want = [sum(map(Fraction, vals[a:b]), Fraction(0))
                for a, b in zip([0] + ends, ends)]
        got = exact_sum(x, ends)
        assert [Fraction(s, 1 << UNIT_BITS) for s in got] == want

    def test_strided_reversed_int64_and_float32_input(self):
        rnd = np.random.default_rng(3)
        x = np.ldexp(rnd.uniform(-1, 1, 3000), rnd.integers(-60, 60, 3000))
        before = x.copy()
        for view in (x[::3], x[::-1]):
            vals = view.tolist()
            assert _exact(view) == sum(map(Fraction, vals), Fraction(0))
            ends = [5, 700, len(vals)]
            want = [sum(map(Fraction, vals[a:b]), Fraction(0))
                    for a, b in zip([0] + ends, ends)]
            got = exact_sum(view, ends)
            assert [Fraction(s, 1 << UNIT_BITS) for s in got] == want
        assert np.array_equal(x, before)
        # integers below 2^53 and float32 values are float64 values too
        ints = rnd.integers(-2**52, 2**52, 2000)
        assert _exact(ints) == sum(ints.tolist())
        f32 = x.astype(np.float32)
        assert _exact(f32) == sum(map(Fraction, f32.tolist()), Fraction(0))

    def test_a_block_of_prime_terms_is_summed_in_place(self):
        # one call on a contiguous float64 block takes 3 bytes a value, its
        # int16 key and its run mask, and copies nothing as long as the
        # block: a 512 KiB copy, an int64 key or 17 bytes a value would each
        # exceed the bound.  Nothing of the call stays behind.
        p = primes.primes_up_to(2**22)[-BLOCK:].astype(np.float64)
        terms = 1.0 / p
        exact_sum(terms, [BLOCK])
        tracemalloc.start()
        try:
            got = exact_sum(terms, [BLOCK])
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * BLOCK + (96 << 10)
        assert held < 1 << 10
        assert Fraction(got[0], 1 << UNIT_BITS) == _exact_prefix_sums(terms, [BLOCK])[0]


def _fsum_arguments(text):
    """The argument text of every math.fsum( call, parentheses balanced."""
    for m in re.finditer(r"math\.fsum\(", text):
        depth, i = 1, m.end()
        while depth:
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
        yield text[m.end():i - 1]


def test_one_summation_primitive():
    # every numpy array is summed by exact_sum; no second path creeps back
    src = pathlib.Path(accumulators.__file__).parent
    for f in src.glob("*.py"):
        text = f.read_text()
        assert not re.search(r"\bNeumaier\b", text), f.name
        for arg in _fsum_arguments(text):
            # a generator over .tolist() feeds fsum math-computed terms
            direct = " for " not in arg and arg.rstrip().endswith(".tolist()")
            assert not direct, (f.name, arg)


def _exact_prefix_sums(terms, ends):
    """sum(map(Fraction, terms[:e])) for each e in ``ends``, summed as
    integers over 2^-1074, of which every float64 is a multiple."""
    scaled = [n << (1075 - d.bit_length())
              for n, d in map(float.as_integer_ratio, terms.tolist())]
    prefix = list(itertools.accumulate(scaled, initial=0))
    return [Fraction(prefix[e], 1 << 1074) for e in ends]


@pytest.mark.parametrize("segment", [0, 1])
def test_checkpoints_next_to_a_block_boundary(segment):
    # The checkpoint falls on the j-th prime of a segment, so that the
    # chunk before it holds one block less one, one block, or one block
    # and one; a second checkpoint ends the segment.
    span = 2 * primes.DEFAULT_SEGMENT_SIZE
    lo, end = 2 + segment * span, 1 + (segment + 1) * span
    p = primes.primes_up_to(end)
    first = int(np.searchsorted(p, lo))
    assert len(p) - first > BLOCK + 1
    ends = [first + j for j in (BLOCK - 1, BLOCK, BLOCK + 1)] + [len(p)]
    f = p.astype(np.float64)
    logs = np.log(f)
    exact = [_exact_prefix_sums(t, ends) for t in (1.0 / f, logs / f, logs)]
    # the integer oracle agrees with the Fraction sum where that is quick
    assert _exact_prefix_sums(logs, [500])[0] == sum(map(Fraction, logs[:500].tolist()))
    for i, e in enumerate(ends[:3]):
        t = int(p[e - 1])
        series = accumulate(end, [t, end])
        for cp, k in zip(series, (i, 3)):
            assert cp.pi == ends[k]
            pairs = [(cp.recip_sum, cp.recip_comp),
                     (cp.logp_over_p, cp.logp_comp), (cp.theta, cp.theta_comp)]
            for (s, c), sums in zip(pairs, exact):
                assert Fraction(s) + Fraction(c) == sums[k]


def test_thresholds_on_the_kernel_run_edges_of_a_full_block():
    # The second block of the first segment is full.  The kernel starts a
    # run at every 2^9-th value of it, so thresholds cut the block just
    # before, on and after such edges, after its first and its last prime,
    # and at the edge between the two segments of the stream.
    n = 2**22
    p = primes.primes_up_to(n)
    edge = 1 + 2 * primes.DEFAULT_SEGMENT_SIZE  # the first segment's last integer
    in_first = int(np.searchsorted(p, edge, side="right"))
    assert in_first >= 2 * BLOCK
    cuts = [0, 1, 2**9 - 1, 2**9, 2**9 + 1, 2**10, 2**15 - 1, 2**15,
            BLOCK - 2**9, BLOCK - 1, BLOCK]
    # the prime that ends a cut after c primes of the block
    schedule = {int(p[BLOCK + c - 1]) for c in cuts}
    schedule |= {edge, edge + 1, int(p[in_first]), n}
    schedule = sorted(schedule)
    pis = np.searchsorted(p, schedule, side="right").tolist()
    f = p.astype(np.float64)
    logs = np.log(f)
    exact = [_exact_prefix_sums(t, pis) for t in (1.0 / f, logs / f, logs)]
    rows = list(accumulate(n, schedule))
    assert [cp.x for cp in rows] == schedule
    for k, cp in enumerate(rows):
        assert cp.pi == pis[k]
        pairs = [(cp.recip_sum, cp.recip_comp),
                 (cp.logp_over_p, cp.logp_comp), (cp.theta, cp.theta_comp)]
        for (s, c), sums in zip(pairs, exact):
            assert Fraction(s) + Fraction(c) == sums[k]
            assert s == float(sums[k])


# Fixed whatever the limit: one segment bitmap and its primes, about
# 2 MiB at the default segment size, plus one block's row of terms and a
# kernel call's 3 bytes a value, about 3 MiB.
STREAM_PEAK_BOUND = 8 << 20


def test_writing_a_dense_schedule_holds_no_rows(tmp_path):
    # 4,096 and then 16,384 rows, every 1024: a pass that kept its rows
    # until the write would grow by some 300 bytes a row; streamed, only
    # the copy of the schedule grows, by 8 bytes a threshold
    path = tmp_path / "cp.csv"
    peaks = []
    for k in (22, 24):
        schedule = list(range(1024, 2**k + 1, 1024))
        tracemalloc.start()
        try:
            assert write_checkpoints(accumulate(2**k, schedule), path) == len(schedule)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(path.read_text().splitlines()) == 1 + len(schedule)
    assert peaks[1] < STREAM_PEAK_BOUND
    assert peaks[1] - peaks[0] < 1 << 20


def test_loading_a_file_holds_one_row(tmp_path):
    # 4,096 rows: a reader that kept them, or the text of the file, peaked
    # at about 2.2 MiB; one that holds a row at a time peaks near 30 KiB
    path = tmp_path / "cp.csv"
    write_checkpoints(accumulate(2**22, range(1024, 2**22 + 1, 1024)), path)
    tracemalloc.start()
    try:
        count = sum(1 for _ in load_checkpoints(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 4096
    assert peak < 1 << 19


def test_a_stream_frees_each_segment_before_it_sieves_the_next():
    # past the first row, a stream holds its rows of floats and terms and a
    # kernel call's work arrays (about 1.2 MiB), and one segment at a time: the bitmap (1 MiB), then
    # its primes.  Keeping the last segment's primes, or the last block
    # (a view of them), while the next is sieved peaked at 5.7 MiB.
    rows = accumulate(2**25, [2**22, 2**25])
    tracemalloc.start()
    try:
        next(rows)
        tracemalloc.reset_peak()
        assert [cp.x for cp in rows] == [2**25]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def _remainder_checks(p):
    """The suite's 12 remainder checks, over the primes ``p``."""
    return [verifier.check_remainder_identity(G, rho, p)
            for G in (3, 10, 100, 10**4) for rho in (1.0, 0.5, 0.1)]


@pytest.mark.parametrize("run", [
    lambda: constants.H_direct(2**23),
    lambda: list(accumulate(2**24, [2**20, 2**24])),
    lambda: special.euler_gamma.__wrapped__(10**6),
    lambda: _remainder_checks(primes.primes_up_to(10**4)),
], ids=["H_direct(2^23)", "accumulate(2^24)", "euler_gamma(10^6)", "remainder"])
def test_a_stream_holds_one_segment_and_one_scratch(run):
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STREAM_PEAK_BOUND


def test_the_abel_and_product_checks_take_CUTS_primes_at_a_time():
    # beyond their inputs: one exact_sum over a BLOCK of Abel pieces, nearly
    # one run a value, peaked at 4.44 MiB, and the product's 82,025 floats
    # made at once at 3.13 MiB
    p = primes.primes_up_to(2**20)
    rows = list(accumulate(2**20, [2**k for k in range(16, 21)]))
    for check in (lambda: verifier.check_abel_pi_identity(rows, p),
                  lambda: verifier.check_mertens_product(2**20, p)):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_a_threshold_at_every_integer_to_2_20_holds_CUTS_cuts_a_call(monkeypatch):
    # the first block sees about 821,000 thresholds; in one call, its piece
    # sums and its counts of primes seen peaked at 59.2 MiB
    schedule = np.arange(1, 2**20 + 1)
    most = [0]
    real = accumulators.exact_sum

    def spy(x, ends):
        most[0] = max(most[0], len(ends))
        return real(x, ends)

    monkeypatch.setattr(accumulators, "exact_sum", spy)
    tracemalloc.start()
    try:
        count = sum(1 for _ in accumulate(2**20, schedule))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2**20
    assert peak < 8 << 20
    assert most[0] <= CUTS + 1


@pytest.mark.parametrize("cuts", [1, 2, 7])
def test_rows_do_not_depend_on_the_cuts_per_pass(monkeypatch, cuts):
    # a cap of 1 or 2 also makes passes that end before the block's first
    # prime, and sum none of it
    schedule = range(1, 3000)
    rows = list(accumulate(3000, schedule, segment_size=2**8))
    monkeypatch.setattr(accumulators, "CUTS", cuts)
    assert list(accumulate(3000, schedule, segment_size=2**8)) == rows


@pytest.mark.parametrize("a, b", [
    (5, 4), (5, 5), (2, BLOCK + 1), (2, BLOCK + 2), (2, BLOCK + 3), (7, 3 * BLOCK + 7),
])
def test_range_sum_is_the_exact_sum_over_the_range(a, b):
    seen = []

    def f(n):
        seen.append(n.copy())
        return n ** -1.5 / np.log(n)

    total = accumulators.range_sum(f, a, b)
    n = np.arange(a, b + 1, dtype=np.float64)
    # f saw every integer of the range once, in order, in blocks
    assert all(0 < len(k) <= BLOCK for k in seen)
    assert np.array_equal(np.concatenate([n[:0], *seen]), n)
    assert total == float(_exact(f(n)))


# The BLOCK-th prime, the last of the first block of a stream.
BLOCK_PRIME = int(primes.primes_up_to(10**6)[BLOCK - 1])


@pytest.mark.parametrize("n", [
    1, 2, 3, BLOCK_PRIME - 1, BLOCK_PRIME, BLOCK_PRIME + 1,
    # the last integer of the first segment, and the first of the second
    2 * primes.DEFAULT_SEGMENT_SIZE + 1, 2 * primes.DEFAULT_SEGMENT_SIZE + 2,
])
def test_prime_sum_is_the_exact_sum_over_the_primes(n, monkeypatch):
    sizes = []
    real = accumulators.exact_sum

    def spy(x, ends):
        sizes.append(len(x))
        return real(x, ends)

    monkeypatch.setattr(accumulators, "exact_sum", spy)
    (row,) = accumulate(n, [n])
    p = primes.primes_up_to(n)
    # the stream summed every prime up to n once, in blocks of at most
    # BLOCK, one exact_sum call per sum and block
    blocks = sizes[::3]
    assert sizes == [k for k in blocks for _ in range(3)]
    assert all(0 < k <= BLOCK for k in blocks)
    assert sum(blocks) == row.pi == len(p)
    # and its sums are the exact sums over all the primes
    f = p.astype(np.float64)
    logs = np.log(f)
    pairs = [(row.recip_sum, row.recip_comp),
             (row.logp_over_p, row.logp_comp), (row.theta, row.theta_comp)]
    for (s, c), t in zip(pairs, (1.0 / f, logs / f, logs)):
        assert Fraction(s) + Fraction(c) == _exact_prefix_sums(t, [len(p)])[0]


def _fail_after(calls, real):
    """``real``, which raises OSError from its ``calls``-th call on."""
    count = itertools.count(1)

    def fail(*args):
        if next(count) >= calls:
            raise OSError(28, "No space left on device")
        return real(*args)

    return fail


@pytest.mark.parametrize("where", ["row 500", "fsync"])
def test_a_failed_save_keeps_the_old_file(where, tmp_path, monkeypatch):
    path = tmp_path / "cp.csv"
    schedule = list(range(2**10, 2**20 + 1, 2**10))
    write_checkpoints(accumulate(2**19, schedule[:512]), path)
    old = path.read_bytes()
    if where == "fsync":
        monkeypatch.setattr(os, "fsync", _fail_after(1, os.fsync))
    else:
        # six formatted fields a row: this fails inside row 500, when the
        # rows before it are already in the temporary file
        monkeypatch.setattr(accumulators, "_fmt", _fail_after(6 * 500, accumulators._fmt))
    with pytest.raises(OSError):
        write_checkpoints(accumulate(2**20, schedule), path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["cp.csv"]
    monkeypatch.undo()
    extended = list(accumulators.extend(load_checkpoints(path), 2**20, schedule))
    assert extended == list(accumulate(2**20, schedule))


# A schedule as a range, a list, and an int64 array.
_SCHEDULE_KINDS = (
    (lambda r: r, ""), (list, "-list"),
    (lambda r: np.array(r, dtype=np.int64), "-int64"),
)


@pytest.mark.parametrize("size, kind", [
    pytest.param(size, kind, id=f"{size}{suffix}")
    for size in (2**10, primes.DEFAULT_SEGMENT_SIZE)
    for kind, suffix in _SCHEDULE_KINDS
])
def test_a_threshold_at_every_integer(size, kind):
    # x < 2, runs of thresholds with no prime between them, and, at 2^10,
    # thresholds on every segment edge; any ascending sequence will do
    n = 2 * 10**5
    schedule = kind(range(1, n + 1))
    p = primes.primes_up_to(n)
    f = p.astype(np.float64)
    logs = np.log(f)
    counts = range(len(p) + 1)
    exact = [_exact_prefix_sums(t, counts) for t in (1.0 / f, logs / f, logs)]
    series = list(accumulate(n, schedule, segment_size=size))
    assert [cp.x for cp in series] == list(schedule)
    pis = np.searchsorted(p, np.arange(1, n + 1), side="right").tolist()
    rows = {}
    for cp, pi in zip(series, pis):
        assert cp.pi == pi
        vals = (cp.recip_sum, cp.recip_comp, cp.logp_over_p, cp.logp_comp,
                cp.theta, cp.theta_comp)
        if pi not in rows:
            for s, c, sums in zip(vals[0::2], vals[1::2], exact):
                assert Fraction(s) + Fraction(c) == sums[pi]
                assert s == float(sums[pi])
            rows[pi] = vals
        assert vals == rows[pi]
    half = series[: n // 2]
    extended = list(accumulators.extend(half, n, schedule, segment_size=size))
    assert extended == series


def test_kernel_calls_do_not_grow_with_the_schedule(monkeypatch, sieved):
    n = 2**22
    calls = []
    real = accumulators.exact_sum

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(accumulators, "exact_sum", counting)
    counts = []
    for schedule in (range(2**10, n + 1, 2**10), [n]):
        calls.clear()
        list(accumulate(n, schedule))
        counts.append(len(calls))
    # one call per sum and block, for 4,096 thresholds as for one
    blocks = sum(-(-len(c.primes) // BLOCK) for c in sieved.stream())
    assert counts == [3 * blocks] * 2
