import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertens import accumulators, primes
from mertens.accumulators import (
    BudgetError,
    CheckpointFormatError,
    CheckpointSeries,
    SumCheckpoint,
    accumulate,
    load_checkpoints,
    save_checkpoints,
)


def test_sums_at_10():
    cp = accumulate(10, [10]).checkpoints[0]
    assert cp.pi == 4
    assert cp.theta_value == pytest.approx(math.log(210), abs=1e-14)
    # ln2/2 + ln3/3 + ln5/5 + ln7/7, frozen from direct evaluation
    assert cp.logp == pytest.approx(1.312652433140255, abs=1e-14)
    assert cp.recip == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, abs=1e-15)


def test_empty_prime_set():
    cp = accumulate(1, [1]).checkpoints[0]
    assert (cp.pi, cp.recip, cp.logp, cp.theta_value) == (0, 0.0, 0.0, 0.0)


def test_pi_matches_stream_count():
    series = accumulate(10**5, [10**3, 10**4, 10**5])
    for cp in series:
        assert cp.pi == sum(1 for _ in primes.primes_up_to(cp.x))


def test_checkpoints_nondecreasing():
    series = accumulate(10**5, [10, 100, 10**3, 10**4, 10**5])
    cps = series.checkpoints
    for a, b in zip(cps, cps[1:]):
        assert a.pi <= b.pi
        assert a.recip <= b.recip
        assert a.logp <= b.logp
        assert a.theta_value <= b.theta_value
        # orderings that actually hold at every threshold
        assert b.recip < b.pi
        assert b.theta_value < b.pi * math.log(b.x)


def test_threshold_mid_segment_equals_exact_run():
    # a checkpoint inside a segment sees exactly the primes <= threshold
    series = accumulate(10**5, [33333], segment_size=2**10)
    direct = accumulate(33333, [33333], segment_size=2**10)
    assert series.checkpoints[0] == direct.checkpoints[0]


def test_determinism_across_worker_and_segment_schedules():
    ref = accumulate(10**6, [10**5, 10**6])
    for workers in (2, 4):
        assert accumulate(10**6, [10**5, 10**6], workers=workers) == ref


def test_budget_guard():
    with pytest.raises(BudgetError):
        accumulate(2**34 + 1, [2**20])


def test_schedule_validation():
    with pytest.raises(ValueError):
        accumulate(100, [50, 50])
    with pytest.raises(ValueError):
        accumulate(100, [50, 200])


def test_resume_matches_single_run():
    first = accumulate(10**4, [10**3, 10**4])
    extended = accumulators.extend(first, 10**5, [10**5])
    full = accumulate(10**5, [10**3, 10**4, 10**5])
    assert extended.checkpoints == full.checkpoints


def test_resume_sieves_only_from_the_resume_segment(monkeypatch):
    n_max, size = 10**5, 2**10
    schedule = list(range(1000, n_max + 1, 1000))
    first = accumulate(60_000, schedule[:60], segment_size=size)
    full = accumulate(n_max, schedule, segment_size=size)
    sieved = []
    real = primes.iter_segments

    def spy(n, *args, **kwargs):
        for seg in real(n, *args, **kwargs):
            if n == n_max:  # not the nested base-prime sieve
                sieved.append((seg.lo, seg.hi))
            yield seg

    monkeypatch.setattr(primes, "iter_segments", spy)
    extended = accumulators.extend(first, n_max, schedule, segment_size=size)
    # the resumed stream spans about 20 segments of 2048 integers
    assert len(sieved) > 10
    assert all(hi > 60_001 for _, hi in sieved)
    assert sieved[0][0] <= 60_001
    assert extended.checkpoints == full.checkpoints


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        series = accumulate(10**4, [100, 10**3, 10**4])
        path = tmp_path / "cp.csv"
        save_checkpoints(series, path)
        again = load_checkpoints(path)
        assert again.checkpoints == series.checkpoints

    def test_truncated_file_reports_line(self, tmp_path):
        path = tmp_path / "cp.csv"
        series = accumulate(10**3, [10**3])
        save_checkpoints(series, path)
        text = path.read_text()
        path.write_text(text[: text.rindex(",") ])
        with pytest.raises(CheckpointFormatError) as exc:
            load_checkpoints(path)
        assert exc.value.line == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cp.csv"
        path.write_text("something else\n")
        with pytest.raises(CheckpointFormatError) as exc:
            load_checkpoints(path)
        assert exc.value.line == 1

    def test_bad_field_named(self, tmp_path):
        path = tmp_path / "cp.csv"
        path.write_text(
            accumulators.FILE_HEADER
            + "\n10,4,1.0,0.0,not-a-number,0.0,5.0,0.0\n"
        )
        with pytest.raises(CheckpointFormatError) as exc:
            load_checkpoints(path)
        assert exc.value.line == 2
        assert exc.value.field == "logp_over_p"

    @given(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=8, max_size=8,
    ))
    @settings(max_examples=50, deadline=None)
    def test_seventeen_digit_reals_round_trip_to_last_bit(self, vals):
        # print-parse identity for the file's real format
        for v in vals:
            assert float(f"{v:.16E}") == v

    def test_file_round_trip_bit_exact(self, tmp_path):
        series = accumulate(2**16, [2**10, 2**16])
        path = tmp_path / "cp.csv"
        save_checkpoints(series, path)
        again = load_checkpoints(path)
        for a, b in zip(series, again):
            assert a.recip_sum == b.recip_sum
            assert a.recip_comp == b.recip_comp
            assert a.logp_comp == b.logp_comp
            assert a.theta_comp == b.theta_comp


@pytest.mark.slow
def test_compensated_vs_naive_at_1e8():
    naive = 0.0
    comp = accumulators.Neumaier()
    for seg in primes.iter_segments(10**8):
        inv = 1.0 / seg.primes().astype(np.float64)
        for v in inv.tolist():
            naive += v
        comp.add(math.fsum(inv.tolist()))
    drift = abs(comp.value - naive)
    assert drift < 1e-10
