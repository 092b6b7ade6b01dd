import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mertens import accumulators, cli, constants, primes, verifier
from mertens.cli import (
    EXIT_BOUND_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_scale,
    parse_schedule,
)


class TestParsing:
    def test_parse_scale(self):
        assert parse_scale("2^20") == 2**20
        assert parse_scale("1e6") == 10**6
        assert parse_scale("65536") == 65536
        assert parse_scale("2^62") == 2**62
        assert parse_scale("1^1000") == 1

    @pytest.mark.parametrize("text", [
        "2^-1", "-5", "0", "2.5", "1e400", "nan", "2^63", "2^100000",
        "-2^20", "-1^2", "-3^0",
    ])
    def test_parse_scale_rejects(self, text):
        # not an integer >= 1, or past 2^63; a^b is refused before it is
        # computed
        with pytest.raises(UsageError):
            parse_scale(text)

    def test_parse_schedule_pow2(self):
        assert parse_schedule("pow2", 2**20).tolist() == [2**k for k in range(16, 21)]
        assert parse_schedule("pow2", 2**30).tolist() == [2**k for k in range(16, 31)]
        assert parse_schedule("pow2", 1000).tolist() == [1000]

    def test_parse_schedule_list_and_range(self):
        assert parse_schedule("10,100,1e3", 10**4).tolist() == [10, 100, 1000]
        assert parse_schedule("100..300:100", 10**4).tolist() == [100, 200, 300]


class TestSums:
    def test_single_row(self, tmp_path, capsys):
        path = tmp_path / "cp.csv"
        rc = main(["sums", "--max", "10", "--schedule", "10",
                   "--checkpoints", str(path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "pi=4" in out
        assert path.exists()

    def test_pow2_row_count(self, tmp_path, capsys):
        path = tmp_path / "cp.csv"
        rc = main(["sums", "--max", "2^20", "--checkpoints", str(path)])
        assert rc == EXIT_OK
        assert "wrote 5 checkpoints" in capsys.readouterr().out

    def test_pow2_row_count_past_2_26(self, tmp_path, capsys):
        path = tmp_path / "cp.csv"
        rc = main(["sums", "--max", "2^27", "--checkpoints", str(path)])
        assert rc == EXIT_OK
        assert "wrote 12 checkpoints" in capsys.readouterr().out
        assert path.read_text().splitlines()[-1].startswith("134217728,7603553,")

    def test_resume_extends(self, tmp_path, capsys):
        path = tmp_path / "cp.csv"
        main(["sums", "--max", "2^16", "--checkpoints", str(path)])
        capsys.readouterr()
        rc = main(["sums", "--max", "2^18", "--resume",
                   "--checkpoints", str(path)])
        assert rc == EXIT_OK
        assert "wrote 3 checkpoints" in capsys.readouterr().out

    def test_budget_guard_exit_code(self, tmp_path, capsys):
        rc = main(["sums", "--max", "2^35",
                   "--checkpoints", str(tmp_path / "cp.csv")])
        assert rc == EXIT_USAGE
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sums", "verify"])
    def test_budget_is_checked_before_the_schedule_is_built(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # 1..2^40:1 would be a list of 2^40 ints: the budget must refuse
        # --max before parse_schedule can build it
        def fail(*args):
            raise AssertionError("parse_schedule ran before the budget check")

        monkeypatch.setattr(cli, "parse_schedule", fail)
        rc = main([command, "--max", "2^40", "--schedule", "1..2^40:1",
                   "--checkpoints", str(tmp_path / "cp.csv")])
        assert rc == EXIT_USAGE
        assert "budget" in capsys.readouterr().err


class TestConstants:
    def test_values_in_json(self, capsys):
        rc = main(["constants", "--tol", "1e-12"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert f"{doc['B']['value']:.10f}".startswith("0.2614972128")
        assert f"{doc['H']['value']:.11f}".startswith("0.31571845205")

    def test_oracle_flag(self, capsys):
        rc = main(["constants", "--tol", "1e-10", "--oracle",
                   "--prime-limit", "1e5"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["H_agreement"] <= doc["H_agreement_bound"]

    def test_tol_out_of_range(self, capsys):
        assert main(["constants", "--tol", "1e-16"]) == EXIT_USAGE
        assert main(["constants", "--tol", "0.5"]) == EXIT_USAGE

    def test_verify_rejects_tol_before_sieving(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("accumulate ran before --tol was checked")

        monkeypatch.setattr(cli.accumulators, "accumulate", fail)
        assert main(["verify", "--max", "2^30", "--tol", "0.5"]) == EXIT_USAGE
        assert "tol must be in" in capsys.readouterr().err

    def test_oracle_prime_limit_over_budget_exits_2_before_any_work(
        self, monkeypatch, capsys
    ):
        # constants has no --force: the oracle's tail bound at 2^34 is 6e-11
        def fail(*args):
            raise AssertionError("work started before the budget check")

        monkeypatch.setattr(primes, "_sieve_segment", fail)
        monkeypatch.setattr(cli.constants, "compute_B", fail)
        rc = main(["constants", "--oracle", "--prime-limit", "2^35"])
        assert rc == EXIT_USAGE
        assert "exceeds the desk-scale budget" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["--prime-limit", "abc"],
        ["--oracle", "--prime-limit", "abc"],
    ])
    def test_bad_prime_limit_exits_2_at_parse_time(self, argv, monkeypatch, capsys):
        def fail(*args):
            raise AssertionError("compute_B ran before --prime-limit was checked")

        monkeypatch.setattr(cli.constants, "compute_B", fail)
        assert main(["constants", *argv]) == EXIT_USAGE
        assert "cannot parse integer scale 'abc'" in capsys.readouterr().err

    def test_oracle_prime_limit_below_1000_exits_2_before_compute_b(
        self, monkeypatch, capsys
    ):
        def fail(*args):
            raise AssertionError("compute_B ran before --prime-limit was checked")

        monkeypatch.setattr(cli.constants, "compute_B", fail)
        rc = main(["constants", "--oracle", "--prime-limit", "500"])
        assert rc == EXIT_USAGE
        assert "prime_limit must be >= 1000" in capsys.readouterr().err


class TestVerify:
    def test_small_full_run(self, tmp_path, capsys):
        rc = main(["verify", "--max", "2^17", "--wolf-table",
                   "--checkpoints", str(tmp_path / "cp.csv")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "FAIL" not in out
        assert out.count("\n65536,") + out.count("\n131072,") == 2

    def test_only_filter(self, capsys):
        rc = main(["verify", "--max", "1e6", "--schedule", "1e6",
                   "--only", "grossehilfsatz1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "grossehilfsatz1" in out and "theta" not in out

    def test_missing_inputs(self, capsys):
        assert main(["verify"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["sums", "--max", "1e400"],
        ["verify", "--max", "2^-1"],
        ["verify", "--max", "-5"],
    ])
    def test_bad_scale_exits_2(self, argv, tmp_path, capsys):
        argv = argv + ["--checkpoints", str(tmp_path / "cp.csv")]
        assert main(argv) == EXIT_USAGE
        assert "not an integer in [1, 2^63)" in capsys.readouterr().err

    def test_negative_base_exits_2_and_writes_no_file(self, tmp_path, capsys):
        # (-2)^20 is 2^20, but -2^20 is no scale
        path = tmp_path / "cp.csv"
        assert main(["sums", "--max=-2^20", "--checkpoints", str(path)]) == EXIT_USAGE
        assert "not an integer in [1, 2^63)" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_no_pass_has_a_negative_margin(self, capsys):
        # a pass inside ROUNDING_ALLOWANCE but outside its bound shows an
        # observed value that rounding has drowned
        assert main(["verify", "--max", "2^20", "--wolf-table"]) == EXIT_OK
        passes = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("PASS ")]
        negative = [line for line in passes if line.split(" margin=")[1].startswith("-")]
        assert passes and negative == []

    def test_no_checks_run_exits_2(self, capsys):
        # theta skips x < 2: a run with no check is not a pass
        assert main(["verify", "--max", "1", "--only", "theta"]) == EXIT_USAGE
        assert "no check" in capsys.readouterr().err

    def test_corrupt_checkpoint_file(self, tmp_path, capsys):
        path = tmp_path / "cp.csv"
        # the second file parses, but theta = 0 is impossible with 25
        # primes <= 100 (it would pass theta_lt_2x)
        for row in ("10,4,bogus", "100,25,1.8,0.0,3.5,0.0,0.0,0.0"):
            path.write_text(f"mertens-checkpoints v1\n{row}\n")
            rc = main(["verify", "--checkpoints", str(path)])
            assert rc == EXIT_USAGE, row
            assert "line 2" in capsys.readouterr().err

    def test_loads_existing_checkpoints(self, tmp_path, capsys):
        path = tmp_path / "cp.csv"
        main(["sums", "--max", "2^16", "--checkpoints", str(path)])
        capsys.readouterr()
        rc = main(["verify", "--checkpoints", str(path),
                   "--only", "grossehilfsatz1,theta"])
        assert rc == EXIT_OK


class TestDeterminism:
    def test_byte_identical_outputs_across_workers(self, tmp_path, capsys):
        files = {}
        for workers in ("1", "4"):
            cp = tmp_path / f"cp{workers}.csv"
            rep = tmp_path / f"rep{workers}.txt"
            rc = main(["verify", "--max", "2^18", "--workers", workers,
                       "--checkpoints", str(cp), "--report", str(rep),
                       "--wolf-table"])
            assert rc == EXIT_OK
            files[workers] = (cp.read_bytes(), rep.read_bytes())
        assert files["1"] == files["4"]


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    rc = main(["sums", "--max", "10", "--schedule", "10",
               "--checkpoints", "rel.csv"])
    assert rc == EXIT_OK
    assert (tmp_path / "rel.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-1", str(10**6)])
@pytest.mark.parametrize("command", ["sums", "verify"])
def test_bad_workers_exit_2_before_any_pool_or_sieve(
    command, workers, tmp_path, monkeypatch, capsys
):
    def fail(*args, **kwargs):
        raise AssertionError("a sieve started")

    monkeypatch.setattr(primes, "_sieve_segment", fail)
    rc = main([command, "--max", "2^20", "--workers", workers,
               "--checkpoints", str(tmp_path / "cp.csv")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"workers must be an integer in [1, 64], got {workers}" in err


@pytest.mark.parametrize("command", ["sums", "verify"])
def test_workers_4_starts_no_thread(command, tmp_path, monkeypatch, capsys):
    def fail(self):
        raise AssertionError("a thread started")

    monkeypatch.setattr(threading.Thread, "start", fail)
    rc = main([command, "--max", "2^18", "--workers", "4",
               "--checkpoints", str(tmp_path / "cp.csv")])
    assert rc == EXIT_OK


def test_a_check_that_applies_to_no_threshold_exits_2(capsys):
    # x = 1 has no primes: grossehilfsatz1 has nothing to check there
    rc = main(["verify", "--max", "1", "--only", "grossehilfsatz1"])
    assert rc == EXIT_USAGE
    assert "no check applies to these thresholds" in capsys.readouterr().err


def _fail_after(calls, real):
    """``real``, which raises OSError from its ``calls``-th call on."""
    count = itertools.count(1)

    def fail(*args):
        if next(count) >= calls:
            raise OSError(28, "No space left on device")
        return real(*args)

    return fail


def test_a_failed_write_keeps_the_file_that_resume_needs(tmp_path, monkeypatch, capsys):
    path, fresh = tmp_path / "cp.csv", tmp_path / "fresh.csv"
    argv = ["sums", "--schedule", "2^10..2^20:2^10", "--checkpoints", str(path)]
    assert main(["sums", "--max", "2^19", "--schedule", "2^10..2^19:2^10",
                 "--checkpoints", str(path)]) == EXIT_OK
    old = path.read_bytes()
    # six formatted fields a row: the write fails inside row 700 of 1024
    monkeypatch.setattr(accumulators, "_fmt", _fail_after(6 * 700, accumulators._fmt))
    assert main(argv + ["--max", "2^20", "--resume"]) == EXIT_USAGE
    assert "No space left" in capsys.readouterr().err
    assert path.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["cp.csv"]
    monkeypatch.undo()
    assert main(argv + ["--max", "2^20", "--resume"]) == EXIT_OK
    argv[-1] = str(fresh)
    assert main(argv + ["--max", "2^20"]) == EXIT_OK
    assert path.read_bytes() == fresh.read_bytes()


def test_a_descending_resume_schedule_keeps_the_old_file(tmp_path, capsys):
    path = tmp_path / "cp.csv"
    assert main(["sums", "--max", "2^16", "--checkpoints", str(path)]) == EXIT_OK
    old = path.read_bytes()
    # the old row reaches the temporary file before the schedule is refused
    rc = main(["sums", "--max", "2^16", "--schedule", "5,3", "--resume",
               "--checkpoints", str(path)])
    assert rc == EXIT_USAGE
    assert "strictly ascending" in capsys.readouterr().err
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["cp.csv"]


def test_a_bad_row_in_the_middle_of_a_resumed_file_keeps_its_bytes(tmp_path, capsys):
    path = tmp_path / "cp.csv"
    assert main(["sums", "--max", "2^20", "--schedule", "2^10..2^20:2^10",
                 "--checkpoints", str(path)]) == EXIT_OK
    # row 500 of 1024 is on line 501: pi falls below the row before
    lines = path.read_text().splitlines()
    x, _, *reals = lines[500].split(",")
    lines[500] = ",".join([x, "0", *reals])
    path.write_text("\n".join(lines) + "\n")
    old = path.read_bytes()
    capsys.readouterr()
    rc = main(["sums", "--max", "2^21", "--schedule", "2^10..2^21:2^10",
               "--resume", "--checkpoints", str(path)])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("error: line 501, field 'pi': ")
    # the rows before it were read one at a time, and printed as they passed
    assert len(out.splitlines()) == 499
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["cp.csv"]


def test_a_failed_report_write_keeps_the_old_report(tmp_path, monkeypatch, capsys):
    report = tmp_path / "r.txt"
    argv = ["verify", "--max", "2^16", "--only", "theta", "--report", str(report)]
    assert main(argv) == EXIT_OK
    old = report.read_bytes()
    monkeypatch.setattr(os, "fsync", _fail_after(1, os.fsync))
    assert main(argv[:2] + ["2^17"] + argv[3:]) == EXIT_USAGE
    assert report.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["r.txt"]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_holds_no_report_text_beside_its_reports():
    # each line is written as it is formatted: the dense run peaks within
    # 1 MiB of its rows and reports alone, where the lines and their joined
    # text took 6.1 MiB more
    argv = ["verify", "--max", "2^14", "--schedule", "1..2^14:1", "--only", "theta"]
    bundle = constants.compute_B(1e-12)

    def rows_and_reports():
        series = list(accumulators.accumulate(2**14, parse_schedule(argv[4], 2**14)))
        verifier.run_suite(series, bundle, only=["theta"])

    def verify():
        with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
            assert main(argv) == EXIT_OK

    assert _traced_peak(verify) - _traced_peak(rows_and_reports) <= 1 << 20


# --- parse_scale and parse_schedule: round trips, and exit 2 on bad input --

scales = st.integers(1, 2**63 - 1)


@given(scales)
def test_parse_scale_round_trips_plain_integers(v):
    assert parse_scale(str(v)) == v
    assert parse_scale(f" {v}\n") == v


@given(st.integers(-40, 40), st.integers(0, 70))
def test_parse_scale_round_trips_powers(a, b):
    # a negative base is refused even where a^b would be in range
    if a >= 0 and 1 <= a**b < 2**63:
        assert parse_scale(f"{a}^{b}") == a**b
    else:
        with pytest.raises(UsageError):
            parse_scale(f"{a}^{b}")


@given(st.integers(1, 9999), st.integers(0, 12))
def test_parse_scale_round_trips_exponent_notation(m, k):
    # m * 10^k = (m * 5^k) * 2^k is exact in binary64 while m * 5^k < 2^53
    assert parse_scale(f"{m}e{k}") == parse_scale(f"{m}E+{k}") == m * 10**k


@given(st.integers(1, 2**63 - 1))
def test_pow2_schedule_is_every_power_of_two_from_2_16(n):
    ts = parse_schedule("pow2", n).tolist()
    if n < 2**16:
        assert ts == [n]
    else:
        assert ts == [2**k for k in range(16, len(ts) + 16)]
        assert ts[-1] <= n < 2 * ts[-1]


@given(st.lists(scales, min_size=1, max_size=20, unique=True), scales)
def test_parse_schedule_round_trips_lists(ts, n):
    ts.sort()
    assert parse_schedule(",".join(map(str, ts)), n).tolist() == ts
    assert parse_schedule(" , ".join(map(str, ts)) + ",", n).tolist() == ts


@given(st.integers(1, 2**40), st.integers(1, 2**40), st.integers(1, 1000), st.data())
def test_parse_schedule_round_trips_ranges(a, step, count, data):
    last = a + (count - 1) * step
    b = data.draw(st.integers(last, last + step - 1))
    n = data.draw(st.integers(last, 2**63 - 1))
    assert parse_schedule(f"{a}..{b}:{step}", n).tolist() == list(range(a, last + 1, step))


bad_scales = st.one_of(
    st.integers(max_value=0).map(str),
    st.integers(min_value=2**63).map(str),
    st.builds("{}.{}".format, st.integers(0, 10**6), st.integers(1, 9)),
    st.builds("{}^-{}".format, st.integers(2, 100), st.integers(1, 100)),
    st.builds("{}^{}".format, st.integers(2, 100), st.integers(63, 10**6)),
    st.builds("-{}^{}".format, st.integers(2, 100), st.integers(63, 10**6)),
    st.sampled_from(["", " ", "^", "2^", "^3", "2^3^4", "e", "1e", "inf",
                     "nan", "-inf", "1e400", "0x10", "2**10", "1,000", "pow2"]),
    st.text(alphabet="abcdfxyz!@#%&*()[] ", max_size=12),
)

bad_schedules = st.one_of(
    bad_scales.filter(lambda t: "," not in t and t.strip() not in ("", "pow2")),
    # past --max 2^20: the last of a..b:1 is b, and a..b:step begins past it
    st.builds("1..{}:1".format, st.integers(2**20 + 1, 2**62)),
    st.builds("{}..{}:{}".format, st.integers(2**20 + 1, 2**40),
              st.integers(2**40, 2**62), st.integers(1, 2**62)),
    st.builds("{}..{}".format, st.integers(1, 2**20), st.integers(1, 2**20)),
    st.integers(2, 2**20).flatmap(
        lambda a: st.integers(1, a - 1).map(lambda b: f"{a}..{b}:1")),
    st.lists(st.integers(1, 2**20), min_size=2, max_size=6)
      .filter(lambda ts: any(b <= a for a, b in zip(ts, ts[1:])))
      .map(lambda ts: ",".join(map(str, ts))),
    st.integers(2**20 + 1, 2**63 - 1).map("1,{}".format),
    st.sampled_from(["", ",", " , ", "pow", "pow2,", "1..", "..5:1", "1..5:0"]),
)


def _run_refusing_a_stream(argv):
    """main(argv) with stderr captured and a fresh checkpoint path.  A
    segment past 2^14 fails the test: the small sieves of a Moebius table
    or of base primes may run, a stream of primes may not."""
    real = primes._sieve_segment

    def sieve(lo, hi, base):
        if hi > 2**14:
            raise AssertionError(f"{argv} sieved [{lo}, {hi})")
        return real(lo, hi, base)

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(primes, "_sieve_segment", sieve), \
            contextlib.redirect_stderr(err):
        argv = argv + ["--checkpoints", os.path.join(tmp, "cp.csv")]
        return main(argv), err.getvalue()


@pytest.mark.parametrize("command", ["sums", "verify"])
def test_a_schedule_past_the_checkpoint_cap_exits_2(command):
    # 2^34 thresholds inside --max 2^34: refused from its length, before
    # the list is built or anything is sieved
    rc, err = _run_refusing_a_stream(
        [command, "--max", "2^34", "--schedule", "1..2^34:1"])
    assert rc == EXIT_USAGE
    assert err == f"error: schedule has {2**34} thresholds, over {2**20}\n"


def test_the_checkpoint_cap_counts_thresholds(monkeypatch):
    assert cli.MAX_CHECKPOINTS == 1 << 20
    monkeypatch.setattr(cli, "MAX_CHECKPOINTS", 10)
    assert parse_schedule("1..10:1", 100).tolist() == list(range(1, 11))
    assert parse_schedule("1..30:3", 100).tolist() == list(range(1, 31, 3))
    assert parse_schedule(",".join(map(str, range(1, 11))), 100).tolist() == list(range(1, 11))
    for spec in ("1..11:1", "1..31:3", ",".join(map(str, range(1, 12)))):
        with pytest.raises(UsageError, match="has 11 thresholds"):
            parse_schedule(spec, 100)


def test_a_schedule_at_the_cap_is_one_int64_array():
    # 2^20 thresholds take 8 MiB as int64; as a list of ints they took
    # about 40 MiB, and np.asarray(range(2^20)) alone 48 MiB
    tracemalloc.start()
    try:
        ts = parse_schedule("1..2^20:1", 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(ts, np.ndarray) and ts.dtype == np.int64
    assert len(ts) == 2**20 and ts[0] == 1 and ts[-1] == 2**20
    assert peak < 10 << 20


@given(bad_scales)
@settings(max_examples=100, deadline=None)
def test_every_bad_scale_exits_2(text):
    with pytest.raises(UsageError):
        parse_scale(text)
    for command in ("sums", "verify"):
        rc, err = _run_refusing_a_stream([command, f"--max={text}"])
        assert rc == EXIT_USAGE and err.startswith("error: "), (command, text, err)


@given(bad_schedules)
@example("")
@example(" , ")
@example("1..2^62:1")
@settings(max_examples=100, deadline=None)
def test_every_bad_schedule_exits_2(spec):
    for command in ("sums", "verify"):
        rc, err = _run_refusing_a_stream(
            [command, "--max", "2^20", f"--schedule={spec}"])
        assert rc == EXIT_USAGE and err.startswith("error: "), (command, spec, err)


FREEZE_PROBE = """
import gc, json, sys
import mertens, mertens.cli
imported = gc.get_freeze_count()
code = mertens.cli.main(["constants"])
print(json.dumps([imported, gc.get_freeze_count(), code]), file=sys.stderr)
"""


def test_only_main_freezes_the_import_heap():
    # importing the package leaves the importer's gc as it was; main moves
    # what the import made into the permanent generation
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", FREEZE_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    imported, frozen, code = json.loads(done.stderr.splitlines()[-1])
    assert (imported, code) == (0, EXIT_OK) and frozen > 0
    assert "gamma" in json.loads(done.stdout)


def test_a_dense_schedule_formats_each_distinct_row_once(tmp_path, monkeypatch, capsys):
    # 3000 thresholds see 431 sets of sums: pi = 0 and one per prime
    path = tmp_path / "cp.csv"
    rows = list(accumulators.accumulate(3000, range(1, 3001)))
    calls = {"file": 0, "stdout": 0}

    def counted(where, real):
        def fmt(v):
            calls[where] += 1
            return real(v)
        return fmt

    monkeypatch.setattr(accumulators, "_fmt", counted("file", accumulators._fmt))
    monkeypatch.setattr(cli, "_fmt", counted("stdout", cli._fmt))
    assert main(["sums", "--max", "3000", "--schedule", "1..3000:1",
                 "--checkpoints", str(path)]) == EXIT_OK
    assert calls == {"file": 6 * 431, "stdout": 0}
    monkeypatch.undo()
    f = accumulators._fmt
    lines = path.read_text().splitlines()
    assert lines[1:] == [
        ",".join([str(c.x), str(c.pi), *map(f, (
            c.recip_sum, c.recip_comp, c.logp_over_p, c.logp_comp, c.theta, c.theta_comp))])
        for c in rows]
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == [f"x={c.x} pi={c.pi} recip={f(c.recip_sum)} "
                        f"logp_over_p={f(c.logp_over_p)} theta={f(c.theta)}" for c in rows]


def test_each_stdout_row_prints_its_file_columns(tmp_path, capsys):
    # a residual of 0.0 or -0.0 prints differently, so a dense schedule
    # whose zero residuals flip sign from one x to the next makes the rows
    # that repeat a pi be formatted again; sums resumes from it to 3000
    path = tmp_path / "cp.csv"
    comps = ("recip_comp", "logp_comp", "theta_comp")
    rows = [c._replace(**{k: -0.0 for k in comps if c.x % 2 and getattr(c, k) == 0})
            for c in accumulators.accumulate(1500, range(1, 1501))]
    accumulators.write_checkpoints(rows, path)
    assert main(["sums", "--max", "3000", "--schedule", "1..3000:1", "--resume",
                 "--checkpoints", str(path)]) == EXIT_OK
    lines = path.read_text().splitlines()[1:]
    # x = 3 and 4 both have pi = 2, and a logp_comp of -0.0 and 0.0
    assert [line.split(",")[5] for line in lines[2:4]] == [
        "-0.0000000000000000E+00", "0.0000000000000000E+00"]
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"wrote 3000 checkpoints to {path}"
    for line, printed in zip(lines, out[:-1], strict=True):
        x, pi, recip, _, logp, _, theta, _ = line.split(",")
        assert printed == f"x={x} pi={pi} recip={recip} logp_over_p={logp} theta={theta}"


@pytest.mark.parametrize("first, resume, named", [
    # the file lacks 2^18, 2^19 and 3 * 2^18, below its last row at 2^20
    (["--max", "2^20", "--schedule", "2^20"],
     ["--max", "2^21", "--schedule", "2^18..2^21:2^18"],
     ["threshold 262144", "x=1048576"]),
    # the file's last row is past --max
    (["--max", "2^20", "--schedule", "2^18..2^20:2^18"],
     ["--max", "2^19", "--schedule", "2^18..2^19:2^18"],
     ["x=1048576", "n_max=524288"]),
], ids=["a-threshold-the-file-lacks", "a-row-past-max"])
def test_a_resume_that_would_drop_rows_keeps_the_old_file(
        first, resume, named, tmp_path, capsys):
    path = tmp_path / "cp.csv"
    assert main(["sums", *first, "--checkpoints", str(path)]) == EXIT_OK
    old = path.read_bytes()
    capsys.readouterr()
    assert main(["sums", *resume, "--resume", "--checkpoints", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert all(text in err for text in named), err
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["cp.csv"]
