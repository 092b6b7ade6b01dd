import json

import pytest

from mertens import cli, primes
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
    ])
    def test_parse_scale_rejects(self, text):
        # not an integer >= 1, or past 2^63; a^b is refused before it is
        # computed
        with pytest.raises(UsageError):
            parse_scale(text)

    def test_parse_schedule_pow2(self):
        assert parse_schedule("pow2", 2**20) == [2**k for k in range(16, 21)]
        assert parse_schedule("pow2", 2**30) == [2**k for k in range(16, 27)]
        assert parse_schedule("pow2", 1000) == [1000]

    def test_parse_schedule_list_and_range(self):
        assert parse_schedule("10,100,1e3", 10**4) == [10, 100, 1000]
        assert parse_schedule("100..300:100", 10**4) == [100, 200, 300]


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
        raise AssertionError("a pool or a sieve started")

    monkeypatch.setattr(primes, "ThreadPoolExecutor", fail)
    monkeypatch.setattr(primes, "_sieve_segment", fail)
    rc = main([command, "--max", "2^20", "--workers", workers,
               "--checkpoints", str(tmp_path / "cp.csv")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"workers must be an integer in [1, 64], got {workers}" in err
