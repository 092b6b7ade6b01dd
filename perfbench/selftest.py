"""Self-test of the benchmark's output checks and failure count.

    python3 perfbench/selftest.py

Run from the repository root; it takes about 5 s.  It runs a small
workload through the same path as a real run, in which one invocation
writes correct checkpoints, one has a checkpoint value corrupted after it
exits, and one exits with a usage error.  The result line must count the
last two, and only those, as failed.  It also checks that BENCHMARK.json
names the workloads and metrics that run.py reports.
"""

import contextlib
import io
import json
import os
import sys

import checks
import run

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def corrupt_recip(path: str, row: int) -> None:
    """Move the recip sum of one checkpoint row by 1e-11 relative."""
    with open(path, encoding="ascii", newline="") as fh:
        lines = fh.read().split("\n")
    fields = lines[row].split(",")
    fields[2] = f"{float(fields[2]) * (1 + 1e-11):.16E}"
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines))


def selftest_steps(seed, refs):
    xs = [1 << 16, 1 << 17, 1 << 18]
    sums = ["sums", "--max", "2^18", "--schedule", "2^16,2^17,2^18",
            "--workers", "1", "--checkpoints", "cp.csv"]

    def check(res, workdir):
        return run._sums_checked(res, workdir, xs, refs["sums"])[0]

    def check_corrupted(res, workdir):
        corrupt_recip(os.path.join(workdir, "cp.csv"), row=2)
        return check(res, workdir)

    def check_constants(res, workdir):
        return checks.check_constants_output(res.stdout, refs["analysis"])

    steps = [
        (sums, check),
        (sums, check_corrupted),
        (["constants", "--tol", "1"], check_constants),
    ]
    return steps, checks.A007053[18], {}


def main() -> int:
    run.WORKLOADS["selftest"] = selftest_steps
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "selftest", "--seed", "0",
                       "--seconds", "0.1", "--trace", "0"])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    expect(rc == 0, "run.main exits 0 with a result")
    expect(result["attempted"] == 3, "three invocations attempted")
    expect(result["failed"] == 2 and not result["correct"],
           "corrupted value and wrong exit code counted as failed")
    flagged = [argv[0] for argv, _ in detail["errors"]]
    expect(flagged == ["sums", "constants"], f"the failed invocations: {flagged}")
    expect(any("recip" in e for _, errs in detail["errors"] for e in errs),
           "the corrupted sum is named")
    expect(any("exit code 2" in e for _, errs in detail["errors"] for e in errs),
           "the exit code is named")
    expect(abs(detail["failed_frac"] - 2 / 3) < 1e-12, "failed_frac = 2/3")

    with open("BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    expect({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS) - {"selftest"},
           "BENCHMARK.json lists the workloads of run.py")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        expect({m["name"]: m["unit"] for m in bench[key]} == table,
               f"BENCHMARK.json {key} metrics match run.py")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
