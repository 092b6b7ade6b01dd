"""Write the reference outputs the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run from the repository root.  It runs the CLI from ``src/`` once per
reference (about 25 s on a 2-core Xeon) and writes

- ``reference/sums.csv.gz``: pi and the three sums at every multiple of
  2^16 up to 2^29 (one run, no resume) and at 2^30;
- ``reference/analysis.json``: B from ``mpmath.mertens`` and the table
  thresholds, check names and params of ``verify --max 2^20 --wolf-table``.

Rerun it only when a change to the program is meant to change these.
"""

import csv
import gzip
import io
import json
import os
import shutil
import subprocess
import sys

import mpmath

from checks import HERE, SUMS_REFERENCE, ANALYSIS_REFERENCE, parse_report, read_checkpoints
from run import cli_env, git_revision, stream_schedule

WORK = os.path.join(".bench_out", "reference")


def cli(*args) -> str:
    out = subprocess.run(
        [sys.executable, "-m", "mertens.cli", *args], cwd=WORK, env=cli_env(),
        check=True, capture_output=True, text=True,
    )
    return out.stdout


def main() -> None:
    os.makedirs(WORK, exist_ok=True)
    try:
        cli("sums", "--max", "2^29", "--schedule", "2^16..2^29:2^16",
            "--workers", "1", "--checkpoints", "dense.csv")
        cli("sums", "--max", "2^30", "--schedule", stream_schedule(),
            "--workers", "1", "--checkpoints", "stream.csv")
        _, dense = read_checkpoints(os.path.join(WORK, "dense.csv"))
        _, stream = read_checkpoints(os.path.join(WORK, "stream.csv"))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "pi", "recip", "logp_over_p", "theta"])
        for row in dense + [r for r in stream if r[0] > dense[-1][0]]:
            writer.writerow([row[0], row[1]] + [repr(v) for v in row[2:]])
        with open(SUMS_REFERENCE, "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(buf.getvalue().encode("ascii"))

        table_xs, checks, _ = parse_report(
            cli("verify", "--max", "2^20", "--wolf-table")
        )
        mpmath.mp.dps = 30
        doc = {
            "revision": git_revision(os.getcwd()),
            "mpmath_mertens": str(mpmath.mertens),
            "table_xs": table_xs,
            "checks": [c[1:] for c in checks],
        }
        with open(ANALYSIS_REFERENCE, "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"wrote {os.path.relpath(SUMS_REFERENCE)} and {os.path.relpath(ANALYSIS_REFERENCE)}")


if __name__ == "__main__":
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    main()
