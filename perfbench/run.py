"""The mertens benchmark: CLI workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 40 --trace 0

Run from the repository root; the program under test is ``src/mertens``.
Every invocation is a fresh ``mertens`` CLI process (see child.py), and
its output is checked (see checks.py).  A run repeats the workload while
the next repetition is expected to end within ``--seconds``.  Before and
after the repetitions it times ``SETUP_SAMPLES`` fresh interpreters that
only import ``mertens.cli`` (set-up).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` untraced and traced repetitions alternate, and it
holds the per-layer metrics of the traced ones plus the tracing overhead.
The line before it, and ``.bench_out/results/``, hold the samples, the
failure count, the tail percentile and the provenance.  NOTES.md says
why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".bench_out"

# Set-up samples per run, half before the repetitions and half after, so
# that the median spans the run's time as the repetitions do.
SETUP_SAMPLES = 12
# A run must end within 180 s; invocations still running at this many
# seconds after the start are killed and count as failed.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "primes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "primes.base_sieve_s": "s",
    "primes.segment_sieve_s": "s",
    "primes.segments": "count",
    "primes.integers_sieved": "count",
    "primes.extract_s": "s",
    "primes.primes_extracted": "count",
    "primes.sieve_calls": "count",
    "primes.useful_frac": "frac",
    "primes.primes_up_to_s": "s",
    "accumulators.accumulate_s": "s",
    "accumulators.sum_self_s": "s",
    "accumulators.checkpoints": "count",
    "accumulators.save_s": "s",
    "accumulators.load_s": "s",
    "accumulators.bytes_written": "B",
    "accumulators.bytes_read": "B",
    "special.euler_gamma_s": "s",
    "special.prime_zeta_s": "s",
    "special.log_weighted_tail_direct_s": "s",
    "special.exp_integral_e1_s": "s",
    "constants.compute_B_s": "s",
    "constants.H_direct_s": "s",
    **{f"verifier.{c}_s": "s" for c in (
        "grossehilfsatz1", "theta", "chi", "stirling", "legendre",
        "abel", "remainder", "grossehilfsatz2", "product", "table",
    )},
    "verifier.reports": "count",
    "verifier.failed": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}

# pi(10^8), for the H_direct oracle of the analysis workload.
PI_1E8 = 5761455


def stream_schedule() -> str:
    # Explicit, because the CLI's pow2 schedule stops at 2^26.
    return ",".join(f"2^{k}" for k in range(16, 31))


def cli_env(root: str = ".") -> dict:
    env = dict(os.environ)
    env.pop("MERTENS_OUT_DIR", None)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(root, "src"))
    return env


def git_revision(root: str) -> str | None:
    """HEAD of a git checkout at ``root``, read without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: str, seed: int) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    caches = {}
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE.
    for label, code in (("L1d", 188), ("L2", 191), ("L3", 194)):
        try:
            caches[label] = os.sysconf(code)
        except (ValueError, OSError):
            caches[label] = None
    return {
        "revision": git_revision(root),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "seed": seed,
    }


# --- invocations ------------------------------------------------------------

@dataclass
class Result:
    argv: list
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    output_bytes: int
    spans: dict | None
    errors: list = field(default_factory=list)


def spawn_and_wait(cmd, cwd, stdout, stderr, deadline):
    """Run cmd to its end; return its monotonic start and end and exit code.

    At the deadline the process gets SIGTERM, then SIGKILL 5 s later.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=cli_env(), stdin=subprocess.DEVNULL,
        stdout=stdout, stderr=stderr,
    )
    timer = threading.Timer(max(0.0, deadline - start), proc.terminate)
    timer.start()
    try:
        proc.wait()
        end = time.monotonic()
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return start, end, proc.returncode


def invoke(argv, workdir, traced, deadline) -> Result:
    workdir = os.path.abspath(workdir)
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    spans_path = os.path.join(workdir, "spans.json")
    cmd = [sys.executable, CHILD]
    if traced:
        cmd += ["--trace", spans_path]
    cmd += ["--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start, end, rc = spawn_and_wait(cmd, workdir, out, err, deadline)
    with open(out_path, encoding="ascii", errors="replace", newline="") as fh:
        stdout = fh.read()
    with open(err_path, encoding="ascii", errors="replace") as fh:
        stderr_lines = fh.read().splitlines()
    errors = []
    t0, rss_kib = start, 0
    if stderr_lines and stderr_lines[0].startswith("perfbench-t0 "):
        t0 = float(stderr_lines.pop(0).split()[1])
    else:
        errors.append("no start mark: the process failed before main")
    if stderr_lines and stderr_lines[-1].startswith("perfbench-rss "):
        rss_kib = int(stderr_lines.pop().split()[1])
    else:
        errors.append("no peak RSS reported")
    output_bytes = os.path.getsize(out_path)
    if "--report" in argv:
        report = os.path.join(workdir, argv[argv.index("--report") + 1])
        if os.path.exists(report):
            output_bytes += os.path.getsize(report)
    spans = None
    if traced:
        try:
            with open(spans_path, encoding="ascii") as fh:
                spans = json.load(fh)
        except (OSError, ValueError) as exc:
            errors.append(f"no spans: {exc}")
    if rc != 0:
        errors.append(f"exit code {rc}: {' '.join(stderr_lines[-3:])}")
    return Result(
        argv=argv, rc=rc, wall_s=end - t0, rss_mb=rss_kib / 1024.0,
        stdout=stdout, output_bytes=output_bytes, spans=spans, errors=errors,
    )


# --- workloads ----------------------------------------------------------------

def _sums_checked(res, workdir, xs, reference):
    """Check a `sums` invocation; return (errors, checkpoint file lines)."""
    errors = checks.check_sums_output(res.stdout, len(xs), "cp.csv")
    try:
        lines, rows = checks.read_checkpoints(os.path.join(workdir, "cp.csv"))
    except (OSError, ValueError) as exc:
        return errors + [f"checkpoint file: {exc}"], None
    return errors + checks.check_rows(rows, xs, reference), lines


def stream_steps(seed, refs):
    """sums to 2^30 at w1: the sieve loop and the summation kernel."""
    xs = [1 << k for k in range(16, 31)]
    argv = ["sums", "--max", "2^30", "--schedule", stream_schedule(),
            "--workers", "1", "--checkpoints", "cp.csv"]

    def check(res, workdir):
        return _sums_checked(res, workdir, xs, refs["sums"])[0]

    return [(argv, check)], checks.A007053[30], {}


def dense_limit(seed: int) -> int:
    """M: a multiple of 2^16 within 2^22 of 2^28, drawn from the seed."""
    return (1 << 28) + random.Random(seed).randint(-64, 64) * (1 << 16)


def resume_dense_steps(seed, refs):
    """Dense checkpoints to M, then a resume to 2^29, both at w1.

    Not at w2: the thread pool's bimodal memory and time (NOTES.md,
    defect 3) would make every metric of this workload unsteady.
    """
    M = dense_limit(seed)
    step = 1 << 16
    first_xs = list(range(step, M + 1, step))
    all_xs = list(range(step, (1 << 29) + 1, step))
    first = ["sums", "--max", str(M), "--schedule", f"2^16..{M}:2^16",
             "--workers", "1", "--checkpoints", "cp.csv"]
    resume = ["sums", "--max", "2^29", "--resume", "--schedule",
              "2^16..2^29:2^16", "--workers", "1", "--checkpoints", "cp.csv"]
    covered = []

    def check_first(res, workdir):
        errors, lines = _sums_checked(res, workdir, first_xs, refs["sums"])
        covered[:] = lines or []
        return errors

    def check_resume(res, workdir):
        errors, lines = _sums_checked(res, workdir, all_xs, refs["sums"])
        if not covered or lines is None or lines[:len(covered)] != covered:
            errors.append("resume changed the rows it covered")
        return errors

    return [(first, check_first), (resume, check_resume)], checks.A007053[29], {"M": M}


def analysis_steps(seed, refs):
    """constants with the H oracle at 1e8, then the verify suite at 2^20."""
    constants = ["constants", "--tol", "1e-15", "--oracle", "--prime-limit", "1e8"]
    verify = ["verify", "--max", "2^20", "--wolf-table", "--report", "r.txt"]

    def check_constants(res, workdir):
        return checks.check_constants_output(res.stdout, refs["analysis"])

    def check_verify(res, workdir):
        return checks.check_verify_output(
            res.stdout, os.path.join(workdir, "r.txt"), refs["analysis"]
        )

    primes = PI_1E8 + checks.A007053[20]
    return [(constants, check_constants), (verify, check_verify)], primes, {}


WORKLOADS = {
    "stream": stream_steps,
    "resume_dense": resume_dense_steps,
    "analysis": analysis_steps,
}


# --- a run ------------------------------------------------------------------

@dataclass
class Rep:
    traced: bool
    wall_s: float
    rss_mb: float
    results: list


def run_rep(workload, seed, refs, workdir, traced, deadline) -> Rep:
    os.makedirs(workdir)
    try:
        steps, _, _ = WORKLOADS[workload](seed, refs)
        results = []
        for argv, check in steps:
            res = invoke(argv, workdir, traced, deadline)
            if res.rc == 0:
                res.errors += check(res, workdir)
            res.stdout = None
            results.append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Rep(
        traced=traced,
        wall_s=sum(r.wall_s for r in results),
        rss_mb=max(r.rss_mb for r in results),
        results=results,
    )


def setup_times(workdir, deadline, samples) -> list[float]:
    """Interpreter start plus `import mertens.cli`, each in a fresh process."""
    os.makedirs(workdir, exist_ok=True)
    times = []
    for _ in range(samples):
        start, end, rc = spawn_and_wait(
            [sys.executable, "-c", "import mertens.cli"], workdir,
            subprocess.DEVNULL, subprocess.DEVNULL, deadline,
        )
        if rc != 0:
            raise RuntimeError(f"import mertens.cli exited with {rc}")
        times.append(end - start)
    return times


def tail(samples) -> dict:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return {"n": n, "percentile": None, "value": None}
    ordered = sorted(samples)
    pct = 100 * (n - 10) // n
    rank = -(-n * pct // 100)  # nearest rank: ceil(n * pct / 100)
    return {"n": n, "percentile": pct, "value": ordered[rank - 1]}


def traced_layers(rep: Rep) -> dict:
    total = dict.fromkeys(PER_LAYER, 0)
    consumed = 0
    for res in rep.results:
        total["cli.output_bytes"] += res.output_bytes
        if res.spans is None:
            continue
        for key, value in layer_metrics(res.spans).items():
            if key == "primes.primes_consumed":
                consumed += value
            else:
                total[key] += value
    extracted = total["primes.primes_extracted"]
    total["primes.useful_frac"] = consumed / extracted if extracted else 0.0
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.monotonic()
    deadline = began + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "mertens", "cli.py")):
        print("run from the repository root: src/mertens/cli.py not found", file=sys.stderr)
        return 2
    refs = {
        "sums": checks.load_sums_reference(),
        "analysis": checks.load_analysis_reference(),
    }
    _, primes_streamed, inputs = WORKLOADS[args.workload](args.seed, refs)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(OUT_DIR, f"{tag}-{os.getpid()}")
    try:
        setups = setup_times(run_dir, deadline, SETUP_SAMPLES // 2)
        reps: list[Rep] = []
        longest = 0.0
        start = time.monotonic()
        while True:
            want_traced = bool(args.trace) and len(reps) % 2 == 1
            kinds_missing = not reps or (args.trace and len(reps) < 2)
            now = time.monotonic()
            if not kinds_missing and (now - start + longest > args.seconds
                                      or now + longest > deadline):
                break
            workdir = os.path.join(run_dir, f"rep{len(reps)}")
            reps.append(run_rep(args.workload, args.seed, refs, workdir,
                                want_traced, deadline))
            longest = max(longest, time.monotonic() - now)
        setups += setup_times(run_dir, deadline, SETUP_SAMPLES - len(setups))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    invocations = [res for rep in reps for res in rep.results]
    failures = [res for res in invocations if res.errors]
    plain = [r for r in reps if not r.traced]
    wall = statistics.median(r.wall_s for r in plain)
    if args.trace:
        traced = [r for r in reps if r.traced]
        layers = [traced_layers(r) for r in traced]
        values = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER}
        values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - wall
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall,
            "primes_per_s": primes_streamed / wall,
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    detail = {
        "workload": args.workload,
        "inputs": inputs,
        "provenance": provenance(root, args.seed),
        "failed_frac": len(failures) / len(invocations),
        "wall_s_tail": tail([r.wall_s for r in plain]),
        "wall_s_samples": [r.wall_s for r in plain],
        "traced_wall_s_samples": [r.wall_s for r in reps if r.traced],
        "peak_rss_mb_samples": [r.rss_mb for r in plain],
        "setup_s_samples": setups,
        "errors": [[res.argv, res.errors] for res in failures][:10],
        "run_s": time.monotonic() - began,
    }
    result = {
        "correct": not failures,
        "attempted": len(invocations),
        "failed": len(failures),
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{tag}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    for res in failures:
        print(f"FAILED {' '.join(res.argv)}: {res.errors[:3]}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
