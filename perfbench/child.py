"""Run one mertens CLI invocation, as the `mertens` console script does.

    python perfbench/child.py [--trace SPANS.json] -- <mertens arguments>

This process forks at once.  The forked process imports ``mertens.cli``
(that is set-up), writes the moment after it on the system-wide
monotonic clock to stderr as ``perfbench-t0 <seconds>``, and exits with
``mertens.cli.main(arguments)``.  With ``--trace`` it first wraps the
public functions of the package (see tracer.py) and writes the spans to
SPANS.json at exit.

This process waits for it, writes its ``ru_maxrss`` in KiB to stderr as
``perfbench-rss <kib>``, and exits with its exit code.  The fork is there
because Linux carries a process's peak RSS across exec: a CLI process
exec'd by the benchmark harness would report the harness's peak whenever
that is the larger.  SIGTERM kills the forked process.
"""

import os
import signal
import sys
import time


def run_cli(argv: list[str], trace_path) -> int:
    import mertens.cli

    tracer = None
    if trace_path is not None:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    sys.stderr.write(f"perfbench-t0 {time.monotonic()!r}\n")
    sys.stderr.flush()
    try:
        return mertens.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: child.py [--trace FILE] -- <mertens arguments>", file=sys.stderr)
        return 2
    pid = []
    signal.signal(signal.SIGTERM, lambda *_: pid and pid[0] > 0 and os.kill(pid[0], signal.SIGKILL))
    pid.append(os.fork())
    if pid[0] == 0:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        sys.exit(run_cli(argv[1:], trace_path))
    _, status, usage = os.wait4(pid[0], 0)
    sys.stderr.write(f"perfbench-rss {usage.ru_maxrss}\n")
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
