"""Child-side runner: one benchmark job in a fresh interpreter.

Usage: python3 -I qdbench/child.py REPORT_FD TRACE ARG...

Imports ``qdonald.cli`` from the checkout's ``src`` first, notes when that
import returned (CLOCK_MONOTONIC, comparable with the parent's spawn time),
installs the tracer when TRACE is 1, and runs ``cli.main(ARG...)`` with the
program's own stdout and stderr.  When the job ends it writes a JSON report
to the inherited file descriptor REPORT_FD: the import time and, in a traced
run, the spans.  It exits with the CLI's exit code.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]

import qdonald.cli  # noqa: E402

IMPORTED_NS = time.monotonic_ns()


def main() -> int:
    import json

    report_fd, traced, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        code = qdonald.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    sys.stdout.flush()
    report = {"imported_ns": IMPORTED_NS,
              "trace": tracer.dump() if tracer is not None else None}
    with os.fdopen(report_fd, "w") as fh:
        json.dump(report, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
