"""Run one thetacomb CLI query with tracing installed and write its trace.

Usage: python3 perfbench/traced_child.py TRACE_PATH QUERY_ID CLI_ARG...

Needs ``src`` on PYTHONPATH.  Stdout, stderr and the exit code are those
of the CLI; the trace goes to TRACE_PATH when the query ends.
"""

import sys
import time

start = time.perf_counter()
import thetacomb.cli  # noqa: E402 - timed as cli.import_s

import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402 - this directory is sys.path[0]


def main() -> int:
    trace_path, query_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(query_id)
    tracer.install()
    try:
        return thetacomb.cli.main(argv)
    finally:
        tracer.write(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
