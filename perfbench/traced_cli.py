"""Run one meansq CLI command with every layer traced.

Usage: python3 perfbench/traced_cli.py TRACE_PATH COMMAND [ARGS...]

Stands in for ``python3 -m meansq.cli COMMAND [ARGS...]`` in the traced
rounds of the symbolic-cold workload.  The CLI's stdout, stderr and exit
code are unchanged; the spans and the import time go to TRACE_PATH.
"""

from __future__ import annotations

import sys
from time import perf_counter

_T0 = perf_counter()
import meansq.cli  # noqa: E402

IMPORT_S = perf_counter() - _T0

import tracer as tr  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.Tracer()
    tr.install(tracer)
    sid = tracer.open("bench.op")
    try:
        rc = meansq.cli.main(argv)
    finally:
        tracer.close(sid)
        tracer.dump(trace_path, {"import_s": IMPORT_S})
    return rc


if __name__ == "__main__":
    sys.exit(main())
