"""Run one loghurwitz CLI invocation with per-layer tracing.

Usage: python cli_child.py <cli arguments...>  (with the package's src/ on PYTHONPATH)

Behaves like `python -m loghurwitz.cli`, and in addition writes one line
`perfbench-trace <json>` to standard error with the child's import time,
command time, field-build time and per-layer counters.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import loghurwitz.cli as cli  # noqa: E402  (timed import)

t1 = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from layers import TRACE_MARKER, Tracer  # noqa: E402

tracer = Tracer().install()
t2 = time.perf_counter()
try:
    code = cli.main(sys.argv[1:])
finally:
    t3 = time.perf_counter()
    report = {
        "import_s": t1 - t0,
        "command_s": t3 - t2,
        "field_s": tracer.values.get("ffield.build.self_s", 0.0),
        "layers": tracer.values,
    }
    sys.stderr.write(TRACE_MARKER + json.dumps(report) + "\n")
sys.exit(code)
