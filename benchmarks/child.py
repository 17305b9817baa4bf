"""One ``sqzsim run`` invocation, timed from inside its own process.

Usage::

    python3 benchmarks/child.py RESULT_JSON TRACE -- run <scenario> [sqzsim run options]

The arguments after ``--`` go to ``sqzsim.cli.main`` unchanged, so the
scenario runs exactly as the ``sqzsim run`` command runs it.  The child
marks the moment ``run_scenario`` is entered (imports and argument and
config handling done) and the moment it returns (manifest written), with
the process CPU time of all threads at both marks.  With TRACE=1 it also
records layer spans (see ``spans.py``).  Everything is kept in memory and
written to RESULT_JSON when the run ends.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- <sqzsim arguments>")
    from sqzsim import cli, scenarios

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.instrument()

    marks: dict[str, float] = {}
    run_scenario = scenarios.run_scenario

    def timed_run(cfg):
        marks["cpu_ready"] = time.process_time()
        marks["ready"] = time.monotonic()
        try:
            return run_scenario(cfg)
        finally:
            marks["done"] = time.monotonic()
            marks["cpu_done"] = time.process_time()

    scenarios.run_scenario = timed_run
    code = cli.main(sys.argv[4:])
    result = {
        "exit_code": code,
        "module_file": scenarios.__file__,
        "marks": marks,
        "spans": None if tracer is None else tracer.spans,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
