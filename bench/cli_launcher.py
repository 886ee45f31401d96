"""Start the `entwine` command line, optionally under the benchmark's tracer.

Run as ``python3 bench/cli_launcher.py <entwine arguments>`` with the
package on PYTHONPATH.  Without ENTWINE_BENCH_TRACE this is the plain
``entwine`` entry point.  With it set to a file path, the launcher times the
import of ``entwine.cli``, installs the tracer, runs the command inside a
root frame and writes the layer counters, spans and pool records to that
file before exiting with the command's exit code.

The file holds one JSON line, then a line with the seconds spent writing it.
ENTWINE_BENCH_TRACE_COST gives the calibrated per-call wrapper costs
(``cost_in,cost_out``, measured by the parent on the same interpreter), and
ENTWINE_BENCH_SPANS=1 turns on span recording.  Installing and removing the
wrappers is charged to ``trace.bookkeeping``.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

TRACE_ENV = "ENTWINE_BENCH_TRACE"
COST_ENV = "ENTWINE_BENCH_TRACE_COST"
SPANS_ENV = "ENTWINE_BENCH_SPANS"


def main() -> None:
    trace_path = os.environ.get(TRACE_ENV)
    if not trace_path:
        from entwine.cli import main as cli_main

        cli_main(prog_name="entwine")
        return

    t0 = perf_counter()
    import entwine.cli

    t_install = perf_counter()
    import_s = t_install - t0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer()
    tracer.cost_in, tracer.cost_out = (float(x) for x in os.environ[COST_ENV].split(","))
    tracer.record_spans = os.environ.get(SPANS_ENV) == "1"
    tracer.install()
    tracer.charge(perf_counter() - t_install)
    code = 0
    try:
        tracer.call("cli.main", "cli.main", entwine.cli.main, (), {"prog_name": "entwine"})
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        t_uninstall = perf_counter()
        tracer.uninstall()
        tracer.charge(perf_counter() - t_uninstall)
        t_dump = perf_counter()
        doc = {"import_s": import_s, "layers": tracer.layers(),
               "spans": tracer.spans(), "pools": tracer.pools}
        text = json.dumps(doc)
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
            fh.write(f"{perf_counter() - t_dump!r}\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
