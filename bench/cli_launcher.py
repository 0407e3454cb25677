"""Run the qlower CLI with the benchmark's tracing wrappers installed.

    python3 bench/cli_launcher.py TRACE_OUT CLI_ARGS...

Writes the trace to TRACE_OUT as JSON, with three readings taken before
the trace is analysed:
- ``start_ms``: CPU time of interpreter start plus ``import qlower.cli``,
  read before the tracing module is imported;
- ``main_ms``: CPU time of ``qlower.cli.main``, less the time the tracer's
  observers spent inside it;
- ``main_rss_mb``: peak resident set when ``qlower.cli.main`` returns.

The exit code is the CLI's.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    trace_out, args = sys.argv[1], sys.argv[2:]
    import qlower.cli

    start_ms = time.process_time() * 1000.0
    import json
    import resource

    from tracing import Tracer, clock

    tracer = Tracer()
    tracer.install()
    begin = clock()
    try:
        return qlower.cli.main(args)
    finally:
        main_ms = (clock() - begin - tracer.observe_s) * 1000.0
        main_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.uninstall()
        dumped = tracer.dump()
        dumped.update(start_ms=start_ms, main_ms=main_ms, main_rss_mb=main_rss_mb)
        Path(trace_out).write_text(json.dumps(dumped))


if __name__ == "__main__":
    sys.exit(main())
