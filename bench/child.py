"""One entdist CLI process, as the benchmark runs it.

    python3 bench/child.py TIMING_JSON SPANS_JSONL|- ENTDIST_ARGS...

Imports ``entdist.cli`` from the ``src`` tree next to this directory and
calls ``entdist.cli.main`` with ENTDIST_ARGS, exactly as the ``entdist``
console script does.  It writes the monotonic-clock times at which ``main``
was entered and left to TIMING_JSON, so the parent can split the process's
wall time into set-up and work.  With a SPANS_JSONL path instead of ``-``
the run is traced (see tracing.py) and the spans are written there.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run(timing_path: str, spans_path: str, argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import entdist.cli

    if not Path(entdist.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: entdist was imported from {entdist.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    tracer = None
    if spans_path != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    try:
        code = tracer.run_main(argv) if tracer else entdist.cli.main(argv)
    finally:
        end = time.monotonic()
        if tracer:
            tracer.uninstall()
    timing = {"main_start": start, "main_end": end, "exit": code}
    if tracer:
        tracer.write(spans_path)
        timing["counters"] = dict(tracer.counters)
    Path(timing_path).write_text(json.dumps(timing), encoding="utf-8")
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        sys.exit(2)
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
