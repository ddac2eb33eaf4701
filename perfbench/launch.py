"""Run one ``repro`` CLI command with the layer tracer installed.

    python perfbench/launch.py --trace-out TRACE.json -- serve ARTIFACT ...

Equivalent to ``python -m repro ...`` except that :mod:`tracer` wraps
the layer boundaries first and the spans are written to ``TRACE.json``
when the command returns (for ``serve``: after SIGINT). SIGUSR1 marks
the start of the measured part (:func:`tracer.cut`) and prints
``common.CUT_MARKER`` on standard output once it has.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from common import CUT_MARKER  # noqa: E402


def _on_cut(signum, frame) -> None:
    tracer.cut()
    print(CUT_MARKER, flush=True)


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, args = argv[1], argv[3:]
    tracer.install()
    signal.signal(signal.SIGUSR1, _on_cut)
    from repro.cli import main as repro_main

    try:
        return repro_main(args)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
