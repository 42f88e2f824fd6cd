"""Traced entry point for one altproj command.

    python perfbench/cli_shim.py SPANS.json <altproj arguments...>

Runs ``altproj.cli.main`` with the benchmark's tracer installed, writes the
recorded spans to SPANS.json and exits with main's exit code.  The root span
``cli.main`` is the in-process time of the command.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import altproj.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return altproj.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    raise SystemExit(main())
