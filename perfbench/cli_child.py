"""Run framelab's command line with tracing on, for the traced cli_calls run.

Usage: python cli_child.py SPANS_FILE [framelab cli arguments ...]

Behaves like ``python -m framelab.cli ARGS`` and also writes the spans
recorded inside this process to SPANS_FILE when the command ends.
"""
import sys

import tracer
from framelab import cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return cli.main(argv)
    finally:
        spans.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
