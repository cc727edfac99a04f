"""Run one pfgames CLI command under the tracer, in a fresh interpreter.

Usage: cli_child.py TOTALS_JSON SPANS_TSV_GZ ORIGIN ARGV...

Behaves like ``python -m pfgames.cli ARGV...`` (same stdout and exit code),
with the layer wrappers installed after the imports. Writes the per-layer
totals to TOTALS_JSON and appends the spans to SPANS_TSV_GZ.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
from pfgames import cli  # noqa: E402


def main() -> int:
    totals_path, spans_path, origin, *argv = sys.argv[1:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.remove()
        sys.stdout.flush()
    Path(totals_path).write_text(json.dumps(tracer.totals()))
    tracer.write_spans(spans_path, origin)
    return code


if __name__ == "__main__":
    sys.exit(main())
