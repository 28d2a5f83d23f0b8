"""Run one `rfsq` CLI command with tracing installed.

    python rfsqbench/child.py SPANS_JSON ARG...

Equivalent to ``python -m rfsq.cli ARG...`` except that every traced entry
point records spans, which are written to SPANS_JSON when the command ends.
The exit code is the command's.
"""

import json
import sys
from pathlib import Path

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    cli = tracing.install(tracer)
    code = 1
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
