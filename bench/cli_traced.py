"""``python -m hkcert ARGS`` with the benchmark's tracer installed.

Usage: python bench/cli_traced.py SPANS_FILE OP_ID -- ARGS...

Appends the invocation's spans to SPANS_FILE and exits the way hkcert
would, including through ``SystemExit`` raised inside a command.
"""

import sys

import tracer

spans_path, op = sys.argv[1], int(sys.argv[2])
argv = sys.argv[sys.argv.index("--") + 1:]

import hkcert.cli  # noqa: E402

spans = tracer.Tracer()
spans.op = op
tracer.install(spans)
try:
    code = spans.wrap(hkcert.cli.main, "cli.main")(argv)
finally:
    spans.dump(spans_path, "a")
sys.exit(code)
