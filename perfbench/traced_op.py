"""Run one benchmark operation in-process with layer tracing and print JSON.

    python perfbench/traced_op.py cli ARG...    # as ``python -m troupes ARG...``
    python perfbench/traced_op.py plot ARG...   # as ``perfbench/plotdriver.py ARG...``

The operation's own stdout is captured and returned in the JSON object,
together with the tracer's aggregates and spans, so that the caller can
check it byte for byte against the untraced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import tracer


def main() -> int:
    kind, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    tracer.install(t)
    if kind == "plot":
        import plotdriver
        entry = plotdriver.main
    else:
        from troupes import cli
        entry = cli.main  # the wrapped entry point: install() has run
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = entry(argv)
    json.dump({"rc": rc, "stdout": out.getvalue(), **t.summary()}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
