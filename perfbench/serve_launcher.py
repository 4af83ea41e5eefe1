"""Run ``repro serve`` for the benchmark, optionally with tracing shims.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out FILE] serve DIR -m 256 ...

Everything after the optional ``--trace-out FILE`` is passed unchanged to
``repro.cli.main``.  With ``--trace-out`` the shims of
``tracing.install_serve`` are installed first, and when the daemon shuts
down the per-request layer self times, the call counts and the other
counts are written to FILE as JSON.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if trace_out is None:
        from repro.cli import main as repro_main

        return repro_main(argv)
    import tracing

    tracer = tracing.Tracer()
    requests = []
    tracing.install_serve(tracer, requests)
    from repro.cli import main as repro_main

    code = repro_main(argv)
    partial = trace_out + ".part"
    with open(partial, "w") as fh:
        json.dump({"requests": requests, "calls": dict(tracer.calls),
                   "counts": dict(tracer.counts)}, fh)
    os.replace(partial, trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
