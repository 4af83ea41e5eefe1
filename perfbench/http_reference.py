"""A frozen stdlib HTTP server: the reference kernel of ``serve-http``.

Usage::

    python3 perfbench/http_reference.py PORT_FILE

It answers every ``POST`` with a fixed JSON body of about the size of a
``repro-serve/1`` acknowledgement, through the same ``http.server``
machinery, one connection per request, that the daemon uses.  A round
trip to it costs what a serve round trip costs minus the scheduler's
work, so it slows down with the host the way a serve round trip does:
connection set-up, process wake-ups and HTTP parsing, which the
interpreter kernel of ``hostnorm.py`` does not exercise.  Like that
kernel, it must never change.
"""

from __future__ import annotations

import json
import os
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

BODY = json.dumps(
    {"format": "repro-serve/1", "ok": True,
     "result": {"submitted": 123456, "release": 7654321}},
    sort_keys=True,
).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        if request.get("op") == "shutdown":
            self.server.stop = True
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)


def main(port_file: str) -> int:
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.stop = False
    partial = port_file + ".part"
    with open(partial, "w") as fh:
        fh.write(f"{server.server_address[1]}\n")
    os.replace(partial, port_file)
    try:
        while not server.stop:
            server.handle_request()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
