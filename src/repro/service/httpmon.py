"""Optional HTTP sidecar for the daemon: Prometheus + JSON monitoring.

`orpheus serve --metrics-port N` starts this read-only HTTP listener
next to the socket protocol, so fleet tooling can watch a daemon
without speaking the orpheus wire protocol:

* ``GET /metrics`` — Prometheus text exposition of the daemon's report
  (:func:`~repro.service.metrics.exposition`: daemon-lifetime
  counters, per-op latency summaries, cache/scheduler state);
* ``GET /stats``  — the same JSON payload as the ``stats`` protocol op;
* ``GET /healthz`` — 200 ``ok`` while serving, 200 ``degraded: <cause>``
  while in degraded read-only mode (reads still flow, so the daemon is
  *up* — load balancers keep it; the body tells operators why writes
  bounce), 503 while draining.

Port 0 binds an ephemeral port; the daemon records the real one in
``.orpheus/service.json`` so scrapers (and CI) can discover it. The
server is deliberately dumb: stdlib ``ThreadingHTTPServer``, no auth,
no writes — bind it to loopback or keep it firewalled.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.metrics import exposition


class MetricsServer:
    """A background HTTP listener bound to the daemon's observability."""

    def __init__(self, daemon, host: str = "127.0.0.1", port: int = 0) -> None:
        self.daemon = daemon
        handler = _make_handler(daemon)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="orpheusd-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def _make_handler(daemon):
    class Handler(BaseHTTPRequestHandler):
        server_version = "orpheusd-metrics/1"

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            path = self.path.split("?", 1)[0]
            try:
                if path == "/metrics":
                    body = exposition(daemon.stats_payload()).encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                    code = 200
                elif path == "/stats":
                    body = json.dumps(
                        daemon.stats_payload(), sort_keys=True, default=str
                    ).encode("utf-8")
                    ctype = "application/json"
                    code = 200
                elif path == "/healthz":
                    draining = bool(getattr(daemon, "draining", False))
                    degrade = getattr(daemon, "degrade", None)
                    if draining:
                        body, code = b"draining\n", 503
                    elif degrade is not None and degrade.degraded:
                        cause = degrade.cause or "unknown"
                        body, code = (
                            f"degraded: {cause}\n".encode("utf-8"),
                            200,
                        )
                    else:
                        body, code = b"ok\n", 200
                    ctype = "text/plain; charset=utf-8"
                else:
                    body = b"not found\n"
                    ctype = "text/plain; charset=utf-8"
                    code = 404
            except Exception as exc:  # surface, never crash the daemon
                body = f"error: {exc}\n".encode("utf-8")
                ctype = "text/plain; charset=utf-8"
                code = 500
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:
            """Silence per-request stderr chatter."""

    return Handler
