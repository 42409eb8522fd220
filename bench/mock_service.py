"""Loopback embedding service for the remote workload.

Speaks the wire protocol of ``embreg.remote``: POST ``{"model", "texts"}``,
answer ``{"embeddings": [[...], ...]}``. One server thread answers requests
one at a time; each vector is drawn from a generator seeded by a SHA-256 of
its text, so answers never depend on order or timing.
"""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np


def vector_for(text: str, dim: int) -> list[float]:
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(seed).standard_normal(dim).tolist()


class MockEmbeddingService:
    """Counts the requests it answers, by status code."""

    def __init__(self, dim: int):
        self.dim = dim
        self.answered: dict[int, int] = {}
        service = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    texts = json.loads(self.rfile.read(length))["texts"]
                    body = json.dumps(
                        {"embeddings": [vector_for(t, service.dim) for t in texts]}
                    ).encode("utf-8")
                    status = 200
                except (ValueError, KeyError, TypeError):
                    body, status = b"bad request", 400
                # Counted before the answer leaves, so a client that has its
                # answer never reads a stale count.
                service.answered[status] = service.answered.get(status, 0) + 1
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        self.endpoint = f"http://127.0.0.1:{self._server.server_address[1]}/embed"

    def answered_ok(self) -> int:
        return self.answered.get(200, 0)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
