"""Shared fixtures: a controllable in-process embedding service."""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest


def deterministic_embedding(text: str, dim: int) -> list[float]:
    seed = int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.standard_normal(dim)]


class MockEmbeddingService:
    """HTTP embedding endpoint with scriptable failures and request logging."""

    def __init__(self, dim: int = 8):
        self.dim = dim
        self.fail_next = 0  # number of upcoming requests to answer with fail_status
        self.always_fail = False
        self.fail_status = 500
        self.retry_after = None  # Retry-After header value sent with failures, if any
        self.mixed_dims = False
        self.inject_nan = False
        self.raw_body = None  # bytes to answer 200 with instead of embeddings, if any
        self.redirect_to = None  # URL to answer 302 towards, if any
        self.requests: list[dict] = []
        self._lock = threading.Lock()

        service = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with service._lock:
                    service.requests.append(body)
                    should_fail = service.always_fail or service.fail_next > 0
                    if service.fail_next > 0:
                        service.fail_next -= 1
                if should_fail:
                    self.send_response(service.fail_status)
                    if service.retry_after is not None:
                        self.send_header("Retry-After", service.retry_after)
                    self.end_headers()
                    self.wfile.write(b"boom")
                    return
                if service.redirect_to is not None:
                    self.send_response(302)
                    self.send_header("Location", service.redirect_to)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                if service.raw_body is not None:
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(service.raw_body)))
                    self.end_headers()
                    self.wfile.write(service.raw_body)
                    return
                rows = []
                for i, text in enumerate(body["texts"]):
                    dim = service.dim + (1 if service.mixed_dims and i % 2 else 0)
                    row = deterministic_embedding(text, dim)
                    if service.inject_nan:
                        row[0] = float("nan")
                    rows.append(row)
                payload = json.dumps({"embeddings": rows}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        self.endpoint = f"http://127.0.0.1:{self._server.server_address[1]}/embed"

    @property
    def request_count(self) -> int:
        with self._lock:
            return len(self.requests)

    def batch_sizes(self) -> list[int]:
        with self._lock:
            return [len(r["texts"]) for r in self.requests]

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def mock_service():
    service = MockEmbeddingService()
    yield service
    service.close()
