"""HTTP embedding-service client with an append-only local cache.

Wire protocol: POST to the endpoint with body ``{"model": "<id>", "texts":
[...]}``; the service answers ``{"embeddings": [[...], ...]}`` with one row per
input text. An auth token is read from the ``EMBED_API_KEY`` environment
variable when present. The cache is a line-delimited JSON file of
``{"key", "dim", "values"}`` records keyed by a SHA-256 of (endpoint, model,
text bytes), so distinct providers and models never share entries.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np
import requests

from .embedders import EmbeddingMatrix, config_hash
from .jsonl import JsonlLog

API_KEY_ENV = "EMBED_API_KEY"


class TransportError(RuntimeError):
    """Request still failing after all retry attempts."""


class EmbeddingServiceError(RuntimeError):
    """The service answered, but with an unusable payload or an error that a
    retry cannot fix (a 4xx status other than 408 and 429)."""


#: Client-error statuses that may succeed when the same request is retried.
RETRYABLE_4XX = (408, 429)
#: Statuses whose ``Retry-After`` header (in seconds) sets the retry delay.
RETRY_AFTER_STATUSES = (429, 503)


def cache_key(endpoint: str, model: str, text: str) -> str:
    payload = b"\x00".join(s.encode("utf-8") for s in (endpoint, model, text))
    return hashlib.sha256(payload).hexdigest()


class EmbeddingCache:
    """Append-only JSONL store of vectors by key, on a :class:`JsonlLog`.

    ``shared`` keeps one cache per file per process, so every client of a
    file shares one parse of it and one dict of vectors.
    """

    _shared: dict[Path, "EmbeddingCache"] = {}
    _shared_lock = threading.Lock()

    def __init__(self, path):
        self.path = Path(path)
        self.log = JsonlLog(self.path, key=itemgetter("key"), value=_vector, dumps=_dumps)

    @classmethod
    def shared(cls, path) -> "EmbeddingCache":
        """This process's cache of ``path``, brought up to date with the file."""
        resolved = Path(path).resolve()
        with cls._shared_lock:
            cache = cls._shared.get(resolved)
            if cache is None:
                cache = cls._shared[resolved] = cls(resolved)
                return cache
        cache.log.refresh()
        return cache

    def __len__(self) -> int:
        return len(self.log.index)

    def get(self, key: str) -> np.ndarray | None:
        return self.log.index.get(key)

    def put(self, entries: list[tuple[str, np.ndarray]]) -> None:
        """Append ``(key, vector)`` pairs with one write."""
        self.log.append(
            [{"key": key, "dim": int(v.size), "values": v.tolist()} for key, v in entries]
        )


def _vector(rec: dict) -> np.ndarray:
    return np.asarray(rec["values"], dtype=np.float64)


_dumps = partial(json.dumps, separators=(",", ":"))


class RemoteEmbedder:
    """Batching, caching, retrying client for an embedding HTTP service."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        cache_path=None,
        batch_size: int = 32,
        max_attempts: int = 3,
        backoff: float = 0.5,
        max_inflight: int = 4,
        timeout: float = 30.0,
    ):
        if batch_size < 1 or max_attempts < 1 or max_inflight < 1:
            raise ValueError("batch_size, max_attempts and max_inflight must be >= 1")
        self.endpoint = endpoint
        self.model = model
        self.batch_size = batch_size
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.max_inflight = max_inflight
        self.timeout = timeout
        self.cache = EmbeddingCache.shared(cache_path) if cache_path else None
        self.request_count = 0
        self._count_lock = threading.Lock()
        self.provenance = "remote:" + config_hash({"endpoint": endpoint, "model": model})

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post_batch(self, batch: list[str]) -> list[np.ndarray]:
        last_error: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self._count_lock:
                    self.request_count += 1
                resp = requests.post(
                    self.endpoint,
                    json={"model": self.model, "texts": batch},
                    headers=self._headers(),
                    timeout=self.timeout,
                )
                if 400 <= resp.status_code < 500 and resp.status_code not in RETRYABLE_4XX:
                    raise EmbeddingServiceError(
                        f"embedding service rejected the request: HTTP {resp.status_code} {resp.reason}"
                    )
                resp.raise_for_status()
                payload = resp.json()
                return self._validate(batch, payload)
            except (requests.RequestException, ValueError) as e:
                # EmbeddingServiceError subclasses RuntimeError and propagates.
                last_error = e
                if attempt < self.max_attempts:
                    time.sleep(self._retry_delay(attempt, getattr(e, "response", None)))
        raise TransportError(
            f"embedding request failed after {self.max_attempts} attempts: {last_error}"
        )

    def _retry_delay(self, attempt: int, resp) -> float:
        """Seconds to wait after failed ``attempt``: a 429 or 503 answer's
        ``Retry-After`` seconds, capped at the longest backoff, or else the
        exponential backoff."""
        if resp is not None and resp.status_code in RETRY_AFTER_STATUSES:
            try:
                after = float(resp.headers["Retry-After"])
            except (KeyError, ValueError):
                after = math.nan
            if 0.0 <= after < math.inf:  # NaN fails this test too
                return min(after, self.backoff * 2 ** (self.max_attempts - 2))
        return self.backoff * 2 ** (attempt - 1)

    @staticmethod
    def _validate(batch: list[str], payload: dict) -> list[np.ndarray]:
        rows = payload.get("embeddings")
        if not isinstance(rows, list) or len(rows) != len(batch):
            raise EmbeddingServiceError(
                f"expected {len(batch)} embeddings, got {type(rows).__name__} "
                f"of length {len(rows) if isinstance(rows, list) else 'n/a'}"
            )
        vectors = [np.asarray(r, dtype=np.float64) for r in rows]
        dims = {v.shape for v in vectors}
        if len(dims) != 1 or vectors[0].ndim != 1:
            raise EmbeddingServiceError(f"inconsistent embedding shapes in response: {dims}")
        for v in vectors:
            if not np.all(np.isfinite(v)):
                raise EmbeddingServiceError("response contains non-finite values")
        return vectors

    def embed_texts(self, texts: list[str]) -> EmbeddingMatrix:
        """Embed texts in input order; cache hits never touch the network."""
        if not texts:
            raise ValueError("texts must be non-empty")
        resolved: dict[str, np.ndarray] = {}
        if self.cache is not None:
            for text in texts:
                hit = self.cache.get(cache_key(self.endpoint, self.model, text))
                if hit is not None:
                    resolved[text] = hit
        pending = [t for t in dict.fromkeys(texts) if t not in resolved]

        if pending:
            batches = [
                pending[i : i + self.batch_size] for i in range(0, len(pending), self.batch_size)
            ]
            with ThreadPoolExecutor(max_workers=self.max_inflight) as pool:
                results = list(pool.map(self._post_batch, batches))
            for batch, vectors in zip(batches, results):
                resolved.update(zip(batch, vectors))
            if self.cache is not None:
                self.cache.put([(cache_key(self.endpoint, self.model, t), resolved[t]) for t in pending])

        dims = {resolved[t].size for t in texts}
        if len(dims) != 1:
            raise EmbeddingServiceError(f"mixed embedding dims across texts: {sorted(dims)}")
        values = np.stack([resolved[t] for t in texts])
        return EmbeddingMatrix(values=values, provenance=self.provenance)

