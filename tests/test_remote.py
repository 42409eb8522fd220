import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from embreg import remote
from embreg.remote import (
    EmbeddingCache,
    EmbeddingServiceError,
    RemoteEmbedder,
    TransportError,
    cache_key,
)

from conftest import deterministic_embedding

# A response left open (an HTTP error's body, say) fails the test that leaked it.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


def test_embed_passthrough_dim(mock_service, tmp_path):
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl")
    out = client.embed_texts(["alpha", "beta"])
    assert out.shape[1] == 8
    assert out.shape[0] == 2
    assert np.allclose(out[0], deterministic_embedding("alpha", 8))


def test_batching_splits_requests(mock_service, tmp_path):
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl", batch_size=2, max_inflight=1
    )
    texts = [f"text-{i}" for i in range(5)]
    client.embed_texts(texts)
    assert mock_service.batch_sizes() == [2, 2, 1]


def test_order_preserved_with_parallel_batches(mock_service, tmp_path):
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl", batch_size=3, max_inflight=4
    )
    texts = [f"t{i}" for i in range(20)]
    out = client.embed_texts(texts)
    for i, text in enumerate(texts):
        assert np.allclose(out[i], deterministic_embedding(text, 8))


def test_duplicate_texts_share_rows(mock_service, tmp_path):
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl")
    out = client.embed_texts(["same", "same", "other"])
    assert np.array_equal(out[0], out[1])
    assert mock_service.batch_sizes() == [2]  # deduplicated request


def test_full_cache_hit_makes_no_requests(mock_service, tmp_path):
    cache = tmp_path / "c.jsonl"
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache)
    first = client.embed_texts(["a", "b"])
    count_after_first = mock_service.request_count
    assert count_after_first >= 1

    fresh = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache)
    second = fresh.embed_texts(["a", "b"])
    assert mock_service.request_count == count_after_first
    assert np.array_equal(first, second)


def test_cached_results_survive_dead_endpoint(mock_service, tmp_path):
    cache = tmp_path / "c.jsonl"
    RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache).embed_texts(["a", "b"])
    # Cache keys include the endpoint, so rekey the entries under the dead
    # endpoint before constructing its client.
    entries = EmbeddingCache(cache)
    entries.put(
        [
            (cache_key("http://127.0.0.1:9/embed", "m", text), entries.get(cache_key(mock_service.endpoint, "m", text)))
            for text in ("a", "b")
        ]
    )
    dead = RemoteEmbedder("http://127.0.0.1:9/embed", "m", cache_path=cache, backoff=0.01)
    out = dead.embed_texts(["a", "b"])
    assert out.shape[0] == 2
    assert dead.request_count == 0


def test_retry_then_fail_counts_attempts(mock_service, tmp_path):
    mock_service.always_fail = True
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
        max_attempts=3, backoff=0.01,
    )
    with pytest.raises(TransportError, match="after 3 attempts"):
        client.embed_texts(["x"])
    assert mock_service.request_count == 3


def test_unreachable_endpoint_fails_after_every_attempt(tmp_path):
    with socket.socket() as s:  # bound but not listening: connections are refused
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        client = RemoteEmbedder(
            f"http://127.0.0.1:{port}/embed", "m", cache_path=tmp_path / "c.jsonl",
            max_attempts=3, backoff=0.01,
        )
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.embed_texts(["x"])
    assert client.request_count == 3


def test_redirect_is_not_followed(mock_service, tmp_path, monkeypatch):
    monkeypatch.setenv("EMBED_API_KEY", "secret")
    monkeypatch.setattr(remote, "TIMEOUT_S", 2.0)
    with socket.socket() as target:  # where the 302 points; accepts nothing itself
        target.bind(("127.0.0.1", 0))
        target.listen()
        target.setblocking(False)
        mock_service.redirect_to = f"http://127.0.0.1:{target.getsockname()[1]}/steal"
        client = RemoteEmbedder(
            mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
            max_attempts=2, backoff=0.01,
        )
        with pytest.raises(TransportError, match="302"):
            client.embed_texts(["x"])
        with pytest.raises(BlockingIOError):  # no connection ever reached the target
            target.accept()
    assert mock_service.request_count == client.request_count == 2


def test_body_that_is_not_json_is_retried(mock_service, tmp_path):
    mock_service.raw_body = b"boom"
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
        max_attempts=3, backoff=0.01,
    )
    with pytest.raises(TransportError, match="after 3 attempts"):
        client.embed_texts(["x"])
    assert mock_service.request_count == client.request_count == 3


@pytest.mark.parametrize("body", [b"[]", b'{"embeddings": [["x"]]}'])
def test_json_that_is_not_an_embeddings_object_is_a_service_error(mock_service, tmp_path, body):
    """The service answered: neither a JSON list nor a row of strings is retried."""
    mock_service.raw_body = body
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
        max_attempts=3, backoff=0.01,
    )
    with pytest.raises(EmbeddingServiceError):
        client.embed_texts(["x"])
    assert mock_service.request_count == client.request_count == 1


def test_zero_width_rows_are_a_service_error_and_are_not_cached(mock_service, tmp_path):
    mock_service.raw_body = b'{"embeddings": [[], []]}'
    cache = tmp_path / "c.jsonl"
    cache.write_bytes(b"")
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache, max_attempts=3, backoff=0.01)
    with pytest.raises(EmbeddingServiceError, match="width 0"):
        client.embed_texts(["x", "y"])
    assert mock_service.request_count == 1
    assert cache.read_bytes() == b"" and len(client.cache) == 0


def test_remote_embedding_does_not_import_requests(mock_service):
    script = (
        "import sys\n"
        "from embreg.remote import RemoteEmbedder\n"
        f"assert RemoteEmbedder({mock_service.endpoint!r}, 'm').embed_texts(['a']).shape[0] == 1\n"
        "assert 'requests' not in sys.modules, 'requests was imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert mock_service.request_count == 1


def test_transient_failure_recovers(mock_service, tmp_path):
    mock_service.fail_next = 2
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
        max_attempts=3, backoff=0.01,
    )
    out = client.embed_texts(["x"])
    assert out.shape[0] == 1
    assert mock_service.request_count == 3


def test_mixed_dims_rejected(mock_service, tmp_path):
    mock_service.mixed_dims = True
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
        max_attempts=1, backoff=0.01,
    )
    with pytest.raises((EmbeddingServiceError, TransportError)):
        client.embed_texts(["a", "b"])


def test_non_finite_rejected(mock_service, tmp_path):
    mock_service.inject_nan = True
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
        max_attempts=1, backoff=0.01,
    )
    with pytest.raises((EmbeddingServiceError, TransportError)):
        client.embed_texts(["a"])


def test_cache_keys_isolate_models_and_endpoints():
    k1 = cache_key("http://a", "m1", "text")
    k2 = cache_key("http://a", "m2", "text")
    k3 = cache_key("http://b", "m1", "text")
    assert len({k1, k2, k3}) == 3


def test_cache_file_is_jsonl(mock_service, tmp_path):
    cache = tmp_path / "c.jsonl"
    RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache).embed_texts(["a"])
    import json

    lines = cache.read_text().strip().splitlines()
    rec = json.loads(lines[0])
    assert set(rec) == {"key", "dim", "values"}
    assert rec["dim"] == 8


def test_api_key_header_sent(mock_service, tmp_path, monkeypatch):
    monkeypatch.setenv("EMBED_API_KEY", "secret-token")
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl")
    assert client._headers()["Authorization"] == "Bearer secret-token"
    monkeypatch.delenv("EMBED_API_KEY")
    assert "Authorization" not in client._headers()


def test_client_error_is_not_retried(mock_service, tmp_path):
    mock_service.always_fail = True
    mock_service.fail_status = 401
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
        max_attempts=3, backoff=0.01,
    )
    with pytest.raises(EmbeddingServiceError, match="401"):
        client.embed_texts(["x"])
    assert mock_service.request_count == 1
    assert client.request_count == 1


@pytest.mark.parametrize("status", [408, 429])
def test_timeout_and_rate_limit_are_retried(mock_service, tmp_path, status):
    mock_service.fail_next = 2
    mock_service.fail_status = status
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
        max_attempts=3, backoff=0.01,
    )
    assert client.embed_texts(["x"]).shape[0] == 1
    assert mock_service.request_count == 3


@pytest.mark.parametrize(
    "status, header, delays",
    [
        (429, "0.25", [0.25, 0.25]),  # the header's seconds replace the backoff
        (503, "3", [3.0, 3.0]),
        (429, "1000", [4.0, 4.0]),  # capped at backoff * 2 ** (max_attempts - 2)
        (429, None, [1.0, 2.0]),  # missing: exponential backoff
        (503, "soon", [1.0, 2.0]),  # malformed
        (503, "Wed, 21 Oct 2026 07:28:00 GMT", [1.0, 2.0]),  # a date, not seconds
        (429, "-3", [1.0, 2.0]),
        (429, "nan", [1.0, 2.0]),
        (500, "0.25", [1.0, 2.0]),  # other statuses ignore the header
    ],
)
def test_retry_after_sets_the_retry_delay(mock_service, tmp_path, monkeypatch, status, header, delays):
    from embreg import remote

    slept = []
    monkeypatch.setattr(remote.time, "sleep", slept.append)
    mock_service.fail_next = 2
    mock_service.fail_status = status
    mock_service.retry_after = header
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl", max_attempts=4, backoff=1.0
    )
    assert client.embed_texts(["x"]).shape[0] == 1
    assert slept == delays
    assert mock_service.request_count == 3


def test_clients_of_one_file_share_one_cache(mock_service, tmp_path):
    cache = tmp_path / "c.jsonl"
    first = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache)
    second = RemoteEmbedder(mock_service.endpoint, "m", cache_path=tmp_path / "." / "c.jsonl")
    assert first.cache is second.cache is EmbeddingCache.shared(cache)
    assert RemoteEmbedder(mock_service.endpoint, "m", cache_path=tmp_path / "d.jsonl").cache is not first.cache


def test_shared_cache_picks_up_another_writers_appends(mock_service, tmp_path):
    cache = tmp_path / "c.jsonl"
    shared = EmbeddingCache.shared(cache)
    key = cache_key(mock_service.endpoint, "m", "a")
    EmbeddingCache(cache).put([(key, np.arange(3.0))])  # another process's append
    assert shared.get(key) is None
    assert EmbeddingCache.shared(cache) is shared
    assert np.array_equal(shared.get(key), np.arange(3.0))
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache)
    assert np.array_equal(client.embed_texts(["a"]), [np.arange(3.0)])
    assert mock_service.request_count == 0


def test_shared_cache_reloads_after_the_file_is_deleted_or_replaced(mock_service, tmp_path):
    cache = tmp_path / "c.jsonl"
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache)
    client.embed_texts(["a", "b"])
    assert len(client.cache) == 2

    cache.unlink()
    again = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache)
    assert again.cache is client.cache and len(again.cache) == 0
    again.embed_texts(["a"])
    assert mock_service.batch_sizes() == [2, 1]

    other = tmp_path / "other.jsonl"
    EmbeddingCache(other).put([(cache_key(mock_service.endpoint, "m", "z"), np.ones(8))])
    other.replace(cache)
    replaced = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache)
    assert len(replaced.cache) == 1
    assert np.array_equal(replaced.embed_texts(["z"]), [np.ones(8)])
    assert mock_service.request_count == 2


def test_torn_cache_tail_is_cut_not_glued_onto_the_next_vector(mock_service, tmp_path):
    cache = tmp_path / "c.jsonl"
    texts = ["a", "b", "c"]
    first = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache).embed_texts(texts)
    data = cache.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    cache.write_bytes(data[: last + 40])  # killed mid-append: "c" lost, 40 bytes torn

    fresh = EmbeddingCache(cache)  # a new process parses up to the torn tail
    assert len(fresh) == 2 and fresh.log.torn_bytes == 40
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache)
    again = client.embed_texts(texts)
    assert mock_service.batch_sizes() == [3, 1]  # only "c" is asked for again
    assert np.array_equal(again, first)
    lines = cache.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == 4
    assert [json.loads(line)["key"] for line in lines[:-1]] == [
        cache_key(mock_service.endpoint, "m", t) for t in texts
    ]
    assert cache.read_bytes() == data
