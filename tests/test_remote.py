import numpy as np
import pytest

from embreg.remote import (
    EmbeddingCache,
    EmbeddingServiceError,
    RemoteEmbedder,
    TransportError,
    cache_key,
)

from conftest import deterministic_embedding


def test_embed_passthrough_dim(mock_service, tmp_path):
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl")
    out = client.embed_texts(["alpha", "beta"])
    assert out.dim == 8
    assert out.rows == 2
    assert np.allclose(out.values[0], deterministic_embedding("alpha", 8))


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
        assert np.allclose(out.values[i], deterministic_embedding(text, 8))


def test_duplicate_texts_share_rows(mock_service, tmp_path):
    client = RemoteEmbedder(mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl")
    out = client.embed_texts(["same", "same", "other"])
    assert np.array_equal(out.values[0], out.values[1])
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
    assert np.array_equal(first.values, second.values)


def test_cached_results_survive_dead_endpoint(mock_service, tmp_path):
    cache = tmp_path / "c.jsonl"
    RemoteEmbedder(mock_service.endpoint, "m", cache_path=cache).embed_texts(["a", "b"])
    # Cache keys include the endpoint, so rekey the entries under the dead
    # endpoint before constructing its client.
    entries = EmbeddingCache(cache)
    for text in ("a", "b"):
        vec = entries.get(cache_key(mock_service.endpoint, "m", text))
        entries.put(cache_key("http://127.0.0.1:9/embed", "m", text), vec)
    dead = RemoteEmbedder("http://127.0.0.1:9/embed", "m", cache_path=cache, backoff=0.01)
    out = dead.embed_texts(["a", "b"])
    assert out.rows == 2
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


def test_transient_failure_recovers(mock_service, tmp_path):
    mock_service.fail_next = 2
    client = RemoteEmbedder(
        mock_service.endpoint, "m", cache_path=tmp_path / "c.jsonl",
        max_attempts=3, backoff=0.01,
    )
    out = client.embed_texts(["x"])
    assert out.rows == 1
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
    assert client.embed_texts(["x"]).rows == 1
    assert mock_service.request_count == 3
