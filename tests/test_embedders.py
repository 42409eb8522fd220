import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from embreg import embedders, featurize, tasks
from embreg.experiments import ExperimentConfig
from embreg.embedders import (
    EmbeddingMatrix,
    EmptyTextError,
    SyntheticTransformer,
    SyntheticTransformerConfig,
    VocabTable,
)


def test_tokenize_bytes():
    seq = embedders.tokenize("ab")
    assert seq == [97, 98]
    assert len(seq) == 2


def test_tokenize_length_of_key_value():
    assert len(embedders.tokenize("x0:0.32")) == 7


def test_tokenize_deterministic_and_rejects_empty():
    assert embedders.tokenize("x0:0.32") == embedders.tokenize("x0:0.32")
    with pytest.raises(EmptyTextError):
        embedders.tokenize("")


def test_embedding_matrix_validation():
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingMatrix(values=np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="2-D"):
        EmbeddingMatrix(values=np.zeros(2))


def test_vocab_table_deterministic():
    a = VocabTable.create(width=16, seed=3)
    b = VocabTable.create(width=16, seed=3)
    assert np.array_equal(a.entries, b.entries)
    c = VocabTable.create(width=16, seed=4)
    assert not np.array_equal(a.entries, c.entries)


def test_vocab_pool_single_token_is_table_row():
    table = VocabTable.create(width=8, seed=0)
    out = embedders.embed_vocab_pool(["a"], table)
    assert np.array_equal(out[0], table.entries[ord("a")])


def test_vocab_pool_mean_idempotent_on_repeats():
    table = VocabTable.create(width=8, seed=0)
    one = embedders.embed_vocab_pool(["a"], table)
    two = embedders.embed_vocab_pool(["aa"], table)
    assert np.allclose(one, two)


def test_vocab_pool_order_invariant():
    table = VocabTable.create(width=8, seed=0)
    ab = embedders.embed_vocab_pool(["ab"], table)
    ba = embedders.embed_vocab_pool(["ba"], table)
    assert np.allclose(ab, ba)


def test_vocab_pool_seed_changes_output():
    t1 = VocabTable.create(width=8, seed=1)
    t2 = VocabTable.create(width=8, seed=2)
    a = embedders.embed_vocab_pool(["hello"], t1)
    b = embedders.embed_vocab_pool(["hello"], t2)
    assert not np.allclose(a, b)
    assert t1.provenance != t2.provenance


def _transformer(seed=0, model_dim=32):
    cfg = SyntheticTransformerConfig(layers=2, model_dim=model_dim, heads=4, ff_dim=64, seed=seed)
    table = VocabTable.create(width=model_dim, seed=seed)
    return cfg, table


def test_transformer_output_dim_and_determinism():
    cfg, table = _transformer()
    out = SyntheticTransformer(cfg, table).embed(["x0:0.32,x1:4.0", "zz"])
    assert out.shape == (2, 32)
    again = SyntheticTransformer(cfg, table).embed(["x0:0.32,x1:4.0", "zz"])
    assert np.array_equal(out, again)


def test_transformer_batch_permutation():
    cfg, table = _transformer()
    ab = SyntheticTransformer(cfg, table).embed(["first", "second"])
    ba = SyntheticTransformer(cfg, table).embed(["second", "first"])
    assert np.array_equal(ab[0], ba[1])
    assert np.array_equal(ab[1], ba[0])


def test_transformer_token_order_matters():
    cfg, table = _transformer()
    out = SyntheticTransformer(cfg, table).embed(["ab", "ba"])
    assert not np.allclose(out[0], out[1])


def _head_maps(model, h, weights):
    """Each head's (length, length) attention map, as ``_attention`` builds it."""
    length, head_dim = len(h), model.cfg.model_dim // model.cfg.heads
    q, k = h @ weights["wq"], h @ weights["wk"]
    for lo in range(0, model.cfg.model_dim, head_dim):
        cols = slice(lo, lo + head_dim)
        yield embedders._head_map(q[:, cols], k[:, cols], np.empty((length, length)))


def test_transformer_attention_rows_sum_to_one():
    cfg, table = _transformer()
    model = SyntheticTransformer(cfg, table)
    h = model.table.entries[embedders.tokenize("x0:0.32,x1:-4.21")]
    for weights in model.layers:
        for attn in _head_maps(model, embedders._layer_norm(h), weights):
            sums = attn.sum(axis=-1)
            assert np.all(np.abs(sums - 1.0) < 1e-6)


def _einsum_attention(model, h, weights):
    """Reference attention: the per-head einsum form the matmul path replaced."""
    length, dm = h.shape
    heads = model.cfg.heads
    head_dim = dm // heads
    q = (h @ weights["wq"]).reshape(length, heads, head_dim)
    k = (h @ weights["wk"]).reshape(length, heads, head_dim)
    v = (h @ weights["wv"]).reshape(length, heads, head_dim)
    scores = np.einsum("ihd,jhd->hij", q, k) / math.sqrt(head_dim)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    mixed = np.einsum("hij,jhd->ihd", attn, v).reshape(length, dm)
    return mixed @ weights["wo"], attn


def _reference_encode(model, text):
    ids = embedders.tokenize(text)
    h = model.table.entries[ids] + embedders._position_encoding(len(ids), model.cfg.model_dim)
    for w in model.layers:
        h = h + _einsum_attention(model, embedders._layer_norm(h), w)[0]
        ff_in = embedders._layer_norm(h)
        h = h + np.maximum(ff_in @ w["w1"], 0.0) @ w["w2"]
    return h.mean(axis=0)


@pytest.mark.parametrize("length", [1, 2, 7, 64, 300])
def test_attention_matches_einsum_oracle(length):
    cfg, table = _transformer(seed=3)
    model = SyntheticTransformer(cfg, table)
    h = np.random.default_rng(length).standard_normal((length, cfg.model_dim))
    for weights in model.layers:
        ref_out, ref_attn = _einsum_attention(model, h, weights)
        assert np.allclose(model._attention(h, weights), ref_out, rtol=0, atol=1e-12)
        maps = list(_head_maps(model, h, weights))
        assert len(maps) == cfg.heads
        for head, attn in enumerate(maps):
            assert attn.shape == (length, length)
            assert np.allclose(attn, ref_attn[head], rtol=0, atol=1e-12)


def test_encode_matches_einsum_oracle():
    cfg, table = _transformer()
    model = SyntheticTransformer(cfg, table)
    for text in ["a", "x0:0.32,x1:-4.21", "{" + ",".join(f"x{i}:{i / 7:.4f}" for i in range(40)) + "}"]:
        assert np.allclose(model.encode(text), _reference_encode(model, text), rtol=0, atol=1e-12)


def _biased_encode(model, text):
    """The forward pass before the feed-forward biases were dropped: zero
    biases added, layer norm as ``(h - mean) / sqrt(var + eps)`` and
    residual adds into a new array. The encoder's bitwise reference."""

    def layer_norm(h):
        return (h - h.mean(axis=-1, keepdims=True)) / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)

    ids = embedders.tokenize(text)
    length, dm, heads = len(ids), model.cfg.model_dim, model.cfg.heads
    head_dim = dm // heads
    h = model.table.entries[ids] + embedders._position_encoding(length, dm)
    for w in model.layers:
        x = layer_norm(h)
        q, k, v = (
            (x @ w[name]).reshape(length, heads, head_dim).transpose(1, 0, 2) for name in ("wq", "wk", "wv")
        )
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(head_dim)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        h = h + (attn @ v).transpose(1, 0, 2).reshape(length, dm) @ w["wo"]
        ff_in = layer_norm(h)
        h = h + np.maximum(ff_in @ w["w1"] + np.zeros(model.cfg.ff_dim), 0.0) @ w["w2"] + np.zeros(dm)
    return h.mean(axis=0)


@pytest.mark.parametrize(
    "cfg",
    [
        SyntheticTransformerConfig(),
        SyntheticTransformerConfig(model_dim=32, heads=4, ff_dim=64, seed=3),
        SyntheticTransformerConfig(layers=1, heads=1, ff_dim=32),
        SyntheticTransformerConfig(model_dim=48, heads=3, ff_dim=64),
    ],
    ids=["default", "dim32-seed3", "one-layer-one-head", "dim48-three-heads"],
)
def test_encode_is_bit_identical_to_the_biased_forward_pass(cfg):
    model = SyntheticTransformer(cfg, VocabTable.create(cfg.model_dim, cfg.seed))
    texts = ["a", "zz", "first", ("x0:0.32," * 38)[:300]]
    for dof in (5, 20, 100):
        task = tasks.synthetic_task("sphere", dof)
        texts += [featurize.serialize(task, x, featurize.StringFormat()) for x in tasks.sample_uniform(task, 2, dof).xs]
    assert {1, 2, 300} <= {len(t) for t in texts}
    for text in texts:
        assert np.array_equal(model.encode(text), _biased_encode(model, text)), text


def test_a_forward_pass_holds_one_length_by_length_map_at_a_time():
    """A 600-byte text at the default config: one (L, L) float64 map is
    2.7 MiB, and all four heads' maps at once are 11.0 MiB. Attention builds
    one head's map at a time in one reused buffer, so the pass stays below
    the four maps however its other temporaries (O(L · model_dim)) fall."""
    cfg = SyntheticTransformerConfig()
    model = SyntheticTransformer(cfg, VocabTable.create(cfg.model_dim, cfg.seed))
    text = ("x0:0.32," * 75)[:600]
    model._forward("a")  # builds the position table outside the traced call
    model._positions(len(text))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model._forward(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    length = len(embedders.tokenize(text))
    assert peak < 4 * length**2 * 8, f"peak {peak / 2**20:.1f} MiB"


def test_position_table_slices_match_exact_builds():
    cfg, table = _transformer()
    model = SyntheticTransformer(cfg, table)
    for length in (5, 3, 40, 11, 200):  # grows the table, then slices it
        exact = embedders._position_encoding(length, cfg.model_dim)
        assert np.array_equal(model._positions(length), exact)


def test_encode_memo_hit_is_bit_identical_to_fresh_model(monkeypatch):
    cfg, table = _transformer()
    model = SyntheticTransformer(cfg, table)
    texts = ["x0:0.32,x1:4.0", "zz", "x0:0.32,x1:4.0"]
    first = [model.encode(t) for t in texts]
    forwards = []
    original = SyntheticTransformer._forward
    monkeypatch.setattr(
        SyntheticTransformer, "_forward", lambda self, t: forwards.append(t) or original(self, t)
    )
    again = [model.encode(t) for t in texts]
    assert forwards == []  # every call was a memo hit
    fresh = SyntheticTransformer(cfg, table)
    for a, b, t in zip(first, again, texts):
        assert a is b
        assert not a.flags.writeable
        assert np.array_equal(a, fresh.encode(t))
    assert np.array_equal(SyntheticTransformer(cfg, table).embed(texts), np.stack(first))


def test_transformer_dim_mismatch_rejected():
    cfg = SyntheticTransformerConfig(model_dim=32)
    table = VocabTable.create(width=16, seed=0)
    with pytest.raises(ValueError, match="model_dim"):
        SyntheticTransformer(cfg, table)


def test_transformer_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        SyntheticTransformerConfig(model_dim=30, heads=4)


def test_embed_traditional_shape_and_rows():
    task = tasks.RegressionTask(
        id="t",
        params=(
            tasks.ParamSpec.continuous("a", 0, 1),
            tasks.ParamSpec.continuous("b", 0, 1),
            tasks.ParamSpec.categorical("c", ["u", "v", "w"]),
        ),
    )
    xs = [{"a": 0.5, "b": 0.25, "c": "v"}, {"a": 0.0, "b": 1.0, "c": "u"}, {"a": 1.0, "b": 0.0, "c": "w"}]
    out = embedders.embed_traditional(task, xs)
    assert out.shape == (3, 5)
    for row, x in zip(out, xs):
        assert np.array_equal(row, featurize.featurize_traditional(task, x))


def test_embed_traditional_empty_input():
    task = tasks.synthetic_task("sphere", 5)
    out = embedders.embed_traditional(task, [])
    assert out.shape == (0, 5)


def test_hash_scrambled_deterministic_and_unstructured():
    texts = ["{x0:1.0}", "{x0:1.01}"]
    a = embedders.embed_hash_scrambled(texts, dim=16, seed=0)
    b = embedders.embed_hash_scrambled(texts, dim=16, seed=0)
    assert np.array_equal(a, b)
    # Near-identical inputs map far apart.
    assert np.linalg.norm(a[0] - a[1]) > 1.0


def test_scrambled_permutation_preserves_multiset():
    task = tasks.synthetic_task("sphere", 6)
    ds = tasks.sample_uniform(task, 4, seed=0)
    base = embedders.embed_traditional(task, ds.xs)
    scrambled = embedders.embed_scrambled_permutation(task, ds.xs, seed=0)
    for orig, perm in zip(base, scrambled):
        assert sorted(orig) == pytest.approx(sorted(perm))


def test_build_embedder_kinds_and_provenance(mock_service):
    task = tasks.synthetic_task("sphere", 3)
    ds = tasks.sample_uniform(task, 5, seed=0)
    kinds = ["traditional", "vocab_pool", "synthetic_transformer", "scrambled", "scrambled_perm", "remote"]
    provs = set()
    for kind in kinds:
        spec = {"kind": kind, "endpoint": mock_service.endpoint, "model": "m"} if kind == "remote" else {"kind": kind}
        emb = embedders.build_embedder(spec, task)
        provenance = emb.provenance  # fixed when built, before any embed
        assert emb.embed(ds.xs).rows == 5
        assert emb.provenance == provenance and provenance.startswith(kind + ":")
        provs.add(provenance)
    assert len(provs) == len(kinds)
    with pytest.raises(ValueError, match="unknown embedder"):
        embedders.build_embedder({"kind": "nope"}, task)


@pytest.mark.parametrize(
    "spec, match",
    [
        ({"kind": "vocab_pool", "widht": 128}, "widht"),
        ({"kind": "traditional", "seed": 1}, "seed"),
        ({"kind": "synthetic_transformer", "model_dims": 32}, "model_dims"),
        ({"width": 64}, "unknown embedder kind"),
        ("vocab_pool", "JSON object"),
    ],
)
def test_build_embedder_rejects_bad_specs(spec, match):
    task = tasks.synthetic_task("sphere", 3)
    with pytest.raises(ValueError, match=match):
        embedders.build_embedder(spec, task)


@pytest.mark.parametrize(
    "spec, match",
    [
        ({"kind": "vocab_pool", "width": 0}, "width must be a positive integer"),
        ({"kind": "vocab_pool", "width": -1}, "width must be a positive integer"),
        ({"kind": "vocab_pool", "width": "64"}, "width must be a positive integer"),
        ({"kind": "vocab_pool", "seed": -1}, "seed must be a non-negative integer"),
        ({"kind": "scrambled", "dim": 0}, "dim must be a positive integer"),
        ({"kind": "scrambled", "dim": -2}, "dim must be a positive integer"),
        ({"kind": "scrambled", "dim": 2.5}, "dim must be a positive integer"),
        ({"kind": "synthetic_transformer", "seed": -1}, "seed must be a non-negative integer"),
        # the table takes ``seed``; the id keeps this case's place and name in the table
        pytest.param(
            {"kind": "synthetic_transformer", "table_seed": 3},
            r"unknown keys .*\['table_seed'\]",
            id="spec8-table_seed is an unknown key",
        ),
        ({"kind": "synthetic_transformer", "layers": 1.5}, "layers must be a positive integer"),
        ({"kind": "scrambled", "seed": "0"}, "seed must be a non-negative integer"),
        ({"kind": "scrambled", "seed": -1}, "seed must be a non-negative integer"),
        ({"kind": "scrambled_perm", "seed": 2.5}, "seed must be a non-negative integer"),
        ({"kind": "scrambled_perm", "seed": True}, "seed must be a non-negative integer"),
        ({"kind": "scrambled_perm", "seed": None}, "seed must be a non-negative integer"),
    ],
)
def test_sizes_and_seeds_that_cannot_build_are_rejected_up_front(spec, match):
    with pytest.raises(ValueError, match=match):
        embedders.check_spec(spec)
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict({"embedders": [spec]})


REMOTE = {"kind": "remote", "endpoint": "http://127.0.0.1:9/embed", "model": "m"}


@pytest.mark.parametrize(
    "keys, match",
    [
        ({"batch_size": 0}, "batch_size must be a positive integer, got 0"),
        ({"batch_size": "3"}, "batch_size must be a positive integer, got '3'"),
        ({"max_attempts": 2.5}, "max_attempts must be a positive integer, got 2.5"),
        ({"max_inflight": True}, "max_inflight must be a positive integer, got True"),
        ({"backoff": "a"}, "backoff must be a finite number >= 0, got 'a'"),
        ({"backoff": -0.5}, "backoff must be a finite number >= 0"),
        ({"backoff": float("nan")}, "backoff must be a finite number >= 0"),
        ({"backoff": float("inf")}, "backoff must be a finite number >= 0"),
        ({"endpoint": 3}, "endpoint must be a string, got 3"),
        ({"model": ["m"]}, "model must be a string"),
        ({"cache": 3}, "cache must be a string"),
    ],
)
def test_remote_keys_that_cannot_build_are_rejected_up_front(keys, match):
    spec = {**REMOTE, **keys}
    with pytest.raises(ValueError, match=match):
        embedders.check_spec(spec)
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict({"embedders": [spec]})
    embedders.check_spec({**REMOTE, "batch_size": 1, "max_attempts": 1, "max_inflight": 1, "backoff": 0, "cache": "c"})


def test_build_embedder_config_changes_provenance():
    task = tasks.synthetic_task("sphere", 3)
    a = embedders.build_embedder({"kind": "vocab_pool", "seed": 0}, task)
    b = embedders.build_embedder({"kind": "vocab_pool", "seed": 1}, task)
    assert a.provenance != b.provenance


@pytest.mark.parametrize(
    "spec, provenance",
    [
        ({"kind": "traditional"}, "traditional:7f08e859d07b"),
        ({"kind": "vocab_pool"}, "vocab_pool:35d99e5cf7cb"),
        ({"kind": "vocab_pool", "width": 16, "seed": 1}, "vocab_pool:d9cbd5ff19db"),
        ({"kind": "synthetic_transformer"}, "synthetic_transformer:b6abd5ab3975"),
        ({"kind": "scrambled"}, "scrambled:8deb8155af8c"),
        ({"kind": "scrambled_perm"}, "scrambled_perm:8deb8155af8c"),
        ({"kind": "scrambled", "seed": 3}, "scrambled:27416949cabc"),
        ({"kind": "scrambled_perm", "seed": 3}, "scrambled_perm:27416949cabc"),
        (
            {"kind": "synthetic_transformer", "model_dim": 16, "heads": 2, "seed": 3},
            "synthetic_transformer:3a0fdf5eba85",
        ),
    ],
)
def test_provenance_strings_are_pinned(spec, provenance):
    assert embedders.build_embedder(spec, tasks.synthetic_task("sphere", 3)).provenance == provenance


@pytest.mark.parametrize("kind, digest", [("scrambled", "46a9c6170e13a6fa"), ("scrambled_perm", "aa8b0f3aa1f444a9")])
def test_valid_scrambler_seeds_keep_their_vectors(kind, digest):
    task = tasks.synthetic_task("sphere", 3)
    xs = tasks.sample_uniform(task, 5, seed=0).xs
    values = embedders.build_embedder({"kind": kind, "seed": 3}, task).embed(xs).values
    assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == digest
