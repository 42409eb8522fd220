"""Embedding backends: maps from task inputs to fixed-dimension vectors.

Four local backends share one interface: the traditional feature adapter, a
vocabulary-lookup pool (token embeddings averaged, no model forward pass), a
seeded transformer encoder run at random initialization, and two scramblers
used as negative controls for smoothness studies. The HTTP service client
lives in :mod:`embreg.remote`; :func:`build_embedder` wires any of them to a
task from a plain config dict.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .featurize import StringFormat, d_trad, featurize_traditional, serialize
from .tasks import RegressionTask

BYTE_VOCAB = 256


class EmptyTextError(ValueError):
    """Tokenizer input was empty."""


@dataclass(frozen=True)
class EmbeddingMatrix:
    """n x d matrix of finite floats with the producing backend pinned."""

    values: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding matrix contains non-finite entries")
        if not self.provenance:
            raise ValueError("provenance must be non-empty")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TokenSequence:
    ids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.ids)


def tokenize(text: str) -> TokenSequence:
    """Byte-level tokenization: one token per UTF-8 byte, vocabulary 256."""
    if text == "":
        raise EmptyTextError("cannot tokenize an empty string")
    return TokenSequence(ids=tuple(text.encode("utf-8")))


def config_hash(config: dict) -> str:
    """Short stable digest of a backend config, used to pin provenance."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _hash_seed(*parts: str) -> int:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class VocabTable:
    """Seeded token-embedding table: v rows of width-dimensional vectors."""

    v: int
    width: int
    seed: int
    entries: np.ndarray

    @classmethod
    def create(cls, width: int, seed: int, v: int = BYTE_VOCAB) -> "VocabTable":
        rng = np.random.default_rng(seed)
        entries = rng.standard_normal((v, width)) / math.sqrt(width)
        return cls(v=v, width=width, seed=seed, entries=entries)

    @cached_property
    def provenance(self) -> str:
        """Provenance of vocab_pool embeddings read from this table."""
        return "vocab_pool:" + config_hash({"v": self.v, "width": self.width, "seed": self.seed})


def embed_vocab_pool(texts: list[str], table: VocabTable) -> EmbeddingMatrix:
    """Average each text's token vectors; no positional information survives."""
    if not texts:
        raise ValueError("texts must be non-empty")
    rows = np.empty((len(texts), table.width))
    for i, text in enumerate(texts):
        ids = tokenize(text).ids
        rows[i] = table.entries[list(ids)].mean(axis=0)
    return EmbeddingMatrix(values=rows, provenance=table.provenance)


@dataclass(frozen=True)
class SyntheticTransformerConfig:
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    ff_dim: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.layers, self.model_dim, self.heads, self.ff_dim) < 1:
            raise ValueError("all transformer sizes must be positive")
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")


def _layer_norm(h: np.ndarray) -> np.ndarray:
    mean = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    return (h - mean) / np.sqrt(var + 1e-5)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``scores``."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _position_encoding(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.empty((length, dim))
    enc[:, 0::2] = np.sin(angles[:, 0::2])
    enc[:, 1::2] = np.cos(angles[:, 1::2])
    return enc


class SyntheticTransformer:
    """Pre-norm encoder with all weights drawn deterministically from a seed.

    Each block applies layer norm, multi-head softmax self-attention with a
    residual connection, then layer norm and a two-layer ReLU feed-forward
    with a residual connection. The per-position outputs are mean-pooled into
    a single model_dim vector.
    """

    def __init__(self, cfg: SyntheticTransformerConfig, table: VocabTable):
        if table.width != cfg.model_dim:
            raise ValueError(
                f"vocab table width {table.width} must equal model_dim {cfg.model_dim}"
            )
        self.cfg = cfg
        self.table = table
        rng = np.random.default_rng(cfg.seed)
        dm, ff = cfg.model_dim, cfg.ff_dim
        scale = 1.0 / math.sqrt(dm)
        self.layers = []
        for _ in range(cfg.layers):
            self.layers.append(
                {
                    "wq": rng.standard_normal((dm, dm)) * scale,
                    "wk": rng.standard_normal((dm, dm)) * scale,
                    "wv": rng.standard_normal((dm, dm)) * scale,
                    "wo": rng.standard_normal((dm, dm)) * scale,
                    "w1": rng.standard_normal((dm, ff)) * scale,
                    "b1": np.zeros(ff),
                    "w2": rng.standard_normal((ff, dm)) / math.sqrt(ff),
                    "b2": np.zeros(dm),
                }
            )
        self.provenance = "synthetic_transformer:" + config_hash(
            {
                "layers": cfg.layers,
                "model_dim": cfg.model_dim,
                "heads": cfg.heads,
                "ff_dim": cfg.ff_dim,
                "seed": cfg.seed,
                "table_seed": table.seed,
            }
        )
        self._position_table = np.empty((0, dm))
        self._memo: dict[str, np.ndarray] = {}

    def _positions(self, length: int) -> np.ndarray:
        """Rows ``[:length]`` of one position table, grown on demand.

        A row depends only on its position, so slicing a longer table gives
        the same bits as building one of exactly ``length`` rows.
        """
        table = self._position_table
        if len(table) < length:
            table = _position_encoding(max(length, 2 * len(table)), self.cfg.model_dim)
            self._position_table = table
        return table[:length]

    def _attention(self, h: np.ndarray, weights: dict, collect: list | None) -> np.ndarray:
        length, dm = h.shape
        heads = self.cfg.heads
        head_dim = dm // heads

        def by_head(w: np.ndarray) -> np.ndarray:  # (length, dm) -> (heads, length, head_dim)
            return (h @ w).reshape(length, heads, head_dim).transpose(1, 0, 2)

        q, k, v = by_head(weights["wq"]), by_head(weights["wk"]), by_head(weights["wv"])
        # scores[head, i, j] = q_i . k_j / sqrt(head_dim)
        scores = q @ k.transpose(0, 2, 1)
        scores /= math.sqrt(head_dim)
        attn = _softmax(scores)
        if collect is not None:
            collect.append(attn)
        mixed = (attn @ v).transpose(1, 0, 2).reshape(length, dm)
        return mixed @ weights["wo"]

    def _forward(self, text: str, collect: list | None) -> np.ndarray:
        ids = tokenize(text).ids
        h = self.table.entries[list(ids)] + self._positions(len(ids))
        for weights in self.layers:
            h = h + self._attention(_layer_norm(h), weights, collect)
            ff_in = _layer_norm(h)
            h = h + np.maximum(ff_in @ weights["w1"] + weights["b1"], 0.0) @ weights["w2"] + weights["b2"]
        return h.mean(axis=0)

    def encode(self, text: str, collect_attention: list | None = None) -> np.ndarray:
        """Mean-pooled output for one text, as a read-only vector.

        Outputs are memoized per model, so a repeated text costs a dict
        lookup. Passing ``collect_attention`` always runs the forward pass, so
        that its attention maps are appended.
        """
        if collect_attention is None:
            hit = self._memo.get(text)
            if hit is not None:
                return hit
        vec = self._forward(text, collect_attention)
        vec.flags.writeable = False
        self._memo[text] = vec
        return vec

    def embed(self, texts: list[str]) -> EmbeddingMatrix:
        if not texts:
            raise ValueError("texts must be non-empty")
        return EmbeddingMatrix(
            values=np.stack([self.encode(t) for t in texts]), provenance=self.provenance
        )


def embed_traditional(task: RegressionTask, xs: list[dict]) -> EmbeddingMatrix:
    """Row-wise traditional featurization; dimension is the task's d_trad."""
    width = d_trad(task)
    rows = np.zeros((len(xs), width))
    for i, x in enumerate(xs):
        rows[i] = featurize_traditional(task, x)
    return EmbeddingMatrix(values=rows, provenance="traditional:" + config_hash({"d": width}))


def embed_hash_scrambled(texts: list[str], dim: int, seed: int = 0) -> EmbeddingMatrix:
    """Map each distinct text to an unrelated pseudorandom Gaussian vector.

    A negative control: all geometric structure of the inputs is destroyed,
    while staying deterministic (the vector is seeded by a cryptographic hash
    of the text), so nearby inputs land nowhere near each other.
    """
    if not texts:
        raise ValueError("texts must be non-empty")
    rows = np.empty((len(texts), dim))
    for i, text in enumerate(texts):
        rng = np.random.default_rng(_hash_seed("scrambled", str(seed), text))
        rows[i] = rng.standard_normal(dim)
    return EmbeddingMatrix(
        values=rows, provenance="scrambled:" + config_hash({"dim": dim, "seed": seed})
    )


def embed_scrambled_permutation(
    task: RegressionTask, xs: list[dict], seed: int = 0
) -> EmbeddingMatrix:
    """Permute each row's traditional features by a hash of that row.

    Weaker scramble than :func:`embed_hash_scrambled`: coordinate roles are
    shuffled per point, but the multiset of feature values survives, so
    objectives symmetric in their coordinates are unaffected in distribution.
    """
    base = embed_traditional(task, xs)
    fmt = StringFormat(float_precision=17)
    rows = np.empty_like(base.values)
    for i, x in enumerate(xs):
        key = serialize(task, x, fmt)
        rng = np.random.default_rng(_hash_seed("scrambled_perm", str(seed), key))
        rows[i] = base.values[i][rng.permutation(base.dim)]
    return EmbeddingMatrix(
        values=rows,
        provenance="scrambled_perm:" + config_hash({"dim": base.dim, "seed": seed}),
    )


class Embedder:
    """A backend bound to a task: embeds lists of assignments."""

    def __init__(self, kind: str, provenance: str, fn):
        self.kind = kind
        self.provenance = provenance
        self._fn = fn

    def embed(self, xs: list[dict]) -> EmbeddingMatrix:
        return self._fn(xs)


#: Config keys that each embedder kind accepts besides ``kind``.
SPEC_KEYS = {
    "traditional": (),
    "vocab_pool": ("width", "seed"),
    "synthetic_transformer": ("layers", "model_dim", "heads", "ff_dim", "seed", "table_seed"),
    "scrambled": ("dim", "seed"),
    "scrambled_perm": ("seed",),
    "remote": ("endpoint", "model", "cache", "batch_size", "max_attempts", "backoff", "max_inflight"),
}


def check_spec(spec: dict) -> None:
    """Raise ValueError unless ``spec`` names a known kind and only its keys."""
    if not isinstance(spec, dict):
        raise ValueError(f"an embedder spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind not in SPEC_KEYS:
        raise ValueError(f"unknown embedder kind {kind!r} (known: {', '.join(SPEC_KEYS)})")
    unknown = set(spec) - {"kind", *SPEC_KEYS[kind]}
    if unknown:
        allowed = ", ".join(SPEC_KEYS[kind]) or "none"
        raise ValueError(
            f"unknown keys for embedder kind {kind!r}: {sorted(unknown)} (allowed: {allowed})"
        )


def build_embedder(
    spec: dict, task: RegressionTask, fmt: StringFormat | None = None
) -> Embedder:
    """Construct an embedder from a config dict with a ``kind`` field.

    Kinds and their keys are listed in :data:`SPEC_KEYS`; any other key is
    rejected. String-based kinds serialize inputs with ``fmt`` before
    embedding.
    """
    check_spec(spec)
    fmt = fmt or StringFormat()
    kind = spec["kind"]

    def texts_of(xs: list[dict]) -> list[str]:
        return [serialize(task, x, fmt) for x in xs]

    if kind == "traditional":
        em = lambda xs: embed_traditional(task, xs)
        return Embedder(kind, "traditional:" + config_hash({"d": d_trad(task)}), em)

    if kind == "vocab_pool":
        table = VocabTable.create(width=spec.get("width", 64), seed=spec.get("seed", 0))
        return Embedder(kind, table.provenance, lambda xs: embed_vocab_pool(texts_of(xs), table))

    if kind == "synthetic_transformer":
        cfg = SyntheticTransformerConfig(
            layers=spec.get("layers", 2),
            model_dim=spec.get("model_dim", 64),
            heads=spec.get("heads", 4),
            ff_dim=spec.get("ff_dim", 256),
            seed=spec.get("seed", 0),
        )
        table = VocabTable.create(width=cfg.model_dim, seed=spec.get("table_seed", cfg.seed))
        model = SyntheticTransformer(cfg, table)
        return Embedder(kind, model.provenance, lambda xs: model.embed(texts_of(xs)))

    if kind == "scrambled":
        dim = spec.get("dim") or d_trad(task)
        seed = spec.get("seed", 0)
        return Embedder(
            kind,
            "scrambled:" + config_hash({"dim": dim, "seed": seed}),
            lambda xs: embed_hash_scrambled(texts_of(xs), dim=dim, seed=seed),
        )

    if kind == "scrambled_perm":
        seed = spec.get("seed", 0)
        return Embedder(
            kind,
            "scrambled_perm:" + config_hash({"dim": d_trad(task), "seed": seed}),
            lambda xs: embed_scrambled_permutation(task, xs, seed=seed),
        )

    if kind == "remote":
        from .remote import RemoteEmbedder

        client = RemoteEmbedder(
            endpoint=spec["endpoint"],
            model=spec["model"],
            cache_path=spec.get("cache"),
            batch_size=spec.get("batch_size", 32),
            max_attempts=spec.get("max_attempts", 3),
            backoff=spec.get("backoff", 0.5),
            max_inflight=spec.get("max_inflight", 4),
        )
        return Embedder(kind, client.provenance, lambda xs: client.embed_texts(texts_of(xs)))

    raise ValueError(f"unknown embedder kind {kind!r}")
