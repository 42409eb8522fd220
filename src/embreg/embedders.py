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
import numbers
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import cached_property, partial

import numpy as np

from .featurize import StringFormat, d_trad, featurize_traditional, serialize
from .tasks import RegressionTask, check_integers

BYTE_VOCAB = 256


class EmptyTextError(ValueError):
    """Tokenizer input was empty."""


@dataclass(frozen=True)
class EmbeddingMatrix:
    """n x d matrix of finite floats."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("embedding matrix contains non-finite entries")

    @property
    def rows(self) -> int:
        return self.values.shape[0]


def tokenize(text: str) -> list[int]:
    """Byte-level tokenization: one token per UTF-8 byte, vocabulary 256."""
    if text == "":
        raise EmptyTextError("cannot tokenize an empty string")
    return list(text.encode("utf-8"))


def canonical_json(config: dict) -> str:
    """The one JSON encoding of a config that is hashed or written: sorted keys, no spaces."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    """Short stable digest of a backend config, used to pin provenance."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


def _hash_seed(*parts: str) -> int:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class VocabTable:
    """Seeded token-embedding table: one width-dimensional vector per byte token."""

    width: int
    seed: int
    entries: np.ndarray

    @classmethod
    def create(cls, width: int = 64, seed: int = 0) -> "VocabTable":
        rng = np.random.default_rng(seed)
        entries = rng.standard_normal((BYTE_VOCAB, width)) / math.sqrt(width)
        return cls(width=width, seed=seed, entries=entries)

    @cached_property
    def provenance(self) -> str:
        """Provenance of vocab_pool embeddings read from this table."""
        return "vocab_pool:" + config_hash({"v": BYTE_VOCAB, "width": self.width, "seed": self.seed})


def embed_vocab_pool(texts: list[str], table: VocabTable) -> np.ndarray:
    """Average each text's token vectors; no positional information survives."""
    if not texts:
        raise ValueError("texts must be non-empty")
    rows = np.empty((len(texts), table.width))
    for i, text in enumerate(texts):
        rows[i] = table.entries[tokenize(text)].mean(axis=0)
    return rows


@dataclass(frozen=True)
class SyntheticTransformerConfig:
    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    ff_dim: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        check_integers(vars(self), layers=1, model_dim=1, heads=1, ff_dim=1, seed=0)
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


def _head_map(q: np.ndarray, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(head_dim)) for one head's (length, head_dim)
    queries and keys, written into ``out``: out[i, j] = q_i . k_j / sqrt(head_dim)."""
    np.matmul(q, k.T, out=out)
    out /= math.sqrt(q.shape[1])
    return _softmax(out)


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
    without biases, with a residual connection. The per-position outputs are
    mean-pooled into a single model_dim vector.
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
                    "w2": rng.standard_normal((ff, dm)) / math.sqrt(ff),
                }
            )
        # "table_seed" stays in the hashed dict so provenance strings match those of earlier runs.
        self.provenance = "synthetic_transformer:" + config_hash({**asdict(cfg), "table_seed": table.seed})
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

    def _attention(self, h: np.ndarray, weights: dict) -> np.ndarray:
        """The block's output, one head at a time: each head's (length, length)
        map is built in one reused buffer and mixed into that head's columns."""
        length, dm = h.shape
        head_dim = dm // self.cfg.heads
        q, k, v = h @ weights["wq"], h @ weights["wk"], h @ weights["wv"]
        attn = np.empty((length, length))
        mixed = np.empty((length, dm))
        for lo in range(0, dm, head_dim):
            cols = slice(lo, lo + head_dim)
            # Each product has the operand layout of one head of a stacked (heads,
            # length, head_dim) matmul, so it makes the same GEMM call and bits.
            np.matmul(_head_map(q[:, cols], k[:, cols], attn), v[:, cols], out=mixed[:, cols])
        return mixed @ weights["wo"]

    def _forward(self, text: str) -> np.ndarray:
        ids = tokenize(text)
        h = self.table.entries[ids] + self._positions(len(ids))  # a fresh array, so += is safe
        for weights in self.layers:
            h += self._attention(_layer_norm(h), weights)
            h += np.maximum(_layer_norm(h) @ weights["w1"], 0.0) @ weights["w2"]
        return h.mean(axis=0)

    def encode(self, text: str) -> np.ndarray:
        """Mean-pooled output for one text, as a read-only vector, memoized
        per model so that a repeated text costs a dict lookup."""
        vec = self._memo.get(text)
        if vec is None:
            vec = self._forward(text)
            vec.flags.writeable = False
            self._memo[text] = vec
        return vec

    def embed(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("texts must be non-empty")
        return np.stack([self.encode(t) for t in texts])


def embed_traditional(task: RegressionTask, xs: list[dict]) -> np.ndarray:
    """Row-wise traditional featurization; dimension is the task's d_trad."""
    rows = np.zeros((len(xs), d_trad(task)))
    for i, x in enumerate(xs):
        rows[i] = featurize_traditional(task, x)
    return rows


def embed_hash_scrambled(texts: list[str], dim: int, seed: int) -> np.ndarray:
    """Map each distinct text to an unrelated pseudorandom Gaussian vector.

    A negative control: all geometric structure of the inputs is destroyed,
    while staying deterministic (the vector is seeded by a cryptographic hash
    of the text), so nearby inputs land nowhere near each other.
    """
    rows = np.empty((len(texts), dim))
    for i, text in enumerate(texts):
        rng = np.random.default_rng(_hash_seed("scrambled", str(seed), text))
        rows[i] = rng.standard_normal(dim)
    return rows


def embed_scrambled_permutation(task: RegressionTask, xs: list[dict], seed: int) -> np.ndarray:
    """Permute each row's traditional features by a hash of that row.

    Weaker scramble than :func:`embed_hash_scrambled`: coordinate roles are
    shuffled per point, but the multiset of feature values survives, so
    objectives symmetric in their coordinates are unaffected in distribution.
    """
    rows = embed_traditional(task, xs)
    fmt = StringFormat(float_precision=17)
    for i, x in enumerate(xs):
        key = serialize(task, x, fmt)
        rng = np.random.default_rng(_hash_seed("scrambled_perm", str(seed), key))
        rows[i] = rows[i][rng.permutation(rows.shape[1])]
    return rows


class Embedder:
    """A backend bound to a task, with the provenance fixed when it was
    built: ``embed`` wraps each matrix of the backend in the one place
    that checks it."""

    def __init__(self, kind: str, fn, provenance: str):
        self.kind = kind
        self._fn = fn
        self.provenance = provenance

    def embed(self, xs: list[dict]) -> EmbeddingMatrix:
        return EmbeddingMatrix(values=self._fn(xs))


def _traditional(task, texts):
    return partial(embed_traditional, task), "traditional:" + config_hash({"d": d_trad(task)})


def _vocab_pool(task, texts, **options):
    table = VocabTable.create(**options)
    return (lambda xs: embed_vocab_pool(texts(xs), table)), table.provenance


def _synthetic_transformer(task, texts, **options):
    cfg = SyntheticTransformerConfig(**options)
    model = SyntheticTransformer(cfg, VocabTable.create(cfg.model_dim, cfg.seed))
    return (lambda xs: model.embed(texts(xs))), model.provenance


def _scrambled(task, texts, dim=None, seed=0):
    dim = dim or d_trad(task)
    provenance = "scrambled:" + config_hash({"dim": dim, "seed": seed})
    return (lambda xs: embed_hash_scrambled(texts(xs), dim, seed)), provenance


def _scrambled_perm(task, texts, seed=0):
    provenance = "scrambled_perm:" + config_hash({"dim": d_trad(task), "seed": seed})
    return partial(embed_scrambled_permutation, task, seed=seed), provenance


def _check_remote(endpoint, model, cache="", backoff=0, **counts) -> None:
    for name, value in (("endpoint", endpoint), ("model", model), ("cache", cache)):
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")
    if isinstance(backoff, bool) or not isinstance(backoff, numbers.Real) or not 0 <= backoff < math.inf:
        raise ValueError(f"backoff must be a finite number >= 0, got {backoff!r}")
    check_integers(counts, batch_size=1, max_attempts=1, max_inflight=1)


def _remote(task, texts, cache=None, **options):
    from .remote import RemoteEmbedder  # looked up per build: remote imports this module

    client = RemoteEmbedder(cache_path=cache, **options)
    return (lambda xs: client.embed_texts(texts(xs))), client.provenance


@dataclass(frozen=True)
class Backend:
    """An embedder kind: the spec keys it takes besides ``kind``, and
    ``build(task, texts, **keys) -> (embed, provenance)``, where ``embed(xs)``
    returns a float64 array and ``texts(xs)`` serializes assignments in the
    run's string format. Key defaults live in the build, or in the config or
    constructor it calls.
    ``check(**keys)`` raises TypeError or ValueError for keys that
    cannot build, without building a model or touching a file or network."""

    keys: tuple[str, ...]
    build: Callable
    check: Callable = lambda **keys: None


#: Every embedder kind, keyed by the spec's ``kind``.
BACKENDS = {
    "traditional": Backend((), _traditional),
    "vocab_pool": Backend(
        ("width", "seed"), _vocab_pool, check=lambda **keys: check_integers(keys, width=1, seed=0)
    ),
    "synthetic_transformer": Backend(
        ("layers", "model_dim", "heads", "ff_dim", "seed"), _synthetic_transformer, check=SyntheticTransformerConfig
    ),
    "scrambled": Backend(("dim", "seed"), _scrambled, check=lambda **keys: check_integers(keys, dim=1, seed=0)),
    "scrambled_perm": Backend(("seed",), _scrambled_perm, check=lambda **keys: check_integers(keys, seed=0)),
    "remote": Backend(
        ("endpoint", "model", "cache", "batch_size", "max_attempts", "backoff", "max_inflight"),
        _remote,
        check=_check_remote,
    ),
}


def check_spec(spec: dict) -> None:
    """Raise ValueError unless ``spec`` names a known kind and only its keys,
    and passes the kind's :attr:`Backend.check`."""
    if not isinstance(spec, dict):
        raise ValueError(f"an embedder spec must be a JSON object, got {spec!r}")
    backend = BACKENDS.get(spec.get("kind"))
    if backend is None:
        raise ValueError(f"unknown embedder kind {spec.get('kind')!r} (known: {', '.join(BACKENDS)})")
    unknown = set(spec) - {"kind", *backend.keys}
    if unknown:
        allowed = ", ".join(backend.keys) or "none"
        raise ValueError(f"unknown keys for embedder kind {spec['kind']!r}: {sorted(unknown)} (allowed: {allowed})")
    try:
        backend.check(**{k: v for k, v in spec.items() if k != "kind"})
    except (TypeError, ValueError) as e:
        raise ValueError(f"embedder kind {spec['kind']!r} cannot build from {spec}: {e}") from e


def build_embedder(spec: dict, task: RegressionTask, fmt: StringFormat | None = None) -> Embedder:
    """Construct an embedder from a config dict with a ``kind`` field.

    Kinds and their keys are listed in :data:`BACKENDS`; any other key is
    rejected. String-based kinds serialize inputs with ``fmt`` before
    embedding.
    """
    check_spec(spec)
    fmt = fmt or StringFormat()
    options = {k: v for k, v in spec.items() if k != "kind"}
    texts = lambda xs: [serialize(task, x, fmt) for x in xs]
    return Embedder(spec["kind"], *BACKENDS[spec["kind"]].build(task, texts, **options))
