"""Normalized Lipschitz factor distribution (NLFD) smoothness diagnostics.

For a representation of a dataset, each point contributes one local roughness
factor: the objective difference to its nearest neighbor in embedding space
divided by their embedding distance. Embeddings are first standardized per
coordinate, and distances are expressed on the unit-average-norm scale (the
standardized matrix has typical row norm sqrt(d), so raw factors are
multiplied by sqrt(d)). That makes factor distributions comparable across
embedding dimensions: duplicating every coordinate leaves the distribution
unchanged, as does rescaling the whole matrix.

A distribution skewed toward zero means nearby points (as the representation
measures nearness) have similar objective values - the landscape the regressor
sees is smooth. Two representations are compared by a z-score on their factor
means; the sign convention puts the first argument's roughness first, so a
positive score means the second representation is the smoother one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import UndefinedMetricError

DEGENERATE_DISTANCE = 1e-10
_VARIANCE_FLOOR = 1e-12
#: Rows per block of the nearest-neighbor search, which holds a few (block, n)
#: slabs of inner products and squared distances and a (block, d) slab of row
#: differences at a time, never an (n, n) or (n, d) one.
_NN_BLOCK = 64


class EmptySampleError(ValueError):
    """All nearest-neighbor pairs were degenerate; no factors to report."""


@dataclass(frozen=True)
class NlfdSample:
    """Factor sample for one (embedding, objective) pairing."""

    factors: np.ndarray
    dim: int
    excluded_pairs: int
    mu: float
    sigma: float

    @property
    def n(self) -> int:
        return int(self.factors.size)


def normalize_embeddings(values: np.ndarray) -> np.ndarray:
    """Shift and scale each coordinate of an (n, d) matrix to zero mean, unit
    variance over the batch. Near-constant coordinates are centered but left
    unscaled."""
    if len(values) < 2:
        raise ValueError("need at least 2 rows to normalize")
    mean = values.mean(axis=0)
    var = values.var(axis=0)
    scale = np.where(var < _VARIANCE_FLOOR, 1.0, np.sqrt(var))
    out = values - mean
    out /= scale
    return out


def lipschitz_factors(values: np.ndarray, y) -> NlfdSample:
    """Nearest-neighbor roughness factors of a standardized embedding.

    For each row, the nearest other row by Euclidean distance is found (ties
    broken toward the lowest index); the factor is
    sqrt(d) * |y_i - y_j| / ||row_i - row_j||. Pairs closer than
    ``DEGENERATE_DISTANCE`` are excluded and counted rather than dropped
    silently.
    """
    labels = np.asarray(y, dtype=np.float64)
    n, dim = values.shape
    if n != labels.size:
        raise ValueError(f"row count mismatch: {n} embeddings vs {labels.size} labels")
    if n < 2:
        raise ValueError("need at least 2 rows")
    sq_norms = np.empty(n)
    for lo in range(0, n, _NN_BLOCK):
        block = values[lo : lo + _NN_BLOCK]
        sq_norms[lo : lo + _NN_BLOCK] = np.sum(block * block, axis=1)
    # Exact O(n^2 d) search: determinism matters more than speed at this scale.
    # Each block of rows takes its own rows G_ij of the inner products and
    # ranks them by (sq_i + sq_j) - 2 * G_ij; no (n, n) or (n, d) array is formed.
    nearest = np.empty(n, dtype=np.intp)
    dist = np.empty(n)
    for lo in range(0, n, _NN_BLOCK):
        hi = min(lo + _NN_BLOCK, n)
        block = values[lo:hi]
        d2 = (sq_norms[lo:hi, None] + sq_norms[None, :]) - 2.0 * (block @ values.T)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        nearest[lo:hi] = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
        # A stacked (1, d) @ (d, 1) product takes the dot path np.linalg.norm
        # takes for one vector, so distances match it bit for bit.
        diffs = block - values[nearest[lo:hi]]
        dist[lo:hi] = np.sqrt(np.matmul(diffs[:, None, :], diffs[:, :, None]).ravel())
    keep = ~(dist < DEGENERATE_DISTANCE)
    excluded = int(keep.size - np.count_nonzero(keep))
    if excluded == keep.size:
        raise EmptySampleError(f"all {excluded} nearest-neighbor pairs were degenerate")
    arr = math.sqrt(dim) * np.abs(labels - labels[nearest])[keep] / dist[keep]
    return NlfdSample(
        factors=arr,
        dim=dim,
        excluded_pairs=excluded,
        mu=float(arr.mean()),
        sigma=float(arr.std()),
    )


def nlfd_sample(values: np.ndarray, y) -> NlfdSample:
    """Standardize then compute factors; the usual entry point."""
    return lipschitz_factors(normalize_embeddings(values), y)


def zscore(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Standardized gap between two (mu, sigma) pairs: (mu_a - mu_b) over the
    root of summed variances. Positive means b is smoother; swapping the
    arguments negates the score."""
    (mu_a, sigma_a), (mu_b, sigma_b) = a, b
    denom = math.sqrt(sigma_a**2 + sigma_b**2)
    if denom == 0.0:
        raise UndefinedMetricError("z-score undefined: both samples have zero variance")
    return (mu_a - mu_b) / denom


def histogram(sample: NlfdSample, bins: int) -> list[tuple[tuple[float, float], int]]:
    """Equal-width bins over [0, max factor]; counts sum to the sample size."""
    if bins < 1:
        raise ValueError("bins must be positive")
    if sample.n == 0:
        raise EmptySampleError("cannot histogram an empty sample")
    top = float(sample.factors.max())
    if top == 0.0:
        top = 1.0  # all-zero factors land in the first bin
    counts, edges = np.histogram(sample.factors, bins=bins, range=(0.0, top))
    return [
        ((float(edges[k]), float(edges[k + 1])), int(counts[k])) for k in range(bins)
    ]

