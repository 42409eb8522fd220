"""Rank-correlation and error metrics, and paired outperformance rates.

Kendall's tau uses the tie-corrected tau-b definition. Two routes are
provided: an O(n log n) merge-sort path for production use and a direct
O(n^2) pair-enumeration oracle. Both reduce to identical integer pair counts,
so they agree bit-for-bit.
"""

from __future__ import annotations

import math
import numpy as np


class UndefinedMetricError(ValueError):
    """Metric has no defined value for these inputs (e.g. an all-tied series)."""


def _check_lengths(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y, dtype=np.float64)
    b = np.asarray(yhat, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError(f"series must be 1-D of equal length, got {a.shape} and {b.shape}")
    if a.size < 2:
        raise ValueError("need at least 2 observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("series must be finite, got a NaN or an infinity")
    return a, b


def _tau_from_counts(c: int, d: int, ties_y: int, ties_yhat: int) -> float:
    # tau-b: ties_y / ties_yhat count pairs tied in exactly one series.
    denom_sq = (c + d + ties_y) * (c + d + ties_yhat)
    if denom_sq == 0:
        raise UndefinedMetricError("kendall tau undefined: a series is entirely tied")
    return (c - d) / math.sqrt(denom_sq)


def _pair_counts_bruteforce(y: np.ndarray, z: np.ndarray) -> tuple[int, int, int, int]:
    c = d = ties_y = ties_z = 0
    n = y.size
    for i in range(n - 1):
        for j in range(i + 1, n):
            y_tied = y[i] == y[j]
            z_tied = z[i] == z[j]
            if y_tied and z_tied:
                continue
            if y_tied:
                ties_y += 1
            elif z_tied:
                ties_z += 1
            elif (y[i] < y[j]) == (z[i] < z[j]):
                c += 1
            else:
                d += 1
    return c, d, ties_y, ties_z


def _run_tie_pairs(sorted_values) -> int:
    total = 0
    run = 1
    for prev, cur in zip(sorted_values, sorted_values[1:]):
        if cur == prev:
            run += 1
        else:
            total += run * (run - 1) // 2
            run = 1
    total += run * (run - 1) // 2
    return total


def _merge_count_inversions(a: list[float]) -> tuple[list[float], int]:
    n = len(a)
    if n <= 1:
        return a, 0
    mid = n // 2
    left, cl = _merge_count_inversions(a[:mid])
    right, cr = _merge_count_inversions(a[mid:])
    merged: list[float] = []
    count = cl + cr
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            count += len(left) - i
            merged.append(right[j])
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, count


def _pair_counts_fast(y: np.ndarray, z: np.ndarray) -> tuple[int, int, int, int]:
    n = y.size
    order = np.lexsort((z, y))  # by y, ties by z
    ys, zs = y[order], z[order]
    n0 = n * (n - 1) // 2
    n1 = _run_tie_pairs(ys.tolist())
    n2 = _run_tie_pairs(np.sort(z).tolist())
    n3 = _run_tie_pairs(list(zip(ys.tolist(), zs.tolist())))
    # In (y, z)-sorted order an inversion in z is exactly a discordant pair.
    _, discordant = _merge_count_inversions(zs.tolist())
    c = n0 - n1 - n2 + n3 - discordant
    return c, discordant, n1 - n3, n2 - n3


def kendall_tau(y, yhat) -> float:
    """Tie-corrected rank correlation in [-1, 1] via the O(n log n) route."""
    a, b = _check_lengths(y, yhat)
    return _tau_from_counts(*_pair_counts_fast(a, b))


def kendall_tau_bruteforce(y, yhat) -> float:
    """Reference implementation enumerating all pairs; used to cross-check."""
    a, b = _check_lengths(y, yhat)
    return _tau_from_counts(*_pair_counts_bruteforce(a, b))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    sv = v[order]
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))  # where each run of equal values begins
    ends = np.append(starts[1:], v.size)
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)  # average of 1-based ranks start+1..end
    return ranks


def pearson(y, yhat) -> float:
    a, b = _check_lengths(y, yhat)
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float(ac @ ac)) * math.sqrt(float(bc @ bc))
    if denom == 0.0:
        raise UndefinedMetricError("pearson undefined: zero variance in a series")
    return float(ac @ bc) / denom


def spearman(y, yhat) -> float:
    """Pearson correlation of average ranks (ties get their mean rank)."""
    a, b = _check_lengths(y, yhat)
    return pearson(_average_ranks(a), _average_ranks(b))


def mse(y, yhat) -> float:
    a, b = _check_lengths(y, yhat)
    return float(np.mean((a - b) ** 2))


def mae(y, yhat) -> float:
    a, b = _check_lengths(y, yhat)
    return float(np.mean(np.abs(a - b)))


def bundle(y, yhat) -> dict[str, float]:
    """Every metric of one prediction series, keyed by name in the order ``report.json`` lists them."""
    return {
        "kendall_tau": kendall_tau(y, yhat),
        "spearman": spearman(y, yhat),
        "pearson": pearson(y, yhat),
        "mse": mse(y, yhat),
        "mae": mae(y, yhat),
    }


def outperformance_rate(a_scores, b_scores) -> float:
    """Percentage of paired tasks where a strictly beats b."""
    a = np.asarray(a_scores, dtype=np.float64)
    b = np.asarray(b_scores, dtype=np.float64)
    if a.size != b.size or a.size == 0:
        raise ValueError("paired score lists must be non-empty and equal length")
    return 100.0 * float(np.mean(a > b))
