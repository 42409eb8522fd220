"""Small statistics shared by the benchmark's metrics."""

from __future__ import annotations

import math
import statistics

#: Percentiles tried for the tail, highest first; 50 is the median fallback.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; the median is the usual midpoint median."""
    if pct == 50.0:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail(values, ladder=TAIL_LADDER, min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    ``min_beyond`` samples beyond it.

    When the sample is too small for any percentile on the ladder, only the
    median may be reported, and (50, median) is returned.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    n = len(values)
    for pct in ladder:
        if n - _rank(pct, n) >= min_beyond:
            return pct, percentile(values, pct)
    return 50.0, statistics.median(values)


def failed_frac(cells: int, failed_cells: int, request_attempts: int, requests_ok: int) -> tuple[int, int, float]:
    """(attempted, failed, fraction) over cells and remote request attempts.

    A remote request fails when the client attempted it and the service did
    not answer it with status 200; the base counts every attempt, retries
    included.
    """
    if cells < 1:
        raise ValueError("no cells attempted")
    if requests_ok > request_attempts:
        raise ValueError("more answers than request attempts")
    attempted = cells + request_attempts
    failed = failed_cells + (request_attempts - requests_ok)
    return attempted, failed, failed / attempted


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
