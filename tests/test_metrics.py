import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embreg import metrics
from embreg.metrics import UndefinedMetricError


def test_kendall_monotone_agreement():
    assert metrics.kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0


def test_kendall_reversal():
    assert metrics.kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0


def test_kendall_single_swap():
    # Exhaustive pairs: 5 concordant, 1 discordant -> 4/6.
    assert metrics.kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)


def test_kendall_matches_oracle_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = rng.integers(2, 50)
        y = rng.integers(0, 6, n).astype(float)  # heavy ties
        z = rng.integers(0, 6, n).astype(float)
        try:
            expected = metrics.kendall_tau_bruteforce(y, z)
        except UndefinedMetricError:
            with pytest.raises(UndefinedMetricError):
                metrics.kendall_tau(y, z)
            continue
        assert metrics.kendall_tau(y, z) == expected  # exact, both routes share counts


def test_kendall_all_tied_is_undefined():
    with pytest.raises(UndefinedMetricError):
        metrics.kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedMetricError):
        metrics.kendall_tau([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-10, 10), min_size=2, max_size=40),
    st.integers(0, 2**31 - 1),
)
def test_kendall_fast_equals_oracle_property(values, seed):
    rng = np.random.default_rng(seed)
    y = np.array(values, dtype=float)
    z = rng.integers(-10, 10, len(values)).astype(float)
    try:
        expected = metrics.kendall_tau_bruteforce(y, z)
    except UndefinedMetricError:
        return
    assert metrics.kendall_tau(y, z) == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_rank_metrics_invariant_to_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(30)
    z = rng.standard_normal(30)
    z_warped = np.exp(z)  # strictly increasing
    assert metrics.kendall_tau(y, z_warped) == pytest.approx(metrics.kendall_tau(y, z))
    assert metrics.spearman(y, z_warped) == pytest.approx(metrics.spearman(y, z))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_pearson_affine_invariance(seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(25)
    z = rng.standard_normal(25)
    assert metrics.pearson(y, 2.5 * z + 3.0) == pytest.approx(metrics.pearson(y, z))


def test_identical_series():
    y = [1.0, 2.0, 5.0, 3.0]
    assert metrics.spearman(y, y) == pytest.approx(1.0)
    assert metrics.pearson(y, y) == pytest.approx(1.0)
    assert metrics.mse(y, y) == 0.0
    assert metrics.mae(y, y) == 0.0


def test_pearson_of_affine_prediction():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert metrics.pearson(y, 2 * y + 3) == pytest.approx(1.0)


def test_mse_mae_direct():
    assert metrics.mse([0.0, 1.0], [1.0, 0.0]) == 1.0
    assert metrics.mae([0.0, 1.0], [1.0, 0.0]) == 1.0


def test_spearman_uses_average_ranks():
    # y ties at (1,1): average rank 1.5 each; hand-computed correlation.
    y = np.array([1.0, 1.0, 2.0])
    z = np.array([1.0, 2.0, 3.0])
    ry = np.array([1.5, 1.5, 3.0])
    rz = np.array([1.0, 2.0, 3.0])
    expected = metrics.pearson(ry, rz)
    assert metrics.spearman(y, z) == pytest.approx(expected)


def test_zero_variance_rejected():
    with pytest.raises(UndefinedMetricError):
        metrics.pearson([1.0, 1.0], [1.0, 2.0])
    with pytest.raises(UndefinedMetricError):
        metrics.spearman([1.0, 2.0], [3.0, 3.0])


def test_length_checks():
    with pytest.raises(ValueError):
        metrics.mse([1.0], [1.0])
    with pytest.raises(ValueError):
        metrics.kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("metric", [metrics.kendall_tau, metrics.spearman, metrics.pearson, metrics.mse, metrics.mae])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_series_that_is_not_finite_is_an_error(metric, bad):
    # a non-finite prediction is an error, not a score (a NaN would also hang a tie loop)
    with pytest.raises(ValueError, match="finite"):
        metric([1.0, bad, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        metric([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


def _average_ranks_oracle(v: np.ndarray) -> np.ndarray:
    """The tie loop that the vectorized ranks replaced: walk each run of equal sorted values."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j < v.size and sv[j] == sv[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0  # average of 1-based ranks i+1..j
        i = j
    return ranks


def test_average_ranks_equal_the_tie_loop_oracle():
    rng = np.random.default_rng(11)
    tied = np.array([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])  # -0.0 and 0.0 are one value
    for n in range(1, 81):
        for _ in range(10):
            v = np.where(rng.random(n) < 0.7, rng.choice(tied, n), rng.uniform(-5.0, 5.0, n))
            assert metrics._average_ranks(v).tobytes() == _average_ranks_oracle(v).tobytes(), v


def test_outperformance_rate():
    assert metrics.outperformance_rate([1, 2, 3, 4], [0, 3, 1, 2]) == 75.0
    assert metrics.outperformance_rate([1.0, 1.0], [1.0, 1.0]) == 0.0
