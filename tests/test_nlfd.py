import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from embreg import embedders, mlp, nlfd, tasks
from embreg.nlfd import EmptySampleError


def test_normalize_columns_standardized():
    rng = np.random.default_rng(0)
    m = rng.uniform(-3, 9, (50, 4))
    out = nlfd.normalize_embeddings(m)
    assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(out.var(axis=0) - 1.0) < 1e-9)


def test_normalize_constant_column_zeroed():
    values = np.column_stack([np.ones(10), np.arange(10.0)])
    out = nlfd.normalize_embeddings(values)
    assert np.all(out[:, 0] == 0.0)
    assert np.all(np.isfinite(out))


def test_normalize_needs_two_rows():
    with pytest.raises(ValueError):
        nlfd.normalize_embeddings(np.ones((1, 3)))


def test_factors_two_point_arithmetic():
    # Distance 2 between rows, |dy| = 4, d = 4: factor on the unit-average-norm
    # scale is sqrt(4) * 4 / 2 = 4.
    values = np.zeros((2, 4))
    values[1, 0] = 2.0
    sample = nlfd.lipschitz_factors(values, [0.0, 4.0])
    assert sample.factors.tolist() == [4.0, 4.0]
    assert sample.mu == 4.0
    assert sample.excluded_pairs == 0


def test_duplicate_rows_are_excluded_not_dropped_silently():
    values = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
    sample = nlfd.lipschitz_factors(values, [0.0, 1.0, 2.0])
    assert sample.excluded_pairs >= 1
    assert sample.n + sample.excluded_pairs == 3


def test_constant_labels_give_zero_factors():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((20, 3))
    sample = nlfd.lipschitz_factors(m, np.full(20, 7.0))
    assert np.all(sample.factors == 0.0)


def test_all_degenerate_raises():
    values = np.ones((4, 2))
    with pytest.raises(EmptySampleError):
        nlfd.lipschitz_factors(values, [1.0, 2.0, 3.0, 4.0])


def test_nearest_neighbor_tie_breaks_low_index():
    # Row 0 is equidistant from rows 1 and 2; the factor must use row 1's label
    # (|0-5|/1 = 5), not row 2's (|0-100|/1 = 100).
    values = np.array([[0.0], [1.0], [-1.0], [9.0]])
    sample = nlfd.lipschitz_factors(values, [0.0, 5.0, 100.0, 0.0])
    assert sample.factors[0] == 5.0


def test_zscore_reference_values():
    a = nlfd.NlfdSample(factors=np.array([2.0]), dim=1, excluded_pairs=0, mu=2.0, sigma=1.0)
    b = nlfd.NlfdSample(factors=np.array([1.0]), dim=1, excluded_pairs=0, mu=1.0, sigma=1.0)
    z = nlfd.zscore((a.mu, a.sigma), (b.mu, b.sigma))
    assert z == pytest.approx(1.0 / math.sqrt(2.0))
    assert nlfd.zscore((b.mu, b.sigma), (a.mu, a.sigma)) == pytest.approx(-z)


def test_zscore_self_is_exactly_zero():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((30, 5))
    sample = nlfd.nlfd_sample(m, rng.standard_normal(30))
    assert nlfd.zscore((sample.mu, sample.sigma), (sample.mu, sample.sigma)) == 0.0


def test_zscore_rejects_degenerate_pair():
    a = nlfd.NlfdSample(factors=np.array([1.0]), dim=1, excluded_pairs=0, mu=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        nlfd.zscore((a.mu, a.sigma), (a.mu, a.sigma))


def test_scale_invariance_of_factors():
    t = tasks.synthetic_task("sphere", 6)
    ds = tasks.sample_uniform(t, 200, seed=0)
    m = embedders.embed_traditional(t, ds.xs)
    base = nlfd.nlfd_sample(m, ds.y)
    scaled = nlfd.nlfd_sample(m * 1000.0, ds.y)
    assert np.max(np.abs(base.factors - scaled.factors)) <= 1e-9


def test_coordinate_duplication_consistency():
    # Duplicating every coordinate 4x doubles distances and sqrt(d); the
    # unit-average-norm factors agree to summation roundoff.
    t = tasks.synthetic_task("sphere", 5)
    ds = tasks.sample_uniform(t, 150, seed=1)
    m = embedders.embed_traditional(t, ds.xs)
    base = nlfd.nlfd_sample(m, ds.y)
    dup = nlfd.nlfd_sample(np.tile(m, (1, 4)), ds.y)
    assert dup.dim == 4 * base.dim
    assert base.n == dup.n
    assert np.max(np.abs(base.factors - dup.factors)) <= 1e-9


def test_histogram_counts_partition_sample():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((40, 4))
    sample = nlfd.nlfd_sample(m, rng.standard_normal(40))
    hist = nlfd.histogram(sample, bins=7)
    assert len(hist) == 7
    assert sum(count for _, count in hist) == sample.n
    assert hist[0][0][0] == 0.0


def test_histogram_single_bin_and_constant_factors():
    sample = nlfd.NlfdSample(
        factors=np.full(5, 2.5), dim=2, excluded_pairs=0, mu=2.5, sigma=0.0
    )
    hist = nlfd.histogram(sample, bins=1)
    assert hist[0][1] == 5
    all_zero = nlfd.NlfdSample(
        factors=np.zeros(4), dim=2, excluded_pairs=0, mu=0.0, sigma=0.0
    )
    hist0 = nlfd.histogram(all_zero, bins=3)
    assert hist0[0][1] == 4
    assert sum(c for _, c in hist0) == 4


def test_smoothness_ordering_matches_regression_ordering():
    """Scrambling a representation must look rougher and regress worse."""
    t = tasks.synthetic_task("sphere", 10)
    ds = tasks.sample_uniform(t, 500, seed=0)
    tr, va, te = tasks.split_dataset(ds, seed=0)
    cfg = mlp.TrainConfig(
        learning_rates=(5e-3,), weight_decays=(0.0,), max_epochs=80, patience=15
    )
    taus, samples = {}, {}
    for kind in ("traditional", "scrambled"):
        emb = embedders.build_embedder({"kind": kind}, t)
        _, _, report = mlp.train_and_evaluate(
            (emb.embed(tr.xs).values, tr.y),
            (emb.embed(va.xs).values, va.y),
            (emb.embed(te.xs).values, te.y),
            cfg,
            seed=0,
        )
        taus[kind] = report.metrics["kendall_tau"]
        samples[kind] = nlfd.nlfd_sample(emb.embed(ds.xs).values, ds.y)

    assert samples["traditional"].mu < samples["scrambled"].mu
    a, b = samples["traditional"], samples["scrambled"]
    z = nlfd.zscore((a.mu, a.sigma), (b.mu, b.sigma))
    gap = taus["scrambled"] - taus["traditional"]
    assert z < 0
    assert gap < 0
    assert np.sign(z) == np.sign(gap)


def _factors_loop(values, labels):
    """The per-pair loop lipschitz_factors replaced, kept as its oracle."""
    sq_norms = np.sum(values * values, axis=1)
    d2 = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (values @ values.T)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argmin(d2, axis=1)
    scale = math.sqrt(values.shape[1])
    factors, excluded = [], 0
    for i, j in enumerate(nearest):
        dist = float(np.linalg.norm(values[i] - values[j]))
        if dist < nlfd.DEGENERATE_DISTANCE:
            excluded += 1
            continue
        factors.append(scale * abs(labels[i] - labels[j]) / dist)
    return np.array(factors, dtype=np.float64), excluded


@pytest.mark.parametrize("dim", [1, 5, 10, 20, 64, 300])
def test_factors_equal_the_per_pair_loop_exactly(dim):
    rng = np.random.default_rng(dim)
    for rows in (200, 1000):  # 1,000 rows span 16 blocks of the search, the last one partial
        values = rng.standard_normal((rows, dim))
        values[7] = values[3]  # an exact duplicate, excluded
        values[9] = values[4] + 1e-7  # a near duplicate, kept
        labels = rng.standard_normal(rows)
        m = nlfd.normalize_embeddings(values)
        sample = nlfd.lipschitz_factors(m, labels)
        factors, excluded = _factors_loop(m, labels)
        assert np.array_equal(sample.factors, factors)
        assert sample.excluded_pairs == excluded >= 2
        assert sample.mu == float(factors.mean()) and sample.sigma == float(factors.std())


def _factors_bruteforce(values, labels):
    """Exact distances to every other row, nearest taken at the lowest index."""
    n, dim = values.shape
    factors, excluded = [], 0
    for i in range(n):
        dists = [np.linalg.norm(values[i] - values[j]) if j != i else np.inf for j in range(n)]
        j = dists.index(min(dists))
        if dists[j] < nlfd.DEGENERATE_DISTANCE:
            excluded += 1
        else:
            factors.append(math.sqrt(dim) * abs(labels[i] - labels[j]) / dists[j])
    return np.array(factors, dtype=np.float64), excluded


def test_factors_equal_a_brute_force_nearest_neighbor_oracle():
    """Integer grids make exact ties common; copies and nudges of rows by
    multiples of 2**-12 add duplicates and near duplicates. Every coordinate
    has few bits, so squared distances are exact on both paths and a tie is
    a tie on both. 500 instances of 2 to 29 rows, then row counts that
    straddle the search's blocks of 64 rows."""
    rng = np.random.default_rng(20240)
    checked = empty = 0
    for rows in [None] * 500 + [63, 64, 65, 129]:
        n, dim = rows or int(rng.integers(2, 30)), int(rng.integers(1, 6))
        values = rng.integers(-3, 4, (n, dim)).astype(np.float64)
        for i in range(1, n):
            roll = rng.random()
            if roll < 0.15:
                values[i] = values[rng.integers(0, i)]
            elif roll < 0.3:
                values[i] = values[rng.integers(0, i)] + rng.integers(-4, 5, dim) * 2.0**-12
        labels = rng.integers(0, 5, n).astype(np.float64)
        factors, excluded = _factors_bruteforce(values, labels)
        if factors.size == 0:
            with pytest.raises(EmptySampleError):
                nlfd.lipschitz_factors(values, labels)
            empty += 1
            continue
        sample = nlfd.lipschitz_factors(values, labels)
        assert np.array_equal(sample.factors, factors)
        assert sample.excluded_pairs == excluded
        checked += 1
    assert checked > 400 and empty > 0


def test_the_search_never_holds_an_n_by_n_matrix():
    """An (n, n) float64 matrix of 3,000 rows is n**2 * 8 bytes, 72 MB. The
    blocked search holds a few (64, n) slabs of inner products and squared
    distances (1.5 MB each) and one (64, d) slab of row differences, under
    10 MB however the temporaries fall. A bound of an
    eighth of the whole matrix passes that with room and fails any search
    that forms one (n, n) array."""
    n, dim = 3000, 8
    rng = np.random.default_rng(3)
    values = nlfd.normalize_embeddings(rng.standard_normal((n, dim)))
    labels = rng.standard_normal(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nlfd.lipschitz_factors(values, labels)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    whole_matrix = n * n * 8
    assert peak < whole_matrix / 8, f"peak {peak / 2**20:.1f} MiB"


def test_the_search_never_holds_an_n_by_d_matrix():
    """At the widths of service embeddings the (n, d) input outweighs the
    (64, n) slabs: at 500 × 2,048 it is 7.8 MiB, and each slab 0.25 MiB.
    The search squares, differences and measures rows one block of 64 at a
    time, so apart from its O(64·(n + d)) slabs it holds only O(n) vectors;
    any (n, d) temporary, such as every row's squares or the difference of
    every row and its neighbour, reaches the whole input's size."""
    n, dim = 500, 2048
    rng = np.random.default_rng(4)
    values = nlfd.normalize_embeddings(rng.standard_normal((n, dim)))
    labels = rng.standard_normal(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nlfd.lipschitz_factors(values, labels)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < n * dim * 8, f"peak {peak / 2**20:.1f} MiB"


def test_nlfd_and_the_mlp_head_import_no_embedder():
    """Both take plain matrices, so neither needs the embedders module."""
    script = "import sys, embreg.nlfd, embreg.mlp; assert 'embreg.embedders' not in sys.modules"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
