"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. These tests exercise the full pipeline at small scale and pin the
qualitative behaviors the library exists to demonstrate; the heavier trend
checks (C3, C4, C6) each finish in well under their stated budgets.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from embreg import embedders, experiments, metrics, mlp, nlfd, tasks
from embreg.bbob import CATALOG
from embreg.cli import main
from embreg.featurize import StringFormat, serialize
from embreg.metrics import UndefinedMetricError
from embreg.remote import RemoteEmbedder, TransportError
from embreg.tasks import ParamSpec, RegressionTask

GOLDEN = Path(__file__).parent / "golden"


def _pass(criterion: str, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: PASS - {detail}")


# -- C1 ----------------------------------------------------------------------


def test_c1_kendall_fast_path_equals_pair_count_oracle():
    """Fast tau-b agrees exactly with the O(n^2) oracle on 1,000 tied instances."""
    rng = np.random.default_rng(12345)
    started = time.time()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        # Mix continuous and coarsely-quantized series so ties are common.
        y = rng.integers(0, 8, n).astype(float) if rng.random() < 0.5 else rng.standard_normal(n)
        z = rng.integers(0, 8, n).astype(float) if rng.random() < 0.5 else rng.standard_normal(n)
        try:
            expected = metrics.kendall_tau_bruteforce(y, z)
        except UndefinedMetricError:
            with pytest.raises(UndefinedMetricError):
                metrics.kendall_tau(y, z)
            continue
        assert metrics.kendall_tau(y, z) == expected
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 10.0
    _pass("C1", f"{checked} instances bit-identical to the oracle in {elapsed:.1f}s")


# -- C2 ----------------------------------------------------------------------


def test_c2_gradients_match_finite_differences():
    """Analytic gradients vs central differences at input dims 4, 64, 512."""
    started = time.time()
    step = 1e-5
    worst = 0.0
    dims = [4, 64, 512]
    for instance in range(20):
        dim = dims[instance % 3]
        rng = np.random.default_rng(1000 + instance)
        model = mlp.init_model(dim, seed=instance)
        x = rng.standard_normal((16, dim))
        y = rng.standard_normal(16)
        _, grads = mlp.loss_and_grad(model, x, y)
        for name, param in model.items():
            flat = param.reshape(-1)
            count = min(8, flat.size)
            for idx in rng.choice(flat.size, size=count, replace=False):
                original = flat[idx]
                flat[idx] = original + step
                up, _ = mlp.loss_and_grad(model, x, y)
                flat[idx] = original - step
                down, _ = mlp.loss_and_grad(model, x, y)
                flat[idx] = original
                numeric = (up - down) / (2 * step)
                analytic = grads[name].reshape(-1)[idx]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, rel)
    elapsed = time.time() - started
    assert worst < 1e-4
    assert elapsed < 30.0
    _pass("C2", f"20 instances, worst relative error {worst:.2e} in {elapsed:.1f}s")


# -- shared helpers for the training criteria ---------------------------------


def _train_tau(function: str, dof: int, seed: int, cfg: mlp.TrainConfig,
               embedder_spec: dict | None = None, n: int = 500) -> float:
    task = tasks.synthetic_task(function, dof)
    ds = tasks.sample_uniform(task, n, seed)
    tr, va, te = tasks.split_dataset(ds, seed)
    emb = embedders.build_embedder(embedder_spec or {"kind": "traditional"}, task)
    _, _, report = mlp.train_and_evaluate(
        (emb.embed(tr.xs).values, tr.y), (emb.embed(va.xs).values, va.y), (emb.embed(te.xs).values, te.y), cfg, seed
    )
    return report.metrics["kendall_tau"]


# -- C3 ----------------------------------------------------------------------


def test_c3_training_sanity_full_sweep_grid():
    """Full 5x3 hyperparameter grid reaches tau >= 0.90 on an easy bowl."""
    started = time.time()
    cfg = mlp.TrainConfig()  # defaults: the full 15-cell grid, 300 epochs
    assert len(cfg.learning_rates) * len(cfg.weight_decays) == 15
    tau = _train_tau("sphere", 2, seed=0, cfg=cfg)
    elapsed = time.time() - started
    assert tau >= 0.90
    assert elapsed < 300.0
    _pass("C3", f"sphere dof=2 full-grid test kendall {tau:.4f} in {elapsed:.0f}s")


# -- C4 ----------------------------------------------------------------------


def test_c4_dimensional_degradation_trend():
    """Hand-engineered features lose >= 0.15 kendall from dof 5 to 100."""
    started = time.time()
    seeds = range(12)

    cfg = mlp.TrainConfig(
        learning_rates=(1e-3, 5e-3), weight_decays=(0.0,),
        max_epochs=200, patience=20,
    )

    low = np.mean([_train_tau("rastrigin", 5, s, cfg) for s in seeds])
    high = np.mean([_train_tau("rastrigin", 100, s, cfg) for s in seeds])
    elapsed = time.time() - started
    drop = low - high
    assert drop >= 0.15
    assert elapsed < 1800.0
    _pass("C4", f"rastrigin kendall {low:.3f} (dof 5) vs {high:.3f} (dof 100), "
                 f"drop {drop:.3f} over 12 seeds in {elapsed:.0f}s")


# -- C5 ----------------------------------------------------------------------


def test_c5_nlfd_trivia():
    """Self z-score, pre-normalization scale invariance, coordinate duplication."""
    task = tasks.synthetic_task("sphere", 6)
    ds = tasks.sample_uniform(task, 300, seed=0)
    m = embedders.embed_traditional(task, ds.xs)
    sample = nlfd.nlfd_sample(m, ds.y)

    assert nlfd.zscore((sample.mu, sample.sigma), (sample.mu, sample.sigma)) == 0.0

    scaled = nlfd.nlfd_sample(m * 1000.0, ds.y)
    assert np.max(np.abs(sample.factors - scaled.factors)) <= 1e-9

    dup = nlfd.nlfd_sample(np.tile(m, (1, 4)), ds.y)
    assert dup.dim == 4 * sample.dim
    assert dup.n == sample.n
    assert np.max(np.abs(sample.factors - dup.factors)) <= 1e-9

    _pass("C5", "z(self)=0, x1000 scaling and 4x coordinate duplication leave factors fixed")


# -- C6 ----------------------------------------------------------------------


def test_c6_smoothness_gap_tracks_performance_gap():
    """Across 8 objectives at dof=10, destroying geometric structure makes the
    roughness z-score and the kendall gap agree in sign, and the two gaps
    correlate across tasks."""
    started = time.time()
    cfg = mlp.TrainConfig(
        learning_rates=(1e-3, 5e-3), weight_decays=(0.0,),
        max_epochs=200, patience=20,
    )
    zs, gaps = [], []
    for function in CATALOG:
        task = tasks.synthetic_task(function, 10)
        ds = tasks.sample_uniform(task, 500, seed=0)
        tr, va, te = tasks.split_dataset(ds, seed=0)
        taus, samples = {}, {}
        for kind in ("traditional", "scrambled"):
            emb = embedders.build_embedder({"kind": kind}, task)
            _, _, report = mlp.train_and_evaluate(
                (emb.embed(tr.xs).values, tr.y), (emb.embed(va.xs).values, va.y),
                (emb.embed(te.xs).values, te.y), cfg, seed=0,
            )
            taus[kind] = report.metrics["kendall_tau"]
            samples[kind] = nlfd.nlfd_sample(emb.embed(ds.xs).values, ds.y)
        a, b = samples["traditional"], samples["scrambled"]
        zs.append(nlfd.zscore((a.mu, a.sigma), (b.mu, b.sigma)))
        gaps.append(taus["scrambled"] - taus["traditional"])

    agreements = sum(1 for z, g in zip(zs, gaps) if np.sign(z) == np.sign(g))
    rho = metrics.pearson(zs, gaps)
    elapsed = time.time() - started
    assert agreements >= 7
    assert rho > 0.5
    assert elapsed < 1800.0
    _pass("C6", f"sign agreement {agreements}/8, pearson(z, gap)={rho:.3f} in {elapsed:.0f}s")


def test_c6_through_the_runner(tmp_path):
    """C6's grid and bounds, read from the files a 2-slot ``sweep-dof`` run writes."""
    started = time.time()
    cfg = experiments.ExperimentConfig(
        functions=CATALOG, dofs=(10,), embedders=({"kind": "traditional"}, {"kind": "scrambled"}),
        n_samples=500, seeds=(0,),
        train=mlp.TrainConfig(learning_rates=(1e-3, 5e-3), weight_decays=(0.0,), max_epochs=200, patience=20),
    )
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path)
    with open(exp_dir / "nlfd_scatter.csv", newline="") as f:
        scatter = list(csv.DictReader(f))
    with open(exp_dir / "nlfd_correlations.csv", newline="") as f:
        (correlations,) = csv.DictReader(f)
    agreements = sum(1 for row in scatter if np.sign(float(row["zscore"])) == np.sign(float(row["kendall_gap"])))
    rho = float(correlations["pearson"])
    elapsed = time.time() - started
    assert len(scatter) == 8
    assert agreements >= 7
    assert rho > 0.5
    _pass("C6 through the runner", f"sign agreement {agreements}/8, pearson(z, gap)={rho:.3f} in {elapsed:.0f}s")


# -- C7 ----------------------------------------------------------------------


def _golden_case(name: str, task: RegressionTask, x: dict, variant: str) -> None:
    rendered = serialize(task, x, StringFormat(variant=variant)) + "\n"
    expected = (GOLDEN / name).read_bytes()
    assert rendered.encode("utf-8") == expected, f"golden mismatch for {name}"


def test_c7_serialization_golden_files():
    bbob_task = tasks.synthetic_task("sphere", 4)
    bbob_x = dict(zip(bbob_task.param_names, (0.32, -4.21, 3.12, 1.56)))
    _golden_case("bbob_full.txt", bbob_task, bbob_x, "full_dict")
    _golden_case("bbob_values.txt", bbob_task, bbob_x, "values_only")

    automl = RegressionTask(
        id="automl-style",
        params=(
            ParamSpec.continuous("batch_size", 1, 1024),
            ParamSpec.continuous("ml_feature_selection_threshold", 0, 1),
            ParamSpec.categorical("model_type", ["DNN_ESTIMATOR", "LINEAR"]),
            ParamSpec.categorical("activation_fn", ["selu", "relu"]),
            ParamSpec.categorical("batch_norm", ["True", "False"]),
            ParamSpec.categorical("bucketization_strategy", ["mdl", "quantile"]),
            ParamSpec.continuous("dropout", 0, 1),
            ParamSpec.continuous("hidden_units", 1, 2048),
        ),
    )
    automl_x = {
        "batch_size": 128.0,
        "ml_feature_selection_threshold": 0.05,
        "model_type": "DNN_ESTIMATOR",
        "activation_fn": "selu",
        "batch_norm": "False",
        "bucketization_strategy": "mdl",
        "dropout": 0.071,
        "hidden_units": 359.0,
    }
    _golden_case("automl_full.txt", automl, automl_x, "full_dict")
    _golden_case("automl_values.txt", automl, automl_x, "values_only")

    init2winit = RegressionTask(
        id="init2winit-style",
        params=(
            ParamSpec.continuous("lr_hparams.base_lr", 0, 1),
            ParamSpec.continuous("opt_hparams.0.hps.one_minus_b1", 0, 1),
            ParamSpec.continuous("opt_hparams.0.hps.one_minus_b2", 0, 1),
            ParamSpec.continuous("opt_hparams.1.hps.weight_decay", 0, 1),
        ),
    )
    init2winit_x = {
        "lr_hparams.base_lr": 0.0696,
        "opt_hparams.0.hps.one_minus_b1": 0.2823,
        "opt_hparams.0.hps.one_minus_b2": 0.0432,
        "opt_hparams.1.hps.weight_decay": 0.0023,
    }
    _golden_case("init2winit_full.txt", init2winit, init2winit_x, "full_dict")
    _golden_case("init2winit_values.txt", init2winit, init2winit_x, "values_only")

    xla = RegressionTask(
        id="xla-style",
        params=(
            ParamSpec.categorical("auto_cross_replica_sharding", ["True", "False"]),
            ParamSpec.continuous("rematerialization_percent_shared_memory_limit", 0, 100),
            ParamSpec.continuous("spmd_threshold_for_windowed_einsum_mib", 0, 1e6),
        ),
    )
    xla_x = {
        "auto_cross_replica_sharding": "False",
        "rematerialization_percent_shared_memory_limit": 97.0,
        "spmd_threshold_for_windowed_einsum_mib": 100000.0,
    }
    _golden_case("xla_full.txt", xla, xla_x, "full_dict")

    l2da = RegressionTask(
        id="l2da-style",
        params=(
            ParamSpec.continuous("input_activation_memory_depth", 0, 64),
            ParamSpec.continuous("instruction_memory_depth", 0, 64),
            ParamSpec.continuous("io_bandwidth_gbps", 0, 100),
            ParamSpec.continuous("narrow_memory_capacity_bytes", 0, 64),
        ),
    )
    l2da_x = {
        "input_activation_memory_depth": 11.0,
        "instruction_memory_depth": 15.0,
        "io_bandwidth_gbps": 4.321,
        "narrow_memory_capacity_bytes": 21.0,
    }
    _golden_case("l2da_full.txt", l2da, l2da_x, "full_dict")

    _pass("C7", "all golden serializations byte-match")


# -- C8 ----------------------------------------------------------------------


def test_c8_remote_embedder_contract(mock_service, tmp_path):
    cache = tmp_path / "cache.jsonl"
    client = RemoteEmbedder(
        mock_service.endpoint, "test-model", cache_path=cache,
        batch_size=2, max_attempts=3, backoff=0.01, max_inflight=2,
    )
    texts = [f"input-{i}" for i in range(5)]
    out = client.embed_texts(texts)
    # max_inflight=2 sends two batches at once, so their order of arrival is a race.
    assert sorted(mock_service.batch_sizes()) == [1, 2, 2]
    assert mock_service.request_count == 3

    from conftest import deterministic_embedding

    for i, text in enumerate(texts):
        assert np.allclose(out[i], deterministic_embedding(text, 8))

    count_after_fill = mock_service.request_count
    fresh = RemoteEmbedder(
        mock_service.endpoint, "test-model", cache_path=cache,
        batch_size=2, max_attempts=3, backoff=0.01,
    )
    again = fresh.embed_texts(texts)
    assert mock_service.request_count == count_after_fill  # full cache hit
    assert np.array_equal(again, out)

    mock_service.always_fail = True
    failing = RemoteEmbedder(
        mock_service.endpoint, "test-model", cache_path=tmp_path / "empty.jsonl",
        max_attempts=3, backoff=0.01,
    )
    before = mock_service.request_count
    with pytest.raises(TransportError, match="after 3 attempts"):
        failing.embed_texts(["novel text"])
    assert mock_service.request_count - before == 3

    _pass("C8", "batches of 2, 2 and 1, order preserved, cache short-circuit, 3-attempt retry")


# -- C9 ----------------------------------------------------------------------


def test_c9_sweep_dof_byte_identical(tmp_path):
    config = {
        "functions": ["sphere", "rastrigin"],
        "dofs": [2, 3],
        "embedders": [{"kind": "traditional"}],
        "n_samples": 60,
        "seeds": [0, 1],
        "train": {
            "learning_rates": [5e-3], "weight_decays": [0.0],
            "max_epochs": 25, "patience": 10,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    runner = CliRunner()
    outputs = []
    for run_dir in ("run1", "run2"):
        result = runner.invoke(
            main,
            ["sweep-dof", "--config", str(cfg_path), "--out", str(tmp_path / run_dir)],
        )
        assert result.exit_code == 0, result.output
        exp_dir = next((tmp_path / run_dir).iterdir())
        outputs.append(
            {
                "summary": (exp_dir / "dof_sweep_summary.csv").read_bytes(),
                "cells": (exp_dir / "dof_sweep_cells.csv").read_bytes(),
            }
        )
    assert outputs[0]["summary"] == outputs[1]["summary"]
    assert outputs[0]["cells"] == outputs[1]["cells"]
    _pass("C9", "two identical sweeps produced byte-identical summary CSVs")
