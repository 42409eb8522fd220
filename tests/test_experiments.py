import csv
import fcntl
import gc
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from embreg import experiments
from embreg.experiments import ExperimentConfig, RunStore

FAST_TRAIN = {
    "learning_rates": [5e-3],
    "weight_decays": [0.0],
    "max_epochs": 12,
    "patience": 5,
}


def _cfg(**overrides):
    """A small config; one given ``sizes`` (read by scale-data alone) or no ``functions`` (so sampling no
    task) leaves ``n_samples`` at its default."""
    base = dict(
        functions=["sphere"],
        dofs=[2],
        embedders=[{"kind": "traditional"}],
        seeds=[0, 1],
        train=FAST_TRAIN,
    )
    if "sizes" not in overrides and overrides.get("functions", True):
        base["n_samples"] = 40
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config"):
        ExperimentConfig.from_dict({"functons": ["sphere"]})


def test_config_hash_changes_with_config():
    assert _cfg().config_hash() != _cfg(seeds=[0, 1, 2]).config_hash()
    assert _cfg().config_hash() == _cfg().config_hash()


def test_config_rejects_bad_train_overrides_up_front():
    with pytest.raises(ValueError, match="max_epoch"):
        _cfg(train={"max_epoch": 15})
    for bad in (15.5, "15", 0, True):  # a float or a string used to fail every cell, and true to train one epoch
        with pytest.raises(ValueError, match="max_epochs"):
            _cfg(train={"max_epochs": bad})


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"seeds": [0, -1]}, r"seeds must be non-negative integers, got \[-1\]"),
        ({"seeds": [1.5]}, "seeds must be non-negative integers"),
        ({"seeds": [True]}, "seeds must be non-negative integers"),  # used to run seed 1 as cell seed=True
        ({"n_samples": 40.5}, "n_samples must be integers"),
        ({"dofs": [2.0]}, "dofs must be integers"),
        ({"dofs": [True]}, "dofs must be integers"),
        ({"sizes": [20, 40.5]}, r"sizes must be integers, got \[40.5\]"),
        ({"train": {**FAST_TRAIN, "learning_rates": ["0.001"]}}, "learning_rates must be finite numbers > 0"),
        ({"train": {**FAST_TRAIN, "learning_rates": [True]}}, "learning_rates must be finite numbers > 0"),
        ({"train": {**FAST_TRAIN, "learning_rates": [1e-3, 0]}}, r"learning_rates .* got \[0\]"),
        ({"train": {**FAST_TRAIN, "learning_rates": [-1e-3]}}, "learning_rates must be finite numbers > 0"),
        ({"train": {**FAST_TRAIN, "learning_rates": [float("inf")]}}, "learning_rates must be finite numbers > 0"),
        ({"train": {**FAST_TRAIN, "learning_rates": [float("nan")]}}, "learning_rates must be finite numbers > 0"),
        ({"train": {**FAST_TRAIN, "weight_decays": [-0.1]}}, "weight_decays must be finite numbers >= 0"),
        ({"train": {**FAST_TRAIN, "weight_decays": ["0"]}}, "weight_decays must be finite numbers >= 0"),
        ({"train": {**FAST_TRAIN, "weight_decays": [False]}}, "weight_decays must be finite numbers >= 0"),
        ({"train": {**FAST_TRAIN, "weight_decays": [float("nan")]}}, "weight_decays must be finite numbers >= 0"),
    ],
)
def test_config_rejects_values_no_cell_can_run(overrides, match):
    with pytest.raises(ValueError, match=match):
        _cfg(**overrides)


def test_valid_train_overrides_keep_their_config_hash():
    assert _cfg().config_hash() == "287c8a21e264"


@pytest.mark.parametrize(
    "spelling",
    [
        {"string_format": {}},
        {"string_format": {"variant": "full_dict", "float_precision": 4, "space_after_comma": False}},
        {"train": {"max_epochs": 300}},
        {"train": {"learning_rates": [1e-4, 5e-4, 1e-3, 5e-3, 1e-2]}},
    ],
)
def test_spellings_of_one_config_share_its_hash(spelling):
    default = ExperimentConfig.from_dict({})
    cfg = ExperimentConfig.from_dict(spelling)
    assert cfg == default and cfg.config_hash() == default.config_hash()
    assert ExperimentConfig.from_dict({"train": {"max_epochs": 299}}).config_hash() != default.config_hash()


def test_config_json_states_the_resolved_head_and_string_format(tmp_path):
    exp_dir = experiments.run_dof_sweep(_cfg(seeds=[0]), tmp_path)
    written = json.loads((exp_dir / "config.json").read_text())
    assert written["string_format"] == {"variant": "full_dict", "float_precision": 4, "space_after_comma": False}
    assert written["train"] == {**FAST_TRAIN, "batch_size": 256}


def test_config_rejects_sizes_too_small_to_split():
    with pytest.raises(ValueError, match=r"\[10\]"):
        _cfg(sizes=[10, 20])
    with pytest.raises(ValueError, match=r"\[19\]"):
        _cfg(n_samples=19)
    _cfg(n_samples=20, sizes=[20])


def test_dof_sweep_produces_summary(tmp_path):
    cfg = _cfg(functions=["sphere", "rastrigin"], dofs=[2, 3])
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path)
    rows = _read_csv(exp_dir / "dof_sweep_summary.csv")
    assert rows[0] == ["function", "dof", "embedder_slot", "embedder_kind", "runs", "mean_kendall_tau"]
    assert len(rows) - 1 == 4  # 2 functions x 2 dofs x 1 embedder
    assert all(r[4] == "2" for r in rows[1:])  # both seeds completed
    cells = _read_csv(exp_dir / "dof_sweep_cells.csv")
    assert len(cells) - 1 == 8


def test_dof_sweep_rejects_offline_tasks(tmp_path):
    cfg = _cfg(offline=[{"task": "t.json", "data": "d.csv"}])
    with pytest.raises(ValueError, match="sweep-dof does not read the config field 'offline'"):
        experiments.run_dof_sweep(cfg, tmp_path)


def test_rerun_skips_completed_cells(tmp_path):
    cfg = _cfg()
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path)
    first = (exp_dir / "records.jsonl").read_text()
    messages = []
    experiments.run_dof_sweep(cfg, tmp_path, echo=messages.append)
    assert any("2 cells total, 0 to run" in m for m in messages)
    assert (exp_dir / "records.jsonl").read_text() == first


def test_interrupted_run_resumes_to_same_summary(tmp_path):
    cfg = _cfg(functions=["sphere", "rastrigin"])
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path / "full")
    full_summary = (exp_dir / "dof_sweep_summary.csv").read_bytes()

    # Simulate an interruption: re-create the directory with only the first
    # half of the records, then resume.
    part_dir = Path(tmp_path / "part")
    cfg_dir = experiments.run_dof_sweep(cfg, part_dir)
    records = (cfg_dir / "records.jsonl").read_text().strip().splitlines()
    (cfg_dir / "records.jsonl").write_text("\n".join(records[:2]) + "\n")
    resumed = experiments.run_dof_sweep(cfg, part_dir)
    assert (resumed / "dof_sweep_summary.csv").read_bytes() == full_summary


def test_force_reruns_cells(tmp_path):
    cfg = _cfg()
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path)
    messages = []
    experiments.run_dof_sweep(cfg, tmp_path, force=True, echo=messages.append)
    assert any("2 cells total, 2 to run" in m for m in messages)


def test_summary_byte_identical_across_runs(tmp_path):
    cfg = _cfg()
    dir_a = experiments.run_dof_sweep(cfg, tmp_path / "a")
    dir_b = experiments.run_dof_sweep(cfg, tmp_path / "b")
    assert (dir_a / "dof_sweep_summary.csv").read_bytes() == (
        dir_b / "dof_sweep_summary.csv"
    ).read_bytes()
    assert (dir_a / "dof_sweep_cells.csv").read_bytes() == (
        dir_b / "dof_sweep_cells.csv"
    ).read_bytes()


def test_failed_cells_recorded_and_flagged(tmp_path):
    # A remote embedder with an unreachable endpoint fails per cell without
    # sinking the run.
    cfg = _cfg(
        embedders=[
            {"kind": "traditional"},
            {"kind": "remote", "endpoint": "http://127.0.0.1:9/embed", "model": "m",
             "max_attempts": 1, "backoff": 0.01},
        ],
        seeds=[0],
    )
    exp_dir = experiments.run_comparison(cfg, tmp_path)
    status = json.loads((exp_dir / "status.json").read_text())
    assert status["ok"] == 1
    assert status["failed"] == 1
    assert len(status["failed_cells"]) == 1


def test_comparison_summary_shape(tmp_path):
    cfg = _cfg(
        functions=["sphere", "rastrigin"],
        embedders=[{"kind": "traditional"}, {"kind": "scrambled"}],
        seeds=[0],
    )
    exp_dir = experiments.run_comparison(cfg, tmp_path)
    rows = _read_csv(exp_dir / "comparison_summary.csv")
    assert len(rows) - 1 == 2  # one row per family for the single pair
    header = rows[0]
    assert header[:6] == ["family", "slot_a", "kind_a", "slot_b", "kind_b", "n_tasks"]


def test_comparison_self_pair_zero_outperformance(tmp_path):
    cfg = _cfg(embedders=[{"kind": "traditional"}, {"kind": "traditional"}], seeds=[0])
    exp_dir = experiments.run_comparison(cfg, tmp_path)
    rows = _read_csv(exp_dir / "comparison_summary.csv")
    header, row = rows[0], rows[1]
    pct_a = float(row[header.index("pct_a_outperforms")])
    pct_b = float(row[header.index("pct_b_outperforms")])
    assert pct_a == 0.0 and pct_b == 0.0


def test_comparison_needs_two_embedders(tmp_path):
    with pytest.raises(ValueError, match="2 embedder"):
        experiments.run_comparison(_cfg(), tmp_path)


def test_nlfd_correlation_scatter_and_antisymmetry(tmp_path):
    base = dict(
        functions=["sphere", "rastrigin", "discus", "bent_cigar"],
        dofs=[3],
        n_samples=40,
        seeds=[0],
        train=FAST_TRAIN,
    )
    cfg_ab = ExperimentConfig.from_dict(
        dict(base, embedders=[{"kind": "traditional"}, {"kind": "scrambled"}])
    )
    cfg_ba = ExperimentConfig.from_dict(
        dict(base, embedders=[{"kind": "scrambled"}, {"kind": "traditional"}])
    )
    dir_ab = experiments.run_dof_sweep(cfg_ab, tmp_path / "ab")
    dir_ba = experiments.run_dof_sweep(cfg_ba, tmp_path / "ba")

    scatter_ab = _read_csv(dir_ab / "nlfd_scatter.csv")
    scatter_ba = _read_csv(dir_ba / "nlfd_scatter.csv")
    assert len(scatter_ab) - 1 == 4  # one row per task
    for row_ab, row_ba in zip(scatter_ab[1:], scatter_ba[1:]):
        assert float(row_ba[2]) == pytest.approx(-float(row_ab[2]))
        assert float(row_ba[3]) == pytest.approx(-float(row_ab[3]))

    corr_ab = _read_csv(dir_ab / "nlfd_correlations.csv")
    corr_ba = _read_csv(dir_ba / "nlfd_correlations.csv")
    for col in (1, 2, 3):
        assert float(corr_ba[1][col]) == pytest.approx(float(corr_ab[1][col]), abs=1e-9)


def test_nlfd_correlation_requires_three_tasks(tmp_path):
    """A two-slot sweep of 2 tasks writes their scatter rows but no correlations."""
    cfg = _cfg(functions=["sphere", "rastrigin"], embedders=[{"kind": "traditional"}, {"kind": "scrambled"}], seeds=[0])
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path)
    assert len(_read_csv(exp_dir / "nlfd_scatter.csv")) - 1 == 2
    assert not (exp_dir / "nlfd_correlations.csv").exists()


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_a_dof_sweep_writes_nlfd_files_for_exactly_two_slots(tmp_path, slots):
    embedders = [{"kind": "traditional"}, {"kind": "scrambled"}, {"kind": "scrambled_perm"}][:slots]
    cfg = _cfg(functions=["sphere", "rastrigin", "discus"], embedders=embedders, seeds=[0])
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path)
    written = {p.name: p.read_bytes() for p in exp_dir.glob("nlfd_*.csv")}
    assert set(written) == ({"nlfd_scatter.csv", "nlfd_correlations.csv"} if slots == 2 else set())
    for path in exp_dir.glob("nlfd_*.csv"):
        path.unlink()
    experiments.regenerate_summaries(exp_dir)
    assert {p.name: p.read_bytes() for p in exp_dir.glob("nlfd_*.csv")} == written


def test_an_a_a_control_writes_undefined_correlations_as_nan(tmp_path):
    """One spec in both slots ties every z and every kendall gap, so no correlation is defined."""
    cfg = _cfg(functions=["sphere", "rastrigin", "discus"], embedders=[{"kind": "traditional"}] * 2, seeds=[0])
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path)
    assert {row[2] for row in _read_csv(exp_dir / "nlfd_scatter.csv")[1:]} == {"0.0"}
    assert (exp_dir / "nlfd_correlations.csv").read_text() == "n_tasks,kendall_tau,spearman,pearson\n3,nan,nan,nan\n"
    assert json.loads((exp_dir / "status.json").read_text())["ok"] == 6
    experiments.regenerate_summaries(exp_dir)


def test_status_is_written_before_a_summarizer_that_fails(tmp_path, monkeypatch):
    def fail(exp_dir, records):
        raise ValueError("summary failed")

    monkeypatch.setattr(experiments, "summarize_dof_sweep", fail)
    with pytest.raises(ValueError, match="summary failed"):
        experiments.run_dof_sweep(_cfg(), tmp_path)
    (exp_dir,) = tmp_path.iterdir()
    assert json.loads((exp_dir / "status.json").read_text()) == {"ok": 2, "failed": 0, "failed_cells": []}


def test_data_scaling_summary(tmp_path):
    cfg = _cfg(
        embedders=[{"kind": "traditional"}, {"kind": "vocab_pool", "width": 16}],
        sizes=[20, 40],
        seeds=[0, 1],
    )
    exp_dir = experiments.run_data_scaling(cfg, tmp_path)
    rows = _read_csv(exp_dir / "data_scaling_summary.csv")
    assert rows[0][:4] == ["size", "records", "mean_gap", "std_gap"]
    assert [r[0] for r in rows[1:]] == ["20", "40"]
    assert all(r[1] == "2" for r in rows[1:])  # tasks x seeds = 1 x 2
    header = rows[0]
    assert "lo_0.5" in header and "hi_2.0" in header
    row = rows[1]
    mean = float(row[2])
    std = float(row[3])
    assert float(row[header.index("lo_1.0")]) == pytest.approx(mean - std)
    assert float(row[header.index("hi_1.0")]) == pytest.approx(mean + std)


def test_data_scaling_rejects_offline_tasks_before_any_cell(tmp_path, monkeypatch):
    # An offline table has one size: every size cell would train on all of it.
    from embreg import tasks

    task = tasks.synthetic_task("sphere", 2)
    offline_task = tasks.RegressionTask(id="offline-sphere", params=task.params)
    tasks.save_task(offline_task, tmp_path / "task.json")
    tasks.write_dataset_csv(tasks.sample_uniform(task, 60, seed=5), offline_task, tmp_path / "data.csv")
    monkeypatch.setattr(experiments, "run_cell", lambda **kw: pytest.fail("a cell ran"))
    cfg = _cfg(
        offline=[{"task": str(tmp_path / "task.json"), "data": str(tmp_path / "data.csv")}],
        embedders=[{"kind": "traditional"}, {"kind": "scrambled"}],
        sizes=[20, 40],
    )
    with pytest.raises(ValueError, match="scale-data does not read the config field 'offline'"):
        experiments.run_data_scaling(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_missing_offline_task_file_is_rejected_before_any_cell(tmp_path, monkeypatch):
    from embreg import tasks

    task = tasks.synthetic_task("sphere", 2)
    tasks.write_dataset_csv(tasks.sample_uniform(task, 40, seed=5), task, tmp_path / "data.csv")
    monkeypatch.setattr(experiments, "run_cell", lambda **kw: pytest.fail("a cell ran"))
    cfg = _cfg(offline=[{"task": str(tmp_path / "nope.json"), "data": str(tmp_path / "data.csv")}])
    with pytest.raises(ValueError, match=r"offline entry .*: \[Errno 2\] No such file or directory: '.*nope\.json'"):
        experiments.run_experiment("ablate", cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _offline_entry(tmp_path, y=None, n=40):
    """An offline sphere table of ``n`` sampled rows, with ``y`` in place of its targets if given."""
    from embreg import tasks

    task = tasks.RegressionTask(id="offline-sphere", params=tasks.synthetic_task("sphere", 2).params)
    ds = tasks.sample_uniform(tasks.synthetic_task("sphere", 2), n, seed=5)
    tasks.save_task(task, tmp_path / "task.json")
    tasks.write_dataset_csv(ds if y is None else tasks.Dataset(ds.xs, tuple(y)), task, tmp_path / "data.csv")
    return {"task": str(tmp_path / "task.json"), "data": str(tmp_path / "data.csv")}


TWO_SPECS = [{"kind": "traditional"}, {"kind": "scrambled"}]


def test_a_table_that_some_seed_splits_into_tied_test_targets_is_refused_when_planned(tmp_path):
    # y is 1.0 on rows 0 and 1: only seed 2's test split (rows 35, 36, 8, 1) holds one of them
    entry = _offline_entry(tmp_path, y=[1.0, 1.0] + [0.0] * 38)
    with pytest.raises(ValueError, match=re.escape(f"offline entry {entry}: the test split of seed 0 ties every")):
        experiments.plan("compare", _cfg(functions=[], offline=[entry], embedders=TWO_SPECS, seeds=[0, 1, 2]))
    assert len(experiments.plan("compare", _cfg(functions=[], offline=[entry], embedders=TWO_SPECS, seeds=[2]))) == 2


def test_a_config_that_samples_no_task_does_not_read_n_samples(tmp_path):
    """n_samples of 500 and 40 would run the same cells of a 60-row table into two run directories."""
    entry = _offline_entry(tmp_path, n=60)
    offline_only = {"functions": [], "offline": [entry], "embedders": TWO_SPECS, "seeds": [0]}
    assert experiments.plan("compare", ExperimentConfig.from_dict({**offline_only, "n_samples": 500}))
    for kind, overrides, match in [("compare", {}, "compare does not read the config field 'n_samples'"),
                                   ("compare", {"functions": ["sphere"], "dofs": []}, "compare does not read"),
                                   ("ablate", {}, "ablate does not read the config field 'n_samples'"),
                                   ("sweep-dof", {}, "sweep-dof does not read the config field 'offline'")]:
        with pytest.raises(ValueError, match=match):
            experiments.plan(kind, ExperimentConfig.from_dict({**offline_only, "n_samples": 40, **overrides}))


def test_ablation_grid_and_zero_delta_baseline(tmp_path):
    cfg = _cfg(
        embedders=[{"kind": "vocab_pool", "width": 16}, {"kind": "synthetic_transformer", "model_dim": 16, "ff_dim": 32, "heads": 2}],
        seeds=[0],
    )
    exp_dir = experiments.run_experiment("ablate", cfg, tmp_path)
    rows = _read_csv(exp_dir / "ablation_summary.csv")
    assert len(rows) - 1 == 4  # 2 backends x 2 formats x 1 task
    header = rows[0]
    for row in rows[1:]:
        if row[header.index("embedder_slot")] == "0" and row[header.index("string_format")] == "full_dict":
            assert float(row[header.index("delta_vs_baseline")]) == 0.0


def test_ablation_formats_serialize_differently(tmp_path):
    cfg = _cfg(
        embedders=[{"kind": "vocab_pool", "width": 16}],
        seeds=[0],
    )
    exp_dir = experiments.run_experiment("ablate", cfg, tmp_path)
    records = [json.loads(line) for line in (exp_dir / "records.jsonl").read_text().splitlines()]
    variants = {r["fmt"] for r in records}
    assert variants == {"full_dict", "values_only"}
    # The two variants feed different bytes to string-based embedders.
    from embreg import featurize, tasks

    task = tasks.synthetic_task("sphere", 2)
    x = {"x0": 1.0, "x1": 2.0}
    full = featurize.serialize(task, x, featurize.StringFormat(variant="full_dict"))
    values = featurize.serialize(task, x, featurize.StringFormat(variant="values_only"))
    assert hash(full) != hash(values) and full != values


def test_report_regenerates_summaries(tmp_path):
    cfg = _cfg()
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path)
    summary = exp_dir / "dof_sweep_summary.csv"
    original = summary.read_bytes()
    summary.unlink()
    experiments.regenerate_summaries(exp_dir)
    assert summary.read_bytes() == original


def test_a_summary_write_that_fails_partway_leaves_the_previous_files(tmp_path, monkeypatch):
    exp_dir = experiments.run_dof_sweep(_cfg(), tmp_path)
    before = {p.name: p.read_bytes() for p in exp_dir.iterdir()}
    writer = csv.writer

    class TornWriter:
        """Writes the header row, then fails."""

        def __init__(self, f, **kwargs):
            self._writer = writer(f, **kwargs)
            self._rows = 0

        def writerow(self, row):
            if self._rows:
                raise OSError("disk full")
            self._rows += 1
            return self._writer.writerow(row)

    monkeypatch.setattr(csv, "writer", TornWriter)
    with pytest.raises(OSError, match="disk full"):
        experiments.regenerate_summaries(exp_dir)
    assert {p.name: p.read_bytes() for p in exp_dir.iterdir()} == before  # no torn file, no temporary left
    monkeypatch.undo()

    def fail(src, dst):
        raise OSError("no replace")

    monkeypatch.setattr(experiments.os, "replace", fail)
    with pytest.raises(OSError, match="no replace"):
        experiments.regenerate_summaries(exp_dir)
    assert {p.name: p.read_bytes() for p in exp_dir.iterdir()} == before


def test_offline_tasks_flow_through_comparison(tmp_path):
    from embreg import tasks

    task = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(task, 30, seed=5)
    offline_task = tasks.RegressionTask(id="offline-sphere", params=task.params)
    tasks.save_task(offline_task, tmp_path / "task.json")
    tasks.write_dataset_csv(ds, offline_task, tmp_path / "data.csv")

    cfg = _cfg(
        functions=[],
        dofs=[],
        offline=[{"task": str(tmp_path / "task.json"), "data": str(tmp_path / "data.csv")}],
        embedders=[{"kind": "traditional"}, {"kind": "scrambled"}],
        seeds=[0],
    )
    exp_dir = experiments.run_comparison(cfg, tmp_path / "out")
    rows = _read_csv(exp_dir / "comparison_summary.csv")
    assert rows[1][0] == "offline-sphere"


def test_workers_parallel_matches_sequential_summary(tmp_path):
    cfg = _cfg(functions=["sphere", "rastrigin"], seeds=[0, 1])
    seq = experiments.run_dof_sweep(cfg, tmp_path / "seq", workers=1)
    par = experiments.run_dof_sweep(cfg, tmp_path / "par", workers=4)
    assert (seq / "dof_sweep_summary.csv").read_bytes() == (
        par / "dof_sweep_summary.csv"
    ).read_bytes()


def test_config_rejects_unknown_embedder_keys():
    with pytest.raises(ValueError, match="widht"):
        _cfg(embedders=[{"kind": "vocab_pool", "widht": 128}])
    with pytest.raises(ValueError, match="unknown embedder kind"):
        _cfg(embedders=[{"kind": "vocab_pol"}])


def test_valid_embedder_specs_keep_their_config_hash():
    cfg = _cfg(
        embedders=[
            {"kind": "traditional"},
            {"kind": "vocab_pool", "width": 16, "seed": 1},
            {"kind": "synthetic_transformer", "model_dim": 16, "heads": 2},
        ],
        train={},
    )
    assert cfg.config_hash() == "a9aeb8a455f1"


def test_scale_data_encodes_each_distinct_text_once(tmp_path, monkeypatch):
    from embreg import featurize, tasks
    from embreg.embedders import SyntheticTransformer

    forwards = []
    original = SyntheticTransformer._forward
    monkeypatch.setattr(
        SyntheticTransformer, "_forward", lambda self, t: forwards.append(t) or original(self, t)
    )
    spec = {"kind": "synthetic_transformer", "layers": 1, "model_dim": 16, "heads": 2, "ff_dim": 32}
    cfg = _cfg(
        functions=["sphere", "rastrigin"],
        embedders=[{"kind": "traditional"}, spec],
        sizes=[20, 40],
        seeds=[0, 1],
    )
    exp_dir = experiments.run_data_scaling(cfg, tmp_path)
    assert json.loads((exp_dir / "status.json").read_text())["failed"] == 0

    distinct = set()
    for function in cfg.functions:
        task = tasks.synthetic_task(function, 2)
        for seed in cfg.seeds:
            for size in cfg.sizes:
                for x in tasks.sample_uniform(task, size, seed).xs:
                    distinct.add(featurize.serialize(task, x, featurize.StringFormat()))
    # One model per input family: both functions' texts share one memo.
    assert len(forwards) == len(distinct) == 80


def test_remote_compare_loads_cache_once_per_process(tmp_path, monkeypatch, mock_service):
    from embreg import remote

    loads, clients = [], []
    cache_init, client_init = remote.EmbeddingCache.__init__, remote.RemoteEmbedder.__init__
    monkeypatch.setattr(
        remote.EmbeddingCache, "__init__", lambda self, path: loads.append(path) or cache_init(self, path)
    )
    monkeypatch.setattr(
        remote.RemoteEmbedder,
        "__init__",
        lambda self, *a, **kw: clients.append(self) or client_init(self, *a, **kw),
    )
    remote_spec = {"kind": "remote", "endpoint": mock_service.endpoint, "model": "m",
                   "cache": str(tmp_path / "cache.jsonl")}
    cfg = _cfg(
        functions=["sphere", "rastrigin"],
        embedders=[{"kind": "scrambled"}, remote_spec],
        seeds=[0, 1, 2],
    )
    exp_dir = experiments.run_comparison(cfg, tmp_path / "out")
    assert json.loads((exp_dir / "status.json").read_text())["failed"] == 0
    # 6 remote cells, one client per input family, one cache load per process.
    assert len(clients) == 1
    assert len(loads) == 1
    assert clients[0].request_count > 0
    # A forced rerun builds a new client on the same in-memory cache, which
    # already holds every text.
    experiments.run_comparison(cfg, tmp_path / "out", force=True)
    assert len(clients) == 2
    assert len(loads) == 1
    assert clients[1].request_count == 0


def test_parallel_cells_share_embedders_under_thread_switching(tmp_path, monkeypatch):
    import sys

    builds = []
    original = experiments.build_embedder
    monkeypatch.setattr(
        experiments, "build_embedder", lambda spec, task, fmt: builds.append(spec) or original(spec, task, fmt)
    )
    spec = {"kind": "synthetic_transformer", "layers": 1, "model_dim": 16, "heads": 2, "ff_dim": 32}
    cfg = _cfg(
        functions=["sphere", "rastrigin"],
        embedders=[{"kind": "vocab_pool", "width": 16}, spec],
        seeds=[0, 1, 2, 3],
    )
    seq = experiments.run_dof_sweep(cfg, tmp_path / "seq", workers=1)
    assert len(builds) == 2  # 2 slots, each shared by sphere and rastrigin
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = experiments.run_dof_sweep(cfg, tmp_path / "par", workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 4  # an unlocked lookup would let two units build one embedder
    assert json.loads((par / "status.json").read_text())["failed"] == 0
    assert (seq / "dof_sweep_cells.csv").read_bytes() == (par / "dof_sweep_cells.csv").read_bytes()


def test_config_checks_string_format_up_front():
    with pytest.raises(ValueError, match="float_precison"):
        _cfg(string_format={"variant": "full_dict", "float_precison": 3})
    with pytest.raises(ValueError, match="variant"):
        _cfg(string_format={"variant": "ful_dict"})
    with pytest.raises(ValueError, match="float_precision"):
        _cfg(string_format={"float_precision": 4.0})
    with pytest.raises(ValueError, match="space_after_comma"):
        _cfg(string_format={"space_after_comma": "yes"})


def test_valid_string_formats_keep_their_config_hash():
    spaced = {"variant": "values_only", "float_precision": 3, "space_after_comma": True}
    assert _cfg(string_format=spaced).config_hash() == "0560e25cda97"
    assert _cfg(string_format={"float_precision": 6}).config_hash() == "6a70d0145565"


def test_cells_honour_every_string_format_field():
    from embreg.featurize import StringFormat

    cfg = _cfg(string_format={"variant": "values_only", "float_precision": 3, "space_after_comma": True})
    instances = experiments.enumerate_tasks(cfg)
    fmts = {kw["fmt"] for _, kw in experiments._standard_cells(cfg, instances)}
    assert fmts == {StringFormat("values_only", 3, True)}
    ablation = experiments._standard_cells(cfg, instances, variants=["full_dict", "values_only"])
    assert {kw["fmt"] for _, kw in ablation} == {StringFormat("full_dict", 3, True), StringFormat("values_only", 3, True)}


def test_resume_after_a_torn_last_record_matches_an_uninterrupted_run(tmp_path):
    cfg = _cfg(functions=["sphere", "rastrigin"])
    full = experiments.run_dof_sweep(cfg, tmp_path / "full")
    names = ("dof_sweep_cells.csv", "dof_sweep_summary.csv")

    part = experiments.run_dof_sweep(cfg, tmp_path / "part")
    records = part / "records.jsonl"
    data = records.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    records.write_bytes(data[: last + (len(data) - last) // 2])  # killed mid-append
    messages = []
    experiments.run_dof_sweep(cfg, tmp_path / "part", echo=messages.append)
    assert "4 cells total, 1 to run" in messages
    for name in names:
        assert (part / name).read_bytes() == (full / name).read_bytes()
    lines = records.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == 5
    assert sorted(json.loads(line)["cell"] for line in lines[:-1]) == sorted(RunStore(full).records)


def test_compare_runs_one_forward_pass_per_distinct_text_and_empties_its_share(tmp_path, monkeypatch):
    from embreg import featurize, tasks
    from embreg.embedders import SyntheticTransformer

    forwards = []
    original = SyntheticTransformer._forward
    monkeypatch.setattr(
        SyntheticTransformer, "_forward", lambda self, t: forwards.append(t) or original(self, t)
    )
    matrices = []
    train = experiments.train_and_evaluate
    monkeypatch.setattr(
        experiments,
        "train_and_evaluate",
        lambda *a: matrices.extend(weakref.ref(part[0]) for part in a[:3]) or train(*a),
    )
    cfg = _cfg(
        functions=["sphere", "ellipsoidal", "rastrigin", "rosenbrock"],
        dofs=[10],
        embedders=[{"kind": "traditional"}, {"kind": "synthetic_transformer"}],
        n_samples=60,
        seeds=[0, 1],
    )
    exp_dir = experiments.run_comparison(cfg, tmp_path)
    assert json.loads((exp_dir / "status.json").read_text())["ok"] == 16
    task = tasks.synthetic_task("sphere", 10)
    distinct = {
        featurize.serialize(task, x, featurize.StringFormat())
        for seed in cfg.seeds
        for x in tasks.sample_uniform(task, 60, seed).xs
    }
    # 4 functions x 2 seeds x 60 texts; one model per input family.
    assert len(forwards) == len(distinct) == 120
    gc.collect()
    assert len(matrices) == 3 * 16 and not any(ref() for ref in matrices)  # no input outlives its run


@pytest.mark.parametrize("stage", ["build", "embed"])
def test_failing_input_is_not_kept_and_each_cell_records_its_error(tmp_path, monkeypatch, stage):
    from embreg import embedders

    calls = []

    def fail(*args):
        calls.append(args)
        raise RuntimeError(f"{stage} failed")

    if stage == "build":
        original = experiments.build_embedder
        monkeypatch.setattr(
            experiments,
            "build_embedder",
            lambda spec, task, fmt: fail() if spec["kind"] == "vocab_pool" else original(spec, task, fmt),
        )
    else:
        original = embedders.Embedder.embed
        monkeypatch.setattr(
            embedders.Embedder, "embed", lambda self, xs: fail() if self.kind == "vocab_pool" else original(self, xs)
        )
    cfg = _cfg(
        functions=["sphere", "rastrigin"],
        embedders=[{"kind": "traditional"}, {"kind": "vocab_pool", "width": 16}],
        seeds=[0],
    )
    exp_dir = experiments.run_comparison(cfg, tmp_path)
    records = RunStore(exp_dir).records
    failed = {k: r for k, r in records.items() if r["status"] != "ok"}
    assert sorted(failed) == sorted(k for k in records if "slot=1" in k)
    assert {r["error"] for r in failed.values()} == {f"RuntimeError: {stage} failed"}
    assert len(calls) == 2  # the second cell tried again instead of reusing a failure


def test_functions_of_one_input_set_get_equal_matrices(monkeypatch):
    seen = []
    original = experiments.train_and_evaluate
    monkeypatch.setattr(
        experiments, "train_and_evaluate", lambda *a: seen.append(a[:3]) or original(*a)
    )
    cfg = _cfg(functions=["sphere", "rastrigin"], embedders=[{"kind": "vocab_pool", "width": 16}], seeds=[3])
    cells = [kw for _, kw in experiments._standard_cells(cfg, experiments.enumerate_tasks(cfg))]
    inputs, embedders = {}, {}
    shared = [experiments.run_cell(**kw, inputs=inputs, embedders=embedders) for kw in cells]
    alone = [experiments.run_cell(**kw) for kw in cells]
    (sphere, rastrigin), (sphere_alone, rastrigin_alone) = seen[:2], seen[2:]
    for part in range(3):
        m, y = sphere[part]
        assert rastrigin[part][0] is m  # one read-only matrix serves both functions
        assert not m.flags.writeable
        assert not np.array_equal(rastrigin[part][1], y)
        for got, want in ((sphere, sphere_alone), (rastrigin, rastrigin_alone)):
            assert np.array_equal(got[part][0], want[part][0])
            assert np.array_equal(got[part][1], want[part][1])
    for a, b in zip(shared, alone):
        assert {k: v for k, v in a.items() if k not in ("elapsed_s", "ts")} == {
            k: v for k, v in b.items() if k not in ("elapsed_s", "ts")
        }


def test_parallel_run_computes_each_input_once_and_writes_sequential_records(tmp_path, monkeypatch):
    import sys

    from embreg import embedders

    samples, embeds = [], []
    sample, embed = experiments.sample_uniform, embedders.Embedder.embed
    monkeypatch.setattr(experiments, "sample_uniform", lambda *a: samples.append(a) or sample(*a))
    monkeypatch.setattr(embedders.Embedder, "embed", lambda self, xs: embeds.append(self) or embed(self, xs))
    spec = {"kind": "synthetic_transformer", "layers": 1, "model_dim": 16, "heads": 2, "ff_dim": 32}
    cfg = _cfg(
        functions=["sphere", "rastrigin"],
        dofs=[2, 3],
        embedders=[{"kind": "vocab_pool", "width": 16}, spec],
        sizes=[20, 40],
        seeds=[0, 1],
    )
    seq = experiments.run_data_scaling(cfg, tmp_path / "seq", workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = experiments.run_data_scaling(cfg, tmp_path / "par", workers=8)
    finally:
        sys.setswitchinterval(interval)
    # Per run: 16 (instance, n, seed) samples; 3 embeds per (slot, dof, n, seed).
    assert len(samples) == 2 * 16
    assert len(embeds) == 2 * 3 * 16

    def records(exp_dir):
        return {
            cell: {k: v for k, v in rec.items() if k not in ("elapsed_s", "ts")}
            for cell, rec in RunStore(exp_dir).records.items()
        }

    assert len(records(seq)) == 32
    assert records(par) == records(seq)


def test_parallel_run_appends_each_record_as_its_cell_completes(tmp_path, monkeypatch):
    import time

    cfg = _cfg(seeds=[0, 1])  # two input sets, so two units of work
    records = tmp_path / f"sweep-dof-{cfg.config_hash()}" / "records.jsonl"
    waited = []
    original = experiments.train_and_evaluate

    def train(*args):
        if args[4] == 0:  # seed 0's cell waits for seed 1's record
            deadline = time.monotonic() + 5.0
            while not (records.exists() and "seed=1" in records.read_text()) and time.monotonic() < deadline:
                time.sleep(0.01)
            waited.append(records.exists() and "seed=1" in records.read_text())
        return original(*args)

    monkeypatch.setattr(experiments, "train_and_evaluate", train)
    exp_dir = experiments.run_dof_sweep(cfg, tmp_path, workers=2)
    assert waited == [True]  # appended in submission order, seed 1's record would wait for seed 0's
    assert json.loads((exp_dir / "status.json").read_text())["ok"] == 2
    assert [json.loads(line)["seed"] for line in records.read_text().splitlines()] == [1, 0]


def test_a_unit_drops_each_function_split_once_its_cells_are_done(tmp_path, monkeypatch):
    seen = []
    original = experiments.run_cell

    def run_cell(**kw):
        splits = {k for k in kw["inputs"] if isinstance(k, experiments.TaskInstance)}
        seen.append((splits, kw["instance"], set(kw["inputs"])))
        return original(**kw)

    monkeypatch.setattr(experiments, "run_cell", run_cell)
    cfg = _cfg(functions=["sphere", "rastrigin"], seeds=[0])  # one input set, two functions
    experiments.run_dof_sweep(cfg, tmp_path, workers=1)
    assert len(seen) == 2
    (first_splits, sphere, _), (splits, rastrigin, keys) = seen
    assert first_splits == set() and sphere.family == "sphere" and rastrigin.family == "rastrigin"
    assert splits == set()  # sphere's split is gone before rastrigin's cell runs
    assert (0, cfg.string_format) in keys  # the shared matrices stay


def test_config_rejects_embedder_specs_that_cannot_build():
    for spec, match in (
        ({"kind": "remote"}, "'remote'.*'endpoint' and 'model'"),
        ({"kind": "remote", "endpoint": "http://127.0.0.1:9/embed"}, "'remote'.*'model'"),
        ({"kind": "synthetic_transformer", "model_dim": 30}, "'synthetic_transformer'.*divisible"),
        ({"kind": "synthetic_transformer", "layers": 0}, "'synthetic_transformer'.*positive"),
    ):
        with pytest.raises(ValueError, match=match):
            _cfg(embedders=[spec])


def test_embedder_spec_check_builds_no_model_and_reads_no_cache(tmp_path, monkeypatch):
    from embreg import embedders, remote

    def refuse(*args, **kwargs):
        raise AssertionError("the spec check must not build an embedder")

    monkeypatch.setattr(embedders.SyntheticTransformer, "__init__", refuse)
    monkeypatch.setattr(remote.RemoteEmbedder, "__init__", refuse)
    cache = tmp_path / "cache.jsonl"
    _cfg(
        embedders=[
            {"kind": "synthetic_transformer", "model_dim": 16, "heads": 2, "seed": 3},
            {"kind": "remote", "endpoint": "http://127.0.0.1:9/embed", "model": "m", "cache": str(cache)},
        ]
    )
    assert not cache.exists()


def _paired_records(sizes):
    """Hand-written records of two embedder slots: discus/dof3 has no slot-1
    record and rastrigin/dof2 has none at seed 2."""
    records, i = [], 0
    for family, dof in (("sphere", 2), ("sphere", 5), ("rastrigin", 2), ("discus", 3)):
        for seed, n, slot in ((seed, n, slot) for seed in (0, 1, 2) for n in sizes for slot in (0, 1)):
            i += 1
            if slot == 1 and (family == "discus" or (family, seed) == ("rastrigin", 2)):
                continue
            cell = experiments._cell_key(family=family, dof=dof, slot=slot, seed=seed, n=n, fmt="full_dict")
            records.append({
                "cell": cell, "status": "ok", "family": family, "dof": dof, "seed": seed, "n": n, "slot": slot,
                "embedder_kind": ("traditional", "scrambled")[slot], "kendall_tau": (i * i % 23) / 23 - 0.3,
                "nlfd_mu": 1 + (7 * i % 11) / 10, "nlfd_sigma": 0.2 + (5 * i % 7) / 20,
            })
    return records


PINNED_HASH = "0123456789ab"  # a run directory is named <kind>-<12 hex digits of the config hash>


@pytest.mark.parametrize(
    "kind, sizes, expected",
    [
        (
            "sweep-dof",
            (40,),
            {
                "nlfd_scatter.csv": "function,dof,zscore,kendall_gap\n"
                "rastrigin,2,-0.619902135671339,-0.2391304347826087\n"
                "sphere,2,0.0057293894151852305,0.3043478260869565\n"
                "sphere,5,0.21634723627906913,0.15942028985507248\n",
                "nlfd_correlations.csv": "n_tasks,kendall_tau,spearman,pearson\n"
                "3,0.3333333333333333,0.4999999999999999,0.8751910145768367\n",
            },
        ),
        (
            "scale-data",
            (20, 40),
            {
                "data_scaling_summary.csv": "size,records,mean_gap,std_gap,lo_0.5,hi_0.5,lo_1.0,hi_1.0,lo_2.0,hi_2.0\n"
                "20,8,-0.02717391304347825,0.3127243995829522,-0.18353611283495433,0.12918828674799784,"
                "-0.33989831262643044,0.2855504865394739,-0.6526227122093826,0.5982748861224261\n"
                "40,8,-0.10326086956521739,0.4169934131569191,-0.31175757614367694,0.10523583701324217,"
                "-0.5202542827221365,0.3137325435917017,-0.9372476958790557,0.7307259567486208\n",
            },
        ),
    ],
)
def test_paired_summaries_are_pinned(tmp_path, kind, sizes, expected):
    exp_dir = tmp_path / f"{kind}-{PINNED_HASH}"
    exp_dir.mkdir()
    # Written in reverse, so the rows' order comes from the summarizer's sort.
    lines = [json.dumps(r) + "\n" for r in reversed(_paired_records(sizes))]
    (exp_dir / "records.jsonl").write_text("".join(lines))
    experiments.regenerate_summaries(exp_dir)
    assert {name: (exp_dir / name).read_text() for name in expected} == expected


@pytest.mark.parametrize("kind", ["sweep-dof", "compare", "ablate"])
def test_summaries_do_not_depend_on_record_order(tmp_path, kind):
    taus = (0.1, 0.2, 0.3)  # summed from either end, they differ in the last digit
    records = [
        {"cell": experiments._cell_key(family="sphere", dof=2, slot=slot, seed=seed, n=40, fmt="full_dict"),
         "status": "ok", "family": "sphere", "dof": 2, "slot": slot, "embedder_kind": "traditional", "seed": seed,
         "n": 40, "fmt": "full_dict", "kendall_tau": tau if slot == 0 else -tau, "nlfd_mu": 1 + tau * slot,
         "nlfd_sigma": 0.5}
        for seed, tau in enumerate(taus)
        for slot in (0, 1)
    ]
    summaries = []
    for order in (records, records[::-1]):  # planned order, then one that parallel cells may complete in
        exp_dir = tmp_path / str(len(summaries)) / f"{kind}-{PINNED_HASH}"
        exp_dir.mkdir(parents=True)
        (exp_dir / "records.jsonl").write_text("".join(json.dumps(r) + "\n" for r in order))
        experiments.regenerate_summaries(exp_dir)
        summaries.append({p.name: p.read_bytes() for p in exp_dir.glob("*.csv")})
    assert summaries[0] and summaries[1] == summaries[0]


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"train": {**FAST_TRAIN, "seed": 7}}, "seed.*`seeds`"),
        ({"bins": 30}, "bins"),
        ({"bins": 20}, "bins"),
        ({"offline": [{"task": "t.json", "data": "d.csv", "famliy": "x"}]}, "offline entry.*famliy"),
        ({"offline": [{"task": "t.json"}]}, "offline entry"),
        ({"offline": [{"data": "d.csv", "family": "x"}]}, "offline entry"),
        ({"offline": [{"task": "t.json", "data": "d.csv", "family": 3}]}, "offline entry"),
        ({"offline": ["t.json"]}, "offline entry"),
        ({"functions": ["sphere", "nope"]}, "unknown function 'nope'"),
    ],
)
def test_config_rejects_values_nothing_reads(overrides, match):
    with pytest.raises(ValueError, match=match):
        _cfg(**overrides)


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"seeds": (-1,)}, r"seeds must be non-negative integers, got \[-1\]"),
        ({"dofs": (2.0,)}, "dofs must be integers"),
        ({"n_samples": 19}, r"\[19\]"),
        ({"functions": ("nope",)}, "unknown function 'nope'"),
        ({"embedders": ({"kind": "remote", "endpoint": "e", "model": "m", "batch_size": 0},)}, "batch_size"),
        ({"offline": ({"task": "t.json"},)}, "offline entry"),
    ],
)
def test_a_directly_built_config_checks_itself(fields, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**fields)


@pytest.mark.parametrize(
    "d, match",
    [
        ({"functions": "sphere"}, "config field 'functions' must be a list, got 'sphere'"),
        ({"dofs": 5}, "config field 'dofs' must be a list, got 5"),
        ({"embedders": {"kind": "traditional"}}, "config field 'embedders' must be a list"),
        ({"train": {"learning_rates": 1e-3}}, "train field 'learning_rates' must be a list"),
        ({"train": [["max_epochs", 5]]}, "train must be an object"),
        ({"string_format": "full_dict"}, "string_format must be an object"),
        (["sphere"], "config must be an object"),
    ],
)
def test_config_fields_take_their_json_shape(d, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict(d)


def test_missing_offline_table_fails_before_any_cell(tmp_path, monkeypatch):
    from embreg import tasks

    tasks.save_task(tasks.synthetic_task("sphere", 2), tmp_path / "task.json")
    missing = tmp_path / "missing.csv"
    monkeypatch.setattr(experiments, "run_cell", lambda **kw: pytest.fail("a cell ran"))
    cfg = _cfg(
        offline=[{"task": str(tmp_path / "task.json"), "data": str(missing), "family": "table"}],
        embedders=[{"kind": "traditional"}, {"kind": "scrambled"}],
        seeds=[0, 1, 2],
    )
    with pytest.raises(ValueError, match="missing.csv"):
        experiments.run_comparison(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, overrides, match",
    [
        ("sweep-dof", {"seeds": []}, "sweep-dof plans no cells"),
        ("sweep-dof", {"embedders": []}, "sweep-dof plans no cells"),
        ("scale-data", {"embedders": [{"kind": "traditional"}] * 2, "sizes": []}, "scale-data plans no cells"),
        ("sweep-dof", {"dofs": [2, 2], "seeds": [0, 0]}, "cell dof=2;family=sphere;fmt=full_dict;n=40;seed=0;slot=0 is"),
        ("compare", {"embedders": [{"kind": "traditional"}] * 2, "functions": ["sphere", "sphere"]}, "more than once"),
        ("compare", {"embedders": [{"kind": "traditional"}] * 2, "offline": "same family"}, "distinct 'family'"),
    ],
)
def test_plans_with_no_cells_or_a_repeated_cell_key_fail_before_any_cell(tmp_path, monkeypatch, kind, overrides, match):
    if "offline" in overrides:  # two tables of one task, so both entries take the task id as their family
        from embreg import tasks

        task = tasks.synthetic_task("sphere", 2)
        tasks.save_task(task, tmp_path / "task.json")
        for name in ("a.csv", "b.csv"):
            tasks.write_dataset_csv(tasks.sample_uniform(task, 40, seed=len(name)), task, tmp_path / name)
        entries = [{"task": str(tmp_path / "task.json"), "data": str(tmp_path / name)} for name in ("a.csv", "b.csv")]
        overrides = {**overrides, "functions": [], "offline": entries}
    monkeypatch.setattr(experiments, "run_cell", lambda **kw: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match=match):
        experiments.run_experiment(kind, _cfg(**overrides), tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, overrides, field",
    [
        ("sweep-dof", {"sizes": [20, 30]}, "sizes"),
        ("compare", {"sizes": [20, 30]}, "sizes"),
        ("ablate", {"sizes": [20, 30]}, "sizes"),
        ("scale-data", {"sizes": [20, 40], "n_samples": 40}, "n_samples"),
        ("ablate", {"string_format": {"variant": "values_only"}}, "string_format.variant"),
        ("sweep-dof", {"offline": [{"task": "t.json", "data": "d.csv"}]}, "offline"),
        ("scale-data", {"sizes": [20, 40], "offline": [{"task": "t.json", "data": "d.csv"}]}, "offline"),
    ],
)
def test_a_field_the_kind_does_not_read_is_refused_before_any_cell(tmp_path, monkeypatch, kind, overrides, field):
    # sizes on sweep-dof would run the same cells as a config without it, into a second run directory
    embedders = [{"kind": "traditional"}, {"kind": "scrambled"}]
    cfg = ExperimentConfig.from_dict({"functions": ["sphere", "rastrigin", "discus"], "dofs": [2], "seeds": [0],
                                      "embedders": embedders, **overrides})
    monkeypatch.setattr(experiments, "run_cell", lambda **kw: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match=f"{kind} does not read the config field '{re.escape(field)}'"):
        experiments.run_experiment(kind, cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, overrides",
    [
        ("sweep-dof", {"sizes": [50, 100, 200, 400]}),  # the defaults, spelt out
        ("scale-data", {"n_samples": 500, "sizes": [20, 40]}),
        ("ablate", {"string_format": {"variant": "full_dict", "float_precision": 3}}),  # ablate reads the rest
        ("compare", {"n_samples": 40, "string_format": {"variant": "values_only"}}),
    ],
)
def test_fields_the_kind_reads_or_left_at_their_default_plan(kind, overrides):
    cfg = ExperimentConfig.from_dict({"functions": ["sphere"], "dofs": [2], "seeds": [0],
                                      "embedders": [{"kind": "traditional"}, {"kind": "scrambled"}], **overrides})
    assert experiments.plan(kind, cfg)


def test_write_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "out.csv"
    experiments._write_csv(path, ["a", "b"], [[0.1 + 0.2, 1e-300, -0.0, math.nan, math.inf, 7, True, "x,y"]])
    assert path.read_bytes() == b'a,b\n0.30000000000000004,1e-300,-0.0,nan,inf,7,True,"x,y"\n'


def test_an_offline_table_is_read_once_per_run(tmp_path, monkeypatch):
    from embreg import tasks

    task = tasks.synthetic_task("sphere", 2)
    offline_task = tasks.RegressionTask(id="offline-sphere", params=task.params)
    tasks.save_task(offline_task, tmp_path / "task.json")
    tasks.write_dataset_csv(tasks.sample_uniform(task, 40, seed=5), offline_task, tmp_path / "data.csv")
    reads = []
    original = experiments.ingest_offline
    monkeypatch.setattr(experiments, "ingest_offline", lambda *a: reads.append(a) or original(*a))
    cfg = _cfg(
        functions=[],
        dofs=[],
        offline=[{"task": str(tmp_path / "task.json"), "data": str(tmp_path / "data.csv")}],
        embedders=[{"kind": "traditional"}, {"kind": "scrambled"}],
        seeds=[0, 1, 2],
    )
    exp_dir = experiments.run_comparison(cfg, tmp_path / "out")
    assert len(reads) == 1  # when the run is planned; the three seeds' cells split that Dataset
    assert json.loads((exp_dir / "status.json").read_text())["ok"] == 6


@contextmanager
def _lock_held(directory):
    """Hold the run directory's lock on this test's own file descriptor."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / ".lock", "a") as f:
        fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield


def test_a_run_into_a_locked_directory_raises_at_once_and_writes_nothing(tmp_path):
    cfg = _cfg()
    exp_dir = tmp_path / f"sweep-dof-{cfg.config_hash()}"
    with _lock_held(exp_dir):
        with pytest.raises(experiments.RunInUseError, match=re.escape(str(exp_dir / ".lock"))):
            experiments.run_dof_sweep(cfg, tmp_path)
        assert [p.name for p in exp_dir.iterdir()] == [".lock"]
    experiments.run_dof_sweep(cfg, tmp_path)  # the lock went with its holder
    assert (exp_dir / ".lock").is_file() and json.loads((exp_dir / "status.json").read_text())["ok"] == 2


def test_report_on_a_locked_directory_raises_and_leaves_it_as_it_was(tmp_path):
    exp_dir = experiments.run_dof_sweep(_cfg(), tmp_path)
    (exp_dir / "dof_sweep_summary.csv").unlink()
    before = {p.name: p.read_bytes() for p in exp_dir.iterdir()}
    with _lock_held(exp_dir):
        with pytest.raises(experiments.RunInUseError, match=re.escape(str(exp_dir / ".lock"))):
            experiments.regenerate_summaries(exp_dir)
    assert {p.name: p.read_bytes() for p in exp_dir.iterdir()} == before


KILL_CONFIG = {
    "functions": ["sphere", "rastrigin"],
    "dofs": [2, 3],
    "seeds": [0, 1, 2],
    "n_samples": 40,
    "train": {"learning_rates": [5e-3], "weight_decays": [0.0], "max_epochs": 30, "patience": 30},
}


@pytest.mark.skipif(sys.platform != "linux", reason="SIGKILL of a child process, as on Linux")
def test_a_run_killed_after_k_records_resumes_to_the_uninterrupted_summaries(tmp_path):
    """A 12-cell sweep-dof is killed with SIGKILL in another process once
    ``records.jsonl`` holds k complete records (k = 0: once the run holds its
    lock), possibly mid-append, then resumed here. The resumed summaries and
    ``status.json`` match an uninterrupted run byte for byte, and the killed
    run left no lock behind."""
    cfg = ExperimentConfig.from_dict(KILL_CONFIG)
    full = experiments.run_dof_sweep(cfg, tmp_path / "full")
    names = ("dof_sweep_cells.csv", "dof_sweep_summary.csv", "status.json")
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import json, sys\n"
        "from embreg import experiments\n"
        "experiments.run_dof_sweep(experiments.ExperimentConfig.from_dict(json.loads(sys.argv[1])), sys.argv[2])\n"
    )
    for k in (0, 1, 4, 8):
        out = tmp_path / f"killed-{k}"
        exp_dir = out / full.name
        proc = subprocess.Popen([sys.executable, "-c", script, json.dumps(KILL_CONFIG), str(out)], env=env)
        try:
            deadline = time.monotonic() + 15
            while proc.poll() is None and time.monotonic() < deadline:
                records = exp_dir / "records.jsonl"
                if k == 0 and (exp_dir / "config.json").exists():
                    break
                if records.exists() and records.read_bytes().count(b"\n") >= k > 0:
                    break
                time.sleep(0.001)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL and not (exp_dir / "status.json").exists()
        experiments.run_dof_sweep(cfg, out)
        for name in names:
            assert (exp_dir / name).read_bytes() == (full / name).read_bytes(), (k, name)
