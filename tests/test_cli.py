import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from embreg.cli import main

FAST_TRAIN = {
    "learning_rates": [5e-3],
    "weight_decays": [0.0],
    "max_epochs": 10,
    "patience": 5,
}


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(path, **overrides):
    """A small sweep; one that samples no task (no ``functions``) leaves ``n_samples`` out."""
    cfg = dict(
        functions=["sphere"],
        dofs=[2],
        embedders=[{"kind": "traditional"}],
        n_samples=40,
        seeds=[0],
        train=FAST_TRAIN,
    )
    cfg.update(overrides)
    if not cfg["functions"]:
        del cfg["n_samples"]
    Path(path).write_text(json.dumps(cfg))
    return path


def test_help(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for sub in ("sample", "embed", "train", "nlfd", "sweep-dof", "compare", "scale-data", "ablate", "report"):
        assert sub in result.output


def test_sample_writes_task_and_data(runner, tmp_path):
    out = tmp_path / "run"
    result = runner.invoke(
        main,
        ["sample", "--seed", "3", "--out", str(out), "--function", "sphere", "--dof", "3",
         "-n", "25"],
    )
    assert result.exit_code == 0, result.output
    assert (out / "task.json").exists()
    lines = (out / "data.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,x1,x2,y"
    assert len(lines) == 26


def _sampled(runner, tmp_path, n=40, dof=2):
    out = tmp_path / "data"
    result = runner.invoke(
        main,
        ["sample", "--seed", "0", "--out", str(out), "--function", "sphere",
         "--dof", str(dof), "-n", str(n)],
    )
    assert result.exit_code == 0, result.output
    return out / "task.json", out / "data.csv"


def test_embed_roundtrip(runner, tmp_path):
    task_file, data_file = _sampled(runner, tmp_path)
    out = tmp_path / "emb"
    result = runner.invoke(
        main,
        ["embed", "--out", str(out), "--task", str(task_file), "--data", str(data_file),
         "--embedder", "traditional"],
    )
    assert result.exit_code == 0, result.output
    with np.load(out / "embeddings.npz") as data:
        assert data["values"].shape == (40, 2)
        assert str(data["provenance"]).startswith("traditional:")


def test_embed_inline_json_spec(runner, tmp_path):
    task_file, data_file = _sampled(runner, tmp_path)
    out = tmp_path / "emb"
    result = runner.invoke(
        main,
        ["embed", "--out", str(out), "--task", str(task_file), "--data", str(data_file),
         "--embedder", '{"kind": "vocab_pool", "width": 16}', "--string-format", "values"],
    )
    assert result.exit_code == 0, result.output
    with np.load(out / "embeddings.npz") as data:
        assert data["values"].shape == (40, 16)


def test_train_writes_model_and_report(runner, tmp_path):
    task_file, data_file = _sampled(runner, tmp_path)
    out = tmp_path / "model"
    result = runner.invoke(
        main,
        ["train", "--out", str(out), "--task", str(task_file), "--data", str(data_file),
         "--embedder", "traditional", "--train-config", json.dumps(FAST_TRAIN)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert "kendall_tau" in report["metrics"]
    assert len(report["sweep"]) == 1
    from embreg.mlp import load_model

    model, normalizer, provenance = load_model(out / "model.npz")
    assert provenance.startswith("traditional:")


def test_nlfd_outputs(runner, tmp_path):
    task_file, data_file = _sampled(runner, tmp_path)
    out = tmp_path / "nlfd"
    result = runner.invoke(
        main,
        ["nlfd", "--out", str(out), "--task", str(task_file), "--data", str(data_file),
         "--embedder-a", "traditional", "--embedder-b", "scrambled", "--bins", "5"],
    )
    assert result.exit_code == 0, result.output
    hist = (out / "nlfd_hist_a.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    assert len(hist) == 6
    z = json.loads((out / "nlfd_zscore.json").read_text())
    assert z["z"] < 0  # scrambling roughens the landscape
    assert z["a"]["n"] == 40


def test_sweep_dof_end_to_end(runner, tmp_path):
    cfg_path = _write_config(tmp_path / "cfg.json")
    result = runner.invoke(
        main, ["sweep-dof", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]
    )
    assert result.exit_code == 0, result.output
    exp_dirs = list((tmp_path / "runs").iterdir())
    assert len(exp_dirs) == 1
    assert (exp_dirs[0] / "dof_sweep_summary.csv").exists()


def test_experiment_requires_config(runner, tmp_path):
    result = runner.invoke(main, ["sweep-dof", "--out", str(tmp_path / "runs")])
    assert result.exit_code == 2
    assert "Error: Missing option '--config'" in result.output
    assert not (tmp_path / "runs").exists()


def test_report_command(runner, tmp_path):
    cfg_path = _write_config(tmp_path / "cfg.json")
    result = runner.invoke(
        main, ["sweep-dof", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]
    )
    assert result.exit_code == 0
    exp_dir = next((tmp_path / "runs").iterdir())
    names = ("dof_sweep_cells.csv", "dof_sweep_summary.csv", "status.json")
    written = {name: (exp_dir / name).read_bytes() for name in names}
    (exp_dir / "dof_sweep_summary.csv").unlink()
    result = runner.invoke(main, ["report", str(exp_dir)])
    assert result.exit_code == 0, result.output
    assert {name: (exp_dir / name).read_bytes() for name in names} == written


def test_config_hash_pins_output_directory(runner, tmp_path):
    cfg_a = _write_config(tmp_path / "a.json")
    cfg_b = _write_config(tmp_path / "b.json", seeds=[0, 1])
    for cfg in (cfg_a, cfg_b):
        result = runner.invoke(
            main, ["sweep-dof", "--config", str(cfg), "--out", str(tmp_path / "runs")]
        )
        assert result.exit_code == 0, result.output
    assert len(list((tmp_path / "runs").iterdir())) == 2


def test_train_matches_the_engine_cell_on_the_same_table(runner, tmp_path):
    from embreg import experiments
    from embreg.featurize import StringFormat
    from embreg.mlp import TrainConfig, load_model
    from embreg.tasks import ingest_offline, load_task

    task_file, data_file = _sampled(runner, tmp_path)
    spec = {"kind": "vocab_pool", "width": 16}
    out = tmp_path / "model"
    result = runner.invoke(
        main,
        ["train", "--seed", "2", "--out", str(out), "--task", str(task_file), "--data", str(data_file),
         "--embedder", json.dumps(spec), "--string-format", "values", "--float-sig-digits", "3",
         "--space-after-comma", "--train-config", json.dumps(FAST_TRAIN)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    task = load_task(task_file)
    instance = experiments.TaskInstance(task.id, task, ingest_offline(data_file, task))
    fmt = StringFormat("values_only", 3, True)
    train = TrainConfig.from_overrides(FAST_TRAIN)
    rec = experiments.run_cell(instance, spec, seed=2, n_samples=40, fmt=fmt, train=train)
    assert report["metrics"] == {k: rec[k] for k in report["metrics"]}
    assert (report["chosen_lr"], report["chosen_wd"], report["epochs_run"]) == (
        rec["chosen_lr"], rec["chosen_wd"], rec["epochs"]
    )
    assert load_model(out / "model.npz")[2] == rec["embedder"]


def test_nlfd_space_after_comma_changes_the_vocab_pool_inputs(runner, tmp_path):
    task_file, data_file = _sampled(runner, tmp_path)
    zs = []
    for flags in ([], ["--space-after-comma"]):
        out = tmp_path / f"nlfd{len(flags)}"
        result = runner.invoke(
            main,
            ["nlfd", "--out", str(out), "--task", str(task_file), "--data", str(data_file),
             "--embedder-a", '{"kind": "vocab_pool", "width": 16}', "--embedder-b", "traditional", *flags],
        )
        assert result.exit_code == 0, result.output
        zs.append(json.loads((out / "nlfd_zscore.json").read_text())["z"])
    assert zs[0] != zs[1]


@pytest.mark.parametrize(
    "command, option",
    [
        (["embed", "--embedder", '{"kind":"vocab_pool",}'], "--embedder"),
        (["embed", "--embedder", '{"kind":"remote"}'], "--embedder"),
        (["embed", "--embedder", '{"kind":"vocab_pool","width":-1}'], "--embedder"),
        (["train", "--embedder", "traditional", "--train-config", '{"seed": 5, "max_epochs": 3}'], "--train-config"),
        (["train", "--embedder", "traditional", "--train-config", '{"max_epoch": 3}'], "--train-config"),
        (["train", "--embedder", "nope"], "--embedder"),
        (["nlfd", "--embedder-a", "traditional", "--embedder-b", '{"kind":"nope"}'], "--embedder-b"),
        (["nlfd", "--embedder-a", "traditional", "--embedder-b", "traditional", "--bins", "0"], "--bins"),
        (["embed", "--embedder", "traditional", "--float-sig-digits", "0"], "--float-sig-digits"),
    ],
)
def test_bad_one_off_options_are_usage_errors(runner, tmp_path, command, option):
    task_file, data_file = _sampled(runner, tmp_path)
    name, *rest = command
    result = runner.invoke(
        main, [name, "--out", str(tmp_path / "out"), "--task", str(task_file), "--data", str(data_file), *rest]
    )
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert not (tmp_path / "out" / "embeddings.npz").exists() and not (tmp_path / "out" / "model.npz").exists()


@pytest.mark.parametrize(
    "args, option",
    [
        (["sample", "--seed", "-1", "--function", "sphere", "--dof", "2"], "--seed"),
        (["compare", "--workers", "-3"], "--workers"),
        (["compare", "--workers", "0"], "--workers"),
        (["sample", "--function", "sphere", "--dof", "2", "-n", "0"], "-n"),
        (["sample", "--function", "sphere", "--dof", "-1"], "--dof"),
        (["sample", "--function", "sphere", "--dof", "0"], "--dof"),
    ],
)
def test_out_of_range_seeds_and_counts_are_usage_errors(runner, tmp_path, args, option):
    name, *rest = args
    result = runner.invoke(main, [name, "--out", str(tmp_path / "out"), *rest])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
    assert not (tmp_path / "out").exists()


def test_train_config_seed_points_to_the_seed_option(runner, tmp_path):
    task_file, data_file = _sampled(runner, tmp_path)
    result = runner.invoke(
        main,
        ["train", "--task", str(task_file), "--data", str(data_file), "--embedder", "traditional",
         "--train-config", '{"seed": 5}'],
    )
    assert result.exit_code == 2 and "--seed" in result.output


@pytest.mark.parametrize(
    "overrides",
    [
        {"train": {**FAST_TRAIN, "seed": 7}},
        {"bins": 30},
        {"offline": [{"task": "t.json", "data": "d.csv", "famliy": "x"}]},
        {"dofs": 5},
        {"functions": ["nope"]},
    ],
)
def test_bad_config_is_a_usage_error(runner, tmp_path, overrides):
    cfg = _write_config(tmp_path / "cfg.json", embedders=[{"kind": "traditional"}, {"kind": "scrambled"}], **overrides)
    result = runner.invoke(main, ["compare", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--config'" in result.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "kind, overrides, field",
    [
        ("sweep-dof", {"sizes": [20, 30]}, "sizes"),
        ("compare", {"sizes": [20, 30]}, "sizes"),
        ("compare", {"dofs": []}, "n_samples"),  # a config that samples no task
        ("ablate", {"sizes": [20, 30]}, "sizes"),
        ("scale-data", {"sizes": [20, 40]}, "n_samples"),  # _write_config sets n_samples to 40
        ("ablate", {"string_format": {"variant": "values_only"}}, "string_format.variant"),
        ("sweep-dof", {"offline": [{"task": "t.json", "data": "d.csv"}]}, "offline"),
        ("scale-data", {"offline": [{"task": "t.json", "data": "d.csv"}]}, "offline"),  # refused before n_samples
    ],
)
def test_a_field_the_kind_does_not_read_is_a_usage_error(runner, tmp_path, kind, overrides, field):
    cfg = _write_config(tmp_path / "cfg.json", functions=["sphere", "rastrigin", "discus"],
                        embedders=[{"kind": "traditional"}, {"kind": "scrambled"}], **overrides)
    result = runner.invoke(main, [kind, "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert f"does not read the config field '{field}'" in result.output and "Traceback" not in result.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "keys",
    [{"batch_size": 0}, {"batch_size": "3"}, {"batch_size": 2.5}, {"backoff": "a"}, {"endpoint": 3}],
)
def test_remote_spec_mistakes_are_usage_errors(runner, tmp_path, keys):
    remote = {"kind": "remote", "endpoint": "http://127.0.0.1:9/embed", "model": "m", **keys}
    cfg = _write_config(tmp_path / "cfg.json", embedders=[{"kind": "traditional"}, remote])
    result = runner.invoke(main, ["compare", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert "Error: Invalid value for '--config': embedder kind 'remote' cannot build" in result.output
    assert f"{next(iter(keys))} must be" in result.output and "Traceback" not in result.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "args, name",
    [
        (["sample", "--out", "out", "--function", "nope", "--dof", "2"], "--function"),  # an id not in the catalog
        (["report", "plain"], "EXP_DIR"),  # a directory not named <kind>-<config hash>
    ],
)
def test_unknown_function_and_unnamed_report_dir_are_usage_errors(runner, tmp_path, args, name):
    (tmp_path / "plain").mkdir()
    args = [str(tmp_path / a) if a in ("plain", "out") else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"Error: Invalid value for '{name}'" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists() and list((tmp_path / "plain").iterdir()) == []


TWO_SPECS = [{"kind": "traditional"}, {"kind": "scrambled"}]


@pytest.mark.parametrize(
    "kind, overrides, message",
    [
        ("compare", {}, "compare needs at least 2 embedder specs"),
        ("sweep-dof", {"offline": {}}, "sweep-dof does not read the config field 'offline': leave it out or at its default"),
        ("scale-data", {"n_samples": 500}, "scale-data needs exactly 2 embedder specs"),  # n_samples at its default
        ("compare", {"embedders": TWO_SPECS, "offline": {"task": "nope.json"}},
         r"offline entry .*: \[Errno 2\] No such file or directory: '.*nope.json'"),
        ("compare", {"embedders": TWO_SPECS, "offline": {"data": "nope.csv"}},
         r"offline entry .*: \[Errno 2\] No such file or directory: '.*nope.csv'"),
        ("sweep-dof", {"seeds": []}, "sweep-dof plans no cells"),
        ("sweep-dof", {"dofs": [2, 2]}, "cell .*dof=2.* is planned more than once"),
        ("sweep-dof", {"functions": ["rosenbrock"], "dofs": [1]}, "rosenbrock is 0 everywhere at dof 1; it needs dof >= 2"),
        ("compare", {"embedders": TWO_SPECS, "offline": {"task": "."}}, r"offline entry .*: \[Errno 21\] Is a directory"),
    ],
)
def test_config_mistakes_the_engine_checks_are_usage_errors(runner, tmp_path, kind, overrides, message):
    if "offline" in overrides:  # a sampled table, with the named file swapped for a missing one or a directory
        task_file, data_file = _sampled(runner, tmp_path)
        entry = {"task": str(task_file), "data": str(data_file)}
        entry.update({k: str(tmp_path / v) for k, v in overrides["offline"].items()})
        overrides = {**overrides, "offline": [entry]}
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    result = runner.invoke(main, [kind, "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert re.search(f"Error: Invalid value for '--config': {message}", result.output), result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "runs").exists()


def _broken(runner, tmp_path, fault):
    """A sampled 40-row sphere task and table, with one fault: a misspelt
    param kind or an offline source in the task file, an out-of-range first
    row, 15 rows, a constant y, or a y of 1.0 on the first two rows and 0.0
    on the rest, which ties the test split of seed 0 (rows 29, 33, 15 and 31)."""
    task_file, data_file = _sampled(runner, tmp_path)
    spec = json.loads(task_file.read_text())
    if fault == "kind":
        spec["params"][0]["kind"] = "continous"
    if fault == "offline":
        spec["source"] = {"kind": "offline"}
    task_file.write_text(json.dumps(spec))
    lines = data_file.read_text().splitlines(keepends=True)
    if fault == "row":
        lines[1] = "9.0," + lines[1].split(",", 1)[1]
    if fault == "short":
        lines = lines[:16]
    if fault in ("constant", "tied"):
        lines[1:] = [line.rsplit(",", 1)[0] + (",1.0\n" if fault == "constant" or i < 2 else ",0.0\n")
                     for i, line in enumerate(lines[1:])]
    data_file.write_text("".join(lines))
    return task_file, data_file


@pytest.mark.parametrize(
    "command, fault, option, message",
    [
        (["embed", "--embedder", "traditional"], "kind", "--task", "a param must be an object whose field 'kind' is"),
        (["embed", "--embedder", "traditional"], "row", "--data", "row 1: param 'x0': value 9.0 outside"),
        (["train", "--embedder", "traditional"], "short", "--data", "a split needs at least 20 rows, got 15"),
        (["sample"], "offline", "--task", "sample_uniform requires a synthetic task"),
    ],
)
def test_task_files_and_tables_that_cannot_be_used_are_usage_errors(runner, tmp_path, command, fault, option, message):
    task_file, data_file = _broken(runner, tmp_path, fault)
    name, *rest = command
    files = ["--task", str(task_file)] + (["--data", str(data_file)] if name != "sample" else [])
    result = runner.invoke(main, [name, "--out", str(tmp_path / "out"), *files, *rest])
    assert result.exit_code == 2, result.output
    assert f"Error: Invalid value for '{option}': {message}" in result.output, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "fault, message",
    [
        ("kind", "field 'kind' is 'continuous' or 'categorical', got {'name': 'x0', 'kind': 'continous'"),
        ("row", "row 1: param 'x0': value 9.0 outside"),
        ("short", "a split needs at least 20 rows, got 15"),
        ("constant", "the test split of seed 0 ties every target at 1.0; no metric can score it"),
        ("tied", "the test split of seed 0 ties every target at 0.0; no metric can score it"),
    ],
)
def test_offline_tables_are_read_when_the_run_is_planned(runner, tmp_path, fault, message):
    task_file, data_file = _broken(runner, tmp_path, fault)
    entry = {"task": str(task_file), "data": str(data_file)}
    cfg = _write_config(tmp_path / "cfg.json", embedders=TWO_SPECS, offline=[entry])
    result = runner.invoke(main, ["compare", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert f"Error: Invalid value for '--config': offline entry {entry}: " in result.output, result.output
    assert message in result.output and "Traceback" not in result.output
    assert not (tmp_path / "runs").exists()


def test_rosenbrock_at_dof_1_is_a_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["sample", "--function", "rosenbrock", "--dof", "1", "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert "Error: Invalid value for '--function': rosenbrock is 0 everywhere at dof 1; it needs dof >= 2" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


def test_train_report_keeps_its_key_order(runner, tmp_path):
    task_file, data_file = _sampled(runner, tmp_path)
    out = tmp_path / "model"
    result = runner.invoke(
        main,
        ["train", "--out", str(out), "--task", str(task_file), "--data", str(data_file),
         "--embedder", "traditional", "--train-config", json.dumps(FAST_TRAIN)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert list(report) == ["sweep", "chosen_lr", "chosen_wd", "epochs_run", "metrics"]
    assert list(report["metrics"]) == ["kendall_tau", "spearman", "pearson", "mse", "mae"]


def test_embedding_errors_still_propagate(runner, tmp_path, monkeypatch):
    from embreg import embedders

    def fail(self, xs):
        raise ValueError("embedding failed")

    monkeypatch.setattr(embedders.Embedder, "embed", fail)
    task_file, data_file = _sampled(runner, tmp_path)
    result = runner.invoke(
        main, ["embed", "--task", str(task_file), "--data", str(data_file), "--embedder", "traditional"]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, ValueError) and str(result.exception) == "embedding failed"


@pytest.mark.parametrize(
    "command, rows, step, least",
    [
        (["embed", "--embedder", "traditional"], 0, "embed", 1),
        (["embed", "--embedder", "vocab_pool"], 0, "embed", 1),
        (["nlfd", "--embedder-a", "traditional", "--embedder-b", "vocab_pool"], 0, "nlfd", 2),
        (["nlfd", "--embedder-a", "traditional", "--embedder-b", "vocab_pool"], 1, "nlfd", 2),
    ],
)
def test_tables_too_small_for_a_one_off_step_are_usage_errors(runner, tmp_path, command, rows, step, least):
    task_file, data_file = _sampled(runner, tmp_path)
    lines = data_file.read_text().splitlines(keepends=True)
    data_file.write_text("".join(lines[: 1 + rows]))  # the header and ``rows`` rows
    name, *rest = command
    result = runner.invoke(
        main, [name, "--out", str(tmp_path / "out"), "--task", str(task_file), "--data", str(data_file), *rest]
    )
    assert result.exit_code == 2, result.output
    assert f"Error: Invalid value for '--data': the table has {rows} rows; {step} needs at least {least}" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


def test_a_run_or_report_on_a_locked_run_directory_is_a_usage_error(runner, tmp_path):
    import fcntl

    from embreg.experiments import ExperimentConfig

    cfg_file = _write_config(tmp_path / "cfg.json")
    exp_dir = tmp_path / "runs" / f"sweep-dof-{ExperimentConfig.from_file(cfg_file).config_hash()}"
    exp_dir.mkdir(parents=True)
    (exp_dir / "records.jsonl").touch()  # so the report gets as far as the lock
    with open(exp_dir / ".lock", "a") as f:  # this process holds the lock on its own descriptor
        fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        for args, name in (
            (["sweep-dof", "--config", str(cfg_file), "--out", str(tmp_path / "runs")], "--out"),
            (["report", str(exp_dir)], "EXP_DIR"),
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert f"Error: Invalid value for '{name}': run directory is in use" in result.output
            assert str(exp_dir / ".lock") in result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
    assert sorted(p.name for p in exp_dir.iterdir()) == [".lock", "records.jsonl"]


def test_a_run_reads_each_offline_table_once(runner, tmp_path, monkeypatch):
    from embreg import experiments

    task_file, data_file = _sampled(runner, tmp_path)
    reads = []
    original = experiments.ingest_offline
    monkeypatch.setattr(experiments, "ingest_offline", lambda *a: reads.append(a) or original(*a))
    entry = {"task": str(task_file), "data": str(data_file)}
    cfg = _write_config(tmp_path / "cfg.json", functions=[], dofs=[], embedders=TWO_SPECS, offline=[entry],
                        seeds=[0, 1, 2])
    result = runner.invoke(main, ["compare", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output
    assert len(reads) == 1  # the usage check and the run share one plan
    (exp_dir,) = (tmp_path / "runs").iterdir()
    assert json.loads((exp_dir / "status.json").read_text())["ok"] == 6


def test_a_value_error_after_cells_start_is_not_a_config_error(runner, tmp_path, monkeypatch):
    from embreg import experiments

    def fail(exp_dir, records):
        raise ValueError("summary failed")

    monkeypatch.setattr(experiments, "summarize_dof_sweep", fail)
    cfg = _write_config(tmp_path / "cfg.json")
    result = runner.invoke(main, ["sweep-dof", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, ValueError) and str(result.exception) == "summary failed"
    assert "Invalid value" not in result.output
    (exp_dir,) = (tmp_path / "runs").iterdir()
    assert (exp_dir / "records.jsonl").read_text().count('"status": "ok"') == 1


NLFD_PAIR = ["--embedder-a", "traditional", "--embedder-b", "vocab_pool"]
DIVERGING = {"learning_rates": [1e300], "weight_decays": [0.0], "max_epochs": 3}


@pytest.mark.parametrize(
    "command, table, error",
    [
        (["nlfd", *NLFD_PAIR], "repeated",
         "Invalid value for '--data': --embedder-a: all 80 nearest-neighbor pairs were degenerate"),
        (["nlfd", *NLFD_PAIR], "constant",
         "Invalid value for '--data': --embedder-a and --embedder-b: z-score undefined: both samples have zero variance"),
        (["train", "--embedder", "traditional", "--train-config", json.dumps(FAST_TRAIN)], "constant",
         "Invalid value for '--data': the test split of seed 0 ties every target at 1.0; no metric can score it"),
        (["train", "--embedder", "traditional", "--train-config", json.dumps(DIVERGING)], "sampled",
         "Invalid value for '--train-config': every sweep cell diverged"),
        (["nlfd", *NLFD_PAIR, "--export-distances"], "sampled", "No such option '--export-distances'"),
    ],
    ids=["nlfd-repeated-rows", "nlfd-constant-y", "train-constant-y", "train-diverging-sweep", "nlfd-export-distances"],
)
def test_tables_and_sweeps_a_step_cannot_score_are_usage_errors(runner, tmp_path, command, table, error):
    """Every row twice leaves NLFD no non-degenerate nearest pair; a constant y gives both factor samples
    zero variance and ties every test target; a learning rate of 1e300 diverges every sweep cell. Each is
    a usage error that writes nothing. The pairwise-distance export is gone."""
    task_file, data_file = _sampled(runner, tmp_path)
    header, *rows = data_file.read_text().splitlines(keepends=True)
    if table == "repeated":
        rows = rows + rows
    if table == "constant":
        rows = [row.rsplit(",", 1)[0] + ",1.0\n" for row in rows]
    data_file.write_text(header + "".join(rows))
    name, *rest = command
    result = runner.invoke(
        main, [name, "--out", str(tmp_path / "out"), "--task", str(task_file), "--data", str(data_file), *rest]
    )
    assert result.exit_code == 2, result.output
    assert f"Error: {error}" in result.output, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


def test_train_refuses_a_tied_test_split_before_training(runner, tmp_path, monkeypatch):
    from embreg import mlp

    def fail(*args):
        raise AssertionError("mlp.train ran")

    monkeypatch.setattr(mlp, "train", fail)
    task_file, data_file = _broken(runner, tmp_path, "tied")
    result = runner.invoke(
        main, ["train", "--out", str(tmp_path / "out"), "--task", str(task_file), "--data", str(data_file),
               "--embedder", "traditional"]
    )
    assert result.exit_code == 2, result.output
    assert ("Error: Invalid value for '--data': the test split of seed 0 ties every target at 0.0; "
            "no metric can score it") in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, records",
    [
        ("compare", True),  # a kind with no config hash
        ("ablate-xyz", True),  # a kind and a suffix that is no config hash
        ("sweep-dof-0123456789AB", True),  # a config hash is lower-case hex
        ("sweep-dof-0123456789a", True),  # ... of 12 digits
        ("sweep-dof-0123456789ab", False),  # a run directory's name, but no records.jsonl
        ("nlfd-corr-0123456789ab", True),  # a deleted kind: sweep-dof writes its files
    ],
)
def test_report_refuses_a_directory_that_is_not_a_run(runner, tmp_path, name, records):
    exp_dir = tmp_path / name
    exp_dir.mkdir()
    if records:
        (exp_dir / "records.jsonl").touch()
    result = runner.invoke(main, ["report", str(exp_dir)])
    assert result.exit_code == 2, result.output
    assert "Error: Invalid value for 'EXP_DIR'" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert [p.name for p in exp_dir.iterdir()] == (["records.jsonl"] if records else [])


OFFLINE_OPTIONS = {"--task", "--data", "--string-format", "--float-sig-digits", "--space-after-comma"}


def test_each_option_is_declared_on_the_commands_that_read_it():
    import click

    from embreg import experiments

    def options(command):
        return {opt for param in command.params if isinstance(param, click.Option) for opt in param.opts}

    assert main.params == []  # the group itself takes only --help
    expected = {
        **dict.fromkeys(experiments.EXPERIMENTS, {"--config", "--out", "--force", "--workers"}),
        "report": set(),
        "sample": {"--task", "--function", "--dof", "-n", "--num-samples", "--seed", "--out"},
        "embed": OFFLINE_OPTIONS | {"--embedder", "--out"},
        "nlfd": OFFLINE_OPTIONS | {"--embedder-a", "--embedder-b", "--bins", "--out"},
        "train": OFFLINE_OPTIONS | {"--embedder", "--train-config", "--seed", "--out"},
    }
    assert {name: options(command) for name, command in main.commands.items()} == expected
    for kind in experiments.EXPERIMENTS:
        (config,) = [param for param in main.commands[kind].params if param.name == "config_path"]
        assert config.required


@pytest.mark.parametrize(
    "args",
    [
        ["--seed", "3", "sweep-dof", "--config", "cfg.json"],
        ["--config", "cfg.json", "sweep-dof"],
        ["--config", "cfg.json", "--out", "runs", "compare"],
        ["--workers", "2", "sweep-dof", "--config", "cfg.json"],
        ["--force", "sweep-dof", "--config", "cfg.json"],
        ["--seed", "0", "sample", "--function", "sphere", "--dof", "2"],
        ["--out", "data", "sample", "--function", "sphere", "--dof", "2"],
        ["--out", "runs", "report", "runs/sweep-dof-0123456789ab"],
    ],
)
def test_an_option_before_its_command_is_a_usage_error_that_writes_nothing(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path / "cfg.json", embedders=TWO_SPECS)
    exp_dir = tmp_path / "runs" / "sweep-dof-0123456789ab"
    exp_dir.mkdir(parents=True)
    (exp_dir / "records.jsonl").touch()
    before = sorted(tmp_path.rglob("*"))
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"Error: No such option '{args[0]}'" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert sorted(tmp_path.rglob("*")) == before
