"""Command-line harness for running benchmark experiments and one-off steps.

Each option belongs to the command that reads it, and ``embreg <command> --help`` lists them.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from functools import wraps
from pathlib import Path

import click
import numpy as np

from . import experiments, mlp, nlfd
from .embedders import build_embedder
from .featurize import FULL_DICT, VALUES_ONLY, StringFormat
from .metrics import UndefinedMetricError
from .mlp import TrainConfig, save_model
from .tasks import (
    ingest_offline,
    load_task,
    sample_uniform,
    save_task,
    split_dataset,
    synthetic_task,
    write_dataset_csv,
)


def _parse(option: str, fn, *args, errors=(OSError, TypeError, ValueError), about: str = ""):
    """``fn(*args)``, with one of ``errors`` (by default an OSError, TypeError
    or ValueError) turned into a usage error on ``option``; a non-empty
    ``about`` prefixes the message with what was being computed."""
    try:
        return fn(*args)
    except errors as e:
        raise click.BadParameter(f"{about}: {e}" if about else str(e), param_hint=f"'{option}'") from e


def _load_embedder_spec(value: str) -> dict:
    """Accept inline JSON, @path to a JSON file, or a bare backend kind."""
    if value.startswith("@"):
        return json.loads(Path(value[1:]).read_text(encoding="utf-8"))
    value = value.strip()
    if value.startswith("{"):
        return json.loads(value)
    return {"kind": value}


def _resolve_task(task_file: str | None, function: str | None, dof: int | None):
    if task_file:
        return _parse("--task", load_task, task_file)
    if function and dof:
        return _parse("--function", synthetic_task, function, dof)
    raise click.UsageError("provide --task FILE or both --function and --dof")


@click.group()
def main():
    """Benchmark harness for regression over different input representations."""


_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
                            help="Seed for one-off steps.")
_out_option = click.option("--out", type=click.Path(path_type=Path), default="runs", show_default=True,
                           help="Output directory.")


def _experiment_command(kind: str) -> None:
    @main.command(kind, help=experiments.EXPERIMENTS[kind].help)
    @click.option("--config", "config_path", type=click.Path(exists=True), required=True,
                  help="Experiment config JSON.")
    @_out_option
    @click.option("--force", is_flag=True, help="Re-run cells that already completed.")
    @click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True, help="Parallel cells.")
    def run(config_path, out, force, workers):
        cfg = _parse("--config", experiments.ExperimentConfig.from_file, config_path)
        cells = _parse("--config", experiments.plan, kind, cfg)  # the one plan: a mistake here leaves no run directory
        exp_dir = _parse(
            "--out", experiments.run_experiment, kind, cfg, out, force, workers, click.echo, cells,
            errors=experiments.RunInUseError,
        )
        click.echo(f"results in {exp_dir}")


for _kind in experiments.EXPERIMENTS:
    _experiment_command(_kind)


@main.command()
@click.argument("exp_dir", type=click.Path(exists=True, file_okay=False))
def report(exp_dir):
    """Rebuild summary CSVs from an experiment directory's records."""
    _parse("EXP_DIR", experiments.experiment_kind, exp_dir)
    _parse("EXP_DIR", experiments.regenerate_summaries, exp_dir, errors=experiments.RunInUseError)
    click.echo(f"summaries regenerated in {exp_dir}")


@main.command()
@click.option("--task", "task_file", type=click.Path(exists=True), default=None)
@click.option("--function", default=None, help="Benchmark function id for a synthetic task.")
@click.option("--dof", type=click.IntRange(min=1), default=None)
@click.option("-n", "--num-samples", type=click.IntRange(min=1), default=500, show_default=True)
@_seed_option
@_out_option
def sample(task_file, function, dof, num_samples, seed, out):
    """Sample a synthetic task uniformly and write task.json + data.csv."""
    task = _resolve_task(task_file, function, dof)
    ds = _parse("--task", sample_uniform, task, num_samples, seed)
    out.mkdir(parents=True, exist_ok=True)
    save_task(task, out / "task.json")
    write_dataset_csv(ds, task, out / "data.csv")
    click.echo(f"wrote {out / 'task.json'} and {out / 'data.csv'} ({len(ds)} rows)")


def _offline_inputs(command):
    """Shared ``--task``, ``--data`` and string-format options of the one-off steps. The command gets
    the task, the table's :class:`Dataset` and ``build(value, option name) -> Embedder``. A task file or
    table that cannot be read, and a spec that cannot parse or build, are usage errors on their option."""

    @click.option("--task", "task_file", type=click.Path(exists=True), required=True)
    @click.option("--data", "data_file", type=click.Path(exists=True), required=True)
    @click.option("--string-format", type=click.Choice(["full", "values"]), default="full",
                  show_default=True)
    @click.option("--float-sig-digits", type=click.IntRange(min=1), default=4, show_default=True)
    @click.option("--space-after-comma", is_flag=True)
    @wraps(command)
    def wrapper(task_file, data_file, string_format, float_sig_digits, space_after_comma, **kwargs):
        task = _parse("--task", load_task, task_file)
        ds = _parse("--data", ingest_offline, data_file, task)
        variant = {"full": FULL_DICT, "values": VALUES_ONLY}[string_format]
        fmt = StringFormat(variant=variant, float_precision=float_sig_digits, space_after_comma=space_after_comma)

        def build(value: str, option: str):
            return _parse(option, lambda: build_embedder(_load_embedder_spec(value), task, fmt))

        return command(task, ds, build, **kwargs)

    return wrapper


def _need_rows(ds, n: int, step: str) -> None:
    """A usage error on ``--data`` unless the table has at least ``n`` rows."""
    if len(ds) < n:
        raise click.BadParameter(f"the table has {len(ds)} rows; {step} needs at least {n}", param_hint="'--data'")


@main.command()
@_offline_inputs
@click.option("--embedder", required=True, help="Backend kind, inline JSON, or @spec.json.")
@_out_option
def embed(task, ds, build, embedder, out):
    """Embed an offline data file; writes embeddings.npz."""
    _need_rows(ds, 1, "embed")
    built = build(embedder, "--embedder")
    matrix = built.embed(ds.xs)
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / "embeddings.npz", values=matrix.values, provenance=built.provenance)
    click.echo(f"wrote {out / 'embeddings.npz'} ({matrix.rows}x{matrix.values.shape[1]}, {built.provenance})")


@main.command()
@_offline_inputs
@click.option("--embedder", required=True)
@click.option("--train-config", default=None, help="Inline JSON overrides for training.")
@_seed_option
@_out_option
def train(task, ds, build, embedder, train_config, seed, out):
    """Train the MLP head on an embedded dataset; writes model.npz + report.json."""
    cfg = _parse("--train-config", lambda: TrainConfig.from_overrides(json.loads(train_config) if train_config else {}))
    parts = _parse("--data", split_dataset, ds, seed)
    built = build(embedder, "--embedder")
    matrices = experiments._embed_parts(built, parts)
    train_set, val_set, (x_test, y_test) = zip(matrices, (part.y for part in parts))
    model, normalizer, rep = _parse(
        "--train-config", mlp.train, train_set, val_set, cfg, seed, errors=mlp.TrainingFailedError
    )
    rep.metrics = _parse("--data", mlp.evaluate, model, normalizer, x_test, y_test, errors=UndefinedMetricError,
                         about="scoring the test split")
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model.npz", model, normalizer, built.provenance)
    (out / "report.json").write_text(json.dumps(asdict(rep), indent=2) + "\n", encoding="utf-8")
    click.echo(f"test kendall_tau={rep.metrics['kendall_tau']:.4f}; wrote {out / 'model.npz'}")


@main.command("nlfd")
@_offline_inputs
@click.option("--embedder-a", required=True)
@click.option("--embedder-b", required=True)
@click.option("--bins", type=click.IntRange(min=1), default=20, show_default=True)
@_out_option
def nlfd_cmd(task, ds, build, embedder_a, embedder_b, bins, out):
    """Roughness-factor histograms for two embedders plus their z-score."""
    _need_rows(ds, 2, "nlfd")
    # Both samples and z come first: a table NLFD cannot score is a usage error and writes nothing.
    embedders = {"a": build(embedder_a, "--embedder-a"), "b": build(embedder_b, "--embedder-b")}
    samples = {
        tag: _parse("--data", nlfd.nlfd_sample, embedder.embed(ds.xs).values, ds.y, errors=nlfd.EmptySampleError,
                    about=f"--embedder-{tag}")
        for tag, embedder in embedders.items()
    }
    a, b = samples["a"], samples["b"]
    z = _parse("--data", nlfd.zscore, (a.mu, a.sigma), (b.mu, b.sigma), errors=UndefinedMetricError,
               about="--embedder-a and --embedder-b")
    out.mkdir(parents=True, exist_ok=True)
    for tag, sample in samples.items():
        rows = [[lo, hi, count] for (lo, hi), count in nlfd.histogram(sample, bins)]
        experiments._write_csv(out / f"nlfd_hist_{tag}.csv", ["bin_lo", "bin_hi", "count"], rows)
    summaries = {t: {"mu": s.mu, "sigma": s.sigma, "n": s.n, "excluded": s.excluded_pairs} for t, s in samples.items()}
    payload = {"z": z, **summaries}
    (out / "nlfd_zscore.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    click.echo(f"z={z:.4f} (positive means embedder B is smoother); wrote {out}")


if __name__ == "__main__":
    main()
