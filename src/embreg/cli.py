"""Command-line harness for running benchmark experiments and one-off steps."""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import click
import numpy as np

from . import experiments, nlfd
from .embedders import build_embedder
from .featurize import StringFormat
from .mlp import TrainConfig, save_model, train_and_evaluate
from .tasks import (
    ingest_offline,
    load_task,
    sample_uniform,
    save_task,
    split_dataset,
    synthetic_task,
    write_dataset_csv,
)


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
        return load_task(task_file)
    if function and dof:
        return synthetic_task(function, dof)
    raise click.UsageError("provide --task FILE or both --function and --dof")


def _string_format(string_format: str, float_sig_digits: int, space_after_comma: bool) -> StringFormat:
    variant = {"full": "full_dict", "values": "values_only"}[string_format]
    return StringFormat(
        variant=variant, float_precision=float_sig_digits, space_after_comma=space_after_comma
    )


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Experiment config JSON (used by experiment subcommands).")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for one-off steps.")
@click.option("--out", "out_dir", type=click.Path(), default="runs", show_default=True,
              help="Output directory.")
@click.option("--force", is_flag=True, help="Re-run cells that already completed.")
@click.option("--workers", type=int, default=1, show_default=True,
              help="Parallel cells for experiment subcommands.")
@click.pass_context
def main(ctx, config_path, seed, out_dir, force, workers):
    """Benchmark harness for regression over different input representations."""
    ctx.ensure_object(dict)
    ctx.obj.update(
        config_path=config_path, seed=seed, out=Path(out_dir), force=force, workers=workers
    )


def _run_experiment(kind: str) -> None:
    ctx = click.get_current_context()
    if not ctx.obj["config_path"]:
        raise click.UsageError("this subcommand requires --config")
    cfg = experiments.ExperimentConfig.from_file(ctx.obj["config_path"])
    exp_dir = experiments.run_experiment(
        kind, cfg, ctx.obj["out"], force=ctx.obj["force"], workers=ctx.obj["workers"], echo=click.echo
    )
    click.echo(f"results in {exp_dir}")


for _kind, _experiment in experiments.EXPERIMENTS.items():
    main.add_command(click.Command(_kind, callback=partial(_run_experiment, _kind), help=_experiment.help))


@main.command()
@click.argument("exp_dir", type=click.Path(exists=True))
@click.option("--clamp-kendall", is_flag=True,
              help="Clip displayed kendall_tau into [0, 1]; records keep raw values.")
def report(exp_dir, clamp_kendall):
    """Rebuild summary CSVs from an experiment directory's records."""
    experiments.regenerate_summaries(exp_dir, clamp_kendall=clamp_kendall)
    click.echo(f"summaries regenerated in {exp_dir}")


@main.command()
@click.option("--task", "task_file", type=click.Path(exists=True), default=None)
@click.option("--function", default=None, help="Benchmark function id for a synthetic task.")
@click.option("--dof", type=int, default=None)
@click.option("-n", "--num-samples", type=int, default=500, show_default=True)
@click.pass_context
def sample(ctx, task_file, function, dof, num_samples):
    """Sample a synthetic task uniformly and write task.json + data.csv."""
    task = _resolve_task(task_file, function, dof)
    ds = sample_uniform(task, num_samples, ctx.obj["seed"])
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    save_task(task, out / "task.json")
    write_dataset_csv(ds, task, out / "data.csv")
    click.echo(f"wrote {out / 'task.json'} and {out / 'data.csv'} ({len(ds)} rows)")


@main.command()
@click.option("--task", "task_file", type=click.Path(exists=True), required=True)
@click.option("--data", "data_file", type=click.Path(exists=True), required=True)
@click.option("--embedder", required=True, help="Backend kind, inline JSON, or @spec.json.")
@click.option("--string-format", type=click.Choice(["full", "values"]), default="full",
              show_default=True)
@click.option("--float-sig-digits", type=int, default=4, show_default=True)
@click.option("--space-after-comma", is_flag=True)
@click.pass_context
def embed(ctx, task_file, data_file, embedder, string_format, float_sig_digits, space_after_comma):
    """Embed an offline data file; writes embeddings.npz."""
    task = load_task(task_file)
    ds = ingest_offline(data_file, task)
    fmt = _string_format(string_format, float_sig_digits, space_after_comma)
    backend = build_embedder(_load_embedder_spec(embedder), task, fmt)
    matrix = backend.embed(ds.xs)
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / "embeddings.npz", values=matrix.values, provenance=matrix.provenance)
    click.echo(f"wrote {out / 'embeddings.npz'} ({matrix.rows}x{matrix.dim}, {matrix.provenance})")


@main.command()
@click.option("--task", "task_file", type=click.Path(exists=True), required=True)
@click.option("--data", "data_file", type=click.Path(exists=True), required=True)
@click.option("--embedder", required=True)
@click.option("--string-format", type=click.Choice(["full", "values"]), default="full",
              show_default=True)
@click.option("--float-sig-digits", type=int, default=4, show_default=True)
@click.option("--space-after-comma", is_flag=True)
@click.option("--train-config", default=None, help="Inline JSON overrides for training.")
@click.pass_context
def train(ctx, task_file, data_file, embedder, string_format, float_sig_digits,
          space_after_comma, train_config):
    """Train the MLP head on an embedded dataset; writes model.npz + report.json."""
    task = load_task(task_file)
    ds = ingest_offline(data_file, task)
    seed = ctx.obj["seed"]
    train_ds, val_ds, test_ds = split_dataset(ds, experiments.SPLIT_RATIOS, seed)
    fmt = _string_format(string_format, float_sig_digits, space_after_comma)
    backend = build_embedder(_load_embedder_spec(embedder), task, fmt)
    overrides = json.loads(train_config) if train_config else {}
    cfg = TrainConfig.from_overrides({**overrides, "seed": seed})
    model, normalizer, rep = train_and_evaluate(
        (backend.embed(train_ds.xs), train_ds.y),
        (backend.embed(val_ds.xs), val_ds.y),
        (backend.embed(test_ds.xs), test_ds.y),
        cfg,
    )
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model.npz", model, normalizer, backend.provenance)
    (out / "report.json").write_text(json.dumps(rep.as_dict(), indent=2) + "\n", encoding="utf-8")
    click.echo(f"test kendall_tau={rep.metrics['kendall_tau']:.4f}; wrote {out / 'model.npz'}")


@main.command("nlfd")
@click.option("--task", "task_file", type=click.Path(exists=True), required=True)
@click.option("--data", "data_file", type=click.Path(exists=True), required=True)
@click.option("--embedder-a", required=True)
@click.option("--embedder-b", required=True)
@click.option("--bins", type=int, default=20, show_default=True)
@click.option("--string-format", type=click.Choice(["full", "values"]), default="full",
              show_default=True)
@click.option("--float-sig-digits", type=int, default=4, show_default=True)
@click.option("--export-distances", is_flag=True,
              help="Also write all pairwise embedding distances per embedder.")
@click.pass_context
def nlfd_cmd(ctx, task_file, data_file, embedder_a, embedder_b, bins, string_format,
             float_sig_digits, export_distances):
    """Roughness-factor histograms for two embedders plus their z-score."""
    task = load_task(task_file)
    ds = ingest_offline(data_file, task)
    fmt = _string_format(string_format, float_sig_digits, False)
    out = ctx.obj["out"]
    out.mkdir(parents=True, exist_ok=True)

    samples = {}
    for tag, spec in (("a", embedder_a), ("b", embedder_b)):
        backend = build_embedder(_load_embedder_spec(spec), task, fmt)
        matrix = backend.embed(ds.xs)
        sample_ = nlfd.nlfd_sample(matrix, ds.y)
        samples[tag] = sample_
        rows = [[lo, hi, count] for (lo, hi), count in nlfd.histogram(sample_, bins)]
        experiments._write_csv(out / f"nlfd_hist_{tag}.csv", ["bin_lo", "bin_hi", "count"], rows)
        if export_distances:
            records = nlfd.pairwise_distance_export(matrix, ds.y)
            experiments._write_csv(
                out / f"nlfd_distances_{tag}.csv",
                ["i", "j", "distance", "y_i", "y_j"],
                [list(r) for r in records],
            )

    comparison = nlfd.nlfd_zscore(samples["a"], samples["b"])
    payload = {
        "z": comparison.z,
        "a": {"mu": comparison.a_summary[0], "sigma": comparison.a_summary[1],
              "n": comparison.a_summary[2], "excluded": samples["a"].excluded_pairs},
        "b": {"mu": comparison.b_summary[0], "sigma": comparison.b_summary[1],
              "n": comparison.b_summary[2], "excluded": samples["b"].excluded_pairs},
    }
    (out / "nlfd_zscore.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    click.echo(f"z={comparison.z:.4f} (positive means embedder B is smoother); wrote {out}")


if __name__ == "__main__":
    main()
