"""Experiment orchestration: seeded, resumable benchmark runs.

Every experiment is a grid of independent cells (task x embedder x seed, plus
an extra axis for some kinds), run by :func:`run_experiment` from its row of
:data:`EXPERIMENTS`. Cell results append to ``records.jsonl``
inside an output directory keyed by the config hash; re-running skips cells
that already completed, so an interrupted run resumes to the same final state.
Summaries are recomputed from the records on every run and are written as
deterministic CSVs (sorted rows, shortest-roundtrip floats) so identical
configs produce byte-identical summary files.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import math
import os
import re
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from itertools import combinations, product
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from . import bbob, metrics
from .embedders import Embedder, build_embedder, canonical_json, check_spec, config_hash
from .featurize import FULL_DICT, VALUES_ONLY, StringFormat
from .jsonl import JsonlLog
from .mlp import TrainConfig, train_and_evaluate
from .nlfd import lipschitz_factors, normalize_embeddings, zscore
from .tasks import (
    MIN_SAMPLES,
    Dataset,
    RegressionTask,
    check_integers,
    from_json,
    ingest_offline,
    load_task,
    sample_uniform,
    split_dataset,
    synthetic_task,
)

GAP_BANDS = (0.5, 1.0, 2.0)
_EMBEDDERS_LOCK = threading.Lock()  # held while a run's embedder is looked up or built


@dataclass(frozen=True)
class ExperimentConfig:
    functions: tuple[str, ...] = bbob.CATALOG
    dofs: tuple[int, ...] = (5, 10, 25, 50, 100)
    offline: tuple[dict, ...] = ()  # entries: {"task": path, "data": path, "family": optional}
    embedders: tuple[dict, ...] = ({"kind": "traditional"},)
    n_samples: int = 500
    seeds: tuple[int, ...] = tuple(range(12))
    string_format: StringFormat = StringFormat()
    train: TrainConfig = TrainConfig()
    sizes: tuple[int, ...] = (50, 100, 200, 400)

    def __post_init__(self) -> None:
        for function_id in self.functions:
            bbob.get(function_id)
        for spec in self.embedders:
            check_spec(spec)
        for entry in self.offline:
            if not (isinstance(entry, dict) and {"task", "data"} <= set(entry) <= {"task", "data", "family"}
                    and all(isinstance(v, str) for v in entry.values())):
                raise ValueError(f"an offline entry takes string task and data and an optional family, got {entry!r}")
        check_integers({**vars(self), "n_samples": (self.n_samples,)}, dofs=None, seeds=0, n_samples=None, sizes=None)
        too_small = [n for n in (self.n_samples, *self.sizes) if n < MIN_SAMPLES]
        if too_small:
            raise ValueError(f"sample sizes {too_small} are below {MIN_SAMPLES}, the fewest rows a split takes")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Resolve a JSON config, so that every spelling of one experiment
        compares (and hashes) equal. Mistakes raise ValueError."""
        string_format = partial(from_json, StringFormat, what="string_format")
        return from_json(cls, d, "config", string_format=string_format, train=TrainConfig.from_overrides)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def config_hash(self) -> str:
        return config_hash(asdict(self))


class RunStore:
    """Append-only record log with cell-level resume.

    A torn last line (a run killed mid-append) is left unread, so its cell
    runs again, and the next append cuts it off.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.log = JsonlLog(self.directory / "records.jsonl", key=itemgetter("cell"),
                            dumps=partial(json.dumps, sort_keys=True))

    @property
    def records(self) -> dict[str, dict]:
        return self.log.index

    def completed(self, cell: str) -> bool:
        rec = self.records.get(cell)
        return rec is not None and rec.get("status") == "ok"

    def append(self, rec: dict) -> None:
        self.log.append([rec])

    def ok_records(self) -> list[dict]:
        """The completed records by seed, size and cell, so that no summary's
        float sums depend on the order the cells completed in."""
        ok = [r for r in self.records.values() if r.get("status") == "ok"]
        return sorted(ok, key=itemgetter("seed", "n", "cell"))

    def failed_records(self) -> list[dict]:
        return [r for r in self.records.values() if r.get("status") != "ok"]


@dataclass(frozen=True)
class TaskInstance:
    family: str
    task: RegressionTask
    dataset: Dataset | None = field(default=None, compare=False, repr=False)  # an offline table; sampled when None

    @property
    def inputs(self):
        """What the instance's inputs depend on: its parameter space when
        sampled, the instance itself when read from an offline table."""
        return self.task.params if self.dataset is None else self


def enumerate_tasks(cfg: ExperimentConfig) -> list[TaskInstance]:
    instances = [
        TaskInstance(family=fn, task=synthetic_task(fn, dof))
        for fn in cfg.functions
        for dof in cfg.dofs
    ]
    for entry in cfg.offline:
        try:  # read once and split for every seed, here, so a table no cell can use is a config error
            task = load_task(entry["task"])
            ds = ingest_offline(entry["data"], task)
            for seed in cfg.seeds:
                split_dataset(ds, seed)
        except (OSError, ValueError) as e:
            raise ValueError(f"offline entry {entry}: {e}") from e
        instances.append(TaskInstance(entry.get("family", task.id), task, ds))
    return instances


def _cell_key(**parts) -> str:
    return ";".join(f"{k}={parts[k]}" for k in sorted(parts))


def _sample_and_split(instance: TaskInstance, n_samples: int, seed: int) -> tuple[int, tuple]:
    """The instance's dataset size and its (train, validation, test) split."""
    ds = sample_uniform(instance.task, n_samples, seed) if instance.dataset is None else instance.dataset
    return len(ds), split_dataset(ds, seed)


def _embed_parts(embedder: Embedder, parts) -> tuple:
    """The read-only matrices of the split."""
    matrices = tuple(embedder.embed(part.xs).values for part in parts)
    for m in matrices:
        m.flags.writeable = False
    return matrices


def run_cell(
    instance: TaskInstance,
    embedder_spec: dict,
    seed: int,
    n_samples: int,
    fmt: StringFormat,
    train: TrainConfig,
    slot: int = 0,
    inputs: dict | None = None,
    embedders: dict | None = None,
) -> dict:
    """Sample (or ingest), split 8-1-1, embed, train, evaluate, and compute the
    roughness-factor summary over the pooled data.

    ``inputs`` holds the splits (by instance) and each embedder with its
    matrices (by slot and string format) of the cell's input set, and
    ``embedders`` the run's embedders (by slot, string format and input
    family); a cell run alone computes its own. A step that raises stores
    nothing.
    """
    started = time.time()
    task = instance.task
    inputs = {} if inputs is None else inputs
    if instance not in inputs:
        inputs[instance] = _sample_and_split(instance, n_samples, seed)
    n, parts = inputs[instance]
    if (slot, fmt) not in inputs:
        embedders = {} if embedders is None else embedders
        with _EMBEDDERS_LOCK:
            key = (slot, fmt, instance.inputs)
            if key not in embedders:
                embedders[key] = build_embedder(embedder_spec, task, fmt)
            embedder = embedders[key]
        inputs[slot, fmt] = embedder, _embed_parts(embedder, parts)
    embedder, matrices = inputs[slot, fmt]
    (m_train, m_val, m_test), (y_train, y_val, y_test) = matrices, [part.y for part in parts]

    _, _, report = train_and_evaluate((m_train, y_train), (m_val, y_val), (m_test, y_test), train, seed)

    sample = lipschitz_factors(normalize_embeddings(np.vstack(matrices)), np.concatenate([y_train, y_val, y_test]))

    return {
        "status": "ok",
        "family": instance.family,
        "task_id": task.id,
        "dof": task.dof,
        "slot": slot,
        "embedder_kind": embedder.kind,
        "embedder": embedder.provenance,
        "seed": seed,
        "n": n,
        "fmt": fmt.variant,
        **report.metrics,
        "chosen_lr": report.chosen_lr,
        "chosen_wd": report.chosen_wd,
        "epochs": report.epochs_run,
        "nlfd_mu": sample.mu,
        "nlfd_sigma": sample.sigma,
        "nlfd_dim": sample.dim,
        "nlfd_excluded": sample.excluded_pairs,
        "elapsed_s": round(time.time() - started, 3),
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _execute_cells(store: RunStore, cells: list[tuple[str, dict]], force: bool, workers: int, echo=None) -> None:
    """Run the cells not yet completed (all of them if ``force``), one unit of
    work per input set, ``workers`` units at a time, appending each record as
    its cell completes."""
    todo = [(key, spec) for key, spec in cells if force or not store.completed(key)]
    if echo:
        echo(f"{len(cells)} cells total, {len(todo)} to run")
    units: dict[tuple, list] = {}
    for key, kw in todo:
        units.setdefault((kw["instance"].inputs, kw["n_samples"], kw["seed"]), []).append((key, kw))
    embedders: dict = {}  # kept for the run, so one transformer memo or remote client serves every unit

    def run_unit(unit):
        inputs: dict = {}  # the unit's splits and embedded matrices
        instance = None
        for key, kwargs in unit:
            if kwargs["instance"] != instance:  # cells run function by function: the last split is dead
                inputs.pop(instance, None)
                instance = kwargs["instance"]
            try:
                rec = run_cell(**kwargs, inputs=inputs, embedders=embedders)
            except Exception as e:  # cell failures must not sink the sweep
                rec = {
                    "status": "error", "error": f"{type(e).__name__}: {e}", "ts": time.strftime("%Y-%m-%dT%H:%M:%S")
                }
            rec["cell"] = key
            store.append(rec)
            if echo:
                echo(f"  {key}: {rec['status']}")

    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:  # one worker runs units in this thread
        list((pool.map if workers > 1 else map)(run_unit, units.values()))


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then ``os.replace``
    it, so a reader sees the old file or the new one, never a torn one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(text.encode("utf-8"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write a header and rows; csv writes each float as its shortest round-trip text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _write_atomic(path, out.getvalue())


def _mean(values) -> float:
    return float(np.mean(np.asarray(list(values), dtype=np.float64)))


def _group(records: list[dict], keys: tuple[str, ...]) -> dict[tuple, list[dict]]:
    grouped: dict[tuple, list[dict]] = {}
    for r in records:
        grouped.setdefault(tuple(r[k] for k in keys), []).append(r)
    return grouped


def _kendall_means(records: list[dict], keys: tuple[str, ...]) -> dict[tuple, tuple[str, int, float]]:
    """``(embedder kind, record count, mean Kendall tau)`` for each value of ``keys``."""
    return {
        key: (group[0]["embedder_kind"], len(group), _mean(r["kendall_tau"] for r in group))
        for key, group in _group(records, keys).items()
    }


def _standard_cells(cfg: ExperimentConfig, instances, *, sizes=None, variants=None):
    """Cross product of tasks, embedders, seeds, and optional extra axes.

    Cells that share an input set (input family, seed and size) are adjacent,
    ordered by function, slot and string format within it.
    """
    sizes = sizes if sizes is not None else [cfg.n_samples]
    base = cfg.string_format
    fmts = [replace(base, variant=v) for v in (variants if variants is not None else [base.variant])]
    families: dict = {}
    for instance in instances:
        families.setdefault(instance.inputs, []).append(instance)
    return [
        (
            _cell_key(family=instance.family, dof=instance.task.dof, slot=slot, seed=seed, n=size, fmt=fmt.variant),
            {
                "instance": instance,
                "embedder_spec": cfg.embedders[slot],
                "slot": slot,
                "seed": seed,
                "n_samples": size,
                "fmt": fmt,
                "train": cfg.train,
            },
        )
        for family in families.values()
        for seed, size, instance, slot, fmt in product(cfg.seeds, sizes, family, range(len(cfg.embedders)), fmts)
    ]


def _write_cells(path: Path, records: list[dict], task_column: str) -> None:
    """One row per cell: its task, embedder slot and kind, seed and Kendall tau."""
    rows = sorted([r["family"], r["dof"], r["slot"], r["embedder_kind"], r["seed"], r["kendall_tau"]] for r in records)
    _write_csv(path, [task_column, "dof", "embedder_slot", "embedder_kind", "seed", "kendall_tau"], rows)


def summarize_dof_sweep(exp_dir: Path, records: list[dict]) -> None:
    """Mean Kendall tau per function, dof and slot; when the completed cells
    fill exactly slots 0 and 1, also each task's smoothness and Kendall gaps."""
    _write_cells(exp_dir / "dof_sweep_cells.csv", records, "function")
    rows = [[*key, *value] for key, value in sorted(_kendall_means(records, ("family", "dof", "slot")).items())]
    header = ["function", "dof", "embedder_slot", "embedder_kind", "runs", "mean_kendall_tau"]
    _write_csv(exp_dir / "dof_sweep_summary.csv", header, rows)
    if {r["slot"] for r in records} == {0, 1}:
        _summarize_nlfd(exp_dir, records)


def summarize_comparison(exp_dir: Path, records: list[dict]) -> None:
    _write_cells(exp_dir / "comparison_cells.csv", records, "family")
    means = _kendall_means(records, ("family", "dof", "slot"))
    kinds = {slot: kind for (_, _, slot), (kind, _, _) in means.items()}
    rows = []
    for family in sorted({family for family, _, _ in means}):
        dofs = sorted({dof for f, dof, _ in means if f == family})
        for slot_a, slot_b in combinations(sorted(kinds), 2):
            paired = [dof for dof in dofs if (family, dof, slot_a) in means and (family, dof, slot_b) in means]
            if not paired:
                continue
            a_scores = [means[family, dof, slot_a][2] for dof in paired]
            b_scores = [means[family, dof, slot_b][2] for dof in paired]
            rows.append([
                family, slot_a, kinds[slot_a], slot_b, kinds[slot_b], len(paired), _mean(a_scores), _mean(b_scores),
                metrics.outperformance_rate(a_scores, b_scores), metrics.outperformance_rate(b_scores, a_scores),
            ])
    header = ["family", "slot_a", "kind_a", "slot_b", "kind_b", "n_tasks", "mean_kendall_a", "mean_kendall_b",
              "pct_a_outperforms", "pct_b_outperforms"]
    _write_csv(exp_dir / "comparison_summary.csv", header, rows)


def _slot_pairs(records: list[dict], keys: tuple[str, ...]) -> list[tuple[tuple, dict, dict]]:
    """``(key, slot-0 record, slot-1 record)`` for each value of ``keys`` that
    has a record in both slots, sorted by key."""
    by_slot = _group(records, (*keys, "slot"))
    return [
        (key, by_slot[(*key, 0)][0], by_slot[(*key, 1)][0])
        for key in sorted({k[:-1] for k in by_slot})
        if (*key, 0) in by_slot and (*key, 1) in by_slot
    ]


def _summarize_nlfd(exp_dir: Path, records: list[dict]) -> None:
    """Write each task's mean slot-0 vs slot-1 z-score and Kendall gap, and,
    from 3 tasks on, the rank and linear correlations between the two."""
    per_task: dict[tuple, list[tuple[float, float]]] = {}
    for (family, dof, _), a, b in _slot_pairs(records, ("family", "dof", "seed")):
        z = zscore((a["nlfd_mu"], a["nlfd_sigma"]), (b["nlfd_mu"], b["nlfd_sigma"]))
        per_task.setdefault((family, dof), []).append((z, b["kendall_tau"] - a["kendall_tau"]))
    scatter = [[*task, _mean(z for z, _ in pairs), _mean(gap for _, gap in pairs)] for task, pairs in per_task.items()]
    _write_csv(exp_dir / "nlfd_scatter.csv", ["function", "dof", "zscore", "kendall_gap"], scatter)
    if len(scatter) >= 3:
        zs = [row[2] for row in scatter]
        gaps = [row[3] for row in scatter]
        row = [len(scatter)]
        for stat in (metrics.kendall_tau, metrics.spearman, metrics.pearson):
            try:
                row.append(stat(zs, gaps))
            except metrics.UndefinedMetricError:  # a series entirely tied, as in an A/A control of one spec twice
                row.append(math.nan)
        _write_csv(exp_dir / "nlfd_correlations.csv", ["n_tasks", "kendall_tau", "spearman", "pearson"], [row])


def summarize_data_scaling(exp_dir: Path, records: list[dict]) -> None:
    gaps: dict[int, list[float]] = {}
    for (size, *_), a, b in _slot_pairs(records, ("n", "family", "dof", "seed")):
        gaps.setdefault(size, []).append(b["kendall_tau"] - a["kendall_tau"])
    rows = []
    for size, size_gaps in gaps.items():
        arr = np.asarray(size_gaps, dtype=np.float64)
        mean, std = float(arr.mean()), float(arr.std())
        bounds = [bound for band in GAP_BANDS for bound in (mean - band * std, mean + band * std)]
        rows.append([size, len(size_gaps), mean, std, *bounds])
    header = ["size", "records", "mean_gap", "std_gap", *(f"{e}_{band}" for band in GAP_BANDS for e in ("lo", "hi"))]
    _write_csv(exp_dir / "data_scaling_summary.csv", header, rows)


def summarize_ablation(exp_dir: Path, records: list[dict]) -> None:
    means = _kendall_means(records, ("family", "dof", "slot", "fmt"))
    rows = []
    for (family, dof, slot, fmt_variant), (kind, runs, mean_tau) in sorted(means.items()):
        base = means.get((family, dof, 0, FULL_DICT))
        delta = mean_tau - base[2] if base is not None else float("nan")
        rows.append([family, dof, slot, kind, fmt_variant, runs, mean_tau, delta])
    header = ["family", "dof", "embedder_slot", "embedder_kind", "string_format", "runs", "mean_kendall_tau",
              "delta_vs_baseline"]
    _write_csv(exp_dir / "ablation_summary.csv", header, rows)


@dataclass(frozen=True)
class Experiment:
    """One experiment kind: how the engine checks the config, which cells it
    runs, and which summarizer turns the records into CSVs. :func:`plan`
    refuses a config field that the row does not read, set off its default."""

    help: str
    summarizer: str  # a module function's name, looked up at call time so tracers can wrap it
    embedders: tuple[int, float] = (0, math.inf)  # allowed number of embedder specs
    synthetic_only: bool = False  # does not read ``cfg.offline``
    sizes: bool = False  # one cell per ``cfg.sizes`` entry instead of ``cfg.n_samples``
    variants: tuple[str, ...] | None = None  # string-format variants to cross, else the config's


#: Every experiment kind, keyed by its CLI command and directory prefix.
EXPERIMENTS = {
    "sweep-dof": Experiment(
        "Kendall-tau vs input dimension; with 2 embedders, smoothness gaps vs performance gaps too.",
        "summarize_dof_sweep",
        synthetic_only=True,
    ),
    "compare": Experiment(
        "Pairwise embedder comparison with outperformance percentages.",
        "summarize_comparison",
        embedders=(2, math.inf),
    ),
    "scale-data": Experiment(
        "Embedder performance gap as the training set grows.",
        "summarize_data_scaling",
        embedders=(2, 2),
        synthetic_only=True,  # an offline table has one size, whatever ``sizes`` asks
        sizes=True,
    ),
    "ablate": Experiment(
        "Backends x string formats over the same tasks.",
        "summarize_ablation",
        variants=(FULL_DICT, VALUES_ONLY),
    ),
}


def plan(kind: str, cfg: ExperimentConfig) -> list[tuple[str, dict]]:
    """The cells of one :data:`EXPERIMENTS` kind over ``cfg``.

    Config mistakes (a field the kind does not read set off its default,
    among them offline entries on a synthetic-only kind, embedder count, an
    offline file that cannot be read or split, no cells or one cell key
    twice) raise ValueError.
    """
    exp = EXPERIMENTS[kind]
    samples = not exp.sizes and cfg.functions and cfg.dofs  # a config that samples no task reads no n_samples
    for name, read in (("offline", not exp.synthetic_only), ("sizes", exp.sizes), ("n_samples", samples),
                       ("string_format.variant", not exp.variants)):
        if not read and attrgetter(name)(cfg) != attrgetter(name)(ExperimentConfig()):
            raise ValueError(f"{kind} does not read the config field {name!r}: leave it out or at its default")
    low, high = exp.embedders
    if not low <= len(cfg.embedders) <= high:
        raise ValueError(f"{kind} needs {'exactly' if low == high else 'at least'} {low} embedder specs")
    instances = enumerate_tasks(cfg)
    cells = _standard_cells(cfg, instances, sizes=cfg.sizes if exp.sizes else None, variants=exp.variants)
    if not cells:
        raise ValueError(f"{kind} plans no cells: tasks, seeds, embedder specs and sizes must each be non-empty")
    repeated = next((key for key, count in Counter(key for key, _ in cells).items() if count > 1), None)
    if repeated:
        raise ValueError(
            f"cell {repeated} is planned more than once: a function, dof, seed or size is repeated, or "
            "offline entries share a family and dof (give each a distinct 'family')"
        )
    return cells


class RunInUseError(RuntimeError):
    """Another run or report holds the run directory's lock."""


@contextmanager
def _locked(directory: Path):
    """Hold an exclusive ``flock`` on ``directory/.lock`` for the block, or
    raise :class:`RunInUseError` at once if anyone else holds it. The file
    stays; the kernel drops the lock when its holder exits, even by a kill."""
    path = directory / ".lock"
    with open(path, "a") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RunInUseError(f"run directory is in use: another run or report holds {path}") from None
        yield


def run_experiment(kind: str, cfg: ExperimentConfig, out_root, force=False, workers=1, echo=None, cells=None) -> Path:
    """Run the cells of one :data:`EXPERIMENTS` kind into
    ``out_root/<kind>-<config hash>``, skipping completed ones unless
    ``force``, then write its summaries and ``status.json``, all under the
    directory's lock.

    ``cells`` is ``plan(kind, cfg)`` if the caller made it; otherwise config
    mistakes raise ValueError from :func:`plan` here, before any cell runs.
    """
    cells = plan(kind, cfg) if cells is None else cells
    directory = Path(out_root) / f"{kind}-{cfg.config_hash()}"
    directory.mkdir(parents=True, exist_ok=True)
    with _locked(directory):
        store = RunStore(directory)
        _write_atomic(directory / "config.json", canonical_json(asdict(cfg)) + "\n")
        _execute_cells(store, cells, force, workers, echo)
        _summarize(kind, store, echo)
    return directory


run_dof_sweep = partial(run_experiment, "sweep-dof")
run_comparison = partial(run_experiment, "compare")
run_data_scaling = partial(run_experiment, "scale-data")


def _summarize(kind: str, store: RunStore, echo=None) -> None:
    """Write ``status.json`` of a run directory, then its summary CSVs, so a
    summarizer that fails still leaves the run's counts."""
    records, failed = store.ok_records(), store.failed_records()
    status = {
        "ok": len(records),
        "failed": len(failed),
        "failed_cells": sorted(r["cell"] for r in failed),
    }
    _write_atomic(store.directory / "status.json", json.dumps(status, indent=2) + "\n")
    globals()[EXPERIMENTS[kind].summarizer](store.directory, records)
    if failed and echo:
        echo(f"warning: {len(failed)} cells failed; see status.json")


def experiment_kind(exp_dir) -> str:
    """The :data:`EXPERIMENTS` kind of a run directory named
    ``<kind>-<config hash>`` that holds ``records.jsonl``; ValueError for any
    other directory."""
    kind, _, digest = Path(exp_dir).name.rpartition("-")
    if kind not in EXPERIMENTS or not re.fullmatch("[0-9a-f]{12}", digest):  # the form config_hash writes
        raise ValueError(f"cannot infer experiment type from directory name {Path(exp_dir).name!r}")
    if not (Path(exp_dir) / "records.jsonl").is_file():
        raise ValueError(f"{exp_dir} holds no records.jsonl")
    return kind


def regenerate_summaries(exp_dir) -> None:
    """Rebuild summary CSVs for an existing experiment directory, under its lock."""
    kind = experiment_kind(exp_dir)
    with _locked(Path(exp_dir)):
        _summarize(kind, RunStore(exp_dir))
