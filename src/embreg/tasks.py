"""Regression tasks: parameter spaces, datasets, sampling, and splits.

A task couples an ordered parameter space with an objective source, either a
synthetic benchmark function or an offline table of evaluations. All types are
immutable after construction; sampling and splitting are pure functions of
their arguments and a seed.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import bbob


class UnsupportedSourceError(ValueError):
    """Operation requires a different task source."""


class SchemaError(ValueError):
    """An input file does not match the expected column layout."""


class ValidationError(ValueError):
    """A value does not satisfy the owning task's parameter specs."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class SplitError(ValueError):
    """A dataset too short to split, or whose test split ties every target."""


SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, validation, test
MIN_SAMPLES = 20  # smallest n whose SPLIT_RATIOS split keeps 2 validation and 2 test points


def check_integers(values: dict, **minimums: int | None) -> None:
    """Raise ValueError unless each key of ``minimums`` that ``values`` holds
    is an integer, not a bool, of at least its minimum (None: any integer);
    a tuple's items are checked one by one."""
    for name, minimum in minimums.items():
        value = values.get(name, ())
        many = isinstance(value, tuple)
        bad = [v for v in (value if many else (value,)) if isinstance(v, bool) or not isinstance(v, numbers.Integral)
               or (minimum is not None and v < minimum)]
        if bad:
            rule = {None: "", 0: "non-negative ", 1: "positive "}[minimum]
            raise ValueError(f"{name} must be {rule}integers, got {bad}" if many
                             else f"{name} must be a {rule}integer, got {value!r}")


def from_json(cls, d, what: str, **nested):
    """``cls(**d)`` for a JSON object ``d``, whose unknown keys raise
    ValueError naming ``what``. A field with a tuple default takes a list,
    passed on as a tuple; ``nested[key]`` resolves the value of ``key``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object, got {d!r}")
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    values = {}
    for key, value in d.items():
        if isinstance(cls.__dataclass_fields__[key].default, tuple):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{what} field {key!r} must be a list, got {value!r}")
            value = tuple(value)
        values[key] = nested[key](value) if key in nested else value
    return cls(**values)


CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class ParamSpec:
    """One named parameter: a bounded real or a categorical choice."""

    name: str
    kind: str
    lo: float | None = None
    hi: float | None = None
    choices: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("param name must be non-empty")
        if self.kind == CONTINUOUS:
            if self.lo is None or self.hi is None or not (self.lo < self.hi):
                raise ValueError(f"param {self.name!r}: continuous bounds require lo < hi")
            if self.choices is not None:
                raise ValueError(f"param {self.name!r}: continuous params take no choices")
        elif self.kind == CATEGORICAL:
            if not self.choices:
                raise ValueError(f"param {self.name!r}: categorical params need choices")
            if len(set(self.choices)) != len(self.choices):
                raise ValueError(f"param {self.name!r}: duplicate choices")
            if self.lo is not None or self.hi is not None:
                raise ValueError(f"param {self.name!r}: categorical params take no bounds")
        else:
            raise ValueError(f"param {self.name!r}: unknown kind {self.kind!r}")

    @classmethod
    def continuous(cls, name: str, lo: float, hi: float) -> "ParamSpec":
        return cls(name=name, kind=CONTINUOUS, lo=float(lo), hi=float(hi))

    @classmethod
    def categorical(cls, name: str, choices) -> "ParamSpec":
        return cls(name=name, kind=CATEGORICAL, choices=tuple(choices))


@dataclass(frozen=True)
class RegressionTask:
    """An objective over an ordered parameter space.

    The declaration order of ``params`` is canonical: featurization and string
    serialization both follow it, so every representation of an input uses one
    consistent key ordering. ``function`` is the benchmark function's id; a
    task without one is offline, its data read from a table.
    """

    id: str
    params: tuple[ParamSpec, ...]
    function: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("task id must be non-empty")
        if not self.params:
            raise ValueError("task needs at least one param")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("param names must be unique within a task")
        if self.function is not None:
            bbob.get(self.function)  # unknown ids fail at construction
            for p in self.params:
                if p.kind != CONTINUOUS or p.lo != bbob.LOWER_BOUND or p.hi != bbob.UPPER_BOUND:
                    raise ValueError(
                        "synthetic tasks require continuous params bounded "
                        f"[{bbob.LOWER_BOUND}, {bbob.UPPER_BOUND}]"
                    )

    @property
    def dof(self) -> int:
        return len(self.params)

    @cached_property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @cached_property
    def name_set(self) -> frozenset[str]:
        return frozenset(self.param_names)


def synthetic_task(function_id: str, dof: int) -> RegressionTask:
    """Build a task for a catalog benchmark function at the given dimension."""
    bbob.make(function_id, dof)  # validates id and dof
    params = tuple(
        ParamSpec.continuous(f"x{i}", bbob.LOWER_BOUND, bbob.UPPER_BOUND) for i in range(dof)
    )
    return RegressionTask(id=f"{function_id}-dof{dof}", params=params, function=function_id)


@dataclass(frozen=True)
class Dataset:
    """Input assignments and their objective values, row for row. Treat each
    ``xs`` dict as read-only."""

    xs: tuple[dict, ...]
    y: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.y)


def validate_assignment(task: RegressionTask, x: dict, row: int | None = None) -> None:
    """Check that ``x`` assigns every param of ``task`` exactly once, in range."""
    if x.keys() != task.name_set:
        extra = set(x) - task.name_set
        if extra:
            raise ValidationError(f"unknown params: {sorted(extra)}", row)
        raise ValidationError(f"missing params: {sorted(task.name_set - set(x))}", row)
    for p in task.params:
        v = x[p.name]
        if p.kind == CONTINUOUS:
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValidationError(f"param {p.name!r}: expected a finite number, got {v!r}", row)
            if not (p.lo <= v <= p.hi):
                raise ValidationError(
                    f"param {p.name!r}: value {v!r} outside [{p.lo}, {p.hi}]", row
                )
        else:
            if v not in p.choices:
                raise ValidationError(f"param {p.name!r}: unknown choice {v!r}", row)


def sample_uniform(task: RegressionTask, n: int, seed: int) -> Dataset:
    """Draw n inputs i.i.d. uniform over the box and evaluate the objective.

    Pure function of (task, n, seed): repeated calls return bit-identical data.
    """
    if task.function is None:
        raise UnsupportedSourceError("sample_uniform requires a synthetic task")
    if n < 1:
        raise ValueError("n must be >= 1")
    fn = bbob.make(task.function, task.dof)
    rng = np.random.default_rng(seed)
    lows = np.array([p.lo for p in task.params])
    highs = np.array([p.hi for p in task.params])
    points = rng.uniform(lows, highs, size=(n, task.dof))
    names = task.param_names
    return Dataset(xs=tuple(dict(zip(names, row)) for row in points.tolist()), y=tuple(fn.evaluate_rows(points)))


def split_dataset(ds: Dataset, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Shuffle deterministically, then cut into train/validation/test.

    Partition sizes are floor(n * ratio) of :data:`SPLIT_RATIOS` for
    validation and test, with the remainder going to train. The three outputs
    are disjoint and together contain every input row exactly once. A test
    split whose targets all tie, which no metric can score, raises SplitError.
    """
    n = len(ds)
    if n < MIN_SAMPLES:
        raise SplitError(f"a split needs at least {MIN_SAMPLES} rows, got {n}")
    n_val = int(n * SPLIT_RATIOS[1])
    n_test = int(n * SPLIT_RATIOS[2])
    n_train = n - n_val - n_test
    perm = np.random.default_rng(seed).permutation(n).tolist()
    parts = (perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :])
    train, val, test = (Dataset(xs=tuple(ds.xs[i] for i in part), y=tuple(ds.y[i] for i in part)) for part in parts)
    if len(set(test.y)) == 1:
        raise SplitError(f"the test split of seed {seed} ties every target at {test.y[0]!r}; no metric can score it")
    return train, val, test


# ---------------------------------------------------------------------------
# File formats: task spec (JSON) and offline data (CSV, params... then y).


def task_to_dict(task: RegressionTask) -> dict:
    params = []
    for p in task.params:
        if p.kind == CONTINUOUS:
            params.append({"name": p.name, "kind": p.kind, "lo": p.lo, "hi": p.hi})
        else:
            params.append({"name": p.name, "kind": p.kind, "choices": list(p.choices)})
    source = {"kind": "offline"} if task.function is None else {"kind": "synthetic", "function": task.function}
    return {"id": task.id, "params": params, "source": source}


_PARAM_FIELDS = {CONTINUOUS: {"name", "kind", "lo", "hi"}, CATEGORICAL: {"name", "kind", "choices"}}


def _fields(d, fields: set, what: str) -> None:
    """Raise SchemaError unless ``d`` is a JSON object with exactly ``fields``."""
    if not isinstance(d, dict):
        raise SchemaError(f"{what} must be an object, got {d!r}")
    if set(d) - fields:
        raise SchemaError(f"unknown {what} fields: {sorted(set(d) - fields)}")
    if fields - set(d):
        raise SchemaError(f"{what} missing field: {sorted(fields - set(d))[0]!r}")


def _param_from_dict(p) -> ParamSpec:
    if not isinstance(p, dict) or p.get("kind") not in _PARAM_FIELDS:
        kinds = f"{CONTINUOUS!r} or {CATEGORICAL!r}"
        raise SchemaError(f"a param must be an object whose field 'kind' is {kinds}, got {p!r}")
    _fields(p, _PARAM_FIELDS[p["kind"]], f"{p['kind']} param")
    if not isinstance(p["name"], str):
        raise SchemaError(f"param field 'name' must be a string, got {p['name']!r}")
    if p["kind"] == CATEGORICAL:
        if not (isinstance(p["choices"], list) and all(isinstance(c, str) for c in p["choices"])):
            raise SchemaError(f"param {p['name']!r}: field 'choices' must be a list of strings, got {p['choices']!r}")
        return ParamSpec.categorical(p["name"], p["choices"])
    for key in ("lo", "hi"):
        if isinstance(p[key], bool) or not isinstance(p[key], (int, float)):
            raise SchemaError(f"param {p['name']!r}: field {key!r} must be a number, got {p[key]!r}")
    return ParamSpec.continuous(p["name"], p["lo"], p["hi"])


def task_from_dict(d) -> RegressionTask:
    """The task a JSON task spec describes; SchemaError names the field of a
    malformed spec, and an invalid task raises ValueError."""
    _fields(d, {"id", "params", "source"}, "task spec")
    if not isinstance(d["id"], str):
        raise SchemaError(f"task spec field 'id' must be a string, got {d['id']!r}")
    if not isinstance(d["params"], list):
        raise SchemaError(f"task spec field 'params' must be a list, got {d['params']!r}")
    source = d["source"]
    if source == {"kind": "offline"}:
        function = None
    elif (isinstance(source, dict) and source.keys() == {"kind", "function"}
          and source["kind"] == "synthetic" and isinstance(source["function"], str)):
        function = source["function"]
    else:
        shapes = '{"kind": "offline"} or {"kind": "synthetic", "function": <id>}'
        raise SchemaError(f"task source must be {shapes}, got {source!r}")
    return RegressionTask(id=d["id"], params=tuple(_param_from_dict(p) for p in d["params"]), function=function)


def load_task(path) -> RegressionTask:
    with open(path, encoding="utf-8") as f:
        return task_from_dict(json.load(f))


def save_task(task: RegressionTask, path) -> None:
    Path(path).write_text(json.dumps(task_to_dict(task), indent=2) + "\n", encoding="utf-8")


def ingest_offline(path, task: RegressionTask) -> Dataset:
    """Read a delimited evaluation table, validating every row against the task.

    Expected layout: a header with one column per param plus a final ``y``
    column. Rows keep their file order. Any unknown column, missing param,
    out-of-range value, or non-finite y aborts with the offending row named;
    nothing is clamped or skipped silently.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("offline data file is empty") from None
        if len(header) != len(set(header)):
            raise SchemaError(f"duplicate columns in header: {header}")
        if not header or header[-1] != "y":
            raise SchemaError("last column must be 'y'")
        param_cols = header[:-1]
        extra = set(param_cols) - set(task.param_names)
        if extra:
            raise SchemaError(f"unknown columns: {sorted(extra)}")
        missing = set(task.param_names) - set(param_cols)
        if missing:
            raise SchemaError(f"missing param columns: {sorted(missing)}")
        specs = {p.name: p for p in task.params}

        xs, ys = [], []
        for i, cells in enumerate(reader, start=1):
            if len(cells) != len(header):
                raise ValidationError(f"expected {len(header)} cells, got {len(cells)}", row=i)
            x = {}
            for name, cell in zip(param_cols, cells[:-1]):
                if specs[name].kind == CONTINUOUS:
                    try:
                        x[name] = float(cell)
                    except ValueError:
                        raise ValidationError(
                            f"param {name!r}: not a number: {cell!r}", row=i
                        ) from None
                else:
                    x[name] = cell
            try:
                y = float(cells[-1])
            except ValueError:
                raise ValidationError(f"y is not a number: {cells[-1]!r}", row=i) from None
            validate_assignment(task, x, row=i)
            if not math.isfinite(y):
                raise ValidationError(f"y must be finite, got {y!r}", row=i)
            xs.append(x)
            ys.append(y)
    return Dataset(xs=tuple(xs), y=tuple(ys))


def write_dataset_csv(ds: Dataset, task: RegressionTask, path) -> None:
    """Write a dataset in the offline-data layout (params in declared order, then y)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(list(task.param_names) + ["y"])
        for x, y in zip(ds.xs, ds.y):  # csv writes each float as its shortest round-trip text
            writer.writerow([x[name] for name in task.param_names] + [y])
