import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embreg import tasks
from embreg.tasks import (
    ParamSpec,
    RegressionTask,
    SchemaError,
    SplitError,
    UnsupportedSourceError,
    ValidationError,
)


def test_param_spec_validation():
    with pytest.raises(ValueError):
        ParamSpec.continuous("p", 1.0, 1.0)
    with pytest.raises(ValueError):
        ParamSpec.categorical("p", [])
    with pytest.raises(ValueError):
        ParamSpec.categorical("p", ["a", "a"])
    with pytest.raises(ValueError):
        ParamSpec(name="", kind="continuous", lo=0.0, hi=1.0)


def test_task_requires_unique_param_names():
    with pytest.raises(ValueError, match="unique"):
        RegressionTask(
            id="t",
            params=(ParamSpec.continuous("a", 0, 1), ParamSpec.continuous("a", 0, 1)),
        )


def test_synthetic_task_shape():
    t = tasks.synthetic_task("sphere", 4)
    assert t.dof == 4
    assert t.param_names == ("x0", "x1", "x2", "x3")
    assert all(p.lo == -5.0 and p.hi == 5.0 for p in t.params)


def test_synthetic_task_rejects_bad_bounds():
    with pytest.raises(ValueError, match="synthetic"):
        RegressionTask(
            id="t",
            params=(ParamSpec.continuous("a", 0, 1),),
            function="sphere",
        )


def test_sample_uniform_values_and_domain():
    t = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(t, 3, seed=7)
    assert len(ds) == 3
    for x, y in zip(ds.xs, ds.y):
        assert all(-5.0 <= v <= 5.0 for v in x.values())
        assert y == sum(v * v for v in x.values())


def test_sample_uniform_deterministic():
    t = tasks.synthetic_task("sphere", 5)
    a = tasks.sample_uniform(t, 500, seed=0)
    b = tasks.sample_uniform(t, 500, seed=0)
    assert a == b
    c = tasks.sample_uniform(t, 500, seed=1)
    assert a != c


def test_sample_uniform_coordinate_means_near_zero():
    # Mean of uniform(-5, 5) is 0 with sd 10/sqrt(12); 500 draws keep the
    # empirical mean well within 0.5.
    t = tasks.synthetic_task("rastrigin", 10)
    ds = tasks.sample_uniform(t, 500, seed=1)
    coords = np.array([[x[name] for name in t.param_names] for x in ds.xs])
    assert np.all(np.abs(coords.mean(axis=0)) < 0.5)


def test_sample_uniform_coverage():
    t = tasks.synthetic_task("sphere", 3)
    ds = tasks.sample_uniform(t, 10_000, seed=3)
    coords = np.array([[x[name] for name in t.param_names] for x in ds.xs])
    assert np.all(coords.min(axis=0) < -4.9)
    assert np.all(coords.max(axis=0) > 4.9)


def test_sample_uniform_rejects_offline_task():
    t = RegressionTask(
        id="off",
        params=(ParamSpec.continuous("a", 0, 1),),
    )
    with pytest.raises(UnsupportedSourceError):
        tasks.sample_uniform(t, 5, seed=0)


def test_split_sizes_500():
    t = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(t, 500, seed=0)
    tr, va, te = tasks.split_dataset(ds, seed=3)
    assert (len(tr), len(va), len(te)) == (400, 50, 50)


def test_split_sizes_20():
    t = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(t, 20, seed=0)
    tr, va, te = tasks.split_dataset(ds, seed=0)
    assert (len(tr), len(va), len(te)) == (16, 2, 2)


def test_split_deterministic():
    t = tasks.synthetic_task("sphere", 3)
    ds = tasks.sample_uniform(t, 50, seed=0)
    first = tasks.split_dataset(ds, seed=5)
    second = tasks.split_dataset(ds, seed=5)
    assert first == second


def test_split_rejects_fewer_than_min_samples_rows():
    small = tasks.sample_uniform(tasks.synthetic_task("sphere", 2), tasks.MIN_SAMPLES - 1, seed=0)
    with pytest.raises(SplitError, match="at least 20 rows, got 19"):
        tasks.split_dataset(small, seed=0)


def test_split_refuses_a_test_split_whose_targets_all_tie():
    """y is 1.0 on the first two of 40 rows: the test split of seed 0 (rows 29, 33, 15, 31) ties at 0.0,
    and seed 2's (rows 35, 36, 8, 1) holds row 1, so it splits as the permutation says."""
    sampled = tasks.sample_uniform(tasks.synthetic_task("sphere", 2), 40, seed=0)
    ds = tasks.Dataset(xs=sampled.xs, y=tuple(1.0 if i < 2 else 0.0 for i in range(40)))
    with pytest.raises(SplitError, match=r"the test split of seed 0 ties every target at 0\.0"):
        tasks.split_dataset(ds, seed=0)
    perm = np.random.default_rng(2).permutation(40).tolist()
    parts = tasks.split_dataset(ds, seed=2)
    assert [part.xs for part in parts] == [tuple(ds.xs[i] for i in p) for p in (perm[:32], perm[32:36], perm[36:])]
    assert parts[2].y == (0.0, 0.0, 0.0, 1.0)


def test_synthetic_task_refuses_rosenbrock_at_dof_1():
    with pytest.raises(ValueError, match="rosenbrock is 0 everywhere at dof 1; it needs dof >= 2"):
        tasks.synthetic_task("rosenbrock", 1)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(tasks.MIN_SAMPLES, 200), seed=st.integers(0, 2**31 - 1))
def test_split_partition_property(n, seed):
    t = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(t, n, seed=0)
    tr, va, te = tasks.split_dataset(ds, seed=seed)
    assert len(tr) + len(va) + len(te) == n and min(len(va), len(te)) >= 2
    key = lambda x, y: tuple(sorted(x.items())) + (y,)
    merged = sorted(key(x, y) for part in (tr, va, te) for x, y in zip(part.xs, part.y))
    assert merged == sorted(key(x, y) for x, y in zip(ds.xs, ds.y))


def _categorical_task():
    return RegressionTask(
        id="cat",
        params=(
            ParamSpec.continuous("lr", 0.0, 1.0),
            ParamSpec.categorical("act", ["relu", "tanh"]),
        ),
    )


def test_ingest_offline_roundtrip(tmp_path):
    task = _categorical_task()
    path = tmp_path / "data.csv"
    rows = ["lr,act,y"] + [f"0.{i},relu,{i}" for i in range(1, 10)] + ["0.5,tanh,10.5"]
    path.write_text("\n".join(rows) + "\n")
    ds = tasks.ingest_offline(path, task)
    assert len(ds) == 10
    assert ds.xs[0] == {"lr": 0.1, "act": "relu"}
    assert ds.y[-1] == 10.5


def test_ingest_offline_names_bad_row(tmp_path):
    task = _categorical_task()
    path = tmp_path / "data.csv"
    for y in ("NaN", "inf"):
        rows = ["lr,act,y"] + [f"0.{i},relu,{i}" for i in range(1, 10)]
        rows[7] = f"0.7,relu,{y}"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="row 7: y must be finite"):
            tasks.ingest_offline(path, task)


def test_ingest_offline_unknown_column(tmp_path):
    task = _categorical_task()
    path = tmp_path / "data.csv"
    path.write_text("lr,act,extra,y\n0.1,relu,1,2\n")
    with pytest.raises(SchemaError, match="extra"):
        tasks.ingest_offline(path, task)


def test_ingest_offline_missing_column(tmp_path):
    task = _categorical_task()
    path = tmp_path / "data.csv"
    path.write_text("lr,y\n0.1,2\n")
    with pytest.raises(SchemaError, match="act"):
        tasks.ingest_offline(path, task)


def test_ingest_offline_rejects_out_of_range(tmp_path):
    task = _categorical_task()
    path = tmp_path / "data.csv"
    path.write_text("lr,act,y\n1.5,relu,2\n")
    with pytest.raises(ValidationError, match="row 1"):
        tasks.ingest_offline(path, task)


def test_ingest_offline_rejects_unknown_choice(tmp_path):
    task = _categorical_task()
    path = tmp_path / "data.csv"
    path.write_text("lr,act,y\n0.5,selu,2\n")
    with pytest.raises(ValidationError, match="selu"):
        tasks.ingest_offline(path, task)


def test_dataset_csv_roundtrip(tmp_path):
    t = tasks.synthetic_task("rastrigin", 3)
    ds = tasks.sample_uniform(t, 25, seed=9)
    path = tmp_path / "data.csv"
    tasks.write_dataset_csv(ds, t, path)
    back = tasks.ingest_offline(path, t)
    assert back.xs == ds.xs and back.y == ds.y


def test_dataset_csv_roundtrip_of_numpy_floats(tmp_path):
    # repr of a numpy 2 scalar is "np.float64(0.5)", which no reader parses back
    t = tasks.synthetic_task("sphere", 2)
    grid = np.linspace(-5.0, 5.0, 20)
    ds = tasks.Dataset(xs=tuple({"x0": v, "x1": -v} for v in grid), y=tuple(grid**2 * 2))
    assert isinstance(ds.xs[0]["x0"], np.float64) and isinstance(ds.y[0], np.float64)
    path = tmp_path / "data.csv"
    tasks.write_dataset_csv(ds, t, path)
    back = tasks.ingest_offline(path, t)
    assert back.xs == ds.xs and back.y == ds.y


def test_task_file_roundtrip(tmp_path):
    task = _categorical_task()
    path = tmp_path / "task.json"
    tasks.save_task(task, path)
    assert tasks.load_task(path) == task


def test_validate_assignment_errors():
    task = _categorical_task()
    with pytest.raises(ValidationError, match="missing"):
        tasks.validate_assignment(task, {"lr": 0.5})
    with pytest.raises(ValidationError, match="unknown"):
        tasks.validate_assignment(task, {"lr": 0.5, "act": "relu", "zz": 1})
    with pytest.raises(ValidationError, match="outside"):
        tasks.validate_assignment(task, {"lr": 1.5, "act": "relu"})


def test_sample_uniform_equals_per_row_evaluation():
    """The bulk path builds the same rows the per-row loop did."""
    for fid, dof in (("rastrigin", 7), ("sharp_ridge", 3)):
        t = tasks.synthetic_task(fid, dof)
        ds = tasks.sample_uniform(t, 300, seed=5)
        fn = tasks.bbob.make(fid, dof)
        points = np.random.default_rng(5).uniform(-5.0, 5.0, size=(300, dof))
        assert ds.xs == tuple({p.name: float(v) for p, v in zip(t.params, row)} for row in points)
        assert ds.y == tuple(fn.evaluate(row) for row in points)
        assert all(list(x) == list(t.param_names) for x in ds.xs)


def test_task_caches_its_param_names():
    t = tasks.synthetic_task("sphere", 3)
    assert t.param_names == ("x0", "x1", "x2") and t.param_names is t.param_names
    assert t.name_set == frozenset(t.param_names)
    assert t == tasks.synthetic_task("sphere", 3) and hash(t) == hash(tasks.synthetic_task("sphere", 3))
    with pytest.raises(ValidationError, match=r"unknown params: \['zz'\]"):
        tasks.validate_assignment(t, {"x0": 0.0, "x1": 0.0, "x2": 0.0, "zz": 1.0})
    with pytest.raises(ValidationError, match=r"missing params: \['x1', 'x2'\]"):
        tasks.validate_assignment(t, {"x0": 0.0})


def test_task_file_bytes_are_pinned(tmp_path):
    tasks.save_task(tasks.synthetic_task("sphere", 3), tmp_path / "task.json")
    params = [{"name": f"x{i}", "kind": "continuous", "lo": -5.0, "hi": 5.0} for i in range(3)]
    expected = {"id": "sphere-dof3", "params": params, "source": {"kind": "synthetic", "function": "sphere"}}
    assert (tmp_path / "task.json").read_text() == json.dumps(expected, indent=2) + "\n"


def test_dataset_csv_bytes_are_pinned(tmp_path):
    t = tasks.synthetic_task("rastrigin", 3)
    tasks.write_dataset_csv(tasks.sample_uniform(t, 25, seed=9), t, tmp_path / "data.csv")
    data = (tmp_path / "data.csv").read_bytes()
    assert data.startswith(b"x0,x1,x2,y\n3.7024920397008465,-2.1318279091244463,1.0314815005156186,35.69166949473485\n")
    assert hashlib.sha256(data).hexdigest() == "592fdf6ee66980a0287032961cfb57fd5674fc6808318a5422396a89698c4978"


@pytest.mark.parametrize(
    "source",
    [
        {"kind": "offline", "function": "sphere"},
        {"kind": "offline", "path": "x.csv"},
        {"kind": "table"},
        {"kind": "synthetic"},
        {"kind": "synthetic", "function": 3},
        {"function": "sphere"},
        "offline",
    ],
)
def test_task_from_dict_rejects_other_source_shapes(source):
    d = tasks.task_to_dict(tasks.synthetic_task("sphere", 2))
    with pytest.raises(SchemaError, match="task source must be") as info:
        tasks.task_from_dict({**d, "source": source})
    assert repr(source) in str(info.value)


def test_task_file_names_an_unknown_function_id():
    d = tasks.task_to_dict(tasks.synthetic_task("sphere", 2))
    with pytest.raises(ValueError, match="^unknown function 'nope'"):  # not "task spec missing field"
        tasks.task_from_dict({**d, "source": {"kind": "synthetic", "function": "nope"}})


def _spec_with(path, value):
    """The categorical task's spec with ``value`` at ``path``: a top-level key,
    or ``(param index, key)``; a value of None deletes the key."""
    d = tasks.task_to_dict(_categorical_task())
    target, key = (d, path) if isinstance(path, str) else (d["params"][path[0]], path[1])
    if value is None:
        del target[key]
    else:
        target[key] = value
    return d


@pytest.mark.parametrize(
    "path, value, match",
    [
        ("extra", 1, r"unknown task spec fields: \['extra'\]"),
        ((0, "typo"), 1, r"unknown continuous param fields: \['typo'\]"),
        ((0, "choices"), ["a"], r"unknown continuous param fields: \['choices'\]"),
        ((0, "kind"), "continous", "field 'kind' is 'continuous' or 'categorical', got .*'continous'"),
        ((1, "choices"), "ab", "field 'choices' must be a list of strings, got 'ab'"),
        ((1, "choices"), [1, 2], "field 'choices' must be a list of strings"),
        ("params", {"lr": 1}, "field 'params' must be a list"),
        ("params", [5], "a param must be an object"),
        ("id", 5, "field 'id' must be a string, got 5"),
        ((0, "name"), 5, "field 'name' must be a string, got 5"),
        ((0, "lo"), "0", "field 'lo' must be a number, got '0'"),
        ((0, "hi"), True, "field 'hi' must be a number, got True"),
        ((1, "name"), None, "categorical param missing field: 'name'"),
    ],
)
def test_task_from_dict_names_the_malformed_field(path, value, match):
    with pytest.raises(SchemaError, match=match):
        tasks.task_from_dict(_spec_with(path, value))
