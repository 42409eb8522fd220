import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embreg import tasks
from embreg.tasks import (
    Dataset,
    LabeledExample,
    ParamSpec,
    RegressionTask,
    SchemaError,
    SplitError,
    TaskSource,
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
            source=TaskSource(kind="offline"),
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
            source=TaskSource(kind="synthetic", function="sphere"),
        )


def test_sample_uniform_values_and_domain():
    t = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(t, 3, seed=7)
    assert len(ds) == 3
    for ex in ds:
        assert all(-5.0 <= v <= 5.0 for v in ex.x.values())
        assert ex.y == sum(v * v for v in ex.x.values())


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
    coords = np.array([[ex.x[name] for name in t.param_names] for ex in ds])
    assert np.all(np.abs(coords.mean(axis=0)) < 0.5)


def test_sample_uniform_coverage():
    t = tasks.synthetic_task("sphere", 3)
    ds = tasks.sample_uniform(t, 10_000, seed=3)
    coords = np.array([[ex.x[name] for name in t.param_names] for ex in ds])
    assert np.all(coords.min(axis=0) < -4.9)
    assert np.all(coords.max(axis=0) > 4.9)


def test_sample_uniform_rejects_offline_task():
    t = RegressionTask(
        id="off",
        params=(ParamSpec.continuous("a", 0, 1),),
        source=TaskSource(kind="offline"),
    )
    with pytest.raises(UnsupportedSourceError):
        tasks.sample_uniform(t, 5, seed=0)


def test_split_sizes_500():
    t = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(t, 500, seed=0)
    tr, va, te = tasks.split_dataset(ds, (0.8, 0.1, 0.1), seed=3)
    assert (len(tr), len(va), len(te)) == (400, 50, 50)
    assert (tr.split, va.split, te.split) == ("train", "validation", "test")


def test_split_sizes_10():
    t = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(t, 10, seed=0)
    tr, va, te = tasks.split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
    assert (len(tr), len(va), len(te)) == (8, 1, 1)


def test_split_deterministic():
    t = tasks.synthetic_task("sphere", 3)
    ds = tasks.sample_uniform(t, 50, seed=0)
    first = tasks.split_dataset(ds, (0.8, 0.1, 0.1), seed=5)
    second = tasks.split_dataset(ds, (0.8, 0.1, 0.1), seed=5)
    assert first == second


def test_split_rejects_bad_ratios_and_small_sets():
    t = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(t, 100, seed=0)
    with pytest.raises(ValueError, match="sum to 1"):
        tasks.split_dataset(ds, (0.8, 0.1, 0.2), seed=0)
    small = tasks.sample_uniform(t, 9, seed=0)
    with pytest.raises(SplitError):
        tasks.split_dataset(small, (0.8, 0.1, 0.1), seed=0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(10, 200), seed=st.integers(0, 2**31 - 1))
def test_split_partition_property(n, seed):
    t = tasks.synthetic_task("sphere", 2)
    ds = tasks.sample_uniform(t, n, seed=0)
    tr, va, te = tasks.split_dataset(ds, (0.8, 0.1, 0.1), seed=seed)
    assert len(tr) + len(va) + len(te) == n
    key = lambda ex: tuple(sorted(ex.x.items())) + (ex.y,)
    merged = sorted(map(key, list(tr) + list(va) + list(te)))
    assert merged == sorted(map(key, ds))


def _categorical_task():
    return RegressionTask(
        id="cat",
        params=(
            ParamSpec.continuous("lr", 0.0, 1.0),
            ParamSpec.categorical("act", ["relu", "tanh"]),
        ),
        source=TaskSource(kind="offline"),
    )


def test_ingest_offline_roundtrip(tmp_path):
    task = _categorical_task()
    path = tmp_path / "data.csv"
    rows = ["lr,act,y"] + [f"0.{i},relu,{i}" for i in range(1, 10)] + ["0.5,tanh,10.5"]
    path.write_text("\n".join(rows) + "\n")
    ds = tasks.ingest_offline(path, task)
    assert len(ds) == 10
    assert ds.examples[0].x == {"lr": 0.1, "act": "relu"}
    assert ds.examples[-1].y == 10.5


def test_ingest_offline_names_bad_row(tmp_path):
    task = _categorical_task()
    path = tmp_path / "data.csv"
    rows = ["lr,act,y"] + [f"0.{i},relu,{i}" for i in range(1, 10)]
    rows[7] = "0.7,relu,NaN"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValidationError, match="row 7"):
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
    assert back.examples == ds.examples


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
    with pytest.raises(ValidationError, match="finite"):
        tasks.validate_example(
            task, LabeledExample(x={"lr": 0.5, "act": "relu"}, y=float("inf"))
        )


def test_sample_uniform_equals_per_row_evaluation():
    """The bulk path builds the same examples the per-row loop did."""
    for fid, dof in (("rastrigin", 7), ("sharp_ridge", 3)):
        t = tasks.synthetic_task(fid, dof)
        ds = tasks.sample_uniform(t, 300, seed=5)
        fn = tasks.bbob.make(fid, dof)
        points = np.random.default_rng(5).uniform(-5.0, 5.0, size=(300, dof))
        expected = tuple(
            LabeledExample(x={p.name: float(v) for p, v in zip(t.params, row)}, y=fn.evaluate(row))
            for row in points
        )
        assert ds.examples == expected
        assert all(list(ex.x) == list(t.param_names) for ex in ds)


def test_task_caches_its_param_names():
    t = tasks.synthetic_task("sphere", 3)
    assert t.param_names == ("x0", "x1", "x2") and t.param_names is t.param_names
    assert t.name_set == frozenset(t.param_names)
    assert t == tasks.synthetic_task("sphere", 3) and hash(t) == hash(tasks.synthetic_task("sphere", 3))
    with pytest.raises(ValidationError, match=r"unknown params: \['zz'\]"):
        tasks.validate_assignment(t, {"x0": 0.0, "x1": 0.0, "x2": 0.0, "zz": 1.0})
    with pytest.raises(ValidationError, match=r"missing params: \['x1', 'x2'\]"):
        tasks.validate_assignment(t, {"x0": 0.0})
