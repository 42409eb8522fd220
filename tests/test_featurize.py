import numpy as np
import pytest

from embreg import featurize, tasks
from embreg.featurize import StringFormat
from embreg.tasks import ParamSpec, RegressionTask


def _mixed_task():
    return RegressionTask(
        id="mixed",
        params=(
            ParamSpec.continuous("a", -5.0, 5.0),
            ParamSpec.continuous("b", 0.0, 10.0),
            ParamSpec.categorical("c", ["p", "q", "r"]),
        ),
    )


def test_width_counts_one_hot_blocks():
    task = _mixed_task()
    assert featurize.d_trad(task) == 5
    assert featurize.d_trad(task) > task.dof


def test_continuous_midpoint_maps_to_half():
    task = _mixed_task()
    vec = featurize.featurize_traditional(task, {"a": 0.0, "b": 5.0, "c": "p"})
    assert vec[0] == 0.5
    assert vec[1] == 0.5


def test_one_hot_block():
    task = _mixed_task()
    vec = featurize.featurize_traditional(task, {"a": 0.0, "b": 0.0, "c": "q"})
    assert list(vec[2:]) == [0.0, 1.0, 0.0]


def test_featurize_rejects_bad_values():
    task = _mixed_task()
    with pytest.raises(ValueError):
        featurize.featurize_traditional(task, {"a": 9.0, "b": 0.0, "c": "p"})
    with pytest.raises(ValueError):
        featurize.featurize_traditional(task, {"a": 0.0, "b": 0.0, "c": "nope"})


def test_isometry_on_shared_bounds():
    task = tasks.synthetic_task("sphere", 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        xa, xb = rng.uniform(-5, 5, 4), rng.uniform(-5, 5, 4)
        a = featurize.featurize_traditional(task, dict(zip(task.param_names, xa)))
        b = featurize.featurize_traditional(task, dict(zip(task.param_names, xb)))
        assert np.linalg.norm(a - b) == pytest.approx(np.linalg.norm(xa - xb) / 10.0, rel=1e-12)


def test_serialize_full_dict_reference():
    task = tasks.synthetic_task("sphere", 4)
    x = dict(zip(task.param_names, (0.32, -4.21, 3.12, 1.56)))
    assert featurize.serialize(task, x) == "{x0:0.32,x1:-4.21,x2:3.12,x3:1.56}"


def test_serialize_values_only_reference():
    task = tasks.synthetic_task("sphere", 4)
    x = dict(zip(task.param_names, (0.32, -4.21, 3.12, 1.56)))
    fmt = StringFormat(variant="values_only")
    assert featurize.serialize(task, x, fmt) == "[0.32,-4.21,3.12,1.56]"


def test_serialize_categorical_quoting():
    task = RegressionTask(
        id="t",
        params=(
            ParamSpec.categorical("activation_fn", ["selu", "relu"]),
            ParamSpec.categorical("batch_norm", ["True", "False"]),
        ),
    )
    x = {"activation_fn": "selu", "batch_norm": "False"}
    assert featurize.serialize(task, x) == "{activation_fn:'selu',batch_norm:'False'}"


def test_serialize_space_flag():
    task = tasks.synthetic_task("sphere", 2)
    x = {"x0": 1.0, "x1": 2.0}
    fmt = StringFormat(space_after_comma=True)
    assert featurize.serialize(task, x, fmt) == "{x0:1, x1:2}"


def test_large_values_stay_positional():
    assert featurize.format_float(100000.0, 4) == "100000"
    assert featurize.format_float(123456789.0, 4) == "123500000"
    assert featurize.format_float(-0.0, 4) == "0"
    assert featurize.format_float(0.0001235, 4) == "0.0001235"


def test_order_stability():
    task = _mixed_task()
    x1 = {"a": 1.25, "b": 3.5, "c": "q"}
    x2 = {"a": 1.25, "b": 7.75, "c": "q"}
    s1 = featurize.serialize(task, x1)
    s2 = featurize.serialize(task, x2)
    assert featurize.serialize(task, x1) == s1  # stable across calls
    seg1 = s1[1:-1].split(",")
    seg2 = s2[1:-1].split(",")
    assert [a == b for a, b in zip(seg1, seg2)] == [True, False, True]


def test_injectivity_at_render_precision():
    task = tasks.synthetic_task("sphere", 1)
    rng = np.random.default_rng(1)
    values = rng.uniform(-5, 5, 200)
    rendered = {featurize.serialize(task, {"x0": float(v)}) for v in values}
    assert len(rendered) == 200
