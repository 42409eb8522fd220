import numpy as np
import pytest

from embreg import bbob


def test_sphere_at_origin():
    assert bbob.make("sphere", 3).evaluate([0.0, 0.0, 0.0]) == 0.0


def test_sphere_sum_of_squares():
    assert bbob.make("sphere", 2).evaluate([1.0, 2.0]) == 5.0


def test_rastrigin_at_origin():
    assert bbob.make("rastrigin", 4).evaluate(np.zeros(4)) == 0.0


def test_different_powers_hand_computed():
    # dof=2 exponents are 2 and 2+4*1/1=6, so (2,3) -> 2**2 + 3**6
    expected = 2.0**2 + 3.0**6
    assert expected == 733.0
    assert bbob.make("different_powers", 2).evaluate([2.0, 3.0]) == expected


def test_ellipsoidal_conditioning():
    # dof=2: weights 10^0 and 10^6
    assert bbob.make("ellipsoidal", 2).evaluate([1.0, 0.0]) == 1.0
    assert bbob.make("ellipsoidal", 2).evaluate([0.0, 1.0]) == 1e6


def test_rosenbrock_minimum_at_ones():
    for dof in (2, 5, 9):
        assert bbob.make("rosenbrock", dof).evaluate(np.ones(dof)) == 0.0


def test_rosenbrock_hand_value():
    # dof=2, x=(0, 1): 100*(0-1)^2 + (0-1)^2
    assert bbob.make("rosenbrock", 2).evaluate([0.0, 1.0]) == 101.0


def test_rosenbrock_needs_two_coordinates():
    # with one coordinate the sum is empty: rosenbrock would be 0 everywhere
    with pytest.raises(ValueError, match="rosenbrock is 0 everywhere at dof 1"):
        bbob.make("rosenbrock", 1)


def test_sharp_ridge_value():
    assert bbob.make("sharp_ridge", 3).evaluate([2.0, 3.0, 4.0]) == 4.0 + 100.0 * 5.0


@pytest.mark.parametrize("fid", [f for f in bbob.CATALOG if f != "rosenbrock"])
def test_origin_is_minimum(fid):
    fn = bbob.make(fid, 6)
    at_origin = fn.evaluate(np.zeros(6))
    rng = np.random.default_rng(42)
    for _ in range(1000):
        assert at_origin <= fn.evaluate(rng.uniform(-5, 5, 6))


def test_conditioning_ratio_exact():
    t = 2.0
    e1 = np.array([t, 0.0, 0.0])
    e2 = np.array([0.0, t, 0.0])
    discus = bbob.make("discus", 3)
    cigar = bbob.make("bent_cigar", 3)
    assert discus.evaluate(e1) / discus.evaluate(e2) == 1e6
    assert cigar.evaluate(e2) / cigar.evaluate(e1) == 1e6


def test_repeated_evaluation_bit_identical():
    rng = np.random.default_rng(0)
    x = rng.uniform(-5, 5, 10)
    for fid in bbob.CATALOG:
        fn = bbob.make(fid, 10)
        assert fn.evaluate(x) == fn.evaluate(x)


def test_dof_one_degenerate_exponents():
    assert bbob.make("ellipsoidal", 1).evaluate([2.0]) == 4.0
    assert bbob.make("different_powers", 1).evaluate([-2.0]) == 4.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="length 3"):
        bbob.make("sphere", 3).evaluate([1.0, 2.0])


def test_out_of_domain_rejected():
    with pytest.raises(bbob.OutOfDomainError):
        bbob.make("sphere", 2).evaluate([0.0, 5.1])


def test_catalog_contents():
    assert set(bbob.CATALOG) == {
        "sphere",
        "ellipsoidal",
        "rastrigin",
        "rosenbrock",
        "discus",
        "bent_cigar",
        "different_powers",
        "sharp_ridge",
    }


def test_evaluate_rows_equals_evaluate_per_row():
    x = np.random.default_rng(1).uniform(-5, 5, (40, 6))
    for fid in bbob.CATALOG:
        fn = bbob.make(fid, 6)
        assert fn.evaluate_rows(x) == [fn.evaluate(row) for row in x]


def test_evaluate_rows_checks_shape_and_domain():
    fn = bbob.make("sphere", 2)
    with pytest.raises(ValueError, match=r"\(n, 2\) matrix"):
        fn.evaluate_rows(np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"\(n, 2\) matrix"):
        fn.evaluate_rows(np.zeros(2))
    with pytest.raises(bbob.OutOfDomainError, match=r"\[-5.0, 5.0\]"):
        fn.evaluate_rows([[0.0, 0.0], [-5.5, 0.0]])


@pytest.mark.parametrize("function_id", [["sphere"], {"id": "sphere"}])
def test_an_unhashable_function_id_is_an_unknown_function(function_id):
    from embreg.experiments import ExperimentConfig
    from embreg.tasks import synthetic_task

    with pytest.raises(bbob.UnknownFunctionError, match="unknown function"):
        bbob.make(function_id, 2)
    with pytest.raises(bbob.UnknownFunctionError, match="unknown function"):
        synthetic_task(function_id, 2)
    with pytest.raises(bbob.UnknownFunctionError, match="unknown function"):
        ExperimentConfig.from_dict({"functions": [function_id]})
