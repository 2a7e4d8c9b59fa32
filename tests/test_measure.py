import math
import re

import numpy as np
import pytest

from framelab import measure
from framelab.measure import (
    AtomicMeasure,
    DiscretizationScheme,
    ParameterSpace,
    discretize,
    quadrature,
    sample_weights,
    weight_from_spec,
)


class TestParameterSpace:
    def test_interval_orders_endpoints(self):
        with pytest.raises(ValueError):
            ParameterSpace.interval(2.0, 1.0)

    def test_circle_needs_positive_period(self):
        with pytest.raises(ValueError):
            ParameterSpace.circle(period=0.0)

    def test_lengths(self):
        assert ParameterSpace.interval(0.0, 3.0).length == 3.0
        assert ParameterSpace.circle(period=math.pi).length == math.pi


def test_scheme_rejects_unknown_rule_and_bad_n():
    with pytest.raises(ValueError):
        DiscretizationScheme("simpson", 4)
    with pytest.raises(ValueError):
        DiscretizationScheme("midpoint", 0)
    with pytest.raises(ValueError):
        DiscretizationScheme("trapezoid", 1)


def test_finite_space_refuses_discretization():
    space = ParameterSpace.finite(("a", "b"))
    with pytest.raises(ValueError, match="already atomic"):
        discretize(space, DiscretizationScheme("midpoint", 2))


def test_circle_supports_midpoint_only():
    space = ParameterSpace.circle(period=1.0)
    with pytest.raises(ValueError):
        discretize(space, DiscretizationScheme("gauss_legendre", 4))


@pytest.mark.parametrize("rule", ["midpoint", "trapezoid", "gauss_legendre"])
@pytest.mark.parametrize("n", [2, 8, 16, 32, 64])
def test_total_mass_equals_length(rule, n):
    space = ParameterSpace.interval(-1.0, 2.5)
    meas = discretize(space, DiscretizationScheme(rule, n))
    assert meas.total == pytest.approx(space.length, abs=1e-12)
    assert np.all(meas.masses > 0)


def test_midpoint_nodes_are_cell_centers():
    meas = discretize(
        ParameterSpace.interval(0.0, 1.0), DiscretizationScheme("midpoint", 4)
    )
    assert np.allclose(meas.points, [0.125, 0.375, 0.625, 0.875])


def test_circle_midpoint_wraps_the_period():
    meas = discretize(
        ParameterSpace.circle(period=math.pi), DiscretizationScheme("midpoint", 8)
    )
    assert meas.natoms == 8
    assert meas.total == pytest.approx(math.pi)
    assert meas.points.max() < math.pi


def test_gauss_rule_is_exact_for_polynomials():
    # n-point Gauss-Legendre integrates degree 2n-1 exactly
    space = ParameterSpace.interval(0.0, 1.0)
    meas = discretize(space, DiscretizationScheme("gauss_legendre", 3))
    value = quadrature(lambda x: x**5, meas)
    assert value == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_trapezoid_is_exact_for_linear_functions():
    space = ParameterSpace.interval(1.0, 4.0)
    meas = discretize(space, DiscretizationScheme("trapezoid", 7))
    value = quadrature(lambda x: 2.0 * x - 1.0, meas)
    assert value == pytest.approx(12.0, abs=1e-12)


def test_midpoint_error_shrinks_under_refinement():
    space = ParameterSpace.interval(0.0, math.pi)
    exact = 2.0
    errors = []
    for n in (8, 16, 32, 64):
        meas = discretize(space, DiscretizationScheme("midpoint", n))
        errors.append(abs(quadrature(math.sin, meas) - exact))
    floor = 1e-9
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= max(coarse, floor)


class TestWeights:
    def test_const_and_poly_and_sin(self):
        assert weight_from_spec("const:2.5")(0.3) == 2.5
        assert weight_from_spec("poly:1,0,2")(3.0) == pytest.approx(19.0)
        assert weight_from_spec("sin")(math.pi / 2) == pytest.approx(1.0)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            weight_from_spec("exp")

    def test_table_length_must_match(self):
        meas = AtomicMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            sample_weights(weight_from_spec("table:[1,2,3]"), meas)

    def test_negative_weight_rejected(self):
        meas = AtomicMeasure(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            sample_weights(weight_from_spec("const:-1"), meas)

    @pytest.mark.parametrize("entries, message", [
        ('[true, "2"]', "table weight entry 0 must be a number, got true"),
        ('[1, "2"]', 'table weight entry 1 must be a number, got "2"'),
        ("[1, [2]]", "table weight entry 1 must be a number, got [2]"),
    ], ids=["bool", "string", "list"])
    def test_table_entries_must_be_json_numbers(self, entries, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            weight_from_spec("table:" + entries)

    def test_at_samples_both_kinds_of_weight(self):
        assert weight_from_spec("poly:1,2").at([0.0, 1.5]).tolist() == [1.0, 4.0]
        assert weight_from_spec("table:[3, 0]").at(["a", "b"]).tolist() == [3.0, 0.0]
        with pytest.raises(ValueError, match="table weight has 2 entries for 3 atoms"):
            weight_from_spec("table:[3, 0]").at([0.0, 1.0, 2.0])

    def test_zero_atoms_flagged(self):
        meas = AtomicMeasure(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        sampled = sample_weights(weight_from_spec("table:[0,2]"), meas)
        assert sampled.zero_atoms == (0,)
        assert np.allclose(sampled.values, [0.0, 2.0])


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([0.0, 1.0]), np.array([1.0]))


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: ParameterSpace.interval(0.0, math.inf), "interval needs b > a and a finite length"),
        (lambda: ParameterSpace.interval(-1e308, 1e308), "interval needs b > a and a finite length"),
        (lambda: ParameterSpace.circle(math.inf), "circle needs a positive finite period"),
    ],
    ids=["infinite-endpoint", "overflowing-length", "infinite-period"],
)
def test_non_finite_spaces_are_rejected(make, named):
    with pytest.raises(ValueError, match=named):
        make()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("const:nan", r"weight entry 0 is not finite \(nan\)"),
        ("poly:0,1e308", r"weight entry 1 is not finite \(inf\)"),  # 1e308 * 3 overflows
        ("table:[1, NaN]", r"weight entry 1 is not finite \(nan\)"),
    ],
)
def test_non_finite_weights_name_their_atom(spec, message):
    meas = discretize(ParameterSpace.interval(0.0, 4.0), DiscretizationScheme("midpoint", 2))
    assert meas.points.tolist() == [1.0, 3.0]
    with pytest.raises(ValueError, match=message):
        sample_weights(weight_from_spec(spec), meas)
