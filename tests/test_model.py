"""Cost algebra and scenario validation."""

import math

import numpy as np
import pytest

from freqdispatch import (
    CostCoefficients,
    Generator,
    Scenario,
    integral_gain,
    total_load,
    validate_scenario,
)
from freqdispatch.model import Columns

from conftest import cost_value, make_scenario, marginal_cost, reference_scenario


def _unit(a, b, c=0.0) -> Columns:
    return Columns.of([a], [b], [c], [0.0])


@pytest.mark.parametrize("a,b,c,p,expected", [
    (0.5, 1.0, 0.0, 7.0, 31.5),
    (1.0, 2.0, 0.0, 0.0, 0.0),
    (1.0, 2.0, 5.0, 3.0, 20.0),
])
def test_total_cost(a, b, c, p, expected):
    assert _unit(a, b, c).total_cost(np.array([p])) == expected


@pytest.mark.parametrize("a,b,p,expected", [
    (0.5, 1.0, 7.0, 8.0),
    (1.0, 2.0, 0.0, 2.0),
    (1.0, 2.0, 3.0, 8.0),
])
def test_marginal(a, b, p, expected):
    assert _unit(a, b).marginal(np.array([p])).tolist() == [expected]


@pytest.mark.parametrize("a,k,tau,expected", [
    (0.5, 1.0, 1.0, 1.0),
    (1.0, 1.0, 1.0, 0.5),
    (0.5, 2.0, 4.0, 0.5),
])
def test_integral_gain(a, k, tau, expected):
    assert integral_gain(CostCoefficients(a, 0.0), k, tau) == expected


def test_marginal_is_derivative_of_total_cost():
    rng = np.random.default_rng(3)
    h = 1e-4
    for _ in range(50):
        a, b, c = rng.uniform(0.1, 5.0), rng.uniform(-20.0, 20.0), rng.uniform(-10.0, 10.0)
        cost, p = _unit(a, b, c).total_cost, rng.uniform(-50.0, 50.0)
        central = (cost(np.array([p + h])) - cost(np.array([p - h]))) / (2.0 * h)
        assert abs(central - _unit(a, b, c).marginal(np.array([p]))[0]) <= 1e-6, (a, b, c, p)


def test_cost_columns_are_the_scalar_costs_bit_for_bit():
    # elementwise the scalar cost algebra, and its total added left to right
    rng = np.random.default_rng(4)
    for n in (1, 3, 80):  # 80 units: a row that _row_sum adds by np.add.accumulate
        costs = [CostCoefficients(*rng.uniform([0.1, -20.0, -10.0], [5.0, 20.0, 10.0]).tolist())
                 for _ in range(n)]
        cols = Columns.of(*zip(*[(c.a, c.b, c.c, 0.0) for c in costs]))
        p = rng.uniform(-50.0, 50.0, n)
        want = 0.0
        for cost, x in zip(costs, p.tolist()):
            want += cost_value(cost, x)
        assert cols.total_cost(p) == want
        assert cols.marginal(p).tolist() == [marginal_cost(c, x)
                                             for c, x in zip(costs, p.tolist())]


def test_integral_gain_positive_and_decreasing_in_a():
    gains = [integral_gain(CostCoefficients(a, 0.0), 2.0, 0.5)
             for a in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(g > 0 for g in gains)
    assert all(x > y for x, y in zip(gains, gains[1:]))


def test_total_load():
    assert total_load(make_scenario([1.0], [0.0], [6.0, 4.0])) == 10.0
    assert total_load(make_scenario([1.0], [0.0], [10.0])) == 10.0
    assert total_load(make_scenario([1.0], [0.0], [3.0, 3.0, 4.0])) == 10.0


def test_validate_accepts_reference_scenario():
    s = reference_scenario()
    assert validate_scenario(s) == []


def test_validate_reports_nonpositive_a():
    s = make_scenario([0.5, 0.0], [1.0, 2.0], [6.0, 4.0])
    violations = validate_scenario(s)
    assert len(violations) == 1
    assert violations[0].field == "generators[1].cost.a"
    assert violations[0].message == "a must be > 0 for generator 2"


def test_validate_reports_nonpositive_beta():
    s = make_scenario([0.5], [1.0], [10.0], beta=-1.0)
    (violation,) = validate_scenario(s)
    assert violation.field == "beta"
    assert "beta" in violation.message


@pytest.mark.parametrize("kwargs,field", [
    ({"gain_K": 0.0}, "gain_K"),
    ({"gain_K": -2.0}, "gain_K"),
    ({"gain_K": math.nan}, "gain_K"),
    ({"beta": 0.0}, "beta"),
    ({"tau": 0.0}, "tau"),
    ({"tau": -0.5}, "tau"),
    ({"tau": math.inf}, "tau"),
    ({"gain_K": 10 ** 400}, "gain_K"),  # an int past the float range is not finite
    ({"beta": -10 ** 400}, "beta"),
])
def test_validate_scalar_boundaries(kwargs, field):
    s = make_scenario([0.5], [1.0], [10.0], **kwargs)
    fields = {v.field for v in validate_scenario(s)}
    assert fields == {field}


def test_validate_reports_duplicate_ids():
    gens = (Generator("G1", CostCoefficients(1.0, 0.0)),
            Generator("G1", CostCoefficients(2.0, 0.0)))
    s = Scenario(gens, (5.0,), 1.0, 1.0, 1.0)
    (violation,) = validate_scenario(s)
    assert violation.field == "generators[1].id"
    assert "duplicate" in violation.message


def test_validate_reports_nonfinite_values():
    s = make_scenario([0.5, 1.0], [1.0, math.nan], [6.0, math.inf])
    fields = {v.field for v in validate_scenario(s)}
    assert fields == {"generators[1].cost.b", "loads[1]"}


@pytest.mark.parametrize("load", [10 ** 400, -10 ** 400, None, "1.0", np.bool_(True)],
                         ids=["10**400", "-10**400", "None", "string", "np.bool_"])
def test_validate_reports_a_load_that_is_not_a_finite_number(load):
    # read as the file parser reads numbers: past the float range as inf, else NaN
    gens = (Generator("G1", CostCoefficients(1.0, 0.0)),)
    for s in (Scenario(gens, [load], 1.0, 1.0, 1.0),
              reference_scenario().replace(loads=(6.0, load))):
        j = len(s.loads) - 1
        assert [str(v) for v in validate_scenario(s)] == [
            f"loads[{j}]: load {j + 1} must be finite"]


@pytest.mark.parametrize("kind", [np.int64, np.uint8, np.float32, np.float16, np.longdouble])
def test_numpy_scalars_are_read_as_their_floats(kind):
    # as an int or float is: a numpy integer or floating scalar is its float
    floats = make_scenario([1.0, 2.0], [2.0, 4.0], [6.0, 4.0], c=[0.0, 1.0], p_init=[3.0, 5.0])
    gens = tuple(Generator(g.id, CostCoefficients(*map(kind, (g.cost.a, g.cost.b, g.cost.c))),
                           kind(g.p_init)) for g in floats.generators)
    s = Scenario(gens, tuple(np.array(floats.loads, dtype=kind)), 1.0, 1.0, 1.0)
    assert s == floats and s.generators == floats.generators and validate_scenario(s) == []
    assert all(type(x) is float for x in s.loads)


def test_validate_reports_empty_collections():
    s = Scenario((), (), 1.0, 1.0, 1.0)
    fields = {v.field for v in validate_scenario(s)}
    assert fields == {"generators", "loads"}


def test_validate_reports_nonfinite_p_init_and_c():
    s = make_scenario([0.5], [1.0], [10.0], c=[math.inf], p_init=[math.nan])
    fields = {v.field for v in validate_scenario(s)}
    assert fields == {"generators[0].cost.c", "generators[0].p_init"}


def test_validate_reports_a_slope_sum_past_the_float_range():
    # each 1/(2a) is about 1.8e308, finite; their sum S is not
    s = make_scenario([2.8e-309, 2.8e-309], [1.0, 2.0], [10.0])
    assert [str(v) for v in validate_scenario(s)] == [
        "generators: the total slope sum 1/(2a) must be finite"]
    assert validate_scenario(make_scenario([2.8e-309], [1.0], [10.0])) == []
    # the sum is checked only once every a passes its own rule
    s = make_scenario([2.8e-309, 2.8e-309, 0.0], [1.0, 2.0, 3.0], [10.0])
    assert [v.field for v in validate_scenario(s)] == ["generators[2].cost.a"]


def test_an_invalid_slope_builds_its_columns_without_a_warning():
    # the columns are built with the scenario, before validation, so every a that
    # validation refuses must give inf, 0 or nan in 2a, w and S rather than warn
    # (warnings are errors in this suite)
    a = [0.0, -1.0, 1e308, math.nan, math.inf, 1e-310]
    cols = make_scenario(a, [0.0] * 6, [10.0]).columns
    assert cols.numbers[0].tolist()[:3] == a[:3] and cols.two_a[2] == math.inf
    assert cols.w.tolist()[:3] == [math.inf, -0.5, 0.0] and cols.w[5] == math.inf
    assert math.isnan(cols.slope)
    assert [v.field for v in validate_scenario(make_scenario(a, [0.0] * 6, [10.0]))] == [
        f"generators[{i}].cost.a" for i in range(6)]
    s = make_scenario([2.8e-309] * 2, [0.0] * 2, [10.0])  # each w finite, S past the float range
    assert s.columns.slope == math.inf


def test_scenario_collections_are_tuples():
    s = Scenario([Generator("G1", CostCoefficients(1.0, 0.0))], [5.0], 1.0, 1.0, 1.0)
    assert isinstance(s.generators, tuple)
    assert isinstance(s.loads, tuple)
