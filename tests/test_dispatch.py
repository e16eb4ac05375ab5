"""Dispatch solvers: closed form vs oracle vs both iterations."""

import math

import numpy as np
import pytest

import freqdispatch.dispatch as dispatch
from freqdispatch import (
    StopReason,
    aggregate_power_slope,
    analytic_dispatch,
    brute_force_dispatch,
    default_lambda0,
    dual_ascent_solve,
    dual_ascent_step,
    dual_contraction_factor,
    initial_dual_state,
    initial_mom_state,
    marginal_cost,
    mom_contraction_factor,
    mom_inner_minimize,
    mom_solve,
    mom_step,
    stability_bound_alpha,
    total_load,
)

from conftest import make_scenario, random_scenarios


# ---------------------------------------------------------------------------
# analytic closed form

def test_analytic_reference_exact(scenario_r):
    sol = analytic_dispatch(scenario_r)
    assert sol.lambda_star == 8.0
    assert sol.p == (7.0, 3.0)
    assert sol.total_cost == 46.5


def test_analytic_single_generator():
    sol = analytic_dispatch(make_scenario([1.0], [0.0], [5.0]))
    assert sol.lambda_star == 10.0
    assert sol.p == (5.0,)


def test_analytic_identical_generators_split_evenly():
    sol = analytic_dispatch(make_scenario([1.0, 1.0], [2.0, 2.0], [8.0]))
    assert sol.p == (4.0, 4.0)


def test_analytic_optimality_conditions_randomized():
    for s in random_scenarios(count=8):
        sol = analytic_dispatch(s)
        d = total_load(s)
        assert abs(sum(sol.p) - d) <= 1e-9 * abs(d)
        for g, p in zip(s.generators, sol.p):
            m = marginal_cost(g.cost, p)
            assert abs(m - sol.lambda_star) <= 1e-9 * abs(sol.lambda_star) + 1e-12


# ---------------------------------------------------------------------------
# brute-force oracle

def test_brute_force_matches_reference(scenario_r):
    sol = brute_force_dispatch(scenario_r, 0.01)
    assert abs(sol.p[0] - 7.0) <= 0.01
    assert abs(sol.p[1] - 3.0) <= 0.01
    assert abs(sum(sol.p) - 10.0) <= 1e-9


def test_brute_force_single_generator_exact():
    sol = brute_force_dispatch(make_scenario([1.0], [0.0], [5.0]), 0.5)
    assert sol.p == (5.0,)


def test_brute_force_identical_generators():
    sol = brute_force_dispatch(make_scenario([1.0, 1.0], [2.0, 2.0], [8.0]), 0.01)
    assert abs(sol.p[0] - 4.0) <= 0.01
    assert abs(sol.p[1] - 4.0) <= 0.01


def test_brute_force_three_generators():
    s = make_scenario([0.5, 1.0, 2.0], [1.0, 2.0, 1.0], [10.0])
    ours = brute_force_dispatch(s, 0.01)
    ref = analytic_dispatch(s)
    for x, y in zip(ours.p, ref.p):
        assert abs(x - y) <= 0.02


def test_brute_force_four_generators_symmetric():
    s = make_scenario([1.0] * 4, [0.0] * 4, [8.0])
    sol = brute_force_dispatch(s, 0.5)
    for x in sol.p:
        assert abs(x - 2.0) <= 0.5
    assert abs(sum(sol.p) - 8.0) <= 1e-9


def test_brute_force_rejects_bad_inputs():
    s5 = make_scenario([1.0] * 5, [0.0] * 5, [10.0])
    with pytest.raises(ValueError):
        brute_force_dispatch(s5, 0.1)
    with pytest.raises(ValueError):
        brute_force_dispatch(make_scenario([1.0], [0.0], [5.0]), 0.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, -0.1])
def test_brute_force_rejects_non_finite_grid_step(scenario_r, step):
    with pytest.raises(ValueError, match="grid_step must be finite and > 0"):
        brute_force_dispatch(scenario_r, step)


def test_brute_force_caps_grid_points(scenario_r, monkeypatch):
    # The reference demand D = 10 spans [-20, 20]: a step of 40/(m-1) gives m points.
    monkeypatch.setattr(dispatch, "MAX_GRID_POINTS", 1001)
    sol = brute_force_dispatch(scenario_r, 40.0 / 1000)
    assert sol.p == pytest.approx((7.0, 3.0), abs=0.04)
    with pytest.raises(ValueError, match="grid_step 0.03996003996003996 gives more than 1001"):
        brute_force_dispatch(scenario_r, 40.0 / 1001)


def _no_tail_search(*args, **kwargs):
    raise AssertionError("the N = 4 grid was searched before its size was checked")


def test_brute_force_caps_four_unit_grid_points(monkeypatch):
    # D = 8 spans [-16, 16]: a step of 32/(m-1) gives m points.
    four = make_scenario([1.0] * 4, [0.0] * 4, [8.0])
    monkeypatch.setattr(dispatch, "MAX_GRID_POINTS_N4", 321)
    sol = brute_force_dispatch(four, 32.0 / 320)
    assert sol.p == pytest.approx((2.0,) * 4, abs=0.1)
    monkeypatch.setattr(dispatch, "_grid_tail_search", _no_tail_search)
    with pytest.raises(ValueError, match="gives more than 321 grid points on .* for 4 generators"):
        brute_force_dispatch(four, 32.0 / 321)


# ---------------------------------------------------------------------------
# dual ascent

def test_dual_step_deadbeat(scenario_r):
    st0 = initial_dual_state(scenario_r, lambda0=0.0)
    assert st0.p == (-1.0, -1.0)
    assert st0.imbalance == 12.0
    st1 = dual_ascent_step(st0, scenario_r, 2.0 / 3.0)
    assert st1.lam == 8.0
    assert st1.p == (7.0, 3.0)


def test_dual_step_fixed_point_at_optimum(scenario_r):
    st = initial_dual_state(scenario_r, lambda0=8.0)
    for alpha in (0.1, 1.0, 5.0):
        nxt = dual_ascent_step(st, scenario_r, alpha)
        assert nxt.lam == 8.0
        assert nxt.p == (7.0, 3.0)


def test_dual_step_small_alpha(scenario_r):
    st0 = initial_dual_state(scenario_r, lambda0=0.0)
    st1 = dual_ascent_step(st0, scenario_r, 1.0 / 3.0)
    assert st1.lam == pytest.approx(4.0, abs=1e-12)
    assert st1.p[0] == pytest.approx(3.0, abs=1e-12)
    assert st1.p[1] == pytest.approx(1.0, abs=1e-12)
    assert st1.imbalance == pytest.approx(6.0, abs=1e-12)


def test_dual_solve_deadbeat_converges_in_one_step(scenario_r):
    trace = dual_ascent_solve(scenario_r, 2.0 / 3.0, tol=1e-6, lambda0=0.0)
    assert trace.converged
    assert trace.stop_reason is StopReason.TOLERANCE
    assert len(trace.states) == 2
    assert trace.states[-1].lam == 8.0


def test_dual_solve_geometric_ratio(scenario_r):
    trace = dual_ascent_solve(scenario_r, 1.0 / 3.0, tol=1e-6, lambda0=0.0)
    assert trace.converged
    imb = [abs(st.imbalance) for st in trace.states]
    for k in range(len(imb) - 1):
        if imb[k] > 1e-5 and imb[k + 1] > 1e-5:
            assert imb[k + 1] / imb[k] == pytest.approx(0.5, abs=1e-9)


def test_dual_solve_diverges_beyond_bound(scenario_r):
    assert stability_bound_alpha(scenario_r) == pytest.approx(4.0 / 3.0, abs=1e-15)
    trace = dual_ascent_solve(scenario_r, 1.5, tol=1e-6, lambda0=0.0)
    assert not trace.converged
    assert trace.stop_reason is StopReason.DIVERGED


def test_dual_solve_max_iterations(scenario_r):
    trace = dual_ascent_solve(scenario_r, 0.01, tol=1e-12, max_iter=5, lambda0=0.0)
    assert not trace.converged
    assert trace.stop_reason is StopReason.MAX_ITERATIONS
    assert len(trace.states) == 6


def test_default_lambda0_is_first_generator_marginal(scenario_r):
    # p_init = (7, 3) sits at the optimum, so the warm start is lambda*
    assert default_lambda0(scenario_r) == 8.0
    trace = dual_ascent_solve(scenario_r, 0.5, tol=1e-6)
    assert trace.converged
    assert len(trace.states) == 1


def test_stability_bound_examples():
    assert stability_bound_alpha(make_scenario([0.5], [0.0], [1.0])) == 2.0
    assert stability_bound_alpha(make_scenario([1.0, 1.0], [0.0, 0.0], [1.0])) == 2.0


def test_equal_marginal_cost_along_dual_iterates(scenario_r):
    trace = dual_ascent_solve(scenario_r, 0.4, tol=1e-9, lambda0=0.0)
    for st in trace.states:
        marginals = [marginal_cost(g.cost, p)
                     for g, p in zip(scenario_r.generators, st.p)]
        assert max(marginals) - min(marginals) <= 1e-12
        assert abs(marginals[0] - st.lam) <= 1e-12


def test_iteration_trace_indices_are_sequential(scenario_r):
    trace = dual_ascent_solve(scenario_r, 0.4, tol=1e-9, lambda0=0.0)
    assert [st.k for st in trace.states] == list(range(len(trace.states)))


def test_iter_state_delta_f_mirrors_imbalance(scenario_r):
    trace = dual_ascent_solve(scenario_r, 0.4, tol=1e-9, lambda0=0.0)
    for st in trace.states:
        assert st.delta_f == -st.imbalance / scenario_r.beta


# ---------------------------------------------------------------------------
# method of multipliers

def test_mom_inner_minimize_examples(scenario_r):
    rho = 2.0 / 3.0
    for lam, expected in [(0.0, (3.0, 1.0)), (4.0, (5.0, 2.0)), (8.0, (7.0, 3.0))]:
        p = mom_inner_minimize(lam, scenario_r, rho)
        for x, y in zip(p, expected):
            assert abs(x - y) <= 1e-12


def test_mom_inner_minimize_gradient_residuals():
    rng = np.random.default_rng(11)
    for s in random_scenarios(count=6):
        d = total_load(s)
        for _ in range(3):
            lam = float(rng.uniform(-50.0, 50.0))
            rho = float(rng.uniform(0.0, 10.0))
            p = mom_inner_minimize(lam, s, rho)
            shortfall = d - sum(p)
            for g, pi in zip(s.generators, p):
                resid = 2.0 * g.cost.a * pi + g.cost.b - rho * shortfall - lam
                assert abs(resid) <= 1e-10, (lam, rho, resid)


def test_mom_inner_minimize_matches_aggregate_closed_form():
    # Independent route: solve for the total first, then back-substitute.
    rng = np.random.default_rng(12)
    for s in random_scenarios(count=6):
        d = total_load(s)
        slope = aggregate_power_slope(s)
        intercept = sum(g.cost.b / (2.0 * g.cost.a) for g in s.generators)
        lam = float(rng.uniform(-50.0, 50.0))
        rho = float(rng.uniform(0.1, 10.0))
        tot = ((lam + rho * d) * slope - intercept) / (1.0 + rho * slope)
        mu = lam + rho * (d - tot)
        expected = [(mu - g.cost.b) / (2.0 * g.cost.a) for g in s.generators]
        got = mom_inner_minimize(lam, s, rho)
        for x, y in zip(got, expected):
            assert abs(x - y) <= 1e-10


def test_mom_inner_rejects_negative_rho(scenario_r):
    with pytest.raises(ValueError):
        mom_inner_minimize(0.0, scenario_r, -0.1)


def test_mom_step_examples(scenario_r):
    rho = 2.0 / 3.0
    st0 = initial_mom_state(scenario_r, rho, lambda0=0.0)
    assert st0.p == pytest.approx((3.0, 1.0), abs=1e-12)
    st1 = mom_step(st0, scenario_r, rho)
    assert st1.lam == pytest.approx(4.0, abs=1e-12)
    assert st1.p == pytest.approx((5.0, 2.0), abs=1e-12)
    st2 = mom_step(st1, scenario_r, rho)
    assert st2.lam == pytest.approx(6.0, abs=1e-12)


def test_mom_step_fixed_point(scenario_r):
    st = initial_mom_state(scenario_r, 2.0 / 3.0, lambda0=8.0)
    nxt = mom_step(st, scenario_r, 2.0 / 3.0)
    assert nxt.lam == pytest.approx(8.0, abs=1e-12)
    assert nxt.p == pytest.approx((7.0, 3.0), abs=1e-12)


def test_mom_solve_halving_sequence(scenario_r):
    trace = mom_solve(scenario_r, 2.0 / 3.0, tol=1e-6, lambda0=0.0)
    assert trace.converged
    lams = [st.lam for st in trace.states[:5]]
    assert lams == pytest.approx([0.0, 4.0, 6.0, 7.0, 7.5], abs=1e-9)
    assert len(trace.states) - 1 == 23  # contraction 0.5 from imbalance 6 to 1e-6


def test_mom_solve_large_rho_fast(scenario_r):
    trace = mom_solve(scenario_r, 100.0, tol=1e-6, lambda0=0.0)
    assert trace.converged
    assert len(trace.states) - 1 <= 3


def test_mom_solve_tiny_rho_hits_max_iterations(scenario_r):
    trace = mom_solve(scenario_r, 1e-3, tol=1e-3, max_iter=10, lambda0=0.0)
    assert not trace.converged
    assert trace.stop_reason is StopReason.MAX_ITERATIONS


def test_mom_contraction_factor_examples(scenario_r):
    assert mom_contraction_factor(scenario_r, 2.0 / 3.0) == pytest.approx(0.5, abs=1e-15)
    assert mom_contraction_factor(scenario_r, 2.0) == pytest.approx(0.25, abs=1e-15)
    assert mom_contraction_factor(scenario_r, 1e-9) == pytest.approx(1.0, abs=1e-8)
    assert 0.0 < mom_contraction_factor(scenario_r, 1e6) < 1.0


def test_dual_contraction_factor(scenario_r):
    assert dual_contraction_factor(scenario_r, 2.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
    assert dual_contraction_factor(scenario_r, 1.0 / 3.0) == pytest.approx(0.5, abs=1e-15)
    assert dual_contraction_factor(scenario_r, 1.5) == pytest.approx(1.25, abs=1e-12)


def test_solver_guards(scenario_r):
    with pytest.raises(ValueError):
        dual_ascent_solve(scenario_r, -1.0)
    with pytest.raises(ValueError):
        dual_ascent_solve(scenario_r, 0.5, tol=0.0)
    with pytest.raises(ValueError):
        dual_ascent_solve(scenario_r, 0.5, max_iter=0)
    with pytest.raises(ValueError):
        mom_solve(scenario_r, 0.0)
