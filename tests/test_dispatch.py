"""Dispatch solvers: closed form vs oracle vs both iterations."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import freqdispatch.dispatch as dispatch
from freqdispatch import (
    StopReason,
    aggregate_power_slope,
    analytic_dispatch,
    brute_force_dispatch,
    compare_convergence,
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


def _whole_grid_oracle(s, grid_step) -> tuple[int, tuple[float, ...]]:
    """The grid's point count and the oracle's powers at N = 2 or 3, from the whole
    grid built at once, as the oracle searched it before it searched in blocks."""
    a, b = s.columns.a, s.columns.b
    quad = lambda k, x: a[k] * x * x + b[k] * x  # noqa: E731
    d = total_load(s)
    lo = -2.0 * abs(d)
    npts = math.ceil((2.0 * abs(d) - lo) / grid_step - 1e-9) + 1
    grid = lo + grid_step * np.arange(npts)
    rest = d - grid
    if len(a) == 2:
        j = int(np.argmin(quad(0, grid) + quad(1, rest)))
        return npts, (float(grid[j]), float(rest[j]))
    y_cont = (2.0 * a[2] * rest + b[2] - b[1]) / (2.0 * (a[1] + a[2]))
    j_lo = np.clip(np.floor((y_cont - lo) / grid_step), 0, npts - 1).astype(np.int64)
    best_cost, x, y = math.inf, 0.0, 0.0
    for jj in (j_lo, np.minimum(j_lo + 1, npts - 1)):
        tot = 0.0 + quad(0, grid) + quad(1, grid[jj]) + quad(2, rest - grid[jj])
        i = int(np.argmin(tot))
        if tot[i] < best_cost:
            best_cost, x, y = float(tot[i]), float(grid[i]), float(grid[jj][i])
    return npts, (x, y, d - x - y)


_BLOCK = dispatch._GRID_BLOCK


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=st.lists(st.floats(0.1, 5.0), min_size=3, max_size=3),
       b=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
       n=st.sampled_from([2, 3]), tied=st.integers(0, 2), d=st.floats(1.0, 50.0))
def test_brute_force_blocks_match_the_whole_grid(a, b, n, tied, d):
    a, b = a[:n], b[:n]
    for k in range(1, min(tied, n - 1) + 1):  # units 1 to `tied` copy unit 0
        a[k], b[k] = a[0], b[0]
    s = make_scenario(a, b, [d])
    for points in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        step = 4.0 * d / (points - 1)
        npts, p = _whole_grid_oracle(s, step)
        assert npts == points
        assert [x.hex() for x in brute_force_dispatch(s, step).p] == [x.hex() for x in p]


@pytest.mark.parametrize("block", [39, 40, 41])
def test_brute_force_tie_across_blocks_keeps_the_first_point(monkeypatch, block):
    # x^2 + x + (8 - x)^2 is 36 at both 3.5 and 4.0, exactly: grid points 39 and 40
    # of the 0.5 grid on [-16, 16]; a block of 40 points puts them in two blocks
    s = make_scenario([1.0, 1.0], [1.0, 0.0], [8.0])
    monkeypatch.setattr(dispatch, "_GRID_BLOCK", block)
    assert brute_force_dispatch(s, 0.5).p == (3.5, 4.5) == _whole_grid_oracle(s, 0.5)[1]


@pytest.mark.parametrize("n", [2, 3])
def test_brute_force_memory_stays_flat_at_the_grid_cap(n):
    s = make_scenario([0.5, 1.0, 2.0][:n], [1.0, 2.0, 1.0][:n], [10.0])
    # D = 10 spans [-20, 20]: a step of 40/(m-1) gives m points, the cap and no more
    with pytest.raises(ValueError, match="gives more than"):
        brute_force_dispatch(s, 40.0 / dispatch.MAX_GRID_POINTS)
    step = 40.0 / (dispatch.MAX_GRID_POINTS - 1)
    tracemalloc.start()
    try:
        brute_force_dispatch(s, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the whole grid took 40 MB at N = 2 and 96 MB at N = 3


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


def test_default_lambda0_has_the_bits_of_marginal_cost():
    # read from the columns, the warm start is still 2.0*a*p + b of the first unit
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 50):
        s = make_scenario(rng.uniform(0.1, 5.0, n), rng.uniform(-20.0, 20.0, n), [30.0],
                          p_init=rng.uniform(-10.0, 30.0, n))
        g = s.generators[0]
        got = default_lambda0(s)
        assert type(got) is float and got == marginal_cost(g.cost, g.p_init)


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


_SOLVER_GUARDS = {
    # inputs that used to run: all 10,000 iterations, a NaN ratio reported as
    # converged, a NaN state, or a zero step
    "dual-tol-nan": (lambda s: dual_ascent_solve(s, 0.5, tol=math.nan), "tol must be finite"),
    "mom-tol-inf": (lambda s: mom_solve(s, 0.5, tol=math.inf), "tol must be finite"),
    "mom-lambda0-nan": (lambda s: mom_solve(s, 0.5, lambda0=math.nan), "lambda0 must be finite"),
    "compare-alpha-nan": (lambda s: compare_convergence(s, math.nan, 0.5), "alpha must be finite"),
    "compare-tol-nan": (lambda s: compare_convergence(s, 0.5, 0.5, tol=math.nan),
                        "tol must be finite"),
    "dual-step-nan": (lambda s: dual_ascent_step(initial_dual_state(s), s, math.nan),
                      "alpha must be finite"),
    "dual-state-inf": (lambda s: initial_dual_state(s, math.inf), "lambda0 must be finite"),
    "mom-step-nan": (lambda s: mom_step(initial_mom_state(s, 0.5), s, math.nan),
                     "rho must be finite"),
    "dual-factor-nan": (lambda s: dual_contraction_factor(s, math.nan), "alpha must be finite"),
    "mom-factor-nan": (lambda s: mom_contraction_factor(s, math.nan), "rho must be finite"),
    "mom-state-zero": (lambda s: initial_mom_state(s, 0.0), "rho must be > 0"),  # as mom_step
    "dual-factor-zero": (lambda s: dual_contraction_factor(s, 0.0),  # as mom_contraction_factor
                         "alpha must be > 0"),
    # a value <= 0, with the messages it always had
    "dual-alpha-negative": (lambda s: dual_ascent_solve(s, -1.0), "alpha must be > 0"),
    "dual-tol-zero": (lambda s: dual_ascent_solve(s, 0.5, tol=0.0), "tol must be > 0"),
    "dual-max-iter-zero": (lambda s: dual_ascent_solve(s, 0.5, max_iter=0),
                           "max_iter must be >= 1"),
    "mom-rho-zero": (lambda s: mom_solve(s, 0.0), "rho must be > 0"),
    "mom-step-negative": (lambda s: mom_step(initial_mom_state(s, 0.5), s, -1.0),
                          "rho must be > 0"),
    "compare-rho-zero": (lambda s: compare_convergence(s, 0.5, 0.0), "alpha and rho must be > 0"),
}


@pytest.mark.parametrize("case", _SOLVER_GUARDS)
def test_solver_guards(scenario_r, case):
    # one rule set, dispatch._solver_problem, for every solver input
    call, message = _SOLVER_GUARDS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(scenario_r)


# ---------------------------------------------------------------------------
# A solver's trace is its initial state followed by the public one-step calls

def _trace_scenario(n):
    rng = np.random.default_rng(n)
    return make_scenario(rng.uniform(0.1, 5.0, n), rng.uniform(0.0, 20.0, n),
                         rng.uniform(1.0, 50.0, 2), p_init=rng.uniform(-10.0, 30.0, n),
                         gain_K=1.3, beta=1.7, tau=0.9)


def _bits(st):
    """A state's fields, each float by its repr, so that equal means equal bits."""
    return st.k, repr(st.lam), tuple(map(repr, st.p)), repr(st.imbalance), repr(st.delta_f)


def _column_bits(trace):
    """The trace's columns, a row at a time, as ``_bits`` spells a state."""
    return [(k, repr(lam), tuple(map(repr, p)), repr(imbalance), repr(delta_f))
            for k, (lam, p, imbalance, delta_f) in enumerate(zip(
                trace.lam.tolist(), trace.p.tolist(), trace.imbalance.tolist(),
                trace.delta_f.tolist()))]


def _assert_trace_is_stepped(trace, first, step, beta):
    # the columns first, then the power rows derived from the prices and the
    # states built from them, both on first read
    n = len(trace.lam)
    assert "p" not in vars(trace)  # a solver run keeps no power row
    assert trace.lam.shape == trace.imbalance.shape == trace.delta_f.shape == (n,)
    assert trace.p.shape == (n, len(first.p)) and trace.p.dtype == np.float64
    assert trace.p is trace.p
    assert (-trace.imbalance / beta).tobytes() == trace.delta_f.tobytes()
    expected = [first]
    while len(expected) < n:
        expected.append(step(expected[-1]))
    assert trace.p.tobytes() == np.array([st.p for st in expected]).tobytes()
    assert _column_bits(trace) == list(map(_bits, expected))
    assert list(map(_bits, trace.states)) == list(map(_bits, expected))


@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("share,max_iter,stop", [
    (0.7, 10000, StopReason.TOLERANCE),
    (0.05, 5, StopReason.MAX_ITERATIONS),
    (1.3, 10000, StopReason.DIVERGED),  # alpha past 2/S
    # a slow run stopped by max_iter, at and around a power of two: max_iter + 1 rows
    (0.01, 63, StopReason.MAX_ITERATIONS),
    (0.01, 64, StopReason.MAX_ITERATIONS),
    (0.01, 65, StopReason.MAX_ITERATIONS),
    (0.01, 200, StopReason.MAX_ITERATIONS),
])
def test_dual_trace_is_the_initial_state_then_public_steps(n, share, max_iter, stop):
    s = _trace_scenario(n)
    alpha = share * stability_bound_alpha(s)
    for lambda0 in (None, 3.5):
        trace = dual_ascent_solve(s, alpha, 1e-9, max_iter, lambda0)
        assert trace.stop_reason is stop
        if stop is StopReason.MAX_ITERATIONS:
            assert len(trace.lam) == max_iter + 1
        _assert_trace_is_stepped(trace, initial_dual_state(s, lambda0),
                                 lambda st: dual_ascent_step(st, s, alpha), s.beta)


@pytest.mark.parametrize("n", [1, 2, 3, 50])
@pytest.mark.parametrize("rho_s,max_iter,lambda0,stop", [
    (0.8, 10000, 3.5, StopReason.TOLERANCE),
    (0.8, 10000, None, StopReason.TOLERANCE),
    (0.01, 5, 3.5, StopReason.MAX_ITERATIONS),
    (0.8, 10000, 1e14, StopReason.DIVERGED),  # MoM is stable: only a start past the guard
])
def test_mom_trace_is_the_initial_state_then_public_steps(n, rho_s, max_iter, lambda0, stop):
    s = _trace_scenario(n)
    rho = rho_s / aggregate_power_slope(s)
    trace = mom_solve(s, rho, 1e-9, max_iter, lambda0)
    assert trace.stop_reason is stop
    _assert_trace_is_stepped(trace, initial_mom_state(s, rho, lambda0),
                             lambda st: mom_step(st, s, rho), s.beta)


def test_public_results_hold_python_floats():
    # the kernel's rows are float64 arrays; what the public calls return holds floats
    s = _trace_scenario(5)
    st = initial_mom_state(s, 0.5)
    for p in (analytic_dispatch(s).p, mom_inner_minimize(3.5, s, 0.5), st.p, mom_step(st, s, 0.5).p,
              dual_ascent_step(initial_dual_state(s), s, 0.1).p,
              dual_ascent_solve(s, 0.1).states[-1].p):
        assert type(p) is tuple and {type(x) for x in p} == {float}
