"""Economic dispatch solvers.

Four independent routes to the same answer: an equal-incremental-cost
closed form, an exhaustive grid-search oracle, a dual-ascent price
iteration, and a method-of-multipliers iteration with a quadratic
penalty. The two iterative solvers expose their contraction analysis so
convergence rates can be asserted, not just observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .model import DispatchSolution, Scenario, _rank_one, cost_value, marginal_cost, total_load

__all__ = [
    "DIVERGENCE_FACTOR",
    "IterState",
    "IterationTrace",
    "MAX_GRID_POINTS",
    "MAX_GRID_POINTS_N4",
    "StopReason",
    "aggregate_power_slope",
    "analytic_dispatch",
    "brute_force_dispatch",
    "default_lambda0",
    "dual_ascent_solve",
    "dual_ascent_step",
    "dual_contraction_factor",
    "initial_dual_state",
    "initial_mom_state",
    "mom_contraction_factor",
    "mom_inner_minimize",
    "mom_solve",
    "mom_step",
    "stability_bound_alpha",
]

# An iteration whose imbalance exceeds DIVERGENCE_FACTOR * max(|D|, 1) is
# declared divergent; without the guard an unstable step size overflows.
DIVERGENCE_FACTOR = 1e9

# Largest grid brute_force_dispatch builds per output (8 MB of float64), so a
# tiny grid_step is refused instead of exhausting memory.
MAX_GRID_POINTS = 1_000_000

# At N = 4 the oracle's time grows with the square of the point count (one
# tail search per point; 8,001 points take about 2.5 s on one x86 core), so its
# cap is lower.
MAX_GRID_POINTS_N4 = 8_001


class StopReason(Enum):
    TOLERANCE = "tolerance"
    MAX_ITERATIONS = "max_iterations"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class IterState:
    """One state of a price-coordination iteration.

    ``imbalance`` is total demand minus total generation (MW) and
    ``delta_f`` is the equivalent frequency deviation -imbalance/beta, so
    a generation deficit reads as a negative frequency deviation.
    """

    k: int
    lam: float
    p: tuple[float, ...]
    imbalance: float
    delta_f: float


@dataclass(frozen=True)
class IterationTrace:
    """Every state visited by a solver run, plus why it stopped."""

    states: tuple[IterState, ...]
    converged: bool
    stop_reason: StopReason


def aggregate_power_slope(s: Scenario) -> float:
    """Sensitivity of total generation to the price: sum of 1/(2*a_i).

    Under marginal-cost matching, total power is an affine function of the
    price with this slope; it drives every contraction factor below.
    """
    return _rank_one(s)[1]


def analytic_dispatch(s: Scenario) -> DispatchSolution:
    """Closed-form dispatch via the equal-incremental-cost condition.

    At the optimum every unit runs at the same marginal cost lambda*, and
    the balance constraint pins it down:

        lambda* = (D + sum b_i/(2 a_i)) / sum 1/(2 a_i)
        p_i     = (lambda* - b_i) / (2 a_i)

    Unique because every a_i > 0. Outputs may be negative; there are no
    generator limits in this model.
    """
    w, slope, _ = _rank_one(s)
    lam = (total_load(s) + float(w @ [g.cost.b for g in s.generators])) / slope
    p = _dual_power(lam, s)
    cost = sum(cost_value(g.cost, pi) for g, pi in zip(s.generators, p))
    return DispatchSolution(p=p, lambda_star=lam, total_cost=cost)


def _quad(a: float, b: float, x: np.ndarray) -> np.ndarray:
    return a * x * x + b * x


def brute_force_dispatch(s: Scenario, grid_step: float) -> DispatchSolution:
    """Exhaustive grid-search oracle, independent of the closed form.

    The first N-1 outputs range over a uniform grid on [-2D, 2D]; the last
    output is fixed by the balance constraint. Returns the grid point of
    minimum total cost. Exponential in N, so N > 4 is refused, and so is a
    grid of more than MAX_GRID_POINTS points (MAX_GRID_POINTS_N4 at N = 4,
    where the time grows with the square of the point count). The reported
    price is the mean of the marginal costs at the grid optimum (the grid
    point itself carries no exact multiplier).
    """
    n = len(s.generators)
    if n > 4:
        raise ValueError("brute_force_dispatch supports at most 4 generators")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError("grid_step must be finite and > 0")

    d = total_load(s)
    a = np.array([g.cost.a for g in s.generators])
    b = np.array([g.cost.b for g in s.generators])

    if n == 1:
        p = (d,)
    else:
        lo, hi = -2.0 * abs(d), 2.0 * abs(d)
        # ceil so the grid covers the full range even for non-divisor steps
        cap = MAX_GRID_POINTS_N4 if n == 4 else MAX_GRID_POINTS
        npts = math.ceil(min((hi - lo) / grid_step - 1e-9, cap)) + 1
        if npts > cap:
            raise ValueError(f"grid_step {grid_step!r} gives more than {cap} "
                             f"grid points on [-2D, 2D] for {n} generators; "
                             "use a larger grid_step")
        grid = lo + grid_step * np.arange(npts)

        if n == 2:
            rest = d - grid
            tot = _quad(a[0], b[0], grid) + _quad(a[1], b[1], rest)
            j = int(np.argmin(tot))
            p = (float(grid[j]), float(rest[j]))
        elif n == 3:
            _, p = _grid_tail_search(grid, grid_step, lo, npts, a, b, d)
        else:
            # Enumerate p1; each value leaves a 3-generator tail problem.
            best_cost = math.inf
            best: tuple[float, ...] = ()
            c0 = _quad(a[0], b[0], grid)
            for j in range(npts):
                cost_j, tail = _grid_tail_search(grid, grid_step, lo, npts,
                                                 a[1:], b[1:], d - float(grid[j]),
                                                 base_cost=float(c0[j]))
                if cost_j < best_cost:
                    best_cost = cost_j
                    best = (float(grid[j]),) + tail
            p = best

    total = sum(cost_value(g.cost, pi) for g, pi in zip(s.generators, p))
    lam = sum(marginal_cost(g.cost, pi) for g, pi in zip(s.generators, p)) / n
    return DispatchSolution(p=p, lambda_star=lam, total_cost=total)


def _grid_tail_search(grid, grid_step, lo, npts, a, b, d, base_cost=0.0):
    """Grid-optimal (x, y, d-x-y) for three cost pairs; returns (cost, powers).

    x runs over the whole grid. For each x the cost is a convex parabola
    in y, so its grid minimum lies on one of the two grid points that
    bracket the continuous minimum; evaluating both is exactly equivalent
    to enumerating y. Cost excludes the constant offsets.
    """
    rest = d - grid  # demand left for (y, z) after each x
    y_cont = (2.0 * a[2] * rest + b[2] - b[1]) / (2.0 * (a[1] + a[2]))
    j_lo = np.clip(np.floor((y_cont - lo) / grid_step), 0, npts - 1).astype(np.int64)
    cost_x = base_cost + _quad(a[0], b[0], grid)

    best_cost = math.inf
    best_x = best_y = 0.0
    for jj in (j_lo, np.minimum(j_lo + 1, npts - 1)):
        y = grid[jj]
        z = rest - y
        tot = cost_x + _quad(a[1], b[1], y) + _quad(a[2], b[2], z)
        i = int(np.argmin(tot))
        if tot[i] < best_cost:
            best_cost = float(tot[i])
            best_x = float(grid[i])
            best_y = float(y[i])
    return best_cost, (best_x, best_y, d - best_x - best_y)


def default_lambda0(s: Scenario) -> float:
    """Warm-start price: marginal cost of the first generator at its p_init."""
    g = s.generators[0]
    return marginal_cost(g.cost, g.p_init)


def _dual_power(lam: float, s: Scenario) -> tuple[float, ...]:
    return tuple((lam - g.cost.b) / (2.0 * g.cost.a) for g in s.generators)


def _make_state(k: int, lam: float, p: tuple[float, ...], s: Scenario) -> IterState:
    imbalance = total_load(s) - sum(p)
    return IterState(k=k, lam=lam, p=p, imbalance=imbalance,
                     delta_f=-imbalance / s.beta)


def initial_dual_state(s: Scenario, lambda0: float | None = None) -> IterState:
    """State k=0 of the dual ascent: powers at marginal cost for lambda0."""
    lam = default_lambda0(s) if lambda0 is None else lambda0
    return _make_state(0, lam, _dual_power(lam, s), s)


def dual_ascent_step(st: IterState, s: Scenario, alpha: float) -> IterState:
    """One dual-ascent step.

    The price moves by alpha times the current imbalance, then every unit
    jumps to the output whose marginal cost equals the new price:

        lam'  = lam + alpha * (D - sum p)
        p_i'  = (lam' - b_i) / (2 a_i)
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    lam = st.lam + alpha * st.imbalance
    return _make_state(st.k + 1, lam, _dual_power(lam, s), s)


def stability_bound_alpha(s: Scenario) -> float:
    """Largest stable dual-ascent step: 2 / sum(1/(2*a_i)).

    The price iteration is affine with factor 1 - alpha*S, so it converges
    exactly when 0 < alpha < 2/S.
    """
    return 2.0 / aggregate_power_slope(s)


def dual_contraction_factor(s: Scenario, alpha: float) -> float:
    """Per-step imbalance ratio |1 - alpha * S| of the dual ascent."""
    return abs(1.0 - alpha * aggregate_power_slope(s))


def _run_iteration(state0: IterState, advance: Callable[[IterState], IterState],
                   s: Scenario, tol: float, max_iter: int) -> IterationTrace:
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    guard = DIVERGENCE_FACTOR * max(abs(total_load(s)), 1.0)

    states = [state0]
    st = state0
    while True:
        if not math.isfinite(st.imbalance) or abs(st.imbalance) > guard:
            return IterationTrace(tuple(states), False, StopReason.DIVERGED)
        if abs(st.imbalance) < tol:
            return IterationTrace(tuple(states), True, StopReason.TOLERANCE)
        if st.k >= max_iter:
            return IterationTrace(tuple(states), False, StopReason.MAX_ITERATIONS)
        st = advance(st)
        states.append(st)


def dual_ascent_solve(s: Scenario, alpha: float, tol: float = 1e-6,
                      max_iter: int = 10000,
                      lambda0: float | None = None) -> IterationTrace:
    """Iterate dual_ascent_step until |imbalance| < tol.

    Stops with MAX_ITERATIONS after ``max_iter`` steps, or DIVERGED once
    the imbalance exceeds the divergence guard (or goes non-finite).
    Convergence is judged on the power imbalance, not on price movement.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return _run_iteration(initial_dual_state(s, lambda0),
                          lambda st: dual_ascent_step(st, s, alpha),
                          s, tol, max_iter)


def mom_inner_minimize(lam: float, s: Scenario, rho: float) -> tuple[float, ...]:
    """Exact minimizer of the penalized stage problem at price ``lam``.

    Solves, simultaneously for all units,

        2 a_i p_i + b_i - rho * (D - sum_j p_j) = lam

    which is the SPD linear system (diag(2a) + rho * ones) p = lam - b + rho*D.
    The matrix is diagonal plus rank one, so the Sherman-Morrison formula
    solves it in O(N) without forming it.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    r = lam + rho * total_load(s) - np.array([g.cost.b for g in s.generators])
    return tuple(_rank_one(s)[2](rho, r).tolist())


def initial_mom_state(s: Scenario, rho: float, lambda0: float | None = None) -> IterState:
    """State k=0 of the method of multipliers: penalized minimizer at lambda0."""
    lam = default_lambda0(s) if lambda0 is None else lambda0
    return _make_state(0, lam, mom_inner_minimize(lam, s, rho), s)


def mom_step(st: IterState, s: Scenario, rho: float) -> IterState:
    """One method-of-multipliers step.

    The price moves by rho times the current imbalance, then the powers
    re-solve the penalized stage problem at the new price.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    lam = st.lam + rho * st.imbalance
    return _make_state(st.k + 1, lam, mom_inner_minimize(lam, s, rho), s)


def mom_solve(s: Scenario, rho: float, tol: float = 1e-6, max_iter: int = 10000,
              lambda0: float | None = None) -> IterationTrace:
    """Iterate mom_step until |imbalance| < tol; same semantics as dual_ascent_solve."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return _run_iteration(initial_mom_state(s, rho, lambda0),
                          lambda st: mom_step(st, s, rho),
                          s, tol, max_iter)


def mom_contraction_factor(s: Scenario, rho: float) -> float:
    """Per-step imbalance ratio 1/(1 + rho*S); in (0, 1) for every rho > 0.

    Always below one, so the iteration is stable for any positive penalty.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return 1.0 / (1.0 + rho * aggregate_power_slope(s))
