"""Economic dispatch solvers.

Four independent routes to the same answer: an equal-incremental-cost
closed form, an exhaustive grid-search oracle, a dual-ascent price
iteration, and a method-of-multipliers iteration with a quadratic
penalty. The two iterative solvers expose their contraction analysis so
convergence rates can be asserted, not just observed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .model import DispatchSolution, Scenario, _row_sum, total_load

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

# Most grid points brute_force_dispatch searches per output, so a tiny grid_step
# is refused instead of running for seconds. The grid is searched a block of
# _GRID_BLOCK points at a time, so its memory does not grow with the count.
MAX_GRID_POINTS = 1_000_000

# Points per block of the oracle's grid search: each float64 array of a block is
# 64 KiB, under glibc's 128 KiB mmap threshold, and all of them together well under
# 1 MB (tracemalloc), where the whole grid at MAX_GRID_POINTS took 40 MB at N = 2
# and 96 MB at N = 3.
_GRID_BLOCK = 8192

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
    """One state of a price-coordination iteration, as the public one-step calls
    take and return it, and as ``IterationTrace.states`` lists a trace's rows.

    ``imbalance`` is total demand minus total generation (MW) and
    ``delta_f`` is the equivalent frequency deviation -imbalance/beta, so
    a generation deficit reads as a negative frequency deviation.
    """

    k: int
    lam: float
    p: tuple[float, ...]
    imbalance: float
    delta_f: float


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Every price visited by a solver run, as float64 columns, plus why it stopped.

    Row ``k`` is state ``k``: ``lam`` (n+1,), ``imbalance`` (n+1,) and ``delta_f``
    (n+1,) = -imbalance/beta. ``power`` is the solver's price -> powers map: ``p``
    (n+1, N) fills row ``k`` with ``power(lam[k])`` on first read, bit for bit the
    run's row, and ``states`` lists the rows as ``IterState``s, also on first read.
    """

    lam: np.ndarray
    imbalance: np.ndarray
    delta_f: np.ndarray
    converged: bool
    stop_reason: StopReason
    power: Callable[[float], np.ndarray] = field(repr=False)

    @cached_property
    def p(self) -> np.ndarray:
        rows = map(self.power, self.lam.tolist())
        first = next(rows)
        return np.fromiter(itertools.chain((first,), rows), (np.float64, first.shape),
                           len(self.lam))

    @cached_property
    def states(self) -> tuple[IterState, ...]:
        return tuple(map(IterState, itertools.count(), self.lam.tolist(),
                         map(tuple, self.p.tolist()), self.imbalance.tolist(),
                         self.delta_f.tolist()))


def aggregate_power_slope(s: Scenario) -> float:
    """Sensitivity of total generation to the price: sum of 1/(2*a_i).

    Under marginal-cost matching, total power is an affine function of the
    price with this slope; it drives every contraction factor below.
    """
    return s.columns.slope


def analytic_dispatch(s: Scenario) -> DispatchSolution:
    """Closed-form dispatch via the equal-incremental-cost condition.

    At the optimum every unit runs at the same marginal cost lambda*, and
    the balance constraint pins it down:

        lambda* = (D + sum b_i/(2 a_i)) / sum 1/(2 a_i)
        p_i     = (lambda* - b_i) / (2 a_i)

    Unique because every a_i > 0. Outputs may be negative; there are no
    generator limits in this model.
    """
    cols = s.columns
    lam = (total_load(s) + float(cols.w @ cols.b)) / cols.slope
    p = tuple(_dual_power(s)(lam).tolist())
    return DispatchSolution(p=p, lambda_star=lam, total_cost=cols.total_cost(np.array(p)))


def _quad(a: float, b: float, x: np.ndarray) -> np.ndarray:
    return a * x * x + b * x


def _check_grid_step(grid_step: float) -> None:
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError("grid_step must be finite and > 0")


def brute_force_dispatch(s: Scenario, grid_step: float) -> DispatchSolution:
    """Exhaustive grid-search oracle, independent of the closed form.

    The first N-1 outputs range over a uniform grid on [-2D, 2D]; the last
    output is fixed by the balance constraint. Returns the grid point of
    minimum total cost, the first one in grid order on a tie. Exponential in N,
    so N > 4 is refused, and so is a grid of more than MAX_GRID_POINTS points
    (MAX_GRID_POINTS_N4 at N = 4, where the time grows with the square of the
    point count). The grid is searched in blocks of _GRID_BLOCK points, so the
    search holds well under 1 MB whatever the count. The reported price is the
    mean of the marginal costs at the grid optimum (the grid point itself carries
    no exact multiplier).
    """
    cols = s.columns
    n = len(cols.a)
    if n > 4:
        raise ValueError("brute_force_dispatch supports at most 4 generators")
    _check_grid_step(grid_step)

    d = total_load(s)
    a, b = cols.a, cols.b

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

        if n == 2:
            found = []
            for x in _grid_blocks(lo, grid_step, npts):
                rest = d - x
                tot = _quad(a[0], b[0], x) + _quad(a[1], b[1], rest)
                i = int(np.argmin(tot))
                found.append((tot[i], x[i], rest[i]))
            p = tuple(map(float, _first_min(found)[1:]))
        elif n == 3:
            _, p = _grid_tail_search(_grid_blocks(lo, grid_step, npts), grid_step, lo, npts,
                                     a, b, d)
        else:
            # Enumerate p1 over the grid; each value leaves a 3-generator tail problem.
            # The grid, at most MAX_GRID_POINTS_N4 points, is one block, built once.
            blocks = list(_grid_blocks(lo, grid_step, npts))
            best_cost = math.inf
            best: tuple[float, ...] = ()
            for j in range(npts):
                x = lo + grid_step * j  # the bits of the grid's point j
                cost_j, tail = _grid_tail_search(blocks, grid_step, lo, npts, a[1:], b[1:], d - x,
                                                 base_cost=float(_quad(a[0], b[0], x)))
                if cost_j < best_cost:
                    best_cost = cost_j
                    best = (x,) + tail
            p = best

    lam = _row_sum(cols.marginal(np.array(p))) / n
    return DispatchSolution(p=p, lambda_star=lam, total_cost=cols.total_cost(np.array(p)))


def _grid_blocks(lo: float, grid_step: float, npts: int):
    """The grid's points lo + grid_step * j for j < npts, in blocks of _GRID_BLOCK."""
    for start in range(0, npts, _GRID_BLOCK):
        yield lo + grid_step * np.arange(start, min(start + _GRID_BLOCK, npts))


def _first_min(found: list) -> tuple:
    """Of the entries (value, ...) of ``found``, each a block's np.argmin in grid
    order, the one np.argmin over the whole grid picks: the first NaN if there
    is one, else the first least value."""
    best = found[0]
    for entry in found[1:]:
        if best[0] == best[0] and (entry[0] < best[0] or entry[0] != entry[0]):
            best = entry
    return best


def _grid_tail_search(blocks, grid_step, lo, npts, a, b, d, base_cost=0.0):
    """Grid-optimal (x, y, d-x-y) for three cost pairs; returns (cost, powers).

    x runs over the whole grid, given as its ``blocks``. For each x the cost
    is a convex parabola in y, so its grid minimum lies on one of the two grid
    points that bracket the continuous minimum; evaluating both is exactly
    equivalent to enumerating y. The lower candidate's first minimum stands
    unless the upper one's is strictly lower. Cost excludes the constant offsets.
    """
    found = [], []  # per candidate, a block's first minimum (cost, x, y)
    for x in blocks:
        rest = d - x  # demand left for (y, z) after each x
        y_cont = (2.0 * a[2] * rest + b[2] - b[1]) / (2.0 * (a[1] + a[2]))
        j_lo = np.clip(np.floor((y_cont - lo) / grid_step), 0, npts - 1).astype(np.int64)
        del y_cont  # before the candidate passes, which set the peak
        cost_x = base_cost + _quad(a[0], b[0], x)
        for entries, jj in zip(found, (j_lo, np.minimum(j_lo + 1, npts - 1))):
            y = lo + grid_step * jj  # the grid's points jj
            tot = cost_x + _quad(a[1], b[1], y) + _quad(a[2], b[2], rest - y)
            i = int(np.argmin(tot))
            entries.append((tot[i], x[i], y[i]))

    best_cost = math.inf
    best_x = best_y = 0.0
    for entries in found:
        cost, x, y = _first_min(entries)
        if cost < best_cost:
            best_cost, best_x, best_y = float(cost), float(x), float(y)
    return best_cost, (best_x, best_y, d - best_x - best_y)


def default_lambda0(s: Scenario) -> float:
    """Warm-start price: marginal cost of the first generator at its p_init."""
    cols = s.columns
    return float(cols.two_a[0] * cols.p_init[0] + cols.b[0])


def _dual_power(s: Scenario) -> Callable[[float], np.ndarray]:
    """lam -> (lam - b) / (2a): every unit where its marginal cost is lam."""
    b, two_a = s.columns.b, s.columns.two_a
    return lambda lam: (lam - b) / two_a


def _mom_power(s: Scenario, rho: float) -> Callable[[float], np.ndarray]:
    """lam -> the penalized stage minimizer at lam; see ``mom_inner_minimize``."""
    if rho < 0:
        raise ValueError("rho must be >= 0")
    solve, b, rho_d = s.columns.solve, s.columns.b, rho * total_load(s)
    return lambda lam: solve(rho, lam + rho_d - b)


def _iterates(s: Scenario, power: Callable[[float], np.ndarray], coupling: float,
              lam: float | None, imbalance: float | None = None) -> Iterator[tuple]:
    """Both solvers' price iteration  lam' = lam + coupling * imbalance,  p = power(lam),
    imbalance = D - sum(p), as (lam, p, imbalance) from ``lam`` (None: the warm start)
    on, or, given the ``imbalance`` at ``lam``, from the next price on. Each ``p`` is a
    new float64 row, which the caller may keep."""
    lam, d = float(default_lambda0(s) if lam is None else lam), total_load(s)
    while True:
        if imbalance is not None:
            lam = lam + coupling * imbalance
        p = power(lam)
        imbalance = d - _row_sum(p)
        yield lam, p, imbalance


def _state(s: Scenario, power: Callable[[float], np.ndarray], coupling: float,
           lam: float | None, imbalance: float | None = None, k: int = 0) -> IterState:
    """The first state ``_iterates`` yields, numbered ``k``."""
    lam, p, imbalance = next(_iterates(s, power, coupling, lam, imbalance))
    return IterState(k, lam, tuple(p.tolist()), imbalance, -imbalance / s.beta)


def initial_dual_state(s: Scenario, lambda0: float | None = None) -> IterState:
    """State k=0 of the dual ascent: powers at marginal cost for lambda0."""
    return _state(s, _dual_power(s), 0.0, lambda0)  # no step, no alpha


def dual_ascent_step(st: IterState, s: Scenario, alpha: float) -> IterState:
    """One dual-ascent step.

    The price moves by alpha times the current imbalance, then every unit
    jumps to the output whose marginal cost equals the new price:

        lam'  = lam + alpha * (D - sum p)
        p_i'  = (lam' - b_i) / (2 a_i)
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return _state(s, _dual_power(s), alpha, st.lam, st.imbalance, st.k + 1)


def stability_bound_alpha(s: Scenario) -> float:
    """Largest stable dual-ascent step: 2 / sum(1/(2*a_i)).

    The price iteration is affine with factor 1 - alpha*S, so it converges
    exactly when 0 < alpha < 2/S.
    """
    return 2.0 / aggregate_power_slope(s)


def dual_contraction_factor(s: Scenario, alpha: float) -> float:
    """Per-step imbalance ratio |1 - alpha * S| of the dual ascent."""
    return abs(1.0 - alpha * aggregate_power_slope(s))


def _run_iteration(s: Scenario, power: Callable[[float], np.ndarray], coupling: float,
                   lambda0: float | None, tol: float, max_iter: int) -> IterationTrace:
    """The ``_iterates`` prices and imbalances up to the stop, at most max_iter + 1 of
    each. No power row is kept: the trace holds ``power`` and derives them on read."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    guard = DIVERGENCE_FACTOR * max(abs(total_load(s)), 1.0)

    lams, imbalances = [], []
    for k, (lam, _, imbalance) in enumerate(_iterates(s, power, coupling, lambda0)):
        lams.append(lam)
        imbalances.append(imbalance)
        if not math.isfinite(imbalance) or abs(imbalance) > guard:
            stop = StopReason.DIVERGED
        elif abs(imbalance) < tol:
            stop = StopReason.TOLERANCE
        elif k >= max_iter:
            stop = StopReason.MAX_ITERATIONS
        else:
            continue
        column = np.array(imbalances)
        return IterationTrace(np.array(lams), column, -column / s.beta,
                              stop is StopReason.TOLERANCE, stop, power)


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
    return _run_iteration(s, _dual_power(s), alpha, lambda0, tol, max_iter)


def mom_inner_minimize(lam: float, s: Scenario, rho: float) -> tuple[float, ...]:
    """Exact minimizer of the penalized stage problem at price ``lam``.

    Solves, simultaneously for all units,

        2 a_i p_i + b_i - rho * (D - sum_j p_j) = lam

    which is the SPD linear system (diag(2a) + rho * ones) p = lam - b + rho*D.
    The matrix is diagonal plus rank one, so the Sherman-Morrison formula
    solves it in O(N) without forming it.
    """
    return tuple(_mom_power(s, rho)(lam).tolist())


def initial_mom_state(s: Scenario, rho: float, lambda0: float | None = None) -> IterState:
    """State k=0 of the method of multipliers: penalized minimizer at lambda0."""
    return _state(s, _mom_power(s, rho), rho, lambda0)


def mom_step(st: IterState, s: Scenario, rho: float) -> IterState:
    """One method-of-multipliers step.

    The price moves by rho times the current imbalance, then the powers
    re-solve the penalized stage problem at the new price.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return _state(s, _mom_power(s, rho), rho, st.lam, st.imbalance, st.k + 1)


def mom_solve(s: Scenario, rho: float, tol: float = 1e-6, max_iter: int = 10000,
              lambda0: float | None = None) -> IterationTrace:
    """Iterate mom_step until |imbalance| < tol; same semantics as dual_ascent_solve."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return _run_iteration(s, _mom_power(s, rho), rho, lambda0, tol, max_iter)


def mom_contraction_factor(s: Scenario, rho: float) -> float:
    """Per-step imbalance ratio 1/(1 + rho*S); in (0, 1) for every rho > 0.

    Always below one, so the iteration is stable for any positive penalty.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return 1.0 / (1.0 + rho * aggregate_power_slope(s))
