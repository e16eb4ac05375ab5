"""Reproducible studies tying the discrete solvers to the continuous loop.

Everything here is deterministic: the same inputs produce bitwise-equal
reports.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dispatch import (
    IterationTrace,
    StopReason,
    _check_solver,
    _dual_power,
    _iterates,
    _mom_power,
    analytic_dispatch,
    dual_ascent_solve,
    dual_contraction_factor,
    mom_contraction_factor,
    mom_solve,
)
from .dynamics import (
    QuasiStatic,
    SimulationTrace,
    _check_model,
    _gains,
    settling_time,
    simulate,
)
from .model import Columns, ControllerConfig, ControllerKind, Scenario, _row_sum, total_load

__all__ = [
    "ConvergenceReport",
    "EquivalencePair",
    "EquivalenceReport",
    "MethodConvergence",
    "SteadyStateReport",
    "SweepRecord",
    "check_euler_equivalence",
    "compare_convergence",
    "empirical_ratio",
    "sweep",
    "verify_steady_state_optimality",
]


# Power cells per side that check_euler_equivalence holds before it folds them
# into its deviation: 64 KiB of float64 each.
_CHUNK_CELLS = 8192

# compare_convergence's load step, in scenario loads, and its settling band on |delta_f| (Hz)
_LOAD_SCALE = 1.2
_SETTLE_EPS = 1e-4


class EquivalencePair(Enum):
    DUAL_VS_INTEGRAL = "dual-integral"
    MOM_VS_PI = "mom-pi"


@dataclass(frozen=True)
class EquivalenceReport:
    """Largest power-command gap between a discrete run and its Euler twin."""

    pair: EquivalencePair
    max_abs_deviation: float
    steps: int


def check_euler_equivalence(s: Scenario, pair: EquivalencePair, steps: int,
                            lambda0: float | None = None) -> EquivalenceReport:
    """Run a discrete solver and its continuous twin side by side.

    The discrete side is the solvers' own iteration with step size K/beta;
    the continuous side integrates the matching controller with forward
    Euler at h = tau from the identical starting powers. Both recursions are
    algebraically the same map, so the deviation is floating-point residue
    only, or NaN once either side overflows. Each side's power rows go into a
    buffer of a fixed number of cells, and each full buffer is folded into the
    deviation at once, so the memory used does not grow with ``steps``.

    Both sides contract onto the same dispatch, so in floating point the joint
    state (price, imbalance, Euler powers) soon settles on a fixed point or a
    short cycle. The next state is a function of that state alone, so once it
    repeats, bit for bit, every later row pair repeats one already folded in,
    and the loop stops there with the report it would give after ``steps``.
    Each state is compared with the states one and two steps back, so a fixed
    point or a 2-cycle stops on the step it first repeats, and with the state
    held at the last power-of-two step (Brent's method), which catches a longer
    cycle one period after the first power of two at or past both its start and
    its period. Prices and imbalances are compared first, and the bytes of the
    whole state only when both match. So the cost is bounded by where the cycle
    starts and its length, not by ``steps``. A run that overflows never repeats.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_solver(lambda0=lambda0)
    _check_model(QuasiStatic(s.beta))
    coupling = s.gain_K / s.beta  # alpha and rho implied by the frequency map

    if pair is EquivalencePair.DUAL_VS_INTEGRAL:
        kind = ControllerKind.INTEGRAL
    elif pair is EquivalencePair.MOM_VS_PI:
        kind = ControllerKind.PROPORTIONAL_INTEGRAL
    else:
        raise ValueError(f"unknown equivalence pair {pair!r}")

    g = _gains(s, ControllerConfig(kind, s.gain_K, s.tau))  # K and tau before rho = K/beta
    power = _dual_power(s) if kind is ControllerKind.INTEGRAL else _mom_power(s, coupling)
    d, beta, tau, isfinite = total_load(s), s.beta, s.tau, math.isfinite
    iterates = _iterates(s, power, coupling, lambda0)
    lam, p, imbalance = next(iterates)
    total, rows = _row_sum(p), max(1, _CHUNK_CELLS // len(p))
    exact, euler, deviation = [], [], 0.0
    state = back = saved = (lam, imbalance), p  # each: (price, imbalance), Euler powers
    for t, (lam, row, imbalance) in zip(range(1, steps + 1), iterates):
        p = p + tau * (g * -((total - d) / beta))  # Euler at h = tau
        total = _row_sum(p)
        if not (isfinite(imbalance) and isfinite(total)):  # else a term overflowed
            return EquivalenceReport(pair, math.nan, steps)
        exact.append(row)
        euler.append(p)
        if len(exact) == rows:
            deviation = _fold(deviation, exact, euler)
        state, back, back2 = ((lam, imbalance), p), state, back
        if (state[0] in (back[0], back2[0], saved[0])
                and _bits(state) in map(_bits, (back, back2, saved))):
            break  # a repeat: every later row pair is one already taken
        if t & (t - 1) == 0:  # Brent: hold the state of each power-of-two step
            saved = state
    return EquivalenceReport(pair, _fold(deviation, exact, euler), steps)


def _bits(state: tuple) -> bytes:
    """A joint state ((price, imbalance), Euler powers) as bytes, so that equal bytes
    mean the same state, -0.0 apart from 0.0."""
    (lam, imbalance), p = state
    return struct.pack("2d", lam, imbalance) + p.tobytes()


def _fold(deviation: float, exact: list, euler: list) -> float:
    """max(deviation, max|exact - euler|) over two equal lists of float64 rows of
    finite powers, whose difference may still overflow to inf; empties both lists.
    The rows are joined as bytes, which costs less per row than stacking them."""
    if exact:
        with np.errstate(over="ignore"):
            gap = np.frombuffer(b"".join(exact)) - np.frombuffer(b"".join(euler))
        deviation = max(deviation, float(np.abs(gap, out=gap).max()))
        exact.clear()
        euler.clear()
    return deviation


def empirical_ratio(trace: IterationTrace, tol: float) -> float | None:
    """Measured per-step imbalance contraction of a solver trace.

    Geometric mean of consecutive |imbalance| ratios over the convergent
    tail: ratios whose endpoints are below 10*tol are dropped (they sit on
    the rounding floor), then the first fifth of the remainder is dropped.
    Returns None when no usable ratio remains (e.g. deadbeat convergence).
    """
    imb = np.abs(trace.imbalance).tolist()
    floor = 10.0 * tol
    ratios = [imb[k + 1] / imb[k]
              for k in range(len(imb) - 1)
              if imb[k] >= floor and imb[k + 1] >= floor]
    if not ratios:
        return None
    tail = ratios[int(0.2 * len(ratios)):]
    return math.exp(_row_sum(np.array([math.log(r) for r in tail])) / len(tail))


@dataclass(frozen=True)
class MethodConvergence:
    """Discrete-solver summary: how fast it got there, or how it failed."""

    iterations: int
    converged: bool
    stop_reason: StopReason
    empirical_ratio: float | None
    predicted_ratio: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Side-by-side convergence of both solvers and both controllers."""

    dual: MethodConvergence
    mom: MethodConvergence
    settling_integral: float
    settling_pi: float


def _method_summary(trace: IterationTrace, tol: float, predicted: float) -> MethodConvergence:
    return MethodConvergence(
        iterations=len(trace.lam) - 1,
        converged=trace.converged,
        stop_reason=trace.stop_reason,
        empirical_ratio=empirical_ratio(trace, tol),
        predicted_ratio=predicted,
    )


def compare_convergence(s: Scenario, alpha: float, rho: float,
                        tol: float = 1e-6, *, max_iter: int = 10000,
                        lambda0: float | None = None) -> ConvergenceReport:
    """Run both discrete solvers and both continuous controllers.

    The continuous runs share everything: economic initialization at the
    scenario load D, a load step to load_scale = 1.2 times D at t = tau,
    h = tau/100, t_end = 100*tau and the band settle_eps = 1e-4 Hz. A
    diverged solver is reported in its stop_reason, never raised.

    The loop's coupling is rank one, so delta_f sees the fleet only
    through S = sum 1/(2 a_i) and D: it is the delta_f of one unit with
    1/(2a) = S started at p = D. The continuous runs are that unit's, and
    it settles exactly as the fleet does, at any N.

    Under the quasi-static model each continuous run decays as a single
    exponential from delta_f0 = (1 - load_scale) * D / beta, with
    S = sum 1/(2 a_i):

        integral:  rate K*S/(tau*beta)
        PI:        rate K*S/(tau*(beta + K*S))

    so the PI loop is the slower one for every positive K, S, beta, and
    each settling time is tau + ln(|delta_f0|/settle_eps)/rate to within
    one step h. Both runs are ``simulate`` runs, which sample that closed
    form on the grid, so the settling times are sample times.
    """
    if alpha <= 0 or rho <= 0:
        raise ValueError("alpha and rho must be > 0")
    _check_solver(alpha=alpha, rho=rho, tol=tol, lambda0=lambda0, max_iter=max_iter)
    dual_trace = dual_ascent_solve(s, alpha, tol, max_iter, lambda0)
    mom_trace = mom_solve(s, rho, tol, max_iter, lambda0)
    dual = _method_summary(dual_trace, tol, dual_contraction_factor(s, alpha))
    mom = _method_summary(mom_trace, tol, mom_contraction_factor(s, rho))

    d = total_load(s)
    unit = Scenario._of(("equivalent",), Columns.of([0.5 / s.columns.slope], [0.0], [0.0], [d]),
                        (d,), s.gain_K, s.beta, s.tau)
    events = [(s.tau, (_LOAD_SCALE * d,))]
    h, t_end = s.tau / 100.0, 100.0 * s.tau
    model = QuasiStatic(s.beta)
    settle = {}
    for kind in (ControllerKind.INTEGRAL, ControllerKind.PROPORTIONAL_INTEGRAL):
        cfg = ControllerConfig(kind, s.gain_K, s.tau)
        trace = simulate(unit, cfg, model, h=h, t_end=t_end, events=events)
        settle[kind] = settling_time(trace, _SETTLE_EPS)

    return ConvergenceReport(
        dual=dual, mom=mom,
        settling_integral=settle[ControllerKind.INTEGRAL],
        settling_pi=settle[ControllerKind.PROPORTIONAL_INTEGRAL],
    )


@dataclass(frozen=True)
class SteadyStateReport:
    """Did the loop land on the economic dispatch with zero deviation?"""

    passed: bool
    power_error: float
    freq_error: float
    spread_error: float
    failures: tuple[str, ...]


def verify_steady_state_optimality(trace: SimulationTrace, s: Scenario,
                                   tol: float) -> SteadyStateReport:
    """Check the final sample of a run against the dispatch optimum.

    Three checks, all against ``tol``: final powers match the analytic
    dispatch at the final load, |delta_f| is inside tol, and the marginal
    costs agree to within tol. Failed checks are listed, not raised.
    """
    final_loads = trace.events[-1].loads if trace.events else s.loads
    target = analytic_dispatch(s.replace(loads=final_loads))
    last_p = trace.p[-1].tolist()

    power_error = max(abs(x - y) for x, y in zip(last_p, target.p))
    freq_error = abs(float(trace.delta_f[-1]))
    marginals = s.columns.marginal(trace.p[-1]).tolist()
    spread_error = max(marginals) - min(marginals)

    failures = []
    if power_error >= tol:
        failures.append(f"power: max deviation {power_error:.3e} from analytic dispatch")
    if freq_error >= tol:
        failures.append(f"frequency: |delta_f| = {freq_error:.3e}")
    if spread_error >= tol:
        failures.append(f"marginal_spread: {spread_error:.3e}")
    return SteadyStateReport(
        passed=not failures,
        power_error=power_error,
        freq_error=freq_error,
        spread_error=spread_error,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point. Fields not exercised by the swept parameter are None."""

    value: float
    dual: MethodConvergence | None = None
    mom: MethodConvergence | None = None
    settling_integral: float | None = None
    settling_pi: float | None = None


def sweep(s: Scenario, parameter: str, values, tol: float = 1e-6, *,
          max_iter: int = 10000,
          lambda0: float | None = None) -> tuple[SweepRecord, ...]:
    """One convergence/settling record per parameter value.

    parameter is one of "alpha", "rho", "K", "tau". Sweeping alpha or rho
    reruns the matching discrete solver only; sweeping K or tau reruns
    both solvers (at the implied alpha = rho = K/beta) and both continuous
    controllers. Per-value failures land in the record's stop_reason.
    """
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    if any(not math.isfinite(v) or v <= 0 for v in values):
        raise ValueError("all sweep values must be positive and finite")
    if parameter not in ("alpha", "rho", "K", "tau"):
        raise ValueError(f"unknown sweep parameter {parameter!r}")

    records = []
    for v in values:
        if parameter == "alpha":
            trace = dual_ascent_solve(s, v, tol, max_iter, lambda0)
            records.append(SweepRecord(v, dual=_method_summary(
                trace, tol, dual_contraction_factor(s, v))))
        elif parameter == "rho":
            trace = mom_solve(s, v, tol, max_iter, lambda0)
            records.append(SweepRecord(v, mom=_method_summary(
                trace, tol, mom_contraction_factor(s, v))))
        else:
            s_v = s.replace(gain_K=v) if parameter == "K" else s.replace(tau=v)
            coupling = s_v.gain_K / s_v.beta
            report = compare_convergence(s_v, coupling, coupling, tol,
                                         max_iter=max_iter, lambda0=lambda0)
            records.append(SweepRecord(v, **vars(report)))
    return tuple(records)
