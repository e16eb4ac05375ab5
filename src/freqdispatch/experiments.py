"""Reproducible studies tying the discrete solvers to the continuous loop.

Everything here is deterministic: the same inputs produce bitwise-equal
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dispatch import (
    IterationTrace,
    StopReason,
    analytic_dispatch,
    dual_ascent_solve,
    dual_ascent_step,
    dual_contraction_factor,
    initial_dual_state,
    initial_mom_state,
    mom_contraction_factor,
    mom_solve,
    mom_step,
)
from .dynamics import (
    QuasiStatic,
    SimulationTrace,
    _gains,
    frequency_deviation,
    settling_time,
    simulate,
)
from .model import ControllerConfig, ControllerKind, Scenario, marginal_cost, total_load

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

    The discrete side iterates with step size K/beta; the continuous side
    integrates the matching controller with forward Euler at h = tau from
    the identical starting powers. Both recursions are algebraically the
    same map, so the reported deviation is floating-point residue only.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    coupling = s.gain_K / s.beta  # alpha and rho implied by the frequency map

    if pair is EquivalencePair.DUAL_VS_INTEGRAL:
        st = initial_dual_state(s, lambda0)
        advance = lambda cur: dual_ascent_step(cur, s, coupling)
        kind = ControllerKind.INTEGRAL
    elif pair is EquivalencePair.MOM_VS_PI:
        st = initial_mom_state(s, coupling, lambda0)
        advance = lambda cur: mom_step(cur, s, coupling)
        kind = ControllerKind.PROPORTIONAL_INTEGRAL
    else:
        raise ValueError(f"unknown equivalence pair {pair!r}")

    g = _gains(s, ControllerConfig(kind, s.gain_K, s.tau))
    d = total_load(s)
    p, listed = np.array(st.p), st.p
    deviation = 0.0
    for _ in range(steps):
        st = advance(st)
        p = p + s.tau * (g * -frequency_deviation(listed, d, s.beta))  # Euler at h = tau
        listed = p.tolist()
        deviation = max(deviation, max(abs(x - y) for x, y in zip(st.p, listed)))
    return EquivalenceReport(pair, deviation, steps)


def empirical_ratio(trace: IterationTrace, tol: float) -> float | None:
    """Measured per-step imbalance contraction of a solver trace.

    Geometric mean of consecutive |imbalance| ratios over the convergent
    tail: ratios whose endpoints are below 10*tol are dropped (they sit on
    the rounding floor), then the first fifth of the remainder is dropped.
    Returns None when no usable ratio remains (e.g. deadbeat convergence).
    """
    imb = [abs(st.imbalance) for st in trace.states]
    floor = 10.0 * tol
    ratios = [imb[k + 1] / imb[k]
              for k in range(len(imb) - 1)
              if imb[k] >= floor and imb[k + 1] >= floor]
    if not ratios:
        return None
    tail = ratios[int(0.2 * len(ratios)):]
    return math.exp(sum(math.log(r) for r in tail) / len(tail))


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
        iterations=len(trace.states) - 1,
        converged=trace.converged,
        stop_reason=trace.stop_reason,
        empirical_ratio=empirical_ratio(trace, tol),
        predicted_ratio=predicted,
    )


def _economic_start(s: Scenario) -> Scenario:
    sol = analytic_dispatch(s)
    gens = tuple(replace(g, p_init=p) for g, p in zip(s.generators, sol.p))
    return replace(s, generators=gens)


def compare_convergence(s: Scenario, alpha: float, rho: float,
                        tol: float = 1e-6, *, max_iter: int = 10000,
                        lambda0: float | None = None, load_scale: float = 1.2,
                        settle_eps: float = 1e-4) -> ConvergenceReport:
    """Run both discrete solvers and both continuous controllers.

    The continuous runs share everything: economic initialization at the
    scenario load, a load step to load_scale times the original at t =
    tau, h = tau/100, t_end = 100*tau. A diverged solver is reported in
    its stop_reason, never raised.

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
    dual_trace = dual_ascent_solve(s, alpha, tol, max_iter, lambda0)
    mom_trace = mom_solve(s, rho, tol, max_iter, lambda0)
    dual = _method_summary(dual_trace, tol, dual_contraction_factor(s, alpha))
    mom = _method_summary(mom_trace, tol, mom_contraction_factor(s, rho))

    start = _economic_start(s)
    new_loads = tuple(x * load_scale for x in s.loads)
    events = [(s.tau, new_loads)]
    h, t_end = s.tau / 100.0, 100.0 * s.tau
    model = QuasiStatic(s.beta)
    settle = {}
    for kind in (ControllerKind.INTEGRAL, ControllerKind.PROPORTIONAL_INTEGRAL):
        cfg = ControllerConfig(kind, s.gain_K, s.tau)
        trace = simulate(start, cfg, model, h=h, t_end=t_end, events=events)
        settle[kind] = settling_time(trace, settle_eps)

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
    target = analytic_dispatch(replace(s, loads=final_loads))
    last_p = trace.p[-1].tolist()

    power_error = max(abs(x - y) for x, y in zip(last_p, target.p))
    freq_error = abs(float(trace.delta_f[-1]))
    marginals = [marginal_cost(g.cost, pi) for g, pi in zip(s.generators, last_p)]
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
    dual: MethodConvergence | None
    mom: MethodConvergence | None
    settling_integral: float | None
    settling_pi: float | None


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
            records.append(SweepRecord(
                value=v,
                dual=_method_summary(trace, tol, dual_contraction_factor(s, v)),
                mom=None, settling_integral=None, settling_pi=None))
        elif parameter == "rho":
            trace = mom_solve(s, v, tol, max_iter, lambda0)
            records.append(SweepRecord(
                value=v, dual=None,
                mom=_method_summary(trace, tol, mom_contraction_factor(s, v)),
                settling_integral=None, settling_pi=None))
        else:
            s_v = replace(s, gain_K=v) if parameter == "K" else replace(s, tau=v)
            coupling = s_v.gain_K / s_v.beta
            report = compare_convergence(s_v, coupling, coupling, tol,
                                         max_iter=max_iter, lambda0=lambda0)
            records.append(SweepRecord(
                value=v, dual=report.dual, mom=report.mom,
                settling_integral=report.settling_integral,
                settling_pi=report.settling_pi))
    return tuple(records)
