"""Continuous-time closed loop: frequency models, controllers, integrators.

The controllers are the continuous counterparts of the two dispatch
iterations. With cost-derived gains K/(2*a_i*tau), integral control is
the dual ascent seen through a forward-Euler lens, and the coupled PI law
is the method of multipliers; `experiments.check_euler_equivalence`
asserts both identities step for step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ControllerConfig,
    ControllerKind,
    CostCoefficients,
    Scenario,
    _rank_one,
    integral_gain,
    total_load,
)

__all__ = [
    "FrequencyModel",
    "Inertial",
    "LoadEvent",
    "QuasiStatic",
    "SimState",
    "SimulationTrace",
    "frequency_deviation",
    "integral_rhs",
    "pi_frequency_response",
    "pi_rhs",
    "settling_time",
    "simulate",
    "step_euler",
    "step_rk4",
]


@dataclass(frozen=True)
class QuasiStatic:
    """Algebraic frequency model: delta_f = (sum(p) - demand) / beta.

    The minimal model under which a price step of alpha*(imbalance) and a
    frequency feedback of -K*delta_f are the same thing, with beta = K/alpha.
    """

    beta: float


@dataclass(frozen=True)
class Inertial:
    """First-order aggregate frequency with inertia and damping.

    m_inertia * d(delta_f)/dt = (sum(p) - demand) - d_damp * delta_f.

    A robustness extension only; it is excluded from the exact
    discrete/continuous equivalence checks, which assume QuasiStatic.
    """

    m_inertia: float
    d_damp: float = 0.0


FrequencyModel = QuasiStatic | Inertial


@dataclass(frozen=True)
class SimState:
    """Closed-loop state at time t: power vector and frequency deviation.

    Under QuasiStatic the deviation is algebraic and always consistent
    with p; under Inertial it is an integrated state of its own.
    """

    t: float
    p: tuple[float, ...]
    delta_f: float


@dataclass(frozen=True)
class LoadEvent:
    """A step change of the load vector at a given (grid-snapped) time."""

    time: float
    loads: tuple[float, ...]


@dataclass(frozen=True)
class SimulationTrace:
    """All samples of one closed-loop run, in strictly increasing time."""

    samples: tuple[SimState, ...]
    events: tuple[LoadEvent, ...]
    controller: ControllerConfig
    model: FrequencyModel
    scenario: Scenario


def frequency_deviation(p, d_total: float, beta: float) -> float:
    """Quasi-static deviation (sum(p) - d_total) / beta.

    Sign convention: surplus generation raises the frequency.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    return (sum(p) - d_total) / beta


def _law(s: Scenario, cfg: ControllerConfig):
    """rhs(state) = -g * delta_f with g_i = K/(2 a_i tau), times beta/(beta + K S) for PI.

    Loads do not enter g, so one run computes it once and steps with the result.
    """
    g = np.array([integral_gain(gen.cost, cfg.gain_K, cfg.tau) for gen in s.generators])
    if cfg.kind is ControllerKind.PROPORTIONAL_INTEGRAL:
        g *= s.beta / (s.beta + cfg.gain_K * _rank_one(s)[1])
    return lambda state, *_: -g * state.delta_f


def integral_rhs(state: SimState, s: Scenario, cfg: ControllerConfig) -> np.ndarray:
    """Integral control law: dP_i/dt = -(K / (2 a_i tau)) * delta_f."""
    if cfg.kind is not ControllerKind.INTEGRAL:
        raise ValueError("integral_rhs requires an integral controller config")
    return _law(s, cfg)(state)


def pi_rhs(state: SimState, s: Scenario, cfg: ControllerConfig) -> np.ndarray:
    """Coupled PI law, solved exactly for dP/dt.

    The defining relations are, for every unit i,

        2 a_i tau dP_i/dt + K tau (sum_j dP_j/dt) / beta = -K delta_f

    where the middle term is K*tau*d(delta_f)/dt under the quasi-static
    closure. The system is diagonal plus rank one; solving it gives the
    integral law with every gain scaled by one factor:

        dP_i/dt = -(K / (2 a_i tau)) * beta / (beta + K S) * delta_f,  S = sum 1/(2 a_i)
    """
    if cfg.kind is not ControllerKind.PROPORTIONAL_INTEGRAL:
        raise ValueError("pi_rhs requires a PI controller config")
    return _law(s, cfg)(state)


def _as_floats(arr) -> tuple[float, ...]:
    return tuple(np.asarray(arr, dtype=float).tolist())


def step_euler(rhs, state: SimState, s: Scenario, cfg: ControllerConfig,
               h: float, model: FrequencyModel | None = None) -> SimState:
    """One forward-Euler step of size h.

    Under QuasiStatic the new deviation is recomputed algebraically from
    the new powers; under Inertial it is integrated alongside them.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if model is None:
        model = QuasiStatic(s.beta)
    d = total_load(s)
    dp = np.asarray(rhs(state, s, cfg))
    p_new = _as_floats(np.asarray(state.p) + h * dp)
    if isinstance(model, QuasiStatic):
        df_new = frequency_deviation(p_new, d, model.beta)
    else:
        df_new = state.delta_f + h * ((sum(state.p) - d)
                                      - model.d_damp * state.delta_f) / model.m_inertia
    return SimState(state.t + h, p_new, df_new)


def step_rk4(rhs, state: SimState, s: Scenario, cfg: ControllerConfig,
             h: float, model: FrequencyModel | None = None) -> SimState:
    """One classical 4-stage Runge-Kutta step of size h."""
    if h <= 0:
        raise ValueError("h must be > 0")
    if model is None:
        model = QuasiStatic(s.beta)
    d = total_load(s)
    t, p0 = state.t, np.asarray(state.p)

    if isinstance(model, QuasiStatic):
        beta = model.beta

        def stage(ts, p_arr):
            pt = _as_floats(p_arr)
            return SimState(ts, pt, frequency_deviation(pt, d, beta))

        k1 = np.asarray(rhs(state, s, cfg))
        k2 = np.asarray(rhs(stage(t + 0.5 * h, p0 + 0.5 * h * k1), s, cfg))
        k3 = np.asarray(rhs(stage(t + 0.5 * h, p0 + 0.5 * h * k2), s, cfg))
        k4 = np.asarray(rhs(stage(t + h, p0 + h * k3), s, cfg))
        p_new = _as_floats(p0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        return SimState(t + h, p_new, frequency_deviation(p_new, d, beta))

    def deriv(ts, y):
        st = SimState(ts, _as_floats(y[:-1]), float(y[-1]))
        dp = np.asarray(rhs(st, s, cfg))
        ddf = ((y[:-1].sum() - d) - model.d_damp * y[-1]) / model.m_inertia
        return np.append(dp, ddf)

    y0 = np.append(p0, state.delta_f)
    k1 = deriv(t, y0)
    k2 = deriv(t + 0.5 * h, y0 + 0.5 * h * k1)
    k3 = deriv(t + 0.5 * h, y0 + 0.5 * h * k2)
    k4 = deriv(t + h, y0 + h * k3)
    y_new = y0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return SimState(t + h, _as_floats(y_new[:-1]), float(y_new[-1]))


def _snap_events(events, h: float, n_steps: int, n_loads: int):
    """Validate the event list and snap each time to the step grid."""
    snapped: list[LoadEvent] = []
    by_index: dict[int, tuple[float, ...]] = {}
    prev = -math.inf
    for ev in events:
        if isinstance(ev, LoadEvent):
            t_ev, loads = ev.time, ev.loads
        else:
            t_ev, loads = ev
        if not math.isfinite(t_ev) or t_ev < 0:
            raise ValueError(f"event time {t_ev!r} must be finite and >= 0")
        if t_ev < prev:
            raise ValueError("events must be sorted by time")
        prev = t_ev
        loads = tuple(float(x) for x in loads)
        if len(loads) != n_loads:
            raise ValueError(f"event at t={t_ev} has {len(loads)} loads, expected {n_loads}")
        if not all(math.isfinite(x) for x in loads):
            raise ValueError(f"event at t={t_ev} has non-finite loads")
        idx = round(min(t_ev / h, n_steps + 1.0))  # clamped: a huge t_ev / h cannot overflow
        if idx > n_steps:
            raise ValueError(f"event at t={t_ev} lies beyond t_end")
        by_index[idx] = loads  # events snapping to the same step: last wins
        snapped.append(LoadEvent(idx * h, loads))
    return snapped, by_index


def simulate(s: Scenario, cfg: ControllerConfig,
             model: FrequencyModel | None = None, *, h: float, t_end: float,
             events=(), method: str = "rk4") -> SimulationTrace:
    """Integrate the closed loop from the generators' initial outputs.

    Sample i lies at t = i*h. Load-step events are snapped to the nearest
    step of the fixed grid and applied at that sample. ``method`` selects the integrator ("rk4" or
    "euler"); use "euler" with h equal to the scenario tau to reproduce
    the discrete solver iterates exactly. Under Inertial the deviation
    starts at zero and is integrated; the PI controller requires the
    QuasiStatic model because its law closes through that relation.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if not (math.isfinite(h) and math.isfinite(t_end / h)):
        raise ValueError("h, t_end and t_end/h must be finite")
    if t_end <= h:
        raise ValueError("t_end must exceed h")
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown integration method {method!r}")
    if model is None:
        model = QuasiStatic(s.beta)
    if cfg.kind is ControllerKind.PROPORTIONAL_INTEGRAL and not isinstance(model, QuasiStatic):
        raise ValueError("the PI controller requires the QuasiStatic frequency model")

    rhs = _law(s, cfg)
    stepper = step_rk4 if method == "rk4" else step_euler
    n_steps = int(round(t_end / h))
    snapped, by_index = _snap_events(events, h, n_steps, len(s.loads))

    current = s
    if 0 in by_index:
        current = replace(current, loads=by_index[0])
    p0 = tuple(float(g.p_init) for g in s.generators)
    if isinstance(model, QuasiStatic):
        df0 = frequency_deviation(p0, total_load(current), model.beta)
    else:
        df0 = 0.0
    state = SimState(0.0, p0, df0)
    samples = [state]

    for i in range(1, n_steps + 1):
        nxt = stepper(rhs, state, current, cfg, h, model)
        delta_f = nxt.delta_f
        if i in by_index:
            current = replace(current, loads=by_index[i])
            if isinstance(model, QuasiStatic):
                delta_f = frequency_deviation(nxt.p, total_load(current), model.beta)
        state = SimState(i * h, nxt.p, delta_f)  # i*h, since summing h drifts off the grid
        samples.append(state)

    return SimulationTrace(tuple(samples), tuple(snapped), cfg, model, s)


def settling_time(trace: SimulationTrace, eps: float) -> float:
    """Earliest time after the last event with |delta_f| inside the eps band for good.

    Returns the last event's time when the band is never left afterwards,
    and math.inf when the final sample is still outside it.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    samples = trace.samples
    t0 = samples[0].t
    start = trace.events[-1].time if trace.events else t0
    # Samples and event times lie on the grid t0 + i*h.
    idx0 = 0
    if start > t0 and len(samples) > 1:
        idx0 = min(round((start - t0) / (samples[1].t - t0)), len(samples) - 1)
    for j in range(len(samples) - 1, idx0 - 1, -1):
        if abs(samples[j].delta_f) > eps:
            return math.inf if j == len(samples) - 1 else samples[j + 1].t
    return start


def pi_frequency_response(cost: CostCoefficients, gain_k: float, tau: float,
                          omega: float) -> complex:
    """PI transfer function -(K/(2a)) * (1 + 1/(tau*s)) evaluated at s = j*omega.

    The magnitude decreases monotonically with omega toward the
    proportional gain K/(2a). omega = 0 is the integrator pole and is
    rejected.
    """
    if omega == 0:
        raise ValueError("omega must be nonzero (integrator pole at 0)")
    s_val = 1j * omega
    return -(gain_k / (2.0 * cost.a)) * (1.0 + 1.0 / (tau * s_val))
