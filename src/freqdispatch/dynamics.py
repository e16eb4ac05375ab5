"""Continuous-time closed loop: frequency models, controllers, integrators.

The controllers are the continuous counterparts of the two dispatch
iterations. With cost-derived gains K/(2*a_i*tau), integral control is
the dual ascent seen through a forward-Euler lens, and the coupled PI law
is the method of multipliers; `experiments.check_euler_equivalence`
asserts both identities step for step.
"""

from __future__ import annotations

import math
from collections import namedtuple
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


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """One closed-loop run as columns ``t`` (n+1,), ``p`` (n+1, N) and ``delta_f``
    (n+1,): one row per sample, in strictly increasing time."""

    t: np.ndarray
    p: np.ndarray
    delta_f: np.ndarray
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


def _gains(s: Scenario, cfg: ControllerConfig) -> np.ndarray:
    """g with dP/dt = -g * delta_f: g_i = K/(2 a_i tau), times beta/(beta + K S) for PI.

    Loads do not enter g, so one run computes it once and steps with the result.
    """
    g = np.array([integral_gain(gen.cost, cfg.gain_K, cfg.tau) for gen in s.generators])
    if cfg.kind is ControllerKind.PROPORTIONAL_INTEGRAL:
        g *= s.beta / (s.beta + cfg.gain_K * _rank_one(s)[1])
    return g


def _law(s: Scenario, cfg: ControllerConfig):
    """rhs(state) = -g * delta_f with the gains of ``_gains``."""
    g = _gains(s, cfg)
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


# pack(state) -> y, unpack(t, y) -> state, deriv(state) -> dy/dt
_Loop = namedtuple("_Loop", "pack unpack deriv")


def _closure(rhs, s: Scenario, cfg: ControllerConfig, model: FrequencyModel | None) -> _Loop:
    """How ``model`` closes the loop around ``rhs`` at the scenario's load.

    Under QuasiStatic y = p and unpack recomputes delta_f from p at the
    scenario's load; under Inertial y = (p, delta_f).
    """
    if model is None:
        model = QuasiStatic(s.beta)
    d = total_load(s)
    if isinstance(model, QuasiStatic):
        def unpack(t, y):
            p = tuple(y.tolist())
            return SimState(t, p, frequency_deviation(p, d, model.beta))

        return _Loop(lambda state: np.asarray(state.p), unpack,
                     lambda state: np.asarray(rhs(state, s, cfg)))

    def deriv(state):
        ddf = ((sum(state.p) - d) - model.d_damp * state.delta_f) / model.m_inertia
        return np.append(rhs(state, s, cfg), ddf)

    return _Loop(lambda state: np.append(state.p, state.delta_f),
                 lambda t, y: SimState(t, tuple(y[:-1].tolist()), float(y[-1])), deriv)


def _euler(loop: _Loop, state: SimState, h: float) -> np.ndarray:
    return loop.pack(state) + h * loop.deriv(state)


def _rk4(loop: _Loop, state: SimState, h: float) -> np.ndarray:
    pack, unpack, deriv = loop
    t, y = state.t, pack(state)
    k1 = deriv(state)
    k2 = deriv(unpack(t + 0.5 * h, y + 0.5 * h * k1))
    k3 = deriv(unpack(t + 0.5 * h, y + 0.5 * h * k2))
    k4 = deriv(unpack(t + h, y + h * k3))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_euler(rhs, state: SimState, s: Scenario, cfg: ControllerConfig,
               h: float, model: FrequencyModel | None = None) -> SimState:
    """One forward-Euler step of size h.

    Under QuasiStatic the new deviation is recomputed algebraically from
    the new powers; under Inertial it is integrated alongside them.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    loop = _closure(rhs, s, cfg, model)
    return loop.unpack(state.t + h, _euler(loop, state, h))


def step_rk4(rhs, state: SimState, s: Scenario, cfg: ControllerConfig,
             h: float, model: FrequencyModel | None = None) -> SimState:
    """One classical 4-stage Runge-Kutta step of size h."""
    if h <= 0:
        raise ValueError("h must be > 0")
    loop = _closure(rhs, s, cfg, model)
    return loop.unpack(state.t + h, _rk4(loop, state, h))


def _check_events(events, n_loads: int, error=lambda where, why: ValueError(f"{where}: {why}"),
                  where: str = "events") -> tuple[LoadEvent, ...]:
    """(time, loads) pairs or LoadEvents as LoadEvents, with finite times >= 0 in
    order and n_loads finite loads each; else raise error(f"{where}[i].field", why)."""
    out: list[LoadEvent] = []
    for i, ev in enumerate(events):
        t_ev, loads = (ev.time, ev.loads) if isinstance(ev, LoadEvent) else ev
        loads = tuple(float(x) for x in loads)
        if not math.isfinite(t_ev) or t_ev < 0:
            raise error(f"{where}[{i}].time", "must be finite and >= 0")
        if out and t_ev < out[-1].time:
            raise error(f"{where}[{i}].time", "events must be sorted by time")
        if len(loads) != n_loads:
            raise error(f"{where}[{i}].loads", f"expected {n_loads} loads, got {len(loads)}")
        if not all(math.isfinite(x) for x in loads):
            raise error(f"{where}[{i}].loads", "loads must be finite")
        out.append(LoadEvent(t_ev, loads))
    return tuple(out)


def _exact(g: np.ndarray, beta: float, p0: np.ndarray, t: np.ndarray,
           demand: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """The QuasiStatic closed form dP/dt = -g * (sum(p) - D) / beta sampled at ``t``.

    ``demand`` maps each sample where a load takes effect (0 always) to the total
    load from there on. Per segment, one numpy expression: the imbalance decays at
    rate sum(g)/beta and every unit moves along g/sum(g) = w/S.
    """
    shape, rate = g / g.sum(), float(g.sum()) / beta
    p = np.empty((len(t), len(p0)))
    delta_f = np.empty(len(t))
    p[0] = p0
    marks = sorted(demand)
    for a, b in zip(marks, marks[1:] + [len(t) - 1]):  # segment a..b, continuous at b
        d = demand[a]
        decay = -np.expm1(-rate * (t[a:b + 1] - t[a]))
        p[a:b + 1] = p[a] - np.outer(decay, shape * (float(p[a].sum()) - d))
        delta_f[a:b + 1] = (p[a:b + 1].sum(axis=1) - d) / beta
    return p, delta_f


def simulate(s: Scenario, cfg: ControllerConfig,
             model: FrequencyModel | None = None, *, h: float, t_end: float,
             events=(), method: str = "rk4") -> SimulationTrace:
    """Run the closed loop from the generators' initial outputs.

    Row i of the trace's columns is the sample at t = i*h, i = 0 .. round(t_end/h).
    Load-step events are snapped to the nearest step of the fixed grid and
    applied at that sample: p is continuous there and delta_f uses the new
    load. ``method`` selects the propagator:

    - "rk4" (the default) and "euler" are fixed-step integrators; use "euler"
      with h equal to the scenario tau to reproduce the discrete solver
      iterates exactly.
    - "exact" samples the closed-form trajectory, QuasiStatic only (Inertial
      raises ValueError). The loop is linear with rank-one coupling, so
      between load samples t_k the imbalance e = sum(p) - D_k decays as one
      exponential and every unit moves along w/S, w = 1/(2a), S = sum(w):

          p(t) = p_k - (w/S) * e_k * (1 - exp(-r (t - t_k)))
          delta_f = (sum(p) - D_k) / beta

      with r = K*S/(tau*beta) for integral control and K*S/(tau*(beta + K*S))
      for PI. It matches RK4 to its truncation error at a fraction of the cost.

    Under Inertial the deviation starts at zero and is integrated; the PI
    controller requires the QuasiStatic model because its law closes through
    that relation.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if not (math.isfinite(h) and math.isfinite(t_end / h)):
        raise ValueError("h, t_end and t_end/h must be finite")
    if t_end <= h:
        raise ValueError("t_end must exceed h")
    if method not in ("euler", "rk4", "exact"):
        raise ValueError(f"unknown integration method {method!r}")
    if model is None:
        model = QuasiStatic(s.beta)
    if not isinstance(model, QuasiStatic):
        if cfg.kind is ControllerKind.PROPORTIONAL_INTEGRAL:
            raise ValueError("the PI controller requires the QuasiStatic frequency model")
        if method == "exact":
            raise ValueError("the exact method requires the QuasiStatic frequency model")
    elif model.beta <= 0:
        raise ValueError("beta must be > 0")

    n_steps = int(round(t_end / h))
    snapped: list[LoadEvent] = []
    by_index: dict[int, tuple[float, ...]] = {}
    for ev in _check_events(events, len(s.loads)):  # snapped to the step grid
        idx = round(min(ev.time / h, n_steps + 1.0))  # clamped: a huge time / h cannot overflow
        if idx > n_steps:
            raise ValueError(f"event at t={ev.time} lies beyond t_end")
        by_index[idx] = ev.loads  # events snapping to the same step: last wins
        snapped.append(LoadEvent(idx * h, ev.loads))
    n = len(s.generators)
    t = np.arange(n_steps + 1) * h  # i*h, since summing h drifts off the grid
    p0 = tuple(float(g.p_init) for g in s.generators)

    if method == "exact":
        demand = {0: total_load(s)} | {i: sum(loads) for i, loads in by_index.items()}
        p, delta_f = _exact(_gains(s, cfg), model.beta, np.array(p0), t, demand)
        return SimulationTrace(t, p, delta_f, tuple(snapped), cfg, model, s)

    rhs = _law(s, cfg)
    advance = _rk4 if method == "rk4" else _euler
    loop = _closure(rhs, replace(s, loads=by_index[0]) if 0 in by_index else s, cfg, model)
    state = loop.unpack(0.0, loop.pack(SimState(0.0, p0, 0.0)))  # Inertial starts at delta_f = 0
    p = np.empty((n_steps + 1, n))
    delta_f = np.empty(n_steps + 1)
    p[0], delta_f[0] = state.p, state.delta_f

    for i in range(1, n_steps + 1):
        y = advance(loop, state, h)
        if i in by_index:
            loop = _closure(rhs, replace(s, loads=by_index[i]), cfg, model)
        state = loop.unpack(i * h, y)
        p[i], delta_f[i] = y[:n], state.delta_f

    return SimulationTrace(t, p, delta_f, tuple(snapped), cfg, model, s)


def settling_time(trace: SimulationTrace, eps: float) -> float:
    """Earliest time after the last event with |delta_f| inside the eps band for good.

    Scans the ``delta_f`` column from the last event's sample (the first
    sample without events). Returns that sample's time when the band is
    never left afterwards, and math.inf when the final sample is outside it.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    t = trace.t
    start = trace.events[-1].time if trace.events else float(t[0])
    idx0 = int(np.searchsorted(t, start))  # event times are sample times
    outside = np.flatnonzero(np.abs(trace.delta_f[idx0:]) > eps)
    if outside.size == 0:
        return start
    j = idx0 + int(outside[-1])
    return math.inf if j == len(t) - 1 else float(t[j + 1])


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
