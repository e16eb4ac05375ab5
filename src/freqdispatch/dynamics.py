"""Continuous-time closed loop: frequency models, controllers, exact propagation.

``simulate`` samples the loop's closed-form trajectory; ``step_euler`` and
``step_rk4`` are public one-step integrators of the same loop.

The controllers are the continuous counterparts of the two dispatch
iterations. With cost-derived gains K/(2*a_i*tau), integral control is
the dual ascent seen through a forward-Euler lens, and the coupled PI law
is the method of multipliers; `experiments.check_euler_equivalence`
asserts both identities step for step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ControllerConfig,
    ControllerKind,
    Scenario,
    _float,
    _row_sum,
    total_load,
)

__all__ = [
    "FrequencyModel",
    "Inertial",
    "LoadEvent",
    "MAX_TRACE_CELLS",
    "QuasiStatic",
    "SimState",
    "SimulationTrace",
    "integral_rhs",
    "pi_rhs",
    "settling_time",
    "simulate",
    "step_euler",
    "step_rk4",
]


# Largest trace simulate samples, in float64 cells of its t, p and delta_f
# columns: samples * (N + 2), 800 MB. A finer or longer grid is refused before
# anything is allocated.
MAX_TRACE_CELLS = 100_000_000


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


def _gains(s: Scenario, cfg: ControllerConfig) -> np.ndarray:
    """g with dP/dt = -g * delta_f: g_i = K/(2 a_i tau), times beta/(beta + K S) for PI.

    One array expression on the scenario's columns; loads do not enter g.
    """
    for name, value in (("gain_K", cfg.gain_K), ("tau", cfg.tau)):
        if not 0 < _float(value) < math.inf:
            raise ValueError(f"{name} must be finite and > 0")
    g = cfg.gain_K / (s.columns.two_a * cfg.tau)
    if cfg.kind is ControllerKind.PROPORTIONAL_INTEGRAL:
        g *= s.beta / (s.beta + cfg.gain_K * s.columns.slope)
    return g


def integral_rhs(state: SimState, s: Scenario, cfg: ControllerConfig) -> np.ndarray:
    """Integral control law: dP_i/dt = -(K / (2 a_i tau)) * delta_f."""
    if cfg.kind is not ControllerKind.INTEGRAL:
        raise ValueError("integral_rhs requires an integral controller config")
    return -_gains(s, cfg) * state.delta_f


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
    return -_gains(s, cfg) * state.delta_f


def _check_model(model: FrequencyModel) -> None:
    """The frequency-model rules ``simulate`` and the public steppers share."""
    if isinstance(model, QuasiStatic):
        if not (math.isfinite(model.beta) and model.beta > 0):
            raise ValueError("beta must be finite and > 0")
    elif not (math.isfinite(model.m_inertia) and model.m_inertia > 0):
        raise ValueError("m_inertia must be finite and > 0")
    elif not (math.isfinite(model.d_damp) and model.d_damp >= 0):
        raise ValueError("d_damp must be finite and >= 0")


def _closure(rhs, state: SimState, s: Scenario, cfg: ControllerConfig,
             model: FrequencyModel | None):
    """(y, unpack(t, y) -> SimState, deriv(state) -> dy/dt) for one step from
    ``state``, as ``model`` closes the loop around ``rhs`` at the scenario's load:
    under QuasiStatic y = p, delta_f = (sum(p) - D)/beta; under Inertial y = (p, delta_f).
    """
    if model is None:
        model = QuasiStatic(s.beta)
    _check_model(model)
    d = total_load(s)
    if isinstance(model, QuasiStatic):
        def unpack(t, y):
            return SimState(t, tuple(y.tolist()), (_row_sum(y) - d) / model.beta)

        return np.asarray(state.p), unpack, lambda st: np.asarray(rhs(st, s, cfg))

    def deriv(st):
        e = _row_sum(np.array(st.p, dtype=float)) - d
        ddf = (e - model.d_damp * st.delta_f) / model.m_inertia
        return np.append(rhs(st, s, cfg), ddf)

    return (np.append(state.p, state.delta_f),
            lambda t, y: SimState(t, tuple(y[:-1].tolist()), float(y[-1])), deriv)


def _check_step(h: float) -> None:
    """The step-size rule of the public steppers: h finite and > 0."""
    if h <= 0:
        raise ValueError("h must be > 0")
    if not math.isfinite(h):
        raise ValueError("h must be finite")


def step_euler(rhs, state: SimState, s: Scenario, cfg: ControllerConfig,
               h: float, model: FrequencyModel | None = None) -> SimState:
    """One forward-Euler step of size h.

    Under QuasiStatic the new deviation is recomputed algebraically from
    the new powers; under Inertial it is integrated alongside them.
    """
    _check_step(h)
    y, unpack, deriv = _closure(rhs, state, s, cfg, model)
    return unpack(state.t + h, y + h * deriv(state))


def step_rk4(rhs, state: SimState, s: Scenario, cfg: ControllerConfig,
             h: float, model: FrequencyModel | None = None) -> SimState:
    """One classical 4-stage Runge-Kutta step of size h."""
    _check_step(h)
    y, unpack, deriv = _closure(rhs, state, s, cfg, model)
    t = state.t
    k1 = deriv(state)
    k2 = deriv(unpack(t + 0.5 * h, y + 0.5 * h * k1))
    k3 = deriv(unpack(t + 0.5 * h, y + 0.5 * h * k2))
    k4 = deriv(unpack(t + h, y + h * k3))
    return unpack(t + h, y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def _check_events(events, n_loads: int, error=lambda where, why: ValueError(f"{where}: {why}"),
                  where: str = "events") -> tuple[LoadEvent, ...]:
    """(time, loads) pairs or LoadEvents as LoadEvents, with finite times >= 0 in
    order and n_loads finite loads each; else raise error(f"{where}[i].field", why)."""
    out: list[LoadEvent] = []
    for i, ev in enumerate(events):
        t_ev, loads = (ev.time, ev.loads) if isinstance(ev, LoadEvent) else ev
        t_ev, loads = _float(t_ev), tuple(map(_float, loads))
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


def _inertial(big_g: float, model: Inertial, e0: float, f0: float,
              dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, delta_f) at times dt after (e0, f0) under e' = -G delta_f and
    M delta_f' = e - D delta_f, M = m_inertia and D = d_damp: exp(A dt) of
    A = [[0, -G], [1/M, -D/M]] in closed form.

    With mu = -D/(2M) and s^2 = mu^2 - G/M, exp(A t) = exp(mu t) (c I + q (A - mu I))
    where c = cosh(s t), q = sinh(s t)/s; cos(w t) and sin(w t)/w with w^2 = -s^2
    when s^2 < 0, and q = t at s = 0. The overdamped case factors out
    exp((mu + s) t) <= 1, so nothing overflows and small s loses no digits.
    """
    mu = -model.d_damp / (2.0 * model.m_inertia)
    s2 = mu * mu - big_g / model.m_inertia
    if s2 > 0.0:
        s = math.sqrt(s2)
        lead, rest = np.exp((mu + s) * dt), np.expm1(-2.0 * s * dt)
        c, q = lead * (1.0 + 0.5 * rest), lead * (-rest / (2.0 * s))
    elif s2 < 0.0:
        w = math.sqrt(-s2)
        decay = np.exp(mu * dt)
        c, q = decay * np.cos(w * dt), decay * (np.sin(w * dt) / w)
    else:
        c = np.exp(mu * dt)
        q = c * dt
    return (c * e0 + q * (-mu * e0 - big_g * f0),
            c * f0 + q * (e0 / model.m_inertia + mu * f0))


def simulate(s: Scenario, cfg: ControllerConfig,
             model: FrequencyModel | None = None, *, h: float, t_end: float,
             events=()) -> SimulationTrace:
    """Sample the closed loop's exact trajectory from the generators' initial outputs.

    Row i of the trace's columns is the sample at t = i*h, i = 0 .. round(t_end/h),
    and a grid whose trace would exceed MAX_TRACE_CELLS cells is refused.
    Load-step events are snapped to the nearest step of the fixed grid and
    applied at that sample: p is continuous there and delta_f uses the new
    load (QuasiStatic) or carries over (Inertial, which starts at delta_f = 0).

    Both laws are dP/dt = -g * delta_f (see ``_gains``), so every unit moves
    along g/G, G = sum(g), and between load samples t_k the imbalance
    e = sum(p) - D_k follows one scalar ODE (QuasiStatic) or one 2x2 ODE
    (Inertial, see ``_inertial``):

        p(t) = p_k - (g/G) * (e_k - e(t))

    Under QuasiStatic e(t) = e_k exp(-r (t - t_k)) with r = G/beta, which is
    K*S/(tau*beta) for integral control and K*S/(tau*(beta + K*S)) for PI.
    The PI controller requires QuasiStatic, because its law closes through it.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if not (math.isfinite(h) and math.isfinite(t_end / h)):
        raise ValueError("h, t_end and t_end/h must be finite")
    if t_end <= h:
        raise ValueError("t_end must exceed h")
    if model is None:
        model = QuasiStatic(s.beta)
    _check_model(model)
    quasi_static = isinstance(model, QuasiStatic)
    if not quasi_static and cfg.kind is ControllerKind.PROPORTIONAL_INTEGRAL:
        raise ValueError("the PI controller requires the QuasiStatic frequency model")

    n_steps = int(round(t_end / h))
    cells = (n_steps + 1) * (len(s.columns.a) + 2)
    if cells > MAX_TRACE_CELLS:
        raise ValueError(f"t_end/h gives {n_steps + 1} samples, a trace of {cells} cells; "
                         f"the limit is {MAX_TRACE_CELLS}")
    snapped: list[LoadEvent] = []
    demand = {0: total_load(s)}  # sample where a load takes effect -> total load from there
    for ev in _check_events(events, len(s.loads)):  # snapped to the step grid
        idx = round(min(ev.time / h, n_steps + 1.0))  # clamped: a huge time / h cannot overflow
        if idx > n_steps:
            raise ValueError(f"event at t={ev.time} lies beyond t_end")
        demand[idx] = _row_sum(np.array(ev.loads))  # events snapping to the same step: last wins
        snapped.append(LoadEvent(idx * h, ev.loads))
    t = np.arange(n_steps + 1) * h  # i*h, since summing h drifts off the grid

    g = _gains(s, cfg)
    big_g = float(g.sum())
    shape = g / big_g
    p = np.empty((n_steps + 1, len(g)))
    delta_f = np.empty(n_steps + 1)
    p[0] = s.columns.p_init
    delta_f[0] = 0.0  # Inertial starts at rest; QuasiStatic overwrites it
    marks = sorted(demand)
    for a, b in zip(marks, marks[1:] + [n_steps]):  # segment a..b, continuous at b
        d, p_a, seg = demand[a], p[a].copy(), p[a:b + 1]
        e0, dt = float(p_a.sum()) - d, t[a:b + 1] - t[a]
        if quasi_static:
            np.multiply.outer(-np.expm1(-big_g / model.beta * dt), shape * e0, out=seg)
            np.subtract(p_a, seg, out=seg)
            delta_f[a:b + 1] = (seg.sum(axis=1) - d) / model.beta
        else:
            e, delta_f[a:b + 1] = _inertial(big_g, model, e0, float(delta_f[a]), dt)
            np.multiply.outer(e0 - e, shape, out=seg)
            np.subtract(p_a, seg, out=seg)
    return SimulationTrace(t, p, delta_f, tuple(snapped), cfg, model, s)


def settling_time(trace: SimulationTrace, eps: float) -> float:
    """Earliest time after the last event with |delta_f| inside the eps band for good.

    Scans the ``delta_f`` column from the last event's sample (the first
    sample without events). Returns that sample's time when the band is
    never left afterwards, and math.inf when the final sample is outside it.
    A NaN sample counts as outside.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be finite and > 0")
    t = trace.t
    start = trace.events[-1].time if trace.events else float(t[0])
    idx0 = int(np.searchsorted(t, start))  # event times are sample times
    outside = np.flatnonzero(~(np.abs(trace.delta_f[idx0:]) <= eps))
    if outside.size == 0:
        return start
    j = idx0 + int(outside[-1])
    return math.inf if j == len(t) - 1 else float(t[j + 1])

