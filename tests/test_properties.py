"""Properties of the closed loop on drawn scenarios: the exact propagator against RK4."""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from freqdispatch import (
    ControllerConfig,
    ControllerKind,
    FrequencyModel,
    Inertial,
    QuasiStatic,
    Scenario,
    SimulationTrace,
    integral_rhs,
    pi_rhs,
    settling_time,
    simulate,
)

from conftest import make_scenario, rk4_trace

INTEGRAL = ControllerKind.INTEGRAL
PI = ControllerKind.PROPORTIONAL_INTEGRAL

# |lambda|*h for the loop's fastest mode: RK4's global error on one decaying
# exponential is then below (|lambda| h)**4/(120 e), about 5e-10 of the
# imbalance, and a drawn run of at most 150 steps (|lambda| t <= 3) keeps an
# undamped oscillation's error below 150 (|lambda| h)**5/120, about 4e-9.
MAX_RATE_STEP = 0.02

BOUNDED = settings(max_examples=40, deadline=None, derandomize=True)


@dataclass(frozen=True)
class Loop:
    s: Scenario
    cfg: ControllerConfig
    model: FrequencyModel
    h: float
    n_steps: int
    events: tuple

    def exact(self) -> SimulationTrace:
        return simulate(self.s, self.cfg, self.model, h=self.h,
                        t_end=self.n_steps * self.h, events=self.events)

    def rk4(self) -> SimulationTrace:
        rhs = integral_rhs if self.cfg.kind is INTEGRAL else pi_rhs
        return rk4_trace(rhs, self.s, self.cfg, self.model, h=self.h,
                         n_steps=self.n_steps, events=self.events)


def _integral_g(s: Scenario) -> float:
    """G = sum of the integral gains K/(2 a_i tau); PI's are smaller."""
    return s.gain_K * sum(1.0 / (2.0 * g.cost.a) for g in s.generators) / s.tau


def _fastest_rate(s: Scenario, model: FrequencyModel) -> float:
    """Largest |lambda| of the loop's imbalance dynamics at the integral gains."""
    big_g = _integral_g(s)
    if isinstance(model, QuasiStatic):
        return big_g / model.beta
    mu = model.d_damp / (2.0 * model.m_inertia)
    s2 = mu * mu - big_g / model.m_inertia
    return mu + math.sqrt(s2) if s2 >= 0.0 else math.sqrt(big_g / model.m_inertia)


def _loop(s: Scenario, kind, model, n_steps: int, step_share: float, events) -> Loop:
    h = step_share * MAX_RATE_STEP / _fastest_rate(s, model)
    timed = [((idx + offset) * h, loads) for idx, offset, loads in events]
    return Loop(s, ControllerConfig(kind, s.gain_K, s.tau), model, h, n_steps,
                tuple(sorted(timed, key=lambda ev: ev[0])))


def _reference_loop(kind, event_samples, model=None) -> Loop:
    """The two-unit reference case started 2 MW short, with events at the given samples."""
    s = make_scenario([0.5, 1.0], [1.0, 2.0], [6.0, 4.0], p_init=[6.0, 2.0], beta=1.5)
    events = [(idx, 0.1 + 0.2 * k, (6.0 + k, 4.0 - 0.5 * k))
              for k, idx in enumerate(event_samples)]
    return _loop(s, kind, model or QuasiStatic(s.beta), 60, 1.0, events)


def _floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


@st.composite
def _models(draw, s: Scenario, kind) -> FrequencyModel:
    """QuasiStatic, or for integral control an Inertial model drawn under-,
    critically or overdamped: d_damp is a drawn share of 2 sqrt(G M)."""
    if kind is PI or draw(st.booleans()):
        return QuasiStatic(s.beta)
    m = draw(st.floats(0.1, 10.0))
    zeta = draw(st.one_of(st.floats(0.0, 0.9), st.just(1.0), st.floats(1.1, 5.0)))
    return Inertial(m, zeta * 2.0 * math.sqrt(_integral_g(s) * m))


@st.composite
def loops(draw) -> Loop:
    """N in 1..5, both controllers, both frequency models, 0-2 load events;
    the event samples favour the first and last sample, so events there and
    pairs snapping to one sample are drawn often."""
    n = draw(st.integers(1, 5))
    s = make_scenario(draw(_floats(0.1, 5.0, n)), draw(_floats(0.0, 20.0, n)),
                      draw(_floats(1.0, 50.0, 2)), p_init=draw(_floats(-10.0, 30.0, n)),
                      gain_K=draw(st.floats(0.2, 5.0)), beta=draw(st.floats(0.5, 5.0)),
                      tau=draw(st.floats(0.2, 5.0)))
    kind = draw(st.sampled_from([INTEGRAL, PI]))
    n_steps = draw(st.integers(2, 150))
    sample = st.one_of(st.just(0), st.just(n_steps), st.integers(0, n_steps))
    events = [(idx, draw(st.floats(0.0 if idx == 0 else -0.4, 0.4)),
               tuple(draw(_floats(1.0, 50.0, 2))))
              for idx in draw(st.lists(sample, max_size=2))]
    return _loop(s, kind, draw(_models(s, kind)), n_steps, draw(st.floats(0.2, 1.0)), events)


def _scale(loop: Loop, *traces) -> float:
    loads = [sum(loop.s.loads)] + [sum(loads) for _, loads in loop.events]
    return max([1.0, *(float(np.max(np.abs(tr.p))) for tr in traces), *loads])


@BOUNDED
@given(loop=loops())
@example(loop=_reference_loop(INTEGRAL, [0]))
@example(loop=_reference_loop(PI, [60]))
@example(loop=_reference_loop(PI, [25, 25]))
@example(loop=_reference_loop(INTEGRAL, [0, 60]))
@example(loop=_reference_loop(INTEGRAL, [25], Inertial(1.5, 3.0)))  # s^2 = 0 exactly
@example(loop=_reference_loop(INTEGRAL, [0, 60], Inertial(2.0, 1.0)))
@example(loop=_reference_loop(INTEGRAL, [], Inertial(0.2, 5.0)))
def test_exact_matches_rk4(loop):
    exact, rk4 = loop.exact(), loop.rk4()
    assert np.array_equal(exact.t, rk4.t) and exact.events == rk4.events
    scale = _scale(loop, exact, rk4)
    assert np.max(np.abs(exact.p - rk4.p)) <= 1e-8 * scale
    if isinstance(loop.model, QuasiStatic):
        # delta_f = (sum(p) - D)/beta carries the sum of N power errors
        bound = scale * len(loop.s.generators) / loop.s.beta
    else:  # an integrated state of its own, compared on its own scale
        bound = max(1.0, float(np.max(np.abs(rk4.delta_f))))
    assert np.max(np.abs(exact.delta_f - rk4.delta_f)) <= 1e-8 * bound


@BOUNDED
@given(loop=loops())
def test_exact_conserves_marginal_cost_spreads(loop):
    # d(2 a_i p_i + b_i)/dt = -(2 a_i g_i) delta_f is the same for every unit
    trace = loop.exact()
    a = np.array([g.cost.a for g in loop.s.generators])
    b = np.array([g.cost.b for g in loop.s.generators])
    marginals = 2.0 * a * trace.p + b
    spreads = marginals - marginals[:, :1]
    scale = max(1.0, float(np.max(np.abs(marginals))))
    assert np.max(np.abs(spreads - spreads[0])) <= 1e-12 * scale


@BOUNDED
@given(loop=loops(), band=st.floats(1e-3, 0.9))
def test_settling_time_agrees_between_exact_and_rk4(loop, band):
    exact, rk4 = loop.exact(), loop.rk4()
    peak = float(np.max(np.abs(rk4.delta_f)))
    assume(peak > 0.0)
    eps = band * peak
    for trace in (exact, rk4):  # a sample this close to eps may fall either side of it
        assume(not np.any(np.abs(np.abs(trace.delta_f) - eps) <= 1e-6 * eps))
    assert settling_time(exact, eps) == settling_time(rk4, eps)
