"""Closed-loop dynamics: rhs laws, one-step integrators, exact simulation, settling."""

import json
import math

import numpy as np
import pytest

from freqdispatch import (
    ControllerConfig,
    ControllerKind,
    Inertial,
    LoadEvent,
    QuasiStatic,
    SimState,
    SimulationTrace,
    frequency_deviation,
    integral_rhs,
    marginal_cost,
    pi_rhs,
    settling_time,
    simulate,
    step_euler,
    step_rk4,
)
from freqdispatch import dynamics
from freqdispatch.cli import ScenarioFileError, parse_scenario_file

from conftest import make_scenario, reference_scenario, rk4_trace

INTEGRAL = ControllerKind.INTEGRAL
PI = ControllerKind.PROPORTIONAL_INTEGRAL


def _cfg(kind, s):
    return ControllerConfig(kind, s.gain_K, s.tau)


def _qs_state(p, s, t=0.0):
    return SimState(t, tuple(p), frequency_deviation(p, sum(s.loads), s.beta))


# ---------------------------------------------------------------------------
# frequency deviation

def test_frequency_deviation_examples():
    assert frequency_deviation((7.0, 3.0), 10.0, 10.0) == 0.0
    assert frequency_deviation((3.0, 1.0), 10.0, 10.0) == pytest.approx(-0.6, abs=1e-15)
    assert frequency_deviation((12.0, 0.0), 10.0, 5.0) == pytest.approx(0.4, abs=1e-15)


def test_frequency_deviation_rejects_nonpositive_beta():
    for beta in (0.0, -1.5, math.nan, math.inf):  # inf would read -0.0 Hz for any imbalance
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            frequency_deviation((4.0, 1.0), 10.0, beta)


# ---------------------------------------------------------------------------
# control laws

def test_integral_rhs_examples(scenario_r):
    cfg = _cfg(INTEGRAL, scenario_r)
    assert list(integral_rhs(_qs_state((7.0, 3.0), scenario_r), scenario_r, cfg)) == [0.0, 0.0]
    rates = integral_rhs(_qs_state((3.0, 1.0), scenario_r), scenario_r, cfg)
    assert list(rates) == pytest.approx([4.0, 2.0], abs=1e-12)
    rates = integral_rhs(_qs_state((8.0, 4.0), scenario_r), scenario_r, cfg)
    assert list(rates) == pytest.approx([-4.0 / 3.0, -2.0 / 3.0], abs=1e-12)


def test_pi_rhs_balanced_state_is_zero(scenario_r):
    rates = pi_rhs(_qs_state((7.0, 3.0), scenario_r), scenario_r, _cfg(PI, scenario_r))
    assert list(rates) == [0.0, 0.0]


def test_pi_rhs_golden_value(scenario_r):
    # Frozen from an independent dense linear solve of
    #   1*x1 + (2/3)(x1+x2) = 4,  2*x2 + (2/3)(x1+x2) = 4.
    rates = pi_rhs(_qs_state((3.0, 1.0), scenario_r), scenario_r, _cfg(PI, scenario_r))
    assert list(rates) == pytest.approx([2.0, 1.0], abs=1e-12)


def test_pi_rhs_satisfies_defining_equations(scenario_r):
    rng = np.random.default_rng(21)
    cfg = _cfg(PI, scenario_r)
    k, tau, beta = cfg.gain_K, cfg.tau, scenario_r.beta
    a = np.array([g.cost.a for g in scenario_r.generators])
    for _ in range(20):
        p = tuple(rng.uniform(-10.0, 10.0, size=2))
        state = _qs_state(p, scenario_r)
        rates = np.asarray(pi_rhs(state, scenario_r, cfg))
        resid = 2.0 * a * tau * rates + k * tau * rates.sum() / beta \
            + k * state.delta_f
        assert np.max(np.abs(resid)) <= 1e-10

        matrix = np.diag(2.0 * a * tau) + (k * tau / beta) * np.ones((2, 2))
        direct = np.linalg.solve(matrix, -k * state.delta_f * np.ones(2))
        assert np.max(np.abs(rates - direct)) <= 1e-10


def test_pi_rhs_symmetric_scenario():
    s = make_scenario([1.0, 1.0], [2.0, 2.0], [8.0], beta=1.0)
    rates = pi_rhs(_qs_state((2.0, 2.0), s), s, _cfg(PI, s))
    assert rates[0] == rates[1]


def test_rhs_kind_mismatch_raises(scenario_r):
    with pytest.raises(ValueError):
        integral_rhs(_qs_state((3.0, 1.0), scenario_r), scenario_r, _cfg(PI, scenario_r))
    with pytest.raises(ValueError):
        pi_rhs(_qs_state((3.0, 1.0), scenario_r), scenario_r, _cfg(INTEGRAL, scenario_r))


# ---------------------------------------------------------------------------
# steppers

def test_euler_step_lands_on_optimum_at_deadbeat_h(scenario_r):
    state = _qs_state((3.0, 1.0), scenario_r)
    nxt = step_euler(integral_rhs, state, scenario_r, _cfg(INTEGRAL, scenario_r), h=1.0)
    assert nxt.p == (7.0, 3.0)
    assert nxt.t == 1.0
    assert nxt.delta_f == 0.0


def test_euler_half_step(scenario_r):
    state = _qs_state((3.0, 1.0), scenario_r)
    nxt = step_euler(integral_rhs, state, scenario_r, _cfg(INTEGRAL, scenario_r), h=0.5)
    assert nxt.p == (5.0, 2.0)


def test_steppers_hold_equilibrium(scenario_r):
    state = _qs_state((7.0, 3.0), scenario_r)
    for stepper in (step_euler, step_rk4):
        for kind in (INTEGRAL, PI):
            nxt = stepper(integral_rhs if kind is INTEGRAL else pi_rhs,
                          state, scenario_r, _cfg(kind, scenario_r), h=0.25)
            assert nxt.p == state.p
            assert nxt.delta_f == 0.0
            assert nxt.t == 0.25


def test_rk4_matches_scalar_exponential():
    # One generator: dp/dt = -K/(2 a tau) (p - D)/beta, rate 0.25 here.
    s = make_scenario([1.0], [0.0], [5.0], gain_K=1.0, beta=2.0, tau=1.0)
    cfg = _cfg(INTEGRAL, s)
    rate = s.gain_K / (2.0 * 1.0 * s.tau * s.beta)
    state = _qs_state((0.0,), s)
    h, t_end = 0.01, 1.0
    worst = 0.0
    for i in range(int(round(t_end / h))):
        state = step_rk4(integral_rhs, state, s, cfg, h)
        exact = 5.0 * (1.0 - math.exp(-rate * state.t))
        worst = max(worst, abs(state.p[0] - exact))
    assert worst <= 1e-8, f"RK4 error {worst:.2e} vs closed-form exponential"


def test_rk4_fourth_order_richardson():
    s = make_scenario([0.5], [0.0], [5.0], gain_K=2.0, beta=1.0, tau=1.0)
    cfg = _cfg(INTEGRAL, s)
    rate = 2.0  # K/(2 a tau beta)

    def max_error(h):
        state = _qs_state((0.0,), s)
        worst = 0.0
        for _ in range(int(round(2.0 / h))):
            state = step_rk4(integral_rhs, state, s, cfg, h)
            exact = 5.0 * (1.0 - math.exp(-rate * state.t))
            worst = max(worst, abs(state.p[0] - exact))
        return worst

    ratio = max_error(0.1) / max_error(0.05)
    assert 12.0 <= ratio <= 20.0, f"halving h changed error by {ratio:.2f}x, expected ~16x"


def test_stepper_guards(scenario_r):
    state = _qs_state((3.0, 1.0), scenario_r)
    with pytest.raises(ValueError):
        step_euler(integral_rhs, state, scenario_r, _cfg(INTEGRAL, scenario_r), h=0.0)
    with pytest.raises(ValueError):
        step_rk4(integral_rhs, state, scenario_r, _cfg(INTEGRAL, scenario_r), h=-1.0)


# ---------------------------------------------------------------------------
# simulate

def test_simulate_reference_load_step(scenario_r):
    trace = simulate(scenario_r, _cfg(INTEGRAL, scenario_r), QuasiStatic(1.5),
                     h=0.001, t_end=20.0, events=[(1.0, (7.2, 4.8))])
    target = (25.0 / 3.0, 11.0 / 3.0)
    assert abs(trace.delta_f[-1]) < 1e-6
    for x, y in zip(trace.p[-1], target):
        assert abs(x - y) < 1e-6


def test_simulate_pi_reaches_same_point(scenario_r):
    trace = simulate(scenario_r, _cfg(PI, scenario_r), QuasiStatic(1.5),
                     h=0.01, t_end=40.0, events=[(1.0, (7.2, 4.8))])
    for x, y in zip(trace.p[-1], (25.0 / 3.0, 11.0 / 3.0)):
        assert abs(x - y) < 1e-6
    assert abs(trace.delta_f[-1]) < 1e-6


def test_simulate_equilibrium_is_constant(scenario_r):
    trace = simulate(scenario_r, _cfg(INTEGRAL, scenario_r), h=0.01, t_end=1.0)
    assert all(tuple(row) == (7.0, 3.0) for row in trace.p.tolist())
    assert all(df == 0.0 for df in trace.delta_f.tolist())


def test_simulate_quasi_static_consistency(scenario_r):
    s = make_scenario([0.5, 1.0], [1.0, 2.0], [6.0, 4.0],
                      p_init=[4.0, 1.0], beta=1.5)
    trace = simulate(s, _cfg(INTEGRAL, s), QuasiStatic(1.5), h=0.01, t_end=5.0,
                     events=[(2.0, (7.2, 4.8))])
    current = 10.0
    for t, p, df in zip(trace.t.tolist(), trace.p.tolist(), trace.delta_f.tolist()):
        if t >= 2.0 - 0.005:
            current = 12.0
        assert abs(df - (sum(p) - current) / 1.5) <= 1e-12


@pytest.mark.parametrize("kind", [INTEGRAL, PI])
def test_marginal_cost_spread_is_conserved(kind):
    # Start with unequal marginal costs (5 vs 4): the gap must persist.
    s = make_scenario([0.5, 1.0], [1.0, 2.0], [6.0, 4.0],
                      p_init=[4.0, 1.0], beta=1.5)
    trace = simulate(s, _cfg(kind, s), QuasiStatic(1.5), h=1e-3, t_end=20.0)
    gens = s.generators
    spread0 = None
    worst = 0.0
    for row in trace.p.tolist():
        m = [marginal_cost(g.cost, p) for g, p in zip(gens, row)]
        spread = m[0] - m[1]
        if spread0 is None:
            spread0 = spread
        worst = max(worst, abs(spread - spread0))
    assert spread0 == pytest.approx(1.0, abs=1e-12)
    assert worst <= 1e-8, f"spread drifted by {worst:.2e}"


def test_simulate_event_snapping(scenario_r):
    trace = simulate(scenario_r, _cfg(INTEGRAL, scenario_r), h=0.05, t_end=1.0,
                     events=[(0.123, (7.2, 4.8))])
    assert trace.events[0].time == pytest.approx(0.1, abs=1e-12)
    assert trace.events[0].loads == (7.2, 4.8)


def test_simulate_rejects_bad_events(scenario_r):
    cfg = _cfg(INTEGRAL, scenario_r)
    with pytest.raises(ValueError):
        simulate(scenario_r, cfg, h=0.01, t_end=1.0,
                 events=[(0.5, (7.0, 5.0)), (0.2, (6.0, 4.0))])
    with pytest.raises(ValueError):
        simulate(scenario_r, cfg, h=0.01, t_end=1.0,
                 events=[(0.5, (math.nan, 5.0))])
    with pytest.raises(ValueError):
        simulate(scenario_r, cfg, h=0.01, t_end=1.0, events=[(0.5, (7.0,))])
    with pytest.raises(ValueError):
        simulate(scenario_r, cfg, h=0.01, t_end=1.0, events=[(-0.5, (7.0, 5.0))])
    with pytest.raises(ValueError):
        simulate(scenario_r, cfg, h=0.01, t_end=1.0, events=[(5.0, (7.0, 5.0))])


@pytest.mark.parametrize("events, where, message", [
    ([(-0.5, (7.0, 5.0))], "events[0].time", "must be finite and >= 0"),
    ([(0.5, (7.0, 5.0)), (0.2, (6.0, 4.0))], "events[1].time", "events must be sorted by time"),
    ([(0.5, (7.0,))], "events[0].loads", "expected 2 loads, got 1"),
    ([(0.5, (math.inf, 5.0))], "events[0].loads", "loads must be finite"),
])
def test_event_rules_are_shared_with_the_file_parser(scenario_r, events, where, message):
    with pytest.raises(ValueError) as lib:
        simulate(scenario_r, _cfg(INTEGRAL, scenario_r), h=0.01, t_end=1.0, events=events)
    assert str(lib.value) == f"{where}: {message}"
    block = {"controller": "integral",
             "events": [{"time": t, "loads": list(loads)} for t, loads in events]}
    text = json.dumps({"format_version": 1, "simulation": block, "scenario": {
        "generators": [{"id": "G1", "cost": {"a": 0.5, "b": 1.0}},
                       {"id": "G2", "cost": {"a": 1.0, "b": 2.0}}],
        "loads": [6.0, 4.0], "gain_K": 1.0, "beta": 1.5, "tau": 1.0}})
    with pytest.raises(ScenarioFileError) as parsed:
        parse_scenario_file(text)
    assert str(parsed.value) == f"simulation.{where}: {message}"


@pytest.mark.parametrize("value", [10 ** 400, None, "1.0"], ids=["huge-int", "none", "string"])
@pytest.mark.parametrize("field", ["time", "loads"])
def test_event_numbers_are_read_as_the_parser_reads_them(scenario_r, field, value):
    # an int past the float range reads as inf and anything else that is not an int
    # or float as NaN, so each breaks an event rule instead of raising OverflowError
    # or TypeError, and a string is refused rather than converted
    event = (value, (7.0, 5.0)) if field == "time" else (0.5, (value, 5.0))
    want = ("events[0].time: must be finite and >= 0" if field == "time"
            else "events[0].loads: loads must be finite")
    for events in ([event], [LoadEvent(*event)]):
        with pytest.raises(ValueError) as err:
            simulate(scenario_r, _cfg(INTEGRAL, scenario_r), h=0.01, t_end=1.0, events=events)
        assert str(err.value) == want


@pytest.mark.parametrize("kind", [np.int64, np.uint8, np.float32])
def test_numpy_event_numbers_are_read_as_their_floats(scenario_r, kind):
    # as an int or float is: a numpy integer or floating scalar is its float
    cfg = _cfg(INTEGRAL, scenario_r)
    want = simulate(scenario_r, cfg, h=0.01, t_end=2.0, events=[(1.0, (8.0, 4.0))])
    event = (kind(1), tuple(np.array([8, 4], dtype=kind)))
    for events in ([event], [LoadEvent(*event)]):
        got = simulate(scenario_r, cfg, h=0.01, t_end=2.0, events=events)
        assert got.events == want.events and all(type(x) is float for x in got.events[0].loads)
        assert got.p.tobytes() == want.p.tobytes()


_BAD_GAINS = [(0.0, 1.0, "gain_K"), (-1.0, 1.0, "gain_K"), (math.nan, 1.0, "gain_K"),
              (math.inf, 1.0, "gain_K"), (1.0, 0.0, "tau"), (1.0, -1.0, "tau"),
              (1.0, math.nan, "tau"), (1.0, math.inf, "tau")]


@pytest.mark.parametrize("gain_K, tau, name", _BAD_GAINS)
@pytest.mark.parametrize("kind", [INTEGRAL, PI])
def test_controller_gain_and_time_constant_must_be_finite_and_positive(scenario_r, kind,
                                                                       gain_K, tau, name):
    # checked where the gains are derived, so no divide warning and no NaN trace
    cfg = ControllerConfig(kind, gain_K, tau)
    rhs = integral_rhs if kind is INTEGRAL else pi_rhs
    state = _qs_state((7.0, 3.0), scenario_r)
    calls = [lambda: simulate(scenario_r, cfg, h=0.01, t_end=4.0),
             lambda: rhs(state, scenario_r, cfg),
             lambda: step_euler(rhs, state, scenario_r, cfg, 0.01),
             lambda: step_rk4(rhs, state, scenario_r, cfg, 0.01)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0$"):
            call()


def test_simulate_rejects_pi_with_inertial_model(scenario_r):
    with pytest.raises(ValueError):
        simulate(scenario_r, _cfg(PI, scenario_r), Inertial(1.5, 3.0),
                 h=0.01, t_end=1.0)


def test_simulate_guards(scenario_r):
    cfg = _cfg(INTEGRAL, scenario_r)
    with pytest.raises(ValueError):
        simulate(scenario_r, cfg, h=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        simulate(scenario_r, cfg, h=1.0, t_end=0.5)


def test_exact_method_requires_quasi_static(scenario_r):
    # the PI law closes through delta_f = (sum(p) - D)/beta; integral control takes either model
    with pytest.raises(ValueError, match="QuasiStatic"):
        simulate(scenario_r, _cfg(PI, scenario_r), Inertial(1.5, 3.0), h=0.01, t_end=1.0)
    with pytest.raises(ValueError, match="beta must be finite and > 0"):
        simulate(scenario_r, _cfg(INTEGRAL, scenario_r), QuasiStatic(-1.5),
                 h=0.01, t_end=1.0)


@pytest.mark.parametrize("model, message", [
    (Inertial(0.0, 1.0), "m_inertia must be finite and > 0"),
    (Inertial(-1.0, 0.0), "m_inertia must be finite and > 0"),
    (Inertial(math.nan, 1.0), "m_inertia must be finite and > 0"),
    (Inertial(math.inf, 1.0), "m_inertia must be finite and > 0"),
    (Inertial(1.0, -5.0), "d_damp must be finite and >= 0"),
    (Inertial(1.0, math.nan), "d_damp must be finite and >= 0"),
    (Inertial(1.0, math.inf), "d_damp must be finite and >= 0"),
    (QuasiStatic(math.nan), "beta must be finite and > 0"),
    (QuasiStatic(math.inf), "beta must be finite and > 0"),  # an open loop, not a balanced one
])
def test_simulate_refuses_invalid_frequency_models(scenario_r, model, message):
    cfg = _cfg(INTEGRAL, scenario_r)
    with pytest.raises(ValueError, match=message):
        simulate(scenario_r, cfg, model, h=0.01, t_end=1.0, events=[(0.5, (7.2, 4.8))])
    for stepper in (step_euler, step_rk4):  # the public steppers share the rules
        with pytest.raises(ValueError, match=message):
            stepper(integral_rhs, SimState(0.0, (6.0, 2.0), 0.0), scenario_r, cfg, 0.01, model)


@pytest.mark.parametrize("kind, rate", [(INTEGRAL, 1.0), (PI, 0.5)])
def test_exact_method_is_the_closed_form(scenario_r, kind, rate):
    # From the optimum, a 20% load step at t = 1 gives delta_f = -4/3 exp(-rate (t - 1)):
    # K S/(tau beta) = 1.5/1.5 and K S/(tau (beta + K S)) = 1.5/3 on the reference case.
    trace = simulate(scenario_r, _cfg(kind, scenario_r), h=0.01, t_end=30.0,
                     events=[(1.0, (7.2, 4.8))])
    t = trace.t
    want = np.where(t < 1.0 - 1e-9, 0.0, -4.0 / 3.0 * np.exp(-rate * (t - 1.0)))
    assert np.max(np.abs(trace.delta_f - want)) <= 1e-12
    # each unit takes its share w/S = (1, 0.5)/1.5 of the imbalance -2 MW closed so far
    closed = -2.0 * -np.expm1(-rate * 29.0)
    assert np.max(np.abs(trace.p[-1] - [7.0 - closed / 1.5, 3.0 - 0.5 * closed / 1.5])) <= 1e-12


@pytest.mark.parametrize("h, t_end", [(0.01, math.inf), (math.inf, 1.0), (math.nan, 1.0),
                                      (0.01, math.nan), (1e-300, 1e10)])
def test_simulate_rejects_non_finite_grid(scenario_r, h, t_end):
    with pytest.raises(ValueError, match="must be finite"):
        simulate(scenario_r, _cfg(INTEGRAL, scenario_r), h=h, t_end=t_end)


def _no_allocation(*args, **kwargs):
    raise AssertionError("the trace was allocated")


@pytest.mark.parametrize("h, t_end", [(1e-9, 100.0), (1e-3, 1e12), (1e-300, 1e-100)])
def test_simulate_refuses_a_grid_past_the_cell_cap_before_allocating(scenario_r, monkeypatch,
                                                                     h, t_end):
    monkeypatch.setattr(np, "arange", _no_allocation)
    monkeypatch.setattr(np, "empty", _no_allocation)
    with pytest.raises(ValueError, match=f"the limit is {dynamics.MAX_TRACE_CELLS}"):
        simulate(scenario_r, _cfg(INTEGRAL, scenario_r), h=h, t_end=t_end)


def test_trace_cell_cap_counts_samples_times_columns(scenario_r, monkeypatch):
    # two generators: t, p_1, p_2 and delta_f are 4 cells per sample
    monkeypatch.setattr(dynamics, "MAX_TRACE_CELLS", 4 * 11)
    cfg = _cfg(INTEGRAL, scenario_r)
    assert len(simulate(scenario_r, cfg, h=0.1, t_end=1.0).t) == 11
    with pytest.raises(ValueError, match="t_end/h gives 12 samples, a trace of 48 cells"):
        simulate(scenario_r, cfg, h=0.1, t_end=1.1)


def test_simulate_rejects_event_far_beyond_t_end(scenario_r):
    with pytest.raises(ValueError, match="beyond t_end"):
        simulate(scenario_r, _cfg(INTEGRAL, scenario_r), h=1e-10, t_end=1e-8,
                 events=[(1e300, (7.2, 4.8))])


@pytest.mark.parametrize("kind, rhs, model", [
    (INTEGRAL, integral_rhs, QuasiStatic(1.5)),
    (PI, pi_rhs, QuasiStatic(1.5)),
    (INTEGRAL, integral_rhs, Inertial(1.5, 3.0)),
])
def test_simulate_columns_match_public_steppers(kind, rhs, model):
    # The run simulate samples, rebuilt one public RK4 step at a time, with the
    # load stepping at sample 10. The fastest mode has |lambda| h <= 0.06 here,
    # so RK4's error over 30 steps is below 30 (0.06)**5/120 = 2e-7 of the
    # largest magnitude in play, the 12 MW post-step demand.
    s = make_scenario([0.5, 1.0, 2.0], [1.0, 2.0, 3.0], [6.0, 4.0],
                      p_init=[4.0, 3.0, 2.0], beta=1.5)
    cfg = _cfg(kind, s)
    h, n_steps, events = 0.05, 30, [(10 * 0.05, (7.2, 4.8))]
    trace = simulate(s, cfg, model, h=h, t_end=n_steps * h, events=events)
    reference = rk4_trace(rhs, s, cfg, model, h=h, n_steps=n_steps, events=events)

    assert trace.t.tolist() == reference.t.tolist()
    assert trace.events == reference.events
    assert np.max(np.abs(trace.p - reference.p)) <= 2e-7 * 12.0
    assert np.max(np.abs(trace.delta_f - reference.delta_f)) <= 2e-7 * 12.0


@pytest.mark.parametrize("model", [Inertial(1.5, 3.0), Inertial(2.0, 1.0), Inertial(5.0, 0.1)])
def test_exact_inertial_matches_rk4_to_truncation_error(scenario_r, model):
    # critically damped (s^2 = 0 exactly), underdamped and lightly damped
    cfg = _cfg(INTEGRAL, scenario_r)
    events = [(1.0, (7.2, 4.8))]
    trace = simulate(scenario_r, cfg, model, h=0.01, t_end=10.0, events=events)
    reference = rk4_trace(integral_rhs, scenario_r, cfg, model, h=0.01, n_steps=1000,
                          events=events)
    assert np.max(np.abs(trace.p - reference.p)) <= 2.5e-10
    assert np.max(np.abs(trace.delta_f - reference.delta_f)) <= 2.5e-10


def test_rk4_converges_to_the_exact_inertial_run_at_fourth_order(scenario_r):
    # Inertial(0.2, 5.0) is overdamped, with a fast mode of |lambda| = 24.7
    model = Inertial(0.2, 5.0)
    cfg = _cfg(INTEGRAL, scenario_r)
    events = [(0.5, (7.2, 4.8))]
    trace = simulate(scenario_r, cfg, model, h=0.01, t_end=2.0, events=events)

    def max_error(refine):
        reference = rk4_trace(integral_rhs, scenario_r, cfg, model, h=0.01 / refine,
                              n_steps=200 * refine, events=events)
        return max(float(np.max(np.abs(trace.p - reference.p[::refine]))),
                   float(np.max(np.abs(trace.delta_f - reference.delta_f[::refine]))))

    coarse, fine = max_error(1), max_error(10)
    assert coarse <= 2e-5
    assert 10.0 ** 3.5 <= coarse / fine  # 4th order: 10**4 up to the rounding floor


def test_inertial_model_reaches_same_equilibrium(scenario_r):
    trace = simulate(scenario_r, _cfg(INTEGRAL, scenario_r), Inertial(1.5, 3.0),
                     h=0.01, t_end=60.0, events=[(1.0, (7.2, 4.8))])
    assert abs(trace.delta_f[-1]) < 1e-6
    for x, y in zip(trace.p[-1], (25.0 / 3.0, 11.0 / 3.0)):
        assert abs(x - y) < 1e-5


def test_inertial_equilibrium_holds(scenario_r):
    trace = simulate(scenario_r, _cfg(INTEGRAL, scenario_r), Inertial(2.0, 1.0),
                     h=0.01, t_end=1.0)
    assert tuple(trace.p[-1]) == pytest.approx((7.0, 3.0), abs=1e-12)
    assert abs(trace.delta_f[-1]) <= 1e-12


# ---------------------------------------------------------------------------
# settling time

def _manual_trace(times, deltas, events=()):
    s = reference_scenario()
    p = np.tile((7.0, 3.0), (len(times), 1))
    evs = tuple(LoadEvent(t, (7.2, 4.8)) for t in events)
    return SimulationTrace(np.array(times, dtype=float), p, np.array(deltas, dtype=float),
                           evs, _cfg(INTEGRAL, s), QuasiStatic(1.5), s)


def test_settling_time_never_exceeds_band():
    trace = _manual_trace([0.0, 1.0, 2.0, 3.0], [0.0, 1e-6, 2e-6, 1e-6], events=[1.0])
    assert settling_time(trace, 1e-4) == 1.0


def test_settling_time_monotone_decay():
    trace = _manual_trace([0.0, 1.0, 2.0, 3.0, 4.0],
                          [0.0, 1.0, 0.5, 1e-5, 1e-6], events=[1.0])
    assert settling_time(trace, 1e-4) == 3.0


def test_settling_time_reentry_counts_last_violation():
    trace = _manual_trace([0.0, 1.0, 2.0, 3.0, 4.0],
                          [0.0, 1.0, 1e-6, 0.5, 1e-6], events=[1.0])
    assert settling_time(trace, 1e-4) == 4.0


def test_settling_time_never_settles_is_inf():
    trace = _manual_trace([0.0, 1.0, 2.0], [0.0, 1.0, 0.9], events=[1.0])
    assert settling_time(trace, 1e-4) == math.inf


def test_settling_time_no_events_uses_first_sample():
    trace = _manual_trace([0.0, 1.0, 2.0], [0.5, 1e-5, 1e-6])
    assert settling_time(trace, 1e-4) == 1.0


def test_settling_time_counts_nan_as_outside_the_band():
    trace = _manual_trace([0.0, 1.0, 2.0], [math.nan] * 3, events=[1.0])
    assert settling_time(trace, 1e-4) == math.inf
    trace = _manual_trace([0.0, 1.0, 2.0, 3.0], [0.0, 1e-6, math.nan, 1e-6], events=[1.0])
    assert settling_time(trace, 1e-4) == 3.0


def test_settling_time_rejects_nonpositive_eps():
    trace = _manual_trace([0.0, 1.0], [0.0, 0.0])
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            settling_time(trace, eps)

