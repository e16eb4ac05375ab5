"""Properties on drawn scenarios: the exact propagator against RK4, the solvers against
the closed form, the scenario file format against itself, bulk validation and the
simulation CSV against their row-by-row references; the row sum against Python 3.11's
builtin ``sum``; the CSV float kernel against
format(x, ".17g"); the command line on fuzzed
files and flags; and the JSON summary writer against json.dumps."""

import builtins
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import os
import struct
import tempfile
import tracemalloc
import unittest.mock
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from freqdispatch import (
    ControllerConfig,
    ControllerKind,
    CostCoefficients,
    EquivalencePair,
    FrequencyModel,
    Generator,
    Inertial,
    LoadEvent,
    QuasiStatic,
    Scenario,
    SimState,
    SimulationTrace,
    StopReason,
    aggregate_power_slope,
    analytic_dispatch,
    check_euler_equivalence,
    compare_convergence,
    dual_ascent_solve,
    dual_ascent_step,
    initial_dual_state,
    initial_mom_state,
    integral_rhs,
    mom_solve,
    mom_step,
    pi_rhs,
    settling_time,
    simulate,
    stability_bound_alpha,
    step_euler,
    total_load,
    validate_scenario,
)
from freqdispatch import cli, experiments, model, traceio
from freqdispatch.cli import (
    ScenarioFile,
    ScenarioFileError,
    SimulationOptions,
    SolverOptions,
    parse_scenario_file,
    run_command,
    write_trace_csv,
)
from freqdispatch.dynamics import MAX_TRACE_CELLS
from freqdispatch.model import Columns, Violation

from conftest import (economic_start, make_scenario, neumaier_sum, reference_scenario,
                      reference_simulation_csv, rk4_trace, serialize_scenario_file,
                      strict_json)

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


@BOUNDED
@given(data=st.data())
def test_compare_settles_as_the_fleet_does(data):
    # compare_convergence settles the one-unit equivalent; the fleet's own runs
    # from its economic start must give the same times. The fleet's delta_f sums
    # N powers where the equivalent's sums one, so the two differ by rounding of
    # at most 8 N u (sum|p| + D')/beta, u = 2**-53 (1.9 N u (...) is the most seen
    # over 3000 random scenarios); only a sample that close to eps may fall
    # either side of it.
    n = data.draw(st.integers(1, 50))
    s = make_scenario(data.draw(_floats(0.1, 5.0, n)), data.draw(_floats(-20.0, 20.0, n)),
                      data.draw(st.lists(st.floats(1.0, 50.0), min_size=1, max_size=4)),
                      gain_K=data.draw(st.floats(0.05, 5.0)),
                      beta=10.0 ** data.draw(st.floats(-1.0, 2.0)),
                      tau=10.0 ** data.draw(st.floats(-1.0, 1.0)))
    eps, coupling = experiments._SETTLE_EPS, s.gain_K / s.beta
    report = compare_convergence(s, coupling, coupling, max_iter=1)
    events = [(s.tau, tuple(experiments._LOAD_SCALE * x for x in s.loads))]
    for kind, got in ((INTEGRAL, report.settling_integral), (PI, report.settling_pi)):
        trace = simulate(economic_start(s), ControllerConfig(kind, s.gain_K, s.tau),
                         h=s.tau / 100.0, t_end=100.0 * s.tau, events=events)
        want = settling_time(trace, eps)
        if got != want:
            after = slice(100, None)  # the samples from the load step on
            bound = 8 * n * 2.0 ** -53 * (np.abs(trace.p[after]).sum(axis=1)
                                          + sum(events[0][1])) / s.beta
            assert np.any(np.abs(np.abs(trace.delta_f[after]) - eps) <= bound), (kind, got, want)


# ---------------------------------------------------------------------------
# The iterative solvers against the closed form

@st.composite
def dispatch_cases(draw):
    """A scenario with N in 1..10, a stable dual step alpha = share * 2/S with the
    share in [0.05, 0.95] (so |1 - alpha*S| <= 0.9), and a penalty rho with rho*S
    in [0.05, 1000]."""
    n = draw(st.integers(1, 10))
    s = make_scenario(draw(_floats(0.1, 5.0, n)), draw(_floats(0.0, 20.0, n)),
                      draw(st.lists(st.floats(1.0, 50.0), min_size=1, max_size=3)))
    alpha = draw(st.floats(0.05, 0.95)) * stability_bound_alpha(s)
    rho = 10.0 ** draw(st.floats(math.log10(0.05), 3.0)) / aggregate_power_slope(s)
    return s, alpha, rho


@BOUNDED
@given(case=dispatch_cases())
def test_dual_and_mom_converge_to_the_closed_form(case):
    # At |imbalance| = e both iterates sit w_i e/S <= e from the optimum, since
    # every unit's power error is its share of the price error.
    s, alpha, rho = case
    optimum = analytic_dispatch(s)
    tol = 1e-9 * sum(s.loads)
    for trace in (dual_ascent_solve(s, alpha, tol), mom_solve(s, rho, tol)):
        assert trace.converged
        last = trace.states[-1]
        scale = max(1.0, *map(abs, optimum.p))
        assert max(abs(x - y) for x, y in zip(last.p, optimum.p)) <= tol + 1e-12 * scale


# ---------------------------------------------------------------------------
# The row sum: Python 3.11's builtin sum on every interpreter

def _left_to_right(xs) -> float:
    """The builtin ``sum`` of Python 3.10 and 3.11 over floats, written out: each added
    in turn to the total from 0. From 3.12 ``sum`` compensates, in other last bits."""
    return functools.reduce(operator.add, xs, 0)


_LONG = model._ACCUMULATE_FROM  # rows this long are summed by np.add.accumulate
_BIG = st.floats(1e307, 1.7e308) | st.floats(-1.7e308, -1e307)  # sums that overflow


@st.composite
def sum_rows(draw):
    """A float64 row of 1 to 2 * _LONG elements, all from one of a few kinds of floats."""
    elements = draw(st.sampled_from([st.floats(-1e3, 1e3), st.floats(), _BIG,
                                     st.sampled_from([0.0, -0.0, 1e-300, -5e-324]),
                                     st.sampled_from([math.inf, -math.inf, 1e308])]))
    return np.array(draw(st.lists(elements, min_size=1, max_size=2 * _LONG)), dtype=float)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(row=sum_rows())
@example(row=np.array([-0.0]))
@example(row=np.full(_LONG - 1, -0.0))
@example(row=np.full(_LONG, -0.0))
@example(row=np.full(_LONG, 1e308))  # overflows to inf
@example(row=np.tile([1e308, 1e308, -1e308], _LONG))
@example(row=np.array([math.inf, -math.inf] * _LONG))  # inf - inf
def test_row_sum_is_python_3_11s_sum_bit_for_bit(row):
    got, want = model._row_sum(row), _left_to_right(row.tolist())
    assert type(got) is float
    assert struct.pack("d", got) == struct.pack("d", want)


@pytest.mark.parametrize("n", [2, 2 * _LONG])
def test_row_sum_callers_overflow_without_a_warning(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model._row_sum(np.full(n, 1e308)) == math.inf
        assert math.isnan(model._row_sum(np.array([math.inf, -math.inf] * (n // 2))))
        assert total_load(make_scenario([1.0], [0.0], [-1e308] * n)) == -math.inf


def test_row_sum_callers_add_left_to_right_under_a_compensated_sum(monkeypatch):
    # ten 0.1s add up to 0.9999999999999999 left to right and to 1.0 compensated
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    tenths, near_one = [0.1] * 10, [0.9999999999999999] + [0.0] * 9
    assert model._row_sum(np.array(tenths)) == 0.9999999999999999
    assert total_load(make_scenario([1.0], [0.0], tenths)) == 0.9999999999999999
    s = make_scenario([1.0] * 10, [0.0] * 10, [0.0] * 10)
    cfg = ControllerConfig(INTEGRAL, s.gain_K, s.tau)
    runs = [simulate(s, cfg, h=0.5, t_end=2.0, events=[(1.0, loads)]).delta_f.tobytes()
            for loads in (tenths, near_one)]
    assert runs[0] == runs[1]
    steps = [step_euler(integral_rhs, SimState(0.0, tuple(p), 0.0), s, cfg, 0.5, Inertial(1.0))
             for p in (tenths, near_one)]
    assert steps[0].delta_f == steps[1].delta_f


# ---------------------------------------------------------------------------
# The discrete/continuous equivalence, bit for bit

@st.composite
def equivalence_cases(draw):
    """N in 1..50, either pair, a drawn or the default lambda0, and 1..400 steps, enough
    for most runs to reach the repeat of the joint state at which the check stops; beta
    is K*S over a share in [0.05, 1.95], so that dual ascent at alpha = K/beta converges."""
    n = draw(st.integers(1, 50))
    s = make_scenario(draw(_floats(0.1, 5.0, n)), draw(_floats(0.0, 20.0, n)),
                      draw(_floats(1.0, 50.0, 2)), p_init=draw(_floats(-10.0, 30.0, n)),
                      gain_K=draw(st.floats(0.2, 5.0)), tau=draw(st.floats(0.2, 5.0)))
    s = s.replace(beta=s.gain_K * aggregate_power_slope(s) / draw(st.floats(0.05, 1.95)))
    return (s, draw(st.sampled_from(list(EquivalencePair))),
            draw(st.one_of(st.none(), st.floats(-50.0, 50.0))), draw(st.integers(1, 400)))


def _reference_run(s: Scenario, pair, lambda0):
    """The public one-step calls at alpha = rho = K/beta next to forward Euler at
    h = tau from the same start, each written out: (iterate, Euler powers) from step 0."""
    coupling = s.gain_K / s.beta
    g = s.gain_K / (s.columns.two_a * s.tau)
    if pair is EquivalencePair.DUAL_VS_INTEGRAL:
        state = initial_dual_state(s, lambda0)
        step = lambda cur: dual_ascent_step(cur, s, coupling)
    else:
        state = initial_mom_state(s, coupling, lambda0)
        step = lambda cur: mom_step(cur, s, coupling)
        g = g * (s.beta / (s.beta + s.gain_K * s.columns.slope))
    d = _left_to_right(s.loads)
    p = np.array(state.p)
    while True:
        yield state, p
        state = step(state)
        p = p + s.tau * (g * -((_left_to_right(p.tolist()) - d) / s.beta))


def _reference_deviations(s: Scenario, pair, steps: int, lambda0) -> list:
    """The largest power gap after each of ``steps`` steps of ``_reference_run``; NaN
    from the first step at which either side is not finite."""
    deviation, out = 0.0, []
    for state, p in itertools.islice(_reference_run(s, pair, lambda0), 1, steps + 1):
        if math.isnan(deviation) or not (math.isfinite(state.imbalance)
                                         and math.isfinite(_left_to_right(p.tolist()))):
            deviation = math.nan
        else:
            deviation = max(deviation, *(abs(x - y) for x, y in zip(state.p, p.tolist())))
        out.append(deviation)
    return out


def _repeats(s: Scenario, pair, steps: int, lambda0) -> tuple:
    """(first, period, brent) over steps 1..steps of ``_reference_run``: the first step
    whose joint state, as ``_bits`` spells it, is an earlier one and the distance back
    to it, found by a dict of every state, and the first step whose state is that of
    the last power-of-two step before it (Brent's method alone); None where none is."""
    seen, held, first, period = {}, None, None, None
    for t, (state, p) in enumerate(itertools.islice(_reference_run(s, pair, lambda0),
                                                    steps + 1)):
        key = experiments._bits(((state.lam, state.imbalance), p))
        if first is None and key in seen:
            first, period = t, t - seen[key]
        if key == held:
            return first, period, t
        seen.setdefault(key, t)
        if t & (t - 1) == 0 and t > 0:
            held = key
    return first, period, None


def _seeded_case(n: int, pair, steps: int):
    """A drawn-like case of n units, seeded by n."""
    rng = np.random.default_rng(n)
    s = make_scenario(rng.uniform(0.1, 5.0, n), rng.uniform(0.0, 20.0, n),
                      rng.uniform(1.0, 50.0, 2), p_init=rng.uniform(-10.0, 30.0, n),
                      gain_K=1.3, tau=0.7)
    return s.replace(beta=s.gain_K * aggregate_power_slope(s) / 0.9), pair, None, steps


def _chunked_case(n: int, pair, steps: int):
    """A drawn-like case of n units whose steps span several of the check's row chunks."""
    assert steps > 2 * (experiments._CHUNK_CELLS // n)
    return _seeded_case(n, pair, steps)


def _period_two_case():
    """Two units whose dual price and imbalance, and so the joint state, settle on a
    cycle of period 2 at step 9."""
    s = make_scenario([4.38, 2.41], [18.3, 15.3], [45.9, 7.2], p_init=[-7.1, -7.2],
                      gain_K=4.37, tau=3.24)
    s = s.replace(beta=s.gain_K * aggregate_power_slope(s) / 0.99)
    return s, EquivalencePair.DUAL_VS_INTEGRAL, None, 100


def _euler_drift_case():
    """Four units whose MoM price and imbalance repeat while the Euler powers still
    move, and move the deviation."""
    s = make_scenario([2.6, 4.0, 3.12, 0.65], [3.3, 4.7, 19.1, 2.4], [16.4, 21.5],
                      p_init=[12.9, -8.0, 9.3, -1.7], gain_K=4.94, tau=1.85)
    s = s.replace(beta=s.gain_K * aggregate_power_slope(s) / 0.37)
    return s, EquivalencePair.MOM_VS_PI, -4.8, 400


@BOUNDED
@given(case=equivalence_cases())
@example(case=(make_scenario([0.5, 1.0], [1.0, 2.0], [6.0, 4.0], p_init=[7.0, 3.0], beta=1.5),
               EquivalencePair.MOM_VS_PI, 0.0, 60))
@example(case=_chunked_case(50, EquivalencePair.DUAL_VS_INTEGRAL, 500))
@example(case=_chunked_case(50, EquivalencePair.MOM_VS_PI, 500))
@example(case=_chunked_case(1, EquivalencePair.DUAL_VS_INTEGRAL, 20_000))
@example(case=_seeded_case(2, EquivalencePair.MOM_VS_PI, 20_000))
@example(case=_seeded_case(9, EquivalencePair.MOM_VS_PI, 600))  # numpy's pairwise sum
@example(case=_seeded_case(21, EquivalencePair.MOM_VS_PI, 200))  # a 3-cycle: Brent's stop
@example(case=_period_two_case())
@example(case=_euler_drift_case())
@example(case=(make_scenario([0.5, 1.0], [0.0, 0.0], [6.0, 4.0], beta=1.5),
               EquivalencePair.MOM_VS_PI, 0.0, 100))  # zero offsets and a zero start
@example(case=(make_scenario([0.5, 1.0], [0.0, 0.0], [0.0], beta=1.5),
               EquivalencePair.DUAL_VS_INTEGRAL, -0.0, 50))  # -0.0 Euler rows, 0.0 exact ones
def test_equivalence_is_the_public_steps_against_an_euler_twin_bit_for_bit(case):
    s, pair, lambda0, steps = case
    expected = _reference_deviations(s, pair, steps, lambda0)[-1]
    assert math.isfinite(expected)
    assert check_euler_equivalence(s, pair, steps, lambda0).max_abs_deviation == expected


@pytest.mark.parametrize("case,period", [
    *(((reference_scenario(), pair, lambda0, 200), 1)
      for pair in EquivalencePair for lambda0 in (0.0, -20.0)),
    (_period_two_case(), 2),
    (_seeded_case(9, EquivalencePair.MOM_VS_PI, 600), 2),  # a 2-cycle from step 57
    (_seeded_case(21, EquivalencePair.MOM_VS_PI, 200), 3),  # first repeats at step 63
    *((_seeded_case(1000, pair, 20), None) for pair in EquivalencePair),  # none in 20 steps
])
def test_equivalence_stops_at_the_first_repeat(case, period, monkeypatch):
    # The check compares each joint state with those one and two steps back, and
    # with Brent's state of the last power-of-two step, so a fixed point or a 2-cycle
    # stops on its first repeat, a longer cycle no later than Brent's method alone,
    # and a run of 10**7 steps reports the deviation of one that ends past the repeat.
    s, pair, lambda0, steps = case
    first, found, brent = _repeats(s, pair, steps, lambda0)
    assert found == period
    drawn, kernel = [0], experiments._iterates

    def counted(*args):
        for state in kernel(*args):
            drawn[0] += 1
            yield state

    monkeypatch.setattr(experiments, "_iterates", counted)
    short = check_euler_equivalence(s, pair, steps, lambda0)
    if period is None:
        assert drawn[0] == 1 + steps  # no false stop
        return
    drawn[0] = 0
    report = check_euler_equivalence(s, pair, 10 ** 7, lambda0)
    assert report == dataclasses.replace(short, steps=10 ** 7)
    if period <= 2:
        assert drawn[0] == 1 + first
    else:
        assert first < drawn[0] <= 1 + brent


def test_equivalence_overflow_in_a_later_chunk_is_nan(tmp_path, capsys):
    # At K*S/beta = 150 dual ascent at alpha = K/beta multiplies the imbalance by
    # about -149 a step, so the iterates overflow well past the first row chunk.
    s, pair, _, _ = _chunked_case(100, EquivalencePair.DUAL_VS_INTEGRAL, 300)
    s = s.replace(beta=s.gain_K * aggregate_power_slope(s) / 150.0)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _reference_deviations(s, pair, 300, None)
        first = next(k for k, x in enumerate(expected, 1) if math.isnan(x))
        assert first > 1 + experiments._CHUNK_CELLS // 100
        for steps in (first - 1, first, 300):
            got = check_euler_equivalence(s, pair, steps).max_abs_deviation
            assert repr(got) == repr(expected[steps - 1])
    path = tmp_path / "diverging.json"
    path.write_text(serialize_scenario_file(ScenarioFile(1, s)))
    for steps, code in ((first - 1, 0), (first, 3), (300, 3)):
        assert run_command(["equivalence", str(path), "--pair", pair.value,
                            "--steps", str(steps)]) == code
        deviation = strict_json(capsys.readouterr().out)["max_abs_deviation"]
        assert deviation == (None if code else expected[steps - 1])


def test_equivalence_fold_takes_an_overflowing_gap_as_inf():
    # finite rows whose difference overflows, outside the command line's errstate
    # and under the suite's warnings-as-errors filter
    exact, euler = [np.array([1e308, 0.0])], [np.array([-1e308, 0.0])]
    assert experiments._fold(1.0, exact, euler) == math.inf and exact == euler == []


def test_equivalence_memory_does_not_grow_with_steps():
    # 2,000 steps of 1,000 units: 16 MB a side if every row were kept, a few
    # 128 KiB row chunks (both sides) as folded
    rng = np.random.default_rng(1000)
    s = make_scenario(rng.uniform(0.1, 5.0, 1000), rng.uniform(0.0, 20.0, 1000), [3e4])
    s = s.replace(beta=s.gain_K * aggregate_power_slope(s) / 0.8)
    tracemalloc.start()
    try:
        report = check_euler_equivalence(s, EquivalencePair.DUAL_VS_INTEGRAL, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.max_abs_deviation <= 1e-9
    assert peak < 4 * 2 * 8 * experiments._CHUNK_CELLS


# ---------------------------------------------------------------------------
# The scenario file format

_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_slope = _positive.filter(lambda a: 2.0 * a < math.inf and 1.0 / (2.0 * a) < math.inf)


@st.composite
def scenario_files(draw) -> ScenarioFile:
    """Valid files with 1-50 generators (c and p_init drawn or left at their
    defaults) and optional solver and simulation blocks."""
    n = draw(st.integers(1, 50))
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=n, max_size=n, unique=True))
    gens = tuple(Generator(i, CostCoefficients(draw(_slope), draw(_finite),
                                               draw(st.one_of(st.just(0.0), _finite))),
                           draw(st.one_of(st.just(0.0), _finite)))
                 for i in ids)
    loads = tuple(draw(st.lists(_finite, min_size=1, max_size=4)))
    s = Scenario(gens, loads, draw(_positive), draw(_positive), draw(_positive))
    optional = lambda strategy: st.one_of(st.none(), strategy)  # noqa: E731
    solver = draw(optional(st.builds(
        SolverOptions, alpha=optional(_positive), rho=optional(_positive), tol=_positive,
        max_iter=st.integers(1, 10 ** 6), lambda0=optional(_finite))))
    times = sorted(draw(st.lists(st.floats(0.0, 1e6), max_size=3)))
    events = tuple(LoadEvent(t, tuple(draw(_floats(-1e6, 1e6, len(loads))))) for t in times)
    simulation = draw(optional(st.builds(
        SimulationOptions, controller=st.sampled_from(list(ControllerKind)),
        h=optional(_positive), t_end=optional(_positive), events=st.just(events))))
    return ScenarioFile(1, s, solver, simulation)


_COLUMN_NAMES = ("a", "two_a", "b", "c", "p_init", "w")


@BOUNDED
@given(sf=scenario_files())
def test_parse_inverts_serialize(sf):
    parsed = parse_scenario_file(serialize_scenario_file(sf))
    assert parsed == sf
    # the columns built at parse time are the ones the generators give
    gens = parsed.scenario.generators
    built = Columns.of([g.cost.a for g in gens], [g.cost.b for g in gens],
                       [g.cost.c for g in gens], [g.p_init for g in gens])
    for name in _COLUMN_NAMES:
        assert getattr(parsed.scenario.columns, name).tobytes() == getattr(built, name).tobytes()
    assert parsed.scenario.columns.slope == built.slope


@BOUNDED
@given(sf=scenario_files(), data=st.data())
def test_constructor_and_parser_build_the_same_scenario(sf, data):
    # Scenario(generators=...) keeps the generators it is given; the parser keeps
    # the file's id and number lists. Both must be one scenario, before and after
    # the copies the library makes of it.
    built, parsed = sf.scenario, parse_scenario_file(serialize_scenario_file(sf)).scenario
    loads = tuple(data.draw(st.lists(_finite, min_size=1, max_size=4)))
    for x, y in [(built, parsed), (built.replace(loads=loads), parsed.replace(loads=loads))]:
        fresh = Scenario(y.generators, y.loads, y.gain_K, y.beta, y.tau)  # its own columns
        assert x == y == fresh and hash(x) == hash(y) == hash(fresh) and repr(x) == repr(y)
        assert x.generators == y.generators
        for name in _COLUMN_NAMES:
            want = getattr(fresh.columns, name).tobytes()
            assert getattr(x.columns, name).tobytes() == want == getattr(y.columns, name).tobytes()
        assert x.columns.slope == y.columns.slope == fresh.columns.slope


def _validate_row_by_row(s: Scenario) -> list[Violation]:
    """The generator rules of validate_scenario as they were written first: one
    generator at a time, every field, then the id; then, once every a passes its
    own rule, the sum of the slopes 1/(2a)."""
    def finite(x):  # an int that rounds to 2**1024 or past is infinite, as the parser reads it
        if isinstance(x, int) and abs(x) >= 2 ** 1024 - 2 ** 970:
            return False
        return isinstance(x, (int, float, np.integer, np.floating)) and math.isfinite(x)

    out = [] if s.generators else [Violation("generators", "at least one generator required")]
    seen = set()
    for i, g in enumerate(s.generators):
        a = g.cost.a
        why = ("a must be finite" if not finite(a) else "a must be > 0" if a <= 0 else
               None if 0.0 < 1.0 / (2.0 * a) < math.inf else "a must keep 2a and 1/(2a) finite")
        checks = [("cost.a", why)] + [(field, None if finite(x) else f"{name} must be finite")
                                      for field, name, x in (("cost.b", "b", g.cost.b),
                                                             ("cost.c", "c", g.cost.c),
                                                             ("p_init", "p_init", g.p_init))]
        out += [Violation(f"generators[{i}].{field}", f"{why} for generator {i + 1}")
                for field, why in checks if why is not None]
        if g.id in seen:
            out.append(Violation(f"generators[{i}].id", f"duplicate generator id '{g.id}'"))
        seen.add(g.id)
    slopes = [1.0 / (2.0 * g.cost.a) for g in s.generators
              if finite(g.cost.a) and g.cost.a > 0 and 0.0 < 1.0 / (2.0 * g.cost.a) < math.inf]
    if s.generators and len(slopes) == len(s.generators) and sum(slopes) == math.inf:
        out.append(Violation("generators", "the total slope sum 1/(2a) must be finite"))
    return out


# The floats at the edges of the slope rule: 2a is finite up to 8.988465674311579e307,
# and 1/(2a) from 2.781342323134007e-309 on; the next float out breaks each.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, -1.0, 1e308, 8.988465674311579e307,
                                8.98846567431158e307, 2.781342323134007e-309,
                                2.781342323134e-309, 5e-324, math.inf, -math.inf, math.nan])
# Besides those: any float, and values that are not plain floats: ints and bools,
# ints past the float range, numpy scalars, None and a string.
_FIELD_VALUES = st.one_of(
    _EDGE_FLOATS, st.floats(), st.integers(-3, 10 ** 6), st.booleans(),
    st.floats(0.1, 5.0).map(np.float64), st.floats(0.1, 5.0).map(np.float32),
    st.integers(-3, 10 ** 6).map(np.int64),
    st.sampled_from([None, "1.0", 10 ** 400, -10 ** 400]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_validation_in_bulk_matches_row_by_row(data):
    n = data.draw(st.integers(0, 12))
    wild_run = data.draw(st.booleans())  # else mostly sane floats, which pass in bulk

    def value(lo, hi):
        roll = data.draw(st.integers(0, 9))
        if wild_run or roll == 0:
            return data.draw(_FIELD_VALUES)
        return data.draw(_EDGE_FLOATS if roll == 1 else st.floats(lo, hi))

    ids = (data.draw(st.lists(st.sampled_from(["G1", "G2", "é", "G1 "]), min_size=n, max_size=n))
           if data.draw(st.booleans()) else [f"G{i}" for i in range(n)])
    gens = tuple(Generator(i, CostCoefficients(value(0.1, 5.0), value(-20.0, 20.0),
                                               value(-5.0, 5.0)), value(-10.0, 30.0))
                 for i in ids)
    # loads and gain_K, beta, tau: any float, or one that passes, so that some scenarios are valid
    s = Scenario(gens, tuple(data.draw(st.lists(st.one_of(_finite, st.floats()), max_size=3))),
                 *data.draw(st.lists(st.one_of(_positive, st.floats()), min_size=3, max_size=3)))
    # the rules past the generators are unchanged: what a generator-less copy
    # reports after its "at least one generator"
    rest = validate_scenario(dataclasses.replace(s, generators=()))[1:]
    violations = validate_scenario(s)
    assert violations == _validate_row_by_row(s) + rest
    # a file of the same numbers: the parser reports exactly these violations
    if all(type(x) in (int, float) for g in gens for x in (g.cost.a, g.cost.b, g.cost.c, g.p_init)):
        text = serialize_scenario_file(ScenarioFile(1, s))
        if not violations:
            assert parse_scenario_file(text).scenario == s
            return
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_file(text)
        assert (err.value.path, err.value.reason) == ("scenario", "invalid scenario: " + "; ".join(
            f"scenario.{v.field}: {v.message}" for v in violations))


# ---------------------------------------------------------------------------
# The simulation CSV against its row-by-row reference

def _csv(trace) -> str:
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    return sink.getvalue()


@st.composite
def csv_traces(draw) -> SimulationTrace:
    """N in 1..60, started on the economic dispatch (every marginal cost equal, so
    rows repeat values) or off it (few repeats), over 0-3 whole blocks of the
    writer plus part of one, with an optional load step."""
    n = draw(st.integers(1, 60))
    s = make_scenario(draw(_floats(0.1, 5.0, n)), draw(_floats(-20.0, 20.0, n)),
                      draw(_floats(1.0, 50.0, 2)), p_init=draw(_floats(-10.0, 30.0, n)),
                      beta=draw(st.floats(0.5, 5.0)), tau=draw(st.floats(0.2, 5.0)))
    if draw(st.booleans()):
        s = economic_start(s)
    block = max(1, traceio._CSV_BLOCK_CELLS // (2 * n + 2))
    steps = draw(st.integers(0, 3)) * block + draw(st.integers(2, block + 1))  # t_end > h
    h = s.tau * draw(st.floats(0.01, 1.0))
    events = [(draw(st.integers(0, steps)) * h, tuple(draw(_floats(1.0, 50.0, 2))))
              for _ in range(draw(st.integers(0, 1)))]
    cfg = ControllerConfig(draw(st.sampled_from([INTEGRAL, PI])), s.gain_K, s.tau)
    return simulate(s, cfg, h=h, t_end=steps * h, events=events)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(trace=csv_traces())
def test_simulation_csv_matches_reference_on_drawn_runs(trace):
    assert _csv(trace) == reference_simulation_csv(trace)


@BOUNDED
@given(data=st.data())
def test_simulation_csv_keeps_signed_zeros(data):
    # -0.0 and 0.0 are one value but two cells: "-0" and "0"
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(1, 50))
    cells = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, -5e-324, math.inf, math.nan])
    s = make_scenario([1.0] * n, data.draw(st.lists(st.sampled_from([0.0, -0.0]),
                                                    min_size=n, max_size=n)), [1.0])
    p = np.array(data.draw(st.lists(cells, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    trace = SimulationTrace(np.array(data.draw(_floats(-1.0, 1.0, rows))), p,
                            np.array(data.draw(st.lists(cells, min_size=rows, max_size=rows))),
                            (), ControllerConfig(INTEGRAL, 1.0, 1.0), QuasiStatic(1.0), s)
    assert _csv(trace) == reference_simulation_csv(trace)


@pytest.mark.parametrize("economic", [True, False])
def test_simulation_csv_row_wider_than_a_block(economic):
    n = traceio._CSV_BLOCK_CELLS // 2 + 7  # 2n + 2 cells per row: one block holds part of a row
    rng = np.random.default_rng(n)
    s = make_scenario(rng.uniform(0.1, 5.0, n), rng.uniform(-20.0, 20.0, n), [40.0, 25.0],
                      p_init=rng.uniform(-10.0, 30.0, n))
    s = economic_start(s) if economic else s
    trace = simulate(s, ControllerConfig(PI, s.gain_K, s.tau), h=0.25, t_end=1.0,
                     events=[(0.5, (45.0, 25.0))])
    assert _csv(trace) == reference_simulation_csv(trace)


@st.composite
def block_traces(draw):
    """A simulation trace, or a dual or MoM solver trace, of N in 20..60 units
    started on or off the economic dispatch, over one or two blocks of the
    shipped size and at most one more row."""
    n = draw(st.integers(20, 60))  # a shipped block holds at most 682 rows
    s = make_scenario(draw(_floats(0.1, 5.0, n)), draw(_floats(-20.0, 20.0, n)),
                      draw(_floats(1.0, 50.0, 2)), p_init=draw(_floats(-10.0, 30.0, n)),
                      beta=draw(st.floats(0.5, 5.0)), tau=draw(st.floats(0.2, 5.0)))
    if draw(st.booleans()):
        s = economic_start(s)
    simulation = draw(st.booleans())
    step = max(1, traceio._CSV_BLOCK_CELLS // (2 * n + 2 if simulation else n + 4))
    # a simulation samples t_end / h + 1 > 2 rows
    rows = draw(st.integers(0, 1)) * step + draw(st.integers(3 if simulation else 2, step + 1))
    if simulation:
        h = s.tau * draw(st.floats(0.01, 1.0))
        cfg = ControllerConfig(draw(st.sampled_from([INTEGRAL, PI])), s.gain_K, s.tau)
        return simulate(s, cfg, h=h, t_end=(rows - 1) * h,
                        events=[(draw(st.integers(0, rows - 1)) * h, (40.0, 25.0))])
    # a small step, so the run converges slowly
    coupling = draw(st.floats(1e-3, 0.05)) * stability_bound_alpha(s)
    solve = draw(st.sampled_from([dual_ascent_solve, mom_solve]))
    return solve(s, coupling, tol=1e-300, max_iter=rows - 1)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(trace=block_traces())
def test_trace_csv_does_not_depend_on_the_block_size(trace):
    # blocks of one row, one row (7 cells hold no row of 4 or more), 4,096 cells
    # and the shipped size cut the trace at different rows
    expected = _csv(trace)
    for cells in (1, 7, 4096, traceio._CSV_BLOCK_CELLS):
        with unittest.mock.patch.object(traceio, "_CSV_BLOCK_CELLS", cells):
            assert _csv(trace) == expected, cells


# ---------------------------------------------------------------------------
# The CSV float kernel against format(x, ".17g")

def _csv_text(table) -> str:
    """The table's CSV text, cut into blocks as the trace writers cut theirs."""
    return "".join(traceio._csv_rows(*table.shape, table.__getitem__))


def _kernel_matches_format(values, cols):
    table = np.array(values, dtype=np.float64).reshape(-1, cols)
    expected = "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in table.tolist())
    assert _csv_text(table) == expected


_BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_csv_kernel_matches_format_on_drawn_floats(data):
    # floats() draws subnormals, infinities and NaNs; bit patterns spread over every exponent
    cols = data.draw(st.integers(1, 5))
    rows = data.draw(st.integers(1, 30))
    values = data.draw(st.lists(st.one_of(st.floats(), _BIT_PATTERNS, st.floats(-1e3, 1e3)),
                                min_size=rows * cols, max_size=rows * cols))
    _kernel_matches_format(values, cols)


_POWERS = 10.0 ** np.arange(-300, 301)
_KERNEL_CASES = [
    3 / 2 ** 25,  # 8.94069671630859375e-08: an exact tie at the 17th digit
    99999999999999999.0,  # rounds up to 1e17
    9.9999999999999995e-05, 1e-4, 1e-5,  # either side of the switch to exponent notation
    1e16, 1e17, 9999999999999998.0, 123456789012345678.0,  # either side of the switch for large x
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-280, 1e280, 1.0000000000000001e-280, 9.9999999999999997e279,  # the window's ends
    math.inf, -math.inf, math.nan, 0.5, 100.0, 12.5, 0.001,
    *np.nextafter(_POWERS, math.inf).tolist(), *np.nextafter(_POWERS, -math.inf).tolist(),
    *_POWERS.tolist(),
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("cols", [1, 7])
def test_csv_kernel_matches_format_on_listed_cases(sign, cols):
    values = [sign * x for x in _KERNEL_CASES]
    _kernel_matches_format(values + [0.0] * (-len(values) % cols), cols)


# A cell with the bits of the cell above is copied, not formatted. These are
# drawn under themselves and under their twins: -0.0 under 0.0, or a NaN under a
# NaN of other bits, must not copy; 1e-300, the tie 3 / 2**25 and the non-finite
# values are formatted alone where they are new.
_QUIET_NAN_1 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
_TWINS = [0.0, -0.0, math.nan, -math.nan, _QUIET_NAN_1, math.inf, -math.inf,
          1e-300, -1e-300, 3 / 2 ** 25, 5e-324, 1.5, 0.1]


# Small blocks keep the drawn tables small; the text does not depend on the block
# size (test_trace_csv_does_not_depend_on_the_block_size).
@unittest.mock.patch.object(traceio, "_CSV_BLOCK_CELLS", 128)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_csv_rows_copy_only_cells_equal_to_the_one_above(data):
    cols = data.draw(st.integers(1, 7))
    step = max(1, traceio._CSV_BLOCK_CELLS // cols)  # rows per block
    rows = data.draw(st.integers(step + 2, 2 * step + 2))  # two blocks and part of a third
    cells = st.one_of(st.sampled_from(_TWINS), st.floats(), _BIT_PATTERNS)
    patterns = data.draw(st.lists(st.lists(cells, min_size=cols, max_size=cols),
                                  min_size=1, max_size=4))
    # runs of repeated drawn rows; none starts next to the first block boundary
    starts = sorted(data.draw(st.sets(st.integers(1, rows - 1).filter(
        lambda r: not step - 1 <= r <= step + 1), max_size=5)))
    which = data.draw(st.lists(st.integers(0, len(patterns) - 1),
                               min_size=len(starts) + 1, max_size=len(starts) + 1))
    table = np.repeat(np.array([patterns[w] for w in which], dtype=np.float64),
                      np.diff([0, *starts, rows]), axis=0)
    # single-cell edits, many of them on the rows either side of a block boundary
    near = st.sampled_from([r for b in range(step, rows, step) for r in (b - 1, b)])
    for _ in range(data.draw(st.integers(0, 8))):
        row = data.draw(st.one_of(near, st.integers(0, rows - 1)))
        table[row, data.draw(st.integers(0, cols - 1))] = data.draw(cells)
    col = data.draw(st.integers(0, cols - 1))
    table[step, col] = table[step - 1, col]  # a repeat crosses the first block boundary
    kernel_spy = unittest.mock.patch.object(traceio, "_csv_cells", side_effect=traceio._csv_cells)
    with kernel_spy as kernel:
        text = _csv_text(table)
    bits = table.view(np.uint64)
    assert sum(call.args[0].size for call in kernel.call_args_list) \
        == table.size - np.count_nonzero(bits[1:] == bits[:-1])
    assert text == "".join(",".join(format(x, ".17g") for x in row) + "\n"
                           for row in table.tolist())


@pytest.mark.parametrize("pair", [(0.0, -0.0), (math.nan, -math.nan), (math.nan, _QUIET_NAN_1),
                                  (math.nan, math.nan), (1e-300, 1e-300),
                                  (3 / 2 ** 25, 3 / 2 ** 25), (-math.inf, -math.inf)])
@pytest.mark.parametrize("across", [False, True])
def test_csv_rows_on_a_cell_under_its_twin(pair, across):
    # each column holds one of the pair, then from the row after `row` on the other,
    # inside the first block or across its end
    step = traceio._CSV_BLOCK_CELLS // 2  # rows per block at two columns
    row = step - 1 if across else step // 2
    table = np.array([pair] * (row + 1) + [pair[::-1]] * (2 * step - row))
    expected = "".join(",".join(format(x, ".17g") for x in r) + "\n" for r in table.tolist())
    assert _csv_text(table) == expected


def _reference_csv_tables() -> dict:
    """Every table of the CSV kernel written out entry by entry: the powers of ten
    with ``Fraction``, the digit groups and byte layouts from their text."""
    exps = range(-282, 282)
    tens = [Fraction(10) ** (16 - e) for e in exps]
    hi = [float(x) for x in tens]
    split = 134217729.0

    def last(i):  # the index of the last nonzero digit of the group, -64 for "0000"
        return max([j for j, c in enumerate(f"{i:04d}") if c != "0"], default=-64)

    def exponent(e):  # bytes 1-5 of word 3: "e+XX" with a NUL for the hundreds, or "e+XXX"
        if -4 <= e < 17:
            return 0
        text = f"e{'-' if e < 0 else '+'}{abs(e) // 100 or chr(0)}{abs(e) % 100:02d}"
        return int.from_bytes(b"\0" + text.encode(), "little")

    def words(values, count):
        return [[v >> 64 * i & 2 ** 64 - 1 for v in values] for i in range(count)]

    u8 = np.uint64
    return {
        "hi": np.array(hi), "hh": np.array([h * split - (h * split - h) for h in hi]),
        "lo": np.array([float(x - Fraction(h)) for x, h in zip(tens, hi)]),
        "quad": np.array([int.from_bytes(f"{i:04d}".encode(), "little") for i in range(10000)], u8),
        "z": np.array([[last(i) + 1 + 4 * r for i in range(10000)] for r in range(4)], np.int8),
        "q": np.array([(16 if e < 0 else e) if -4 <= e < 17 else 0 for e in exps]),
        "kp": np.array([e if 0 <= e < 17 else 0 for e in exps]),
        "prefix": np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-e - 1), "little")
                            if -4 <= e < 0 else 0 for e in exps], u8),
        "exp": np.array([exponent(e) for e in exps], u8),
        "d0": np.array([(48 + d) << 48 for d in range(10)], u8),
        "sign": np.array([0, ord("-")], u8),
        "low": np.array(words([(1 << 8 * q) - 1 for q in range(17)], 2), u8),
        "dot": np.array(words([ord(".") << 8 * q if q < 16 else 0 for q in range(17)], 2), u8),
        "keep": np.array(words([(1 << 8 * c) - 1 | (1 << 192) - (1 << 136) for c in range(18)], 3),
                         u8),
    }


def test_csv_tables_match_an_exact_reference():
    # the kernel stacks the tables it reads at one index, a row each: by exponent
    # row, by the point's place q and by the count of bytes kept ("keep" already is)
    tables, ref = traceio._csv_tables(), _reference_csv_tables()
    stacked = {
        "scale": np.stack([ref["hi"], ref["hh"], ref["hi"] - ref["hh"], ref["lo"]]),
        "layout": np.stack([ref["prefix"], ref["exp"], *(ref[k].astype(np.uint64)
                                                         for k in ("q", "kp"))]),
        "point": np.concatenate([ref["low"], ref["dot"]]),
    }
    reference = {k: ref[k] for k in ("quad", "z", "d0", "sign", "keep")} | stacked
    assert tables.keys() == reference.keys()
    for name, want in reference.items():
        got = tables[name]
        assert (got.dtype, got.shape, got.flags.writeable) == (want.dtype, want.shape, False), name
        assert got.tobytes() == want.tobytes(), name


# ---------------------------------------------------------------------------
# The command line on fuzzed scenario files and flags

# Values at and past the edges of a field's domain: any float (NaN and the
# infinities too), the ends of the float range, zero of both signs, and
# integers that no float holds.
_EXTREME = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 1e154]),
                     st.integers(-10 ** 400, 10 ** 400))


@st.composite
def _number(draw, lo, hi):
    """Mostly a sane value in [lo, hi]; one time in twenty an extreme one."""
    return draw(_EXTREME) if draw(st.integers(0, 19)) == 0 else draw(st.floats(lo, hi))


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
                     lambda inner: st.lists(inner, max_size=2)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                     max_leaves=4)


# t_end/h: a trace of at most 501 rows, or one with 1e8 rows or more, whose
# 3 or more cells a row exceed MAX_TRACE_CELLS
_STEP_COUNTS = st.one_of(st.floats(0.0, 500.0), st.floats(1e8, 1e300))
assert 1e8 * 3 > MAX_TRACE_CELLS


@st.composite
def _scenario_documents(draw) -> str:
    """Scenario files from well-formed to broken: drawn fields and blocks, then a
    chance of one node replaced, a key dropped or added, or the text cut short.
    A drawn simulation block has t_end/h <= 500, or a grid past the trace cap,
    which is refused before its trace is allocated."""
    n, n_loads = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    loads = lambda: [draw(_number(1.0, 50.0)) for _ in range(n_loads)]  # noqa: E731
    gens = [{"id": f"g{i}", "p_init": draw(_number(-10.0, 30.0)),
             "cost": {"a": draw(_number(0.1, 5.0)), "b": draw(_number(-20.0, 20.0)),
                      "c": draw(_number(-5.0, 5.0))}} for i in range(n)]
    scenario = {"generators": gens, "loads": loads(), "gain_K": draw(_number(0.2, 5.0)),
                "beta": draw(_number(0.2, 5.0)), "tau": draw(_number(0.2, 5.0))}
    doc = {"format_version": 1, "scenario": scenario}
    if draw(st.booleans()):
        doc["solver"] = {"alpha": draw(_number(0.01, 1.0)), "rho": draw(_number(0.01, 10.0)),
                         "tol": draw(_number(1e-9, 1e-3)), "lambda0": draw(_number(-50.0, 50.0)),
                         "max_iter": draw(st.integers(-1, 300))}
    if draw(st.booleans()):
        h = draw(_number(0.01, 1.0))
        t_end = h * draw(_STEP_COUNTS) if isinstance(h, float) else h
        events = [{"time": draw(_number(0.0, 20.0)), "loads": loads()}
                  for _ in range(draw(st.integers(0, 2)))]
        doc["simulation"] = {"controller": draw(st.sampled_from(["integral", "pi", "PI"])),
                             "h": h, "t_end": t_end, "events": events}
    parent, key = draw(st.sampled_from([(doc, "scenario"), (scenario, "loads"), (scenario, "tau"),
                                        (gens[0], "cost"), (gens[0]["cost"], "a")]))
    damage = draw(st.sampled_from(["none", "none", "none", "replace", "drop", "add", "cut"]))
    if damage == "replace":
        parent[key] = draw(_JSON)
    elif damage == "drop":
        del parent[key]
    elif damage == "add":
        parent["extra"] = draw(_JSON)
    text = json.dumps(doc)  # NaN and Infinity as Python's json writes (and reads) them
    return text[:draw(st.integers(0, len(text)))] if damage == "cut" else text


_COMMANDS = {  # command -> (its required arguments, drawn; its optional flags)
    "validate": (lambda draw: [], ()),
    "dispatch": (lambda draw: [], ("--oracle", "--grid-step")),
    "iterate": (lambda draw: ["--method", draw(st.sampled_from(["dual", "mom"]))],
                ("--alpha", "--rho", "--tol", "--max-iter", "--lambda0", "--out-csv")),
    "simulate": (lambda draw: ["--controller", draw(st.sampled_from(["integral", "pi"]))],
                 ("--eps", "--out-csv")),
    "compare": (lambda draw: [], ("--alpha", "--rho", "--tol", "--lambda0")),
    "sweep": (lambda draw: ["--param", draw(st.sampled_from(["alpha", "rho", "K", "tau"])),
                            "--values", *(str(draw(_number(0.05, 3.0)))
                                          for _ in range(draw(st.integers(1, 2))))],
              ("--tol", "--out-csv")),
    "equivalence": (lambda draw: ["--pair", draw(st.sampled_from(["dual-integral", "mom-pi"]))],
                    ("--steps", "--lambda0")),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=_scenario_documents(), command=st.sampled_from(sorted(_COMMANDS)), data=st.data())
def test_run_command_never_raises_and_prints_strict_json(text, command, data):
    required, optional = _COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, path, *required(data.draw)]
        for flag in data.draw(st.lists(st.sampled_from(optional), unique=True)) if optional else ():
            if flag == "--oracle":
                argv.append(flag)
            elif flag == "--out-csv":  # a directory is an I/O error
                argv += [flag, data.draw(st.sampled_from([os.path.join(tmp, "out.csv"), tmp]))]
            elif flag in ("--max-iter", "--steps"):
                argv += [flag, str(data.draw(st.integers(-2, 300)))]
            else:
                argv += [flag, str(data.draw(_number(0.01, 2.0)))]
        if command == "simulate" and data.draw(st.booleans()):
            h = data.draw(st.floats(1e-3, 10.0))
            argv += ["--h", repr(h), "--t-end", repr(h * data.draw(_STEP_COUNTS))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_command(argv)
    assert code in (0, 1, 2, 3)
    if out.getvalue():
        strict_json(out.getvalue())


# ---------------------------------------------------------------------------
# The JSON summary writer against the json.dumps pair it replaced

def _jsonable(x):
    """A summary as the CLI handed it to json.dumps(..., indent=2, allow_nan=False)."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):  # a report: the object of its fields in order
        return {f.name: _jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (StopReason, ControllerKind, EquivalencePair)):
        return x.value
    if isinstance(x, float) and not math.isfinite(x):
        return None  # JSON has no Infinity or NaN
    return x


_SUMMARY_FLOATS = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.5e-310, 1e308]))
_SUMMARY_INTS = st.one_of(st.integers(), st.integers(-10 ** 400, 10 ** 400),
                          st.sampled_from([2 ** 63, -2 ** 64 - 1, 10 ** 4000]))
_SUMMARY_LEAVES = st.one_of(
    _SUMMARY_FLOATS, _SUMMARY_INTS, st.booleans(), st.none(), st.text(),
    st.sampled_from([*StopReason, *ControllerKind, *EquivalencePair]),
    st.lists(_SUMMARY_FLOATS), st.lists(st.floats(allow_nan=False, allow_infinity=False)))
_SUMMARY_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                          st.floats(allow_nan=False, allow_infinity=False))
_REPORTS = (experiments.MethodConvergence, experiments.ConvergenceReport,
            experiments.SteadyStateReport, experiments.EquivalenceReport, experiments.SweepRecord)
_SUMMARIES = st.recursive(
    _SUMMARY_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_SUMMARY_KEYS, inner, max_size=4)
    | st.one_of([st.builds(report, **{f.name: inner for f in dataclasses.fields(report)})
                 for report in _REPORTS]),
    max_leaves=25)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(summary=_SUMMARIES)
def test_summary_writer_matches_json_dumps(summary):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(summary)
    assert out.getvalue() == json.dumps(_jsonable(summary), indent=2, allow_nan=False) + "\n"
