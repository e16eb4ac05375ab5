"""The rank-one kernel: O(N) method-of-multipliers step, columns once per scenario,
settling on the one-unit equivalent."""

import json
import math

import numpy as np
import pytest

import freqdispatch.dispatch as dispatch
import freqdispatch.dynamics as dynamics
import freqdispatch.experiments as experiments
import freqdispatch.model as model
from freqdispatch import (
    ControllerConfig,
    ControllerKind,
    EquivalencePair,
    SimState,
    aggregate_power_slope,
    check_euler_equivalence,
    compare_convergence,
    dual_ascent_solve,
    frequency_deviation,
    integral_gain,
    integral_rhs,
    mom_inner_minimize,
    mom_solve,
    pi_rhs,
    simulate,
    step_euler,
    step_rk4,
    sweep,
    total_load,
)
from freqdispatch.cli import ScenarioFile, SimulationOptions, run_command, serialize_scenario_file

from conftest import economic_start, make_scenario, reference_scenario

INTEGRAL = ControllerKind.INTEGRAL
PI = ControllerKind.PROPORTIONAL_INTEGRAL


def _random_fleet(rng, n):
    a = rng.uniform(0.1, 5.0, size=n)
    b = rng.uniform(0.0, 20.0, size=n)
    loads = rng.uniform(1.0, 50.0, size=max(1, n // 10))
    return make_scenario(a, b, loads)


@pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
def test_mom_inner_minimize_matches_dense_solve(n):
    rng = np.random.default_rng(1000 + n)
    s = _random_fleet(rng, n)
    a = np.array([g.cost.a for g in s.generators])
    b = np.array([g.cost.b for g in s.generators])
    d = total_load(s)
    for rho in (0.0, 0.05, 1.0, 10.0):
        lam = float(rng.uniform(-50.0, 50.0))
        matrix = np.diag(2.0 * a) + rho * np.ones((n, n))
        dense = np.linalg.solve(matrix, lam - b + rho * d)
        got = np.asarray(mom_inner_minimize(lam, s, rho))
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(got - dense)) <= 1e-9 * scale, (n, rho)


def _no_dense_solve(*args, **kwargs):
    raise AssertionError("numpy.linalg.solve called")


def test_mom_solve_needs_no_dense_solve(monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", _no_dense_solve)
    trace = mom_solve(reference_scenario(), 2.0 / 3.0, lambda0=0.0)
    assert trace.converged
    assert trace.states[-1].p == pytest.approx((7.0, 3.0), abs=1e-5)


def _count_column_builds(monkeypatch):
    """The length of every column set built through ``Columns.of``, as they are built."""
    builds = []
    original = model.Columns.of

    def counting(*columns):
        builds.append(len(columns[0]))
        return original(*columns)

    monkeypatch.setattr(model.Columns, "of", counting)
    return builds


@pytest.mark.parametrize("kind", [INTEGRAL, PI])
def test_simulate_computes_gains_once_per_run(monkeypatch, kind):
    # One Scenario's columns serve both solvers, a closed-loop run and ten public
    # steps (four gain vectors each): they are built once, not once per use.
    builds = _count_column_builds(monkeypatch)  # from before the scenario, which builds them
    s = make_scenario([0.5, 1.0, 2.0], [1.0, 2.0, 3.0], [6.0, 4.0],
                      p_init=[4.0, 3.0, 2.0], beta=1.5)
    cfg = ControllerConfig(kind, s.gain_K, s.tau)
    assert mom_solve(s, 0.5).converged
    assert dual_ascent_solve(s, 0.5).converged
    trace = simulate(s, cfg, h=0.01, t_end=5.0, events=[(1.0, (7.2, 4.8))])
    assert len(trace.t) == 501
    state = SimState(0.0, (4.0, 3.0, 2.0), frequency_deviation((4.0, 3.0, 2.0), 10.0, 1.5))
    for _ in range(10):
        state = step_rk4(integral_rhs if kind is INTEGRAL else pi_rhs, state, s, cfg, 0.01)
    assert builds == [3]


@pytest.mark.parametrize("pair", list(EquivalencePair))
def test_equivalence_computes_gains_once_per_run(monkeypatch, pair):
    builds = _count_column_builds(monkeypatch)
    s = reference_scenario()
    report = check_euler_equivalence(s, pair, steps=50, lambda0=0.0)
    assert report.max_abs_deviation <= 1e-9
    assert builds == [2]


def test_solvers_build_no_states_unless_read(monkeypatch, tmp_path, capsys):
    # A trace is columns; its IterStates are built only when .states is read.
    built = []
    original = dispatch.IterState

    def counting(*fields):
        built.append(fields[0])
        return original(*fields)

    monkeypatch.setattr(dispatch, "IterState", counting)
    s = _random_fleet(np.random.default_rng(21), 5)
    coupling = 0.5 / aggregate_power_slope(s)
    traces = [dual_ascent_solve(s, coupling), mom_solve(s, coupling)]
    for param in ("alpha", "rho", "K"):
        sweep(s, param, [coupling, 2.0 * coupling], max_iter=50)
    compare_convergence(s, coupling, coupling)
    for pair in EquivalencePair:
        check_euler_equivalence(s, pair, 20)
    path = tmp_path / "s.json"
    path.write_text(serialize_scenario_file(ScenarioFile(1, s)))
    for method in ("dual", "mom"):
        assert run_command(["iterate", str(path), "--method", method,
                            "--out-csv", str(tmp_path / "trace.csv")]) == 0
    capsys.readouterr()
    assert built == []
    for trace in traces:
        assert len(trace.states) == len(trace.lam) and trace.states is trace.states
    assert built == [*range(len(traces[0].lam)), *range(len(traces[1].lam))]


@pytest.mark.parametrize("controller", ["integral", "pi"])
def test_simulate_command_builds_columns_once(monkeypatch, tmp_path, capsys, controller):
    # The steady-state check at the final load reads the run's columns.
    s = economic_start(make_scenario([0.5, 1.0, 2.0], [1.0, 2.0, 3.0], [6.0, 4.0], beta=1.5))
    sim = SimulationOptions(h=0.05, t_end=40.0, events=(dynamics.LoadEvent(1.0, (7.2, 4.8)),))
    path = tmp_path / "s.json"
    path.write_text(serialize_scenario_file(ScenarioFile(1, s, simulation=sim)))
    builds = _count_column_builds(monkeypatch)
    assert run_command(["simulate", str(path), "--controller", controller]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert builds == [3]


@pytest.mark.parametrize("param", ["K", "tau"])
def test_sweep_shares_columns_across_values(monkeypatch, param):
    # one N-wide build for the scenario, whatever K or tau; each value's settle
    # runs on the one-unit equivalent, whose columns are built once per value
    builds = _count_column_builds(monkeypatch)
    s = _random_fleet(np.random.default_rng(12), 5)
    records = sweep(s, param, [0.5, 1.0, 2.0], max_iter=10)
    assert [r.settling_integral is not None for r in records] == [True] * 3
    assert builds == [5, 1, 1, 1]


@pytest.mark.parametrize("kind", [INTEGRAL, PI])
@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_gains_match_integral_gain_bitwise(kind, n):
    # the cached-column expression against the per-generator reference it replaced
    rng = np.random.default_rng(3000 + n)
    s = make_scenario(rng.uniform(0.1, 5.0, n), rng.uniform(0.0, 20.0, n), [10.0],
                      gain_K=0.7, beta=2.3, tau=1.3)
    want = [integral_gain(g.cost, s.gain_K, s.tau) for g in s.generators]
    if kind is PI:
        factor = s.beta / (s.beta + s.gain_K * aggregate_power_slope(s))
        want = [x * factor for x in want]
    assert dynamics._gains(s, ControllerConfig(kind, s.gain_K, s.tau)).tolist() == want


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_sample_times_lie_on_the_grid(method):
    # The closed-form trace is sampled at exactly i*h, and one public step of
    # size h from a pre-event sample lands on the next grid sample.
    stepper, tol = {"rk4": (step_rk4, 1e-12), "euler": (step_euler, 1e-4)}[method]
    s = make_scenario([0.5, 1.0], [1.0, 2.0], [6.0, 4.0], p_init=[6.0, 2.0], beta=1.5)
    h = 0.01
    cfg = ControllerConfig(PI, s.gain_K, s.tau)
    trace = simulate(s, cfg, h=h, t_end=3.0, events=[(1.0, (7.2, 4.8))])
    assert all(t == i * h for i, t in enumerate(trace.t.tolist()))
    for i in range(int(round(1.0 / h)) - 1):
        state = SimState(float(trace.t[i]), tuple(trace.p[i].tolist()), float(trace.delta_f[i]))
        nxt = stepper(pi_rhs, state, s, cfg, h)
        assert nxt.t == pytest.approx(trace.t[i + 1], abs=1e-12)
        assert np.max(np.abs(np.asarray(nxt.p) - trace.p[i + 1])) <= tol


def test_compare_settles_a_fleet_past_the_trace_cap(monkeypatch, tmp_path, capsys):
    # The settle runs on the one-unit equivalent, so a fleet whose 10,001-sample
    # trace would exceed MAX_TRACE_CELLS settles like any other. beta = K*S makes
    # dual ascent deadbeat and the method of multipliers halve the imbalance.
    n = dynamics.MAX_TRACE_CELLS // 10_001 - 1
    assert n > 9_997
    rng = np.random.default_rng(n)
    s = _random_fleet(rng, n)
    s = s.replace(beta=s.gain_K * aggregate_power_slope(s))
    path = tmp_path / "fleet.json"
    path.write_text(serialize_scenario_file(ScenarioFile(1, s)))
    widths = []
    original = dynamics.simulate

    def one_unit_only(unit, *args, **kwargs):
        widths.append(len(unit.columns.a))
        return original(unit, *args, **kwargs)

    monkeypatch.setattr(experiments, "simulate", one_unit_only)
    assert run_command(["compare", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert widths == [1, 1]
    big_s, d = aggregate_power_slope(s), total_load(s)
    df0 = (1.0 - 1.2) * d / s.beta
    for key, rate in (("settling_integral", s.gain_K * big_s / (s.tau * s.beta)),
                      ("settling_pi", s.gain_K * big_s / (s.tau * (s.beta + s.gain_K * big_s)))):
        want = s.tau + math.log(abs(df0) / 1e-4) / rate
        assert abs(out[key] - want) <= s.tau / 100.0, key


def test_reference_settling_times_are_exact():
    report = compare_convergence(reference_scenario(), 2.0 / 3.0, 2.0 / 3.0)
    assert report.settling_integral == 10.5
    assert report.settling_pi == 20.0
