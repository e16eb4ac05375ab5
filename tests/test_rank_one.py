"""The rank-one kernel: O(N) method-of-multipliers step, gains once per run."""

import numpy as np
import pytest

import freqdispatch.dynamics as dynamics
from freqdispatch import (
    ControllerConfig,
    ControllerKind,
    EquivalencePair,
    SimState,
    check_euler_equivalence,
    compare_convergence,
    mom_inner_minimize,
    mom_solve,
    pi_rhs,
    simulate,
    step_euler,
    step_rk4,
    total_load,
)

from conftest import make_scenario, reference_scenario

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


def _count_gain_calls(monkeypatch):
    calls = []
    original = dynamics.integral_gain

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dynamics, "integral_gain", counting)
    return calls


@pytest.mark.parametrize("kind", [INTEGRAL, PI])
def test_simulate_computes_gains_once_per_run(monkeypatch, kind):
    s = make_scenario([0.5, 1.0, 2.0], [1.0, 2.0, 3.0], [6.0, 4.0],
                      p_init=[4.0, 3.0, 2.0], beta=1.5)
    calls = _count_gain_calls(monkeypatch)
    trace = simulate(s, ControllerConfig(kind, s.gain_K, s.tau), h=0.01, t_end=5.0,
                     events=[(1.0, (7.2, 4.8))])
    assert len(trace.t) == 501
    assert len(calls) <= len(s.generators)


@pytest.mark.parametrize("pair", list(EquivalencePair))
def test_equivalence_computes_gains_once_per_run(monkeypatch, pair):
    s = reference_scenario()
    calls = _count_gain_calls(monkeypatch)
    report = check_euler_equivalence(s, pair, steps=50, lambda0=0.0)
    assert report.max_abs_deviation <= 1e-9
    assert len(calls) <= len(s.generators)


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


def test_reference_settling_times_are_exact():
    report = compare_convergence(reference_scenario(), 2.0 / 3.0, 2.0 / 3.0)
    assert report.settling_integral == 10.5
    assert report.settling_pi == 20.0
