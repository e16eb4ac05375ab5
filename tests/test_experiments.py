"""Equivalence checks, convergence comparison, steady-state verification, sweeps."""

import math

import pytest

from freqdispatch import (
    ControllerConfig,
    ControllerKind,
    EquivalencePair,
    QuasiStatic,
    StopReason,
    check_euler_equivalence,
    compare_convergence,
    dual_ascent_solve,
    empirical_ratio,
    simulate,
    stability_bound_alpha,
    sweep,
    verify_steady_state_optimality,
)

from freqdispatch.model import total_load

from conftest import economic_start, make_scenario, random_scenarios, reference_scenario


# ---------------------------------------------------------------------------
# discrete/continuous equivalence

@pytest.mark.parametrize("pair", list(EquivalencePair))
def test_euler_equivalence_reference(pair, scenario_r):
    report = check_euler_equivalence(scenario_r, pair, steps=200, lambda0=0.0)
    assert report.steps == 200
    assert report.max_abs_deviation <= 1e-9, (
        f"{pair.value}: deviation {report.max_abs_deviation:.2e}")


def test_euler_equivalence_from_optimum_is_exact(scenario_r):
    # p_init already sits at the optimum, so the default warm start is a
    # fixed point of both recursions.
    dual = check_euler_equivalence(scenario_r, EquivalencePair.DUAL_VS_INTEGRAL, 1)
    assert dual.max_abs_deviation == 0.0
    mom = check_euler_equivalence(scenario_r, EquivalencePair.MOM_VS_PI, 1)
    assert mom.max_abs_deviation <= 1e-12


@pytest.mark.parametrize("pair", list(EquivalencePair))
def test_euler_equivalence_long_run_guard(pair, scenario_r):
    report = check_euler_equivalence(scenario_r, pair, steps=500, lambda0=0.0)
    assert report.max_abs_deviation <= 1e-9


def test_euler_equivalence_overflow_is_nan(scenario_r):
    # K/beta = 100 is far past dual ascent's bound 2/S; the iterates overflow at step 142
    s = scenario_r.replace(beta=0.01)
    pair = EquivalencePair.DUAL_VS_INTEGRAL
    assert check_euler_equivalence(s, pair, 141, 0.0).max_abs_deviation == 3.4927205416857597e+292
    for steps in (142, 143, 500):
        assert math.isnan(check_euler_equivalence(s, pair, steps, 0.0).max_abs_deviation)


def test_euler_equivalence_rejects_zero_steps(scenario_r):
    with pytest.raises(ValueError):
        check_euler_equivalence(scenario_r, EquivalencePair.DUAL_VS_INTEGRAL, 0)


# ---------------------------------------------------------------------------
# empirical contraction ratio

def test_empirical_ratio_matches_affine_factor(scenario_r):
    trace = dual_ascent_solve(scenario_r, 1.0 / 3.0, tol=1e-6, lambda0=0.0)
    ratio = empirical_ratio(trace, 1e-6)
    assert ratio == pytest.approx(0.5, abs=1e-9)


def test_empirical_ratio_deadbeat_is_none(scenario_r):
    trace = dual_ascent_solve(scenario_r, 2.0 / 3.0, tol=1e-6, lambda0=0.0)
    assert empirical_ratio(trace, 1e-6) is None


# ---------------------------------------------------------------------------
# compare_convergence

def test_compare_reference_deadbeat_vs_halving(scenario_r):
    report = compare_convergence(scenario_r, 2.0 / 3.0, 2.0 / 3.0, 1e-6, lambda0=0.0)
    assert report.dual.iterations == 1
    assert report.dual.converged
    assert report.dual.predicted_ratio == pytest.approx(0.0, abs=1e-15)
    assert report.mom.iterations == 23
    assert report.mom.converged
    assert report.mom.empirical_ratio == pytest.approx(0.5, abs=1e-9)
    assert report.mom.predicted_ratio == pytest.approx(0.5, abs=1e-15)
    # Settling times land on the sample grid; values frozen after the
    # first verified run (closed-form decay rates 1.0 and 0.5 per second
    # from |delta_f| = 4/3 down to 1e-4 give 10.50 and 20.00 exactly).
    assert report.settling_integral == pytest.approx(10.50, abs=1e-9)
    assert report.settling_pi == pytest.approx(20.00, abs=1e-9)


def test_compare_reports_divergence_without_raising(scenario_r):
    report = compare_convergence(scenario_r, 3.0, 3.0, 1e-6, lambda0=0.0)
    assert report.dual.stop_reason is StopReason.DIVERGED
    assert not report.dual.converged
    assert report.mom.converged
    assert report.mom.empirical_ratio == pytest.approx(1.0 / 5.5, abs=1e-9)


# The reference scenario and four of the shared random ones. From the economic
# start the load step gives delta_f0 = -0.2 D/beta, which then decays at one rate
# r: exactly as exp(-r t), and under RK4 at step h by R(-r h) per step, R the
# stability polynomial 1 + z + z^2/2 + z^3/6 + z^4/24. Both settle within h.
@pytest.mark.parametrize("s", [reference_scenario(), *random_scenarios(count=4)],
                         ids=["reference", *(f"random{i}" for i in range(4))])
def test_compare_settling_matches_rk4_runs(s):
    report = compare_convergence(s, s.gain_K / s.beta, s.gain_K / s.beta, 1e-6)
    h, eps = s.tau / 100.0, 1e-4
    slope = sum(1.0 / (2.0 * g.cost.a) for g in s.generators)
    df0 = -0.2 * total_load(s) / s.beta
    for rate, got in ((s.gain_K * slope / (s.tau * s.beta), report.settling_integral),
                      (s.gain_K * slope / (s.tau * (s.beta + s.gain_K * slope)),
                       report.settling_pi)):
        assert abs(got - (s.tau + math.log(abs(df0) / eps) / rate)) <= h, total_load(s)
        z = -rate * h
        rk4_factor = 1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
        rk4_steps = math.ceil(math.log(abs(df0) / eps) / -math.log(rk4_factor))
        assert got == (100 + rk4_steps) * h, total_load(s)


def test_compare_rejects_nonpositive_steps(scenario_r):
    with pytest.raises(ValueError):
        compare_convergence(scenario_r, 0.0, 1.0)
    with pytest.raises(ValueError):
        compare_convergence(scenario_r, 1.0, -1.0)


# ---------------------------------------------------------------------------
# steady-state optimality

def _cfg(kind, s):
    return ControllerConfig(kind, s.gain_K, s.tau)


def test_steady_state_passes_on_reference_run(scenario_r):
    trace = simulate(scenario_r, _cfg(ControllerKind.INTEGRAL, scenario_r),
                     QuasiStatic(1.5), h=0.001, t_end=20.0,
                     events=[(1.0, (7.2, 4.8))])
    report = verify_steady_state_optimality(trace, scenario_r, tol=1e-6)
    assert report.passed, report.failures
    assert report.power_error < 1e-6
    assert report.freq_error < 1e-6
    assert report.spread_error < 1e-6


def test_steady_state_fails_when_truncated(scenario_r):
    trace = simulate(scenario_r, _cfg(ControllerKind.INTEGRAL, scenario_r),
                     QuasiStatic(1.5), h=0.01, t_end=2.0,
                     events=[(1.0, (7.2, 4.8))])
    report = verify_steady_state_optimality(trace, scenario_r, tol=1e-6)
    assert not report.passed
    assert any(f.startswith("frequency") for f in report.failures)


def test_steady_state_flags_uneconomic_initialization():
    # Unequal initial marginal costs: frequency settles, but the conserved
    # spread keeps the equilibrium away from the dispatch optimum.
    s = make_scenario([0.5, 1.0], [1.0, 2.0], [6.0, 4.0],
                      p_init=[4.0, 1.0], beta=1.5)
    trace = simulate(s, _cfg(ControllerKind.INTEGRAL, s), QuasiStatic(1.5),
                     h=0.01, t_end=40.0)
    report = verify_steady_state_optimality(trace, s, tol=1e-6)
    assert not report.passed
    assert report.freq_error < 1e-6
    assert any(f.startswith("marginal_spread") for f in report.failures)
    assert any(f.startswith("power") for f in report.failures)
    assert report.spread_error == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# sweep

def test_sweep_alpha_covers_stability_boundary(scenario_r):
    bound = stability_bound_alpha(scenario_r)
    values = [m * bound for m in (0.1, 0.5, 1.0, 1.3)]
    records = sweep(scenario_r, "alpha", values, tol=1e-6, lambda0=0.0)
    assert [r.value for r in records] == values
    assert records[0].dual.converged
    assert records[1].dual.converged
    assert not records[2].dual.converged  # factor exactly 1: marches in place
    assert records[3].dual.stop_reason is StopReason.DIVERGED
    assert all(r.mom is None and r.settling_integral is None for r in records)


def test_sweep_rho_monotone_iteration_counts(scenario_r):
    slope = 1.5
    values = [m / slope for m in (0.01, 0.1, 1.0, 10.0)]
    records = sweep(scenario_r, "rho", values, tol=1e-6, lambda0=0.0)
    iters = [r.mom.iterations for r in records]
    assert all(r.mom.converged for r in records)
    assert all(x > y for x, y in zip(iters, iters[1:])), iters
    for r in records:
        assert r.mom.empirical_ratio == pytest.approx(r.mom.predicted_ratio, abs=1e-6)


def test_sweep_gain_includes_settling(scenario_r):
    (record,) = sweep(scenario_r, "K", [1.0], tol=1e-6, lambda0=0.0)
    assert record.dual is not None and record.mom is not None
    assert record.settling_integral == pytest.approx(10.50, abs=1e-9)
    assert record.settling_pi == pytest.approx(20.00, abs=1e-9)


def test_sweep_rejects_bad_values(scenario_r):
    with pytest.raises(ValueError):
        sweep(scenario_r, "alpha", [])
    with pytest.raises(ValueError):
        sweep(scenario_r, "alpha", [0.5, -1.0])
    with pytest.raises(ValueError):
        sweep(scenario_r, "alpha", [math.inf])
    with pytest.raises(ValueError):
        sweep(scenario_r, "gamma", [1.0])


def test_steady_state_randomized_economic_runs():
    # Economic start plus a 20% load step: every run must land on the new
    # optimum once simulated past the slowest closed-loop time constant.
    for s in random_scenarios(count=5):
        slope = sum(1.0 / (2.0 * g.cost.a) for g in s.generators)
        s = make_scenario([g.cost.a for g in s.generators],
                          [g.cost.b for g in s.generators],
                          s.loads, beta=slope)  # alpha = K/beta = 1/S
        s = economic_start(s)
        slowest = max(2.0 * g.cost.a * s.tau * s.beta / s.gain_K
                      for g in s.generators)
        t_end = s.tau + 25.0 * slowest
        new_loads = tuple(1.2 * x for x in s.loads)
        trace = simulate(s, _cfg(ControllerKind.INTEGRAL, s), QuasiStatic(s.beta),
                         h=s.tau / 20.0, t_end=t_end, events=[(s.tau, new_loads)])
        report = verify_steady_state_optimality(trace, s, tol=1e-6)
        assert report.passed, (s.loads, report)


@pytest.mark.parametrize("change", [{"gain_K": 0.0}, {"gain_K": math.nan}, {"tau": 0.0},
                                    {"tau": math.inf}], ids=str)
@pytest.mark.parametrize("pair", list(EquivalencePair))
def test_equivalence_refuses_a_gain_or_time_constant_out_of_range(scenario_r, pair, change):
    # the controller gains are checked where they are derived, before any step
    with pytest.raises(ValueError, match=f"^{next(iter(change))} must be finite and > 0$"):
        check_euler_equivalence(scenario_r.replace(**change), pair, steps=10, lambda0=0.0)
