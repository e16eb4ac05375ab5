"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

 1. Oracle agreement: analytic vs grid search (0.01 MW) within 0.02 MW per
    generator on the 20-scenario randomized suite.
 2. Optimality conditions: power balance to 1e-9*D and equal marginal cost
    to 1e-9 relative on every scenario.
 3. Reference scenario: lambda*=8, p=(7,3), cost 46.5 to 1e-12.
 4. Dual-ascent contraction: empirical ratio equals |1 - alpha*S| to 1e-6;
    convergence at 1.9/S, divergence at 2.1/S, deadbeat at 1/S.
 5. Method-of-multipliers contraction: empirical ratio equals 1/(1+rho*S)
    to 1e-6 for rho in {0.1, 1, 10, 100}/S; no divergence anywhere.
 6. Exact discrete/continuous equivalence with h=tau over 200 steps,
    deviation <= 1e-9, on the reference scenario plus 10 randomized ones.
 7. Simultaneity: after a load step 10 -> 12 both controllers reach
    |delta_f| < 1e-6 and the new optimum (25/3, 11/3) within 1e-6.
 8. Marginal-cost-spread conservation: drift <= 1e-8 over t_end=20, h=1e-3.
 9. PI vs integral settling time at eps=1e-4 on the reference scenario,
    golden values 10.50 s and 20.00 s. Under the quasi-static model the
    deviation decays at K*S/(tau*beta) with integral control and at
    K*S/(tau*(beta+K*S)) with PI control, so the integral loop settles
    first (integral < PI), each time lies within one step of its closed
    form tau + ln(|delta_f0|/eps)/rate, and the post-step durations stand
    in the ratio (beta+K*S)/beta.
10. Inertial-model robustness: integral control still reaches the economic
    dispatch with |delta_f| < 1e-6 after the same load step.
"""

import math

import numpy as np
import pytest

from freqdispatch import (
    ControllerConfig,
    ControllerKind,
    EquivalencePair,
    Inertial,
    QuasiStatic,
    StopReason,
    aggregate_power_slope,
    analytic_dispatch,
    brute_force_dispatch,
    check_euler_equivalence,
    compare_convergence,
    dual_ascent_solve,
    empirical_ratio,
    mom_contraction_factor,
    mom_solve,
    simulate,
    total_load,
)

from conftest import (economic_start, make_scenario, marginal_cost, random_scenarios,
                      reference_scenario)

SUITE = random_scenarios()
R = reference_scenario()
LOAD_STEP_EVENTS = [(1.0, (7.2, 4.8))]  # total demand 10 -> 12 at t=1
TARGET_AT_12 = (25.0 / 3.0, 11.0 / 3.0)


def _report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_1_oracle_agreement():
    worst = 0.0
    for s in SUITE:
        analytic = analytic_dispatch(s)
        oracle = brute_force_dispatch(s, 0.01)
        gap = max(abs(x - y) for x, y in zip(analytic.p, oracle.p))
        worst = max(worst, gap)
    _report(1, worst <= 0.02, f"worst per-generator oracle gap {worst:.4f} MW (limit 0.02)")
    assert worst <= 0.02


def test_criterion_2_optimality_conditions():
    worst_balance = worst_marginal = 0.0
    for s in SUITE + [R]:
        sol = analytic_dispatch(s)
        d = total_load(s)
        worst_balance = max(worst_balance, abs(sum(sol.p) - d) / abs(d))
        for g, p in zip(s.generators, sol.p):
            rel = abs(marginal_cost(g.cost, p) - sol.lambda_star) / abs(sol.lambda_star)
            worst_marginal = max(worst_marginal, rel)
    ok = worst_balance <= 1e-9 and worst_marginal <= 1e-9
    _report(2, ok, f"balance residual {worst_balance:.2e}, marginal residual {worst_marginal:.2e}")
    assert worst_balance <= 1e-9
    assert worst_marginal <= 1e-9


def test_criterion_3_reference_scenario_exact():
    sol = analytic_dispatch(R)
    ok = (abs(sol.lambda_star - 8.0) <= 1e-12
          and abs(sol.p[0] - 7.0) <= 1e-12
          and abs(sol.p[1] - 3.0) <= 1e-12
          and abs(sol.total_cost - 46.5) <= 1e-12)
    _report(3, ok, f"lambda*={sol.lambda_star}, p={sol.p}, cost={sol.total_cost}")
    assert ok


def test_criterion_4_dual_ascent_contraction():
    worst_ratio_err = 0.0
    for s in SUITE:
        slope = aggregate_power_slope(s)
        for target in (0.5, 0.7):  # alpha on both sides of the deadbeat step
            for alpha in ((1.0 - target) / slope, (1.0 + target) / slope):
                trace = dual_ascent_solve(s, alpha, tol=1e-6, lambda0=0.0)
                assert trace.converged, f"alpha={alpha} should converge"
                ratio = empirical_ratio(trace, 1e-6)
                worst_ratio_err = max(worst_ratio_err, abs(ratio - target))
        converging = dual_ascent_solve(s, 1.9 / slope, tol=1e-6, lambda0=0.0)
        diverging = dual_ascent_solve(s, 2.1 / slope, tol=1e-6, lambda0=0.0)
        assert converging.converged, "alpha = 1.9/S must converge"
        assert diverging.stop_reason is StopReason.DIVERGED, "alpha = 2.1/S must diverge"

    deadbeat = dual_ascent_solve(R, 1.0 / aggregate_power_slope(R), tol=1e-6, lambda0=0.0)
    assert deadbeat.converged and len(deadbeat.states) == 2, "deadbeat step must converge in one iteration"

    ok = worst_ratio_err <= 1e-6
    _report(4, ok, f"ratio error {worst_ratio_err:.2e}; boundary and deadbeat behaviour verified")
    assert ok


def test_criterion_5_mom_contraction_and_stability():
    worst_ratio_err = 0.0
    divergences = 0
    for s in SUITE:
        slope = aggregate_power_slope(s)
        for mult in (0.1, 1.0, 10.0, 100.0):
            rho = mult / slope
            trace = mom_solve(s, rho, tol=1e-6, lambda0=0.0)
            if trace.stop_reason is StopReason.DIVERGED:
                divergences += 1
                continue
            assert trace.converged, f"rho={rho} did not converge"
            ratio = empirical_ratio(trace, 1e-6)
            if ratio is not None:
                worst_ratio_err = max(worst_ratio_err,
                                      abs(ratio - mom_contraction_factor(s, rho)))
    ok = worst_ratio_err <= 1e-6 and divergences == 0
    _report(5, ok, f"ratio error {worst_ratio_err:.2e}, divergences {divergences}")
    assert divergences == 0
    assert worst_ratio_err <= 1e-6


def _equivalence_scenarios():
    # Randomized scenarios with the implied step alpha = K/beta placed in
    # the convergent regime so 200-step trajectories stay bounded.
    rng = np.random.default_rng(77)
    out = []
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a = rng.uniform(0.1, 5.0, size=n)
        b = rng.uniform(0.0, 20.0, size=n)
        d_total = float(rng.uniform(1.0, 50.0))
        s = make_scenario(a, b, [d_total])
        slope = aggregate_power_slope(s)
        target = float(rng.uniform(0.2, 1.5))  # alpha * S
        out.append(make_scenario(a, b, [d_total], beta=slope / target))
    return out


def test_criterion_6_exact_euler_equivalence():
    worst = 0.0
    for s in [R] + _equivalence_scenarios():
        for pair in EquivalencePair:
            report = check_euler_equivalence(s, pair, steps=200, lambda0=0.0)
            worst = max(worst, report.max_abs_deviation)
    ok = worst <= 1e-9
    _report(6, ok, f"max power-command deviation {worst:.2e} over 200 steps, both pairs")
    assert ok


def test_criterion_7_simultaneous_regulation_and_dispatch():
    details = []
    ok = True
    for kind in (ControllerKind.INTEGRAL, ControllerKind.PROPORTIONAL_INTEGRAL):
        cfg = ControllerConfig(kind, R.gain_K, R.tau)
        trace = simulate(R, cfg, QuasiStatic(R.beta), h=R.tau / 100.0,
                         t_end=100.0 * R.tau, events=LOAD_STEP_EVENTS)
        last_p, last_df = trace.p[-1].tolist(), float(trace.delta_f[-1])
        p_err = max(abs(x - y) for x, y in zip(last_p, TARGET_AT_12))
        ok &= abs(last_df) < 1e-6 and p_err < 1e-6
        details.append(f"{kind.value}: |df|={abs(last_df):.1e}, p_err={p_err:.1e}")
    _report(7, ok, "; ".join(details))
    assert ok


def test_criterion_8_spread_conservation():
    runs = []
    s_uneven = make_scenario([0.5, 1.0], [1.0, 2.0], [6.0, 4.0],
                             p_init=[4.0, 1.0], beta=1.5)
    for kind in (ControllerKind.INTEGRAL, ControllerKind.PROPORTIONAL_INTEGRAL):
        runs.append((s_uneven, kind, ()))
    s_random = economic_start(SUITE[0])
    runs.append((s_random, ControllerKind.INTEGRAL,
                 ((1.0, tuple(1.2 * x for x in s_random.loads)),)))

    worst = 0.0
    for s, kind, events in runs:
        cfg = ControllerConfig(kind, s.gain_K, s.tau)
        trace = simulate(s, cfg, QuasiStatic(s.beta), h=1e-3, t_end=20.0,
                         events=events)
        spreads = []
        for row in trace.p.tolist():
            m = [marginal_cost(g.cost, p) for g, p in zip(s.generators, row)]
            spreads.append(max(m) - min(m))
        worst = max(worst, max(abs(sp - spreads[0]) for sp in spreads))
    ok = worst <= 1e-8
    _report(8, ok, f"max spread drift {worst:.2e} over t_end=20, h=1e-3")
    assert ok


def test_criterion_9_pi_vs_integral_settling():
    report = compare_convergence(R, R.gain_K / R.beta, R.gain_K / R.beta,
                                 tol=1e-6, lambda0=0.0)
    ti, tpi = report.settling_integral, report.settling_pi

    # Closed form, derived from the scenario alone. compare_convergence
    # starts on the economic dispatch and steps the load to 1.2x at t=tau,
    # so the deviation jumps to df0 = -0.2*D/beta and then decays as one
    # exponential, at K*S/(tau*beta) under integral control and at
    # K*S/(tau*(beta+K*S)) under PI control. It leaves the eps band for
    # good at tau + ln(|df0|/eps)/rate; settling_time reports the first
    # sample after that, so each measured time is within one step h.
    eps, h = 1e-4, R.tau / 100.0
    k, tau, beta = R.gain_K, R.tau, R.beta
    slope = aggregate_power_slope(R)
    df0 = (1.0 - 1.2) * total_load(R) / beta
    rate_i = k * slope / (tau * beta)
    rate_pi = k * slope / (tau * (beta + k * slope))
    predicted_i = tau + math.log(abs(df0) / eps) / rate_i
    predicted_pi = tau + math.log(abs(df0) / eps) / rate_pi
    ratio = (beta + k * slope) / beta
    measured_ratio = (tpi - tau) / (ti - tau)
    # With both durations within h of their closed forms, the ratio of the
    # measured durations is within (1 + ratio)*h/(ti - tau) of the exact one.
    ratio_bound = (1.0 + ratio) * h / (ti - tau)

    # Golden values, frozen after the first verified run.
    golden_i = ti == pytest.approx(10.50, abs=1e-9)
    golden_pi = tpi == pytest.approx(20.00, abs=1e-9)
    closed_form_i = abs(ti - predicted_i) <= h
    closed_form_pi = abs(tpi - predicted_pi) <= h
    integral_first = ti < tpi
    ratio_ok = abs(measured_ratio - ratio) <= ratio_bound
    ok = (golden_i and golden_pi and closed_form_i and closed_form_pi
          and integral_first and ratio_ok)
    _report(9, ok, f"settling at eps=1e-4: integral {ti:.2f} s "
                   f"(closed form {predicted_i:.4f}), PI {tpi:.2f} s "
                   f"(closed form {predicted_pi:.4f}), duration ratio "
                   f"{measured_ratio:.6f} (expected {ratio:.6f})")
    assert golden_i, f"integral settling {ti}"
    assert golden_pi, f"PI settling {tpi}"
    assert closed_form_i, f"integral settling {ti} vs closed form {predicted_i}"
    assert closed_form_pi, f"PI settling {tpi} vs closed form {predicted_pi}"
    assert integral_first, f"integral {ti} s should settle before PI {tpi} s"
    assert ratio_ok, (f"duration ratio {measured_ratio} vs (beta+K*S)/beta = "
                      f"{ratio}, bound {ratio_bound}")


def test_criterion_10_inertial_model_robustness():
    cfg = ControllerConfig(ControllerKind.INTEGRAL, R.gain_K, R.tau)
    model = Inertial(m_inertia=1.5, d_damp=3.0)  # critically damped aggregate
    trace = simulate(R, cfg, model, h=R.tau / 100.0, t_end=100.0 * R.tau,
                     events=LOAD_STEP_EVENTS)
    last_p, last_df = trace.p[-1].tolist(), float(trace.delta_f[-1])
    p_err = max(abs(x - y) for x, y in zip(last_p, TARGET_AT_12))
    ok = abs(last_df) < 1e-6 and p_err <= 1e-5
    _report(10, ok, f"inertial run: |df|={abs(last_df):.1e}, p_err={p_err:.1e}")
    assert abs(last_df) < 1e-6
    assert p_err <= 1e-5
