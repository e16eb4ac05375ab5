"""Quadratic-cost economic dispatch and the frequency controllers it equals.

The package solves the dispatch problem four ways (closed form, grid
oracle, dual ascent, method of multipliers), simulates the equivalent
integral and PI secondary frequency controllers with cost-derived gains,
and provides the experiments that check the discrete iterations and the
Euler-integrated continuous loops coincide step for step.
"""

from .dispatch import (
    IterState,
    IterationTrace,
    StopReason,
    aggregate_power_slope,
    analytic_dispatch,
    brute_force_dispatch,
    default_lambda0,
    dual_ascent_solve,
    dual_ascent_step,
    dual_contraction_factor,
    initial_dual_state,
    initial_mom_state,
    mom_contraction_factor,
    mom_inner_minimize,
    mom_solve,
    mom_step,
    stability_bound_alpha,
)
from .dynamics import (
    FrequencyModel,
    Inertial,
    LoadEvent,
    QuasiStatic,
    SimState,
    SimulationTrace,
    integral_rhs,
    pi_rhs,
    settling_time,
    simulate,
    step_euler,
    step_rk4,
)
from .experiments import (
    ConvergenceReport,
    EquivalencePair,
    EquivalenceReport,
    MethodConvergence,
    SteadyStateReport,
    SweepRecord,
    check_euler_equivalence,
    compare_convergence,
    empirical_ratio,
    sweep,
    verify_steady_state_optimality,
)
from .model import (
    ControllerConfig,
    ControllerKind,
    CostCoefficients,
    DispatchSolution,
    Generator,
    Scenario,
    Violation,
    integral_gain,
    total_load,
    validate_scenario,
)

__version__ = "0.1.0"
