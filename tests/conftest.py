"""Shared fixtures and scenario builders for the test suite."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from freqdispatch import (
    CostCoefficients,
    Generator,
    LoadEvent,
    QuasiStatic,
    Scenario,
    SimState,
    SimulationTrace,
    analytic_dispatch,
    step_rk4,
    total_load,
)
from freqdispatch.cli import ScenarioFile

# The two-generator reference scenario used throughout: costs
# 0.5*p^2 + p and p^2 + 2*p, total demand 10, K=1, beta=1.5, tau=1.
# Its optimum is lambda*=8, p=(7, 3), cost 46.5, and p_init sits there.


def cost_value(cost: CostCoefficients, p: float) -> float:
    """Generation cost a*p**2 + b*p + c ($/h) of one unit at output ``p`` MW."""
    return cost.a * p * p + cost.b * p + cost.c


def marginal_cost(cost: CostCoefficients, p: float) -> float:
    """Incremental cost 2*a*p + b ($/MWh) of one unit, the derivative of cost_value."""
    return 2.0 * cost.a * p + cost.b


def frequency_deviation(p, d_total: float, beta: float) -> float:
    """Quasi-static deviation (sum(p) - d_total) / beta, p added left to right from
    0.0 as Python 3.10 and 3.11's ``sum`` adds it. Surplus raises the frequency."""
    total = 0.0
    for x in p:
        total += float(x)
    return (total - d_total) / beta


def serialize_scenario_file(sf: ScenarioFile) -> str:
    """The text of a scenario file that parse_scenario_file reads back as ``sf``."""
    s = sf.scenario
    payload: dict = {
        "format_version": sf.format_version,
        "scenario": {
            "generators": [  # from the ids and number columns: no generator objects
                {"id": gen_id, "cost": {"a": a, "b": b, "c": c}, "p_init": p_init}
                for gen_id, a, b, c, p_init in zip(s._ids, *s.columns.numbers.tolist())
            ],
            "loads": list(s.loads),
            "gain_K": s.gain_K,
            "beta": s.beta,
            "tau": s.tau,
        },
    }
    if sf.solver is not None:  # the options that are set
        payload["solver"] = {name: value for name in ("tol", "max_iter", "alpha", "rho", "lambda0")
                             if (value := getattr(sf.solver, name)) is not None}
    if sf.simulation is not None:
        sim = sf.simulation
        block = {"controller": sim.controller.value, "h": sim.h, "t_end": sim.t_end,
                 "events": [{"time": ev.time, "loads": list(ev.loads)} for ev in sim.events]}
        payload["simulation"] = {key: value for key, value in block.items()
                                 if value is not None and value != []}
    return json.dumps(payload, indent=2)


def make_scenario(a, b, loads, *, c=None, p_init=None, gain_K=1.0, beta=1.0,
                  tau=1.0) -> Scenario:
    a = list(a)
    b = list(b)
    c = list(c) if c is not None else [0.0] * len(a)
    p_init = list(p_init) if p_init is not None else [0.0] * len(a)
    gens = tuple(
        Generator(f"G{i + 1}", CostCoefficients(a[i], b[i], c[i]), p_init[i])
        for i in range(len(a))
    )
    return Scenario(gens, tuple(loads), gain_K=gain_K, beta=beta, tau=tau)


def reference_scenario() -> Scenario:
    return make_scenario([0.5, 1.0], [1.0, 2.0], [6.0, 4.0],
                         p_init=[7.0, 3.0], beta=1.5)


@pytest.fixture
def scenario_r() -> Scenario:
    return reference_scenario()


SUITE_SEED = 20260810


def random_scenarios(seed=SUITE_SEED, count=20, n_choices=(1, 2, 3)) -> list[Scenario]:
    """Deterministic randomized scenario suite.

    Coefficients a in [0.1, 5], b in [0, 20], total demand in [1, 50],
    split over as many loads as generators. Draws whose optimum falls
    outside 1.5x the demand are redrawn so the grid oracle's search box
    always contains the optimum with margin.
    """
    rng = np.random.default_rng(seed)
    out: list[Scenario] = []
    while len(out) < count:
        n = int(rng.choice(n_choices))
        a = rng.uniform(0.1, 5.0, size=n)
        b = rng.uniform(0.0, 20.0, size=n)
        d_total = rng.uniform(1.0, 50.0)
        frac = rng.random(n)
        loads = tuple(float(d_total * f / frac.sum()) for f in frac)
        s = make_scenario(a, b, loads)
        sol = analytic_dispatch(s)
        if max(abs(p) for p in sol.p) > 1.5 * abs(total_load(s)):
            continue
        out.append(s)
    return out


def economic_start(s: Scenario) -> Scenario:
    """Copy of ``s`` whose p_init sits exactly on its analytic dispatch."""
    sol = analytic_dispatch(s)
    gens = tuple(Generator(g.id, g.cost, p) for g, p in zip(s.generators, sol.p))
    return Scenario(gens, s.loads, s.gain_K, s.beta, s.tau)


def rk4_trace(rhs, s: Scenario, cfg, model=None, *, h: float, n_steps: int,
              events=()) -> SimulationTrace:
    """The run ``simulate`` samples, rebuilt one public ``step_rk4`` step at a time.

    The reference the exact propagator is checked against. Events are snapped
    to the grid as ``simulate`` snaps them (the last of a sample's events wins).
    At an event sample p carries over; the quasi-static deviation is recomputed
    at the new load and the inertial one carries over. Inertial starts at rest.
    """
    if model is None:
        model = QuasiStatic(s.beta)
    quasi_static = isinstance(model, QuasiStatic)
    snapped = tuple(LoadEvent(round(t / h) * h, tuple(loads)) for t, loads in events)
    loads_at = {round(t / h): tuple(loads) for t, loads in events}
    current = replace(s, loads=loads_at[0]) if 0 in loads_at else s
    p0 = tuple(g.p_init for g in s.generators)
    state = SimState(0.0, p0, frequency_deviation(p0, total_load(current), model.beta)
                     if quasi_static else 0.0)
    states = [state]
    for i in range(1, n_steps + 1):
        nxt = step_rk4(rhs, state, current, cfg, h, model)
        delta_f = nxt.delta_f
        if i in loads_at:
            current = replace(current, loads=loads_at[i])
            if quasi_static:
                delta_f = frequency_deviation(nxt.p, total_load(current), model.beta)
        state = SimState(i * h, nxt.p, delta_f)
        states.append(state)
    return SimulationTrace(np.arange(n_steps + 1) * h, np.array([st.p for st in states]),
                           np.array([st.delta_f for st in states]), snapped, cfg, model, s)


def reference_simulation_csv(trace) -> str:
    """Row by row: every value through format(x, ".17g"), costs through marginal_cost."""
    gens = trace.scenario.generators
    n = len(gens)
    lines = [",".join(["t"] + [f"p_{i + 1}" for i in range(n)] + ["delta_f"]
                      + [f"marginal_cost_{i + 1}" for i in range(n)])]
    for t, p, df in zip(trace.t.tolist(), trace.p.tolist(), trace.delta_f.tolist()):
        marginals = [marginal_cost(g.cost, x) for g, x in zip(gens, p)]
        lines.append(",".join(format(x, ".17g") for x in [t, *p, df, *marginals]))
    return "\n".join(lines) + "\n"


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which strict JSON has no words for."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def neumaier_sum(iterable, /, start=0):
    """The builtin ``sum`` of Python 3.12 and 3.13: floats added after a float are
    added with Neumaier's compensation, whose residue is added once at the end if it
    is finite and not zero; anything else is added as ``+`` adds it, after the
    residue so far. It gives the bits of the real 3.12.1 and 3.13.0 ``sum`` on lists
    of floats, overflowing, infinite and signed-zero ones among them."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            if c and math.isfinite(c):
                total += c
            total, c = total + x, 0.0
    if c and math.isfinite(c):
        total += c
    return total
