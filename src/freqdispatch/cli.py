"""Command-line front end: scenario files in, JSON summaries and CSV traces out.

Exit codes: 0 success, 1 usage or I/O error, 2 scenario validation error,
3 solver diverged.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dispatch import (
    IterationTrace,
    StopReason,
    analytic_dispatch,
    brute_force_dispatch,
    dual_ascent_solve,
    mom_solve,
)
from .dynamics import (
    LoadEvent,
    QuasiStatic,
    SimulationTrace,
    _check_events,
    settling_time,
    simulate,
)
from .experiments import (
    EquivalencePair,
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
    Generator,
    Scenario,
    validate_scenario,
)

__all__ = [
    "ScenarioFile",
    "ScenarioFileError",
    "SimulationOptions",
    "SolverOptions",
    "main",
    "parse_scenario_file",
    "run_command",
    "serialize_scenario_file",
    "write_trace_csv",
]

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3


class ScenarioFileError(ValueError):
    """A scenario file problem, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class SolverOptions:
    """Optional solver block; alpha/rho/lambda0 fall back to derived defaults."""

    alpha: float | None = None
    rho: float | None = None
    tol: float = 1e-6
    max_iter: int = 10000
    lambda0: float | None = None


@dataclass(frozen=True)
class SimulationOptions:
    """Optional simulation block; h and t_end default to tau/100 and 100*tau."""

    controller: ControllerKind = ControllerKind.INTEGRAL
    h: float | None = None
    t_end: float | None = None
    events: tuple[LoadEvent, ...] = ()


@dataclass(frozen=True)
class ScenarioFile:
    format_version: int
    scenario: Scenario
    solver: SolverOptions | None = None
    simulation: SimulationOptions | None = None


# ---------------------------------------------------------------------------
# Strict parsing

def _check_keys(obj, path, required, optional):
    if not isinstance(obj, dict):
        raise ScenarioFileError(path or "<root>", "expected a JSON object")
    for key in sorted(obj):
        if key not in required and key not in optional:
            raise ScenarioFileError(_join(path, key), "unknown key")
    for key in sorted(required):
        if key not in obj:
            raise ScenarioFileError(path or "<root>", f"missing required key '{key}'")


def _join(path, key):
    return f"{path}.{key}" if path else key


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFileError(path, "expected a number")
    return float(value)


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFileError(path, "expected an integer")
    return value


def _string(value, path) -> str:
    if not isinstance(value, str):
        raise ScenarioFileError(path, "expected a string")
    return value


def _array(value, path) -> list:
    if not isinstance(value, list):
        raise ScenarioFileError(path, "expected an array")
    return value


def _parse_generator(obj, path) -> Generator:
    _check_keys(obj, path, required={"id", "cost"}, optional={"p_init"})
    cost_obj = obj["cost"]
    cost_path = _join(path, "cost")
    _check_keys(cost_obj, cost_path, required={"a", "b"}, optional={"c"})
    cost = CostCoefficients(
        a=_number(cost_obj["a"], _join(cost_path, "a")),
        b=_number(cost_obj["b"], _join(cost_path, "b")),
        c=_number(cost_obj.get("c", 0.0), _join(cost_path, "c")),
    )
    return Generator(
        id=_string(obj["id"], _join(path, "id")),
        cost=cost,
        p_init=_number(obj.get("p_init", 0.0), _join(path, "p_init")),
    )


def _parse_scenario(obj, path) -> Scenario:
    _check_keys(obj, path,
                required={"generators", "loads", "gain_K", "beta", "tau"},
                optional=set())
    gens = _array(obj["generators"], _join(path, "generators"))
    loads = _array(obj["loads"], _join(path, "loads"))
    return Scenario(
        generators=tuple(_parse_generator(g, f"{path}.generators[{i}]")
                         for i, g in enumerate(gens)),
        loads=tuple(_number(x, f"{path}.loads[{j}]") for j, x in enumerate(loads)),
        gain_K=_number(obj["gain_K"], _join(path, "gain_K")),
        beta=_number(obj["beta"], _join(path, "beta")),
        tau=_number(obj["tau"], _join(path, "tau")),
    )


def _solver_problem(opts: SolverOptions) -> tuple[str, str] | None:
    """The first solver rule ``opts`` breaks, as (field, message), or None."""
    for name in ("alpha", "rho", "tol", "lambda0"):
        value = getattr(opts, name)
        if value is not None and not math.isfinite(value):
            return name, "must be finite"
        if value is not None and value <= 0 and name != "lambda0":
            return name, "must be > 0"
    return ("max_iter", "must be >= 1") if opts.max_iter < 1 else None


def _parse_solver(obj, path) -> SolverOptions:
    _check_keys(obj, path, required=set(),
                optional={"alpha", "rho", "tol", "max_iter", "lambda0"})
    opts = SolverOptions(
        alpha=_number(obj["alpha"], _join(path, "alpha")) if "alpha" in obj else None,
        rho=_number(obj["rho"], _join(path, "rho")) if "rho" in obj else None,
        tol=_number(obj.get("tol", 1e-6), _join(path, "tol")),
        max_iter=_integer(obj.get("max_iter", 10000), _join(path, "max_iter")),
        lambda0=_number(obj["lambda0"], _join(path, "lambda0")) if "lambda0" in obj else None,
    )
    problem = _solver_problem(opts)
    if problem is not None:
        raise ScenarioFileError(_join(path, problem[0]), problem[1])
    return opts


def _parse_simulation(obj, path, n_loads: int) -> SimulationOptions:
    _check_keys(obj, path, required={"controller"},
                optional={"h", "t_end", "events"})
    raw_kind = _string(obj["controller"], _join(path, "controller"))
    try:
        kind = ControllerKind(raw_kind)
    except ValueError:
        raise ScenarioFileError(_join(path, "controller"),
                                f"must be 'integral' or 'pi', got {raw_kind!r}")
    h = _number(obj["h"], _join(path, "h")) if "h" in obj else None
    t_end = _number(obj["t_end"], _join(path, "t_end")) if "t_end" in obj else None
    for name, value in (("h", h), ("t_end", t_end)):
        if value is not None and not math.isfinite(value):
            raise ScenarioFileError(_join(path, name), "must be finite")
        if value is not None and value <= 0:
            raise ScenarioFileError(_join(path, name), "must be > 0")

    events = []
    for i, ev in enumerate(_array(obj.get("events", []), _join(path, "events"))):
        ev_path = f"{path}.events[{i}]"
        _check_keys(ev, ev_path, required={"time", "loads"}, optional=set())
        events.append((_number(ev["time"], _join(ev_path, "time")),
                       [_number(x, f"{ev_path}.loads[{j}]")
                        for j, x in enumerate(_array(ev["loads"], _join(ev_path, "loads")))]))
    return SimulationOptions(controller=kind, h=h, t_end=t_end,
                             events=_check_events(events, n_loads, ScenarioFileError,
                                                  _join(path, "events")))


def parse_scenario_file(text: str) -> ScenarioFile:
    """Strict parse: unknown keys are rejected, every invariant is checked.

    Raises ScenarioFileError with a field path on any problem.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioFileError("", f"syntax error: {e.msg} (line {e.lineno} column {e.colno})")

    _check_keys(raw, "", required={"format_version", "scenario"},
                optional={"solver", "simulation"})
    version = _integer(raw["format_version"], "format_version")
    if version != FORMAT_VERSION:
        raise ScenarioFileError("format_version",
                                f"unsupported version {version} (supported: {FORMAT_VERSION})")

    scenario = _parse_scenario(raw["scenario"], "scenario")
    violations = validate_scenario(scenario)
    if violations:
        detail = "; ".join(f"scenario.{v.field}: {v.message}" for v in violations)
        raise ScenarioFileError("scenario", f"invalid scenario: {detail}")

    solver = _parse_solver(raw["solver"], "solver") if "solver" in raw else None
    simulation = (_parse_simulation(raw["simulation"], "simulation", len(scenario.loads))
                  if "simulation" in raw else None)
    return ScenarioFile(version, scenario, solver, simulation)


def serialize_scenario_file(sf: ScenarioFile) -> str:
    """Inverse of parse_scenario_file: parsing the output reproduces ``sf``."""
    payload: dict = {
        "format_version": sf.format_version,
        "scenario": {
            "generators": [
                {"id": g.id,
                 "cost": {"a": g.cost.a, "b": g.cost.b, "c": g.cost.c},
                 "p_init": g.p_init}
                for g in sf.scenario.generators
            ],
            "loads": list(sf.scenario.loads),
            "gain_K": sf.scenario.gain_K,
            "beta": sf.scenario.beta,
            "tau": sf.scenario.tau,
        },
    }
    if sf.solver is not None:
        block: dict = {"tol": sf.solver.tol, "max_iter": sf.solver.max_iter}
        if sf.solver.alpha is not None:
            block["alpha"] = sf.solver.alpha
        if sf.solver.rho is not None:
            block["rho"] = sf.solver.rho
        if sf.solver.lambda0 is not None:
            block["lambda0"] = sf.solver.lambda0
        payload["solver"] = block
    if sf.simulation is not None:
        block = {"controller": sf.simulation.controller.value}
        if sf.simulation.h is not None:
            block["h"] = sf.simulation.h
        if sf.simulation.t_end is not None:
            block["t_end"] = sf.simulation.t_end
        if sf.simulation.events:
            block["events"] = [{"time": ev.time, "loads": list(ev.loads)}
                               for ev in sf.simulation.events]
        payload["simulation"] = block
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# CSV traces

_CSV_BLOCK_ROWS = 32  # simulation CSV rows formatted per block


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trace_csv(trace, sink) -> None:
    """Write a solver or simulation trace as CSV with round-trip-exact floats."""
    if isinstance(trace, IterationTrace):
        _write_iteration_csv(trace, sink)
    elif isinstance(trace, SimulationTrace):
        _write_simulation_csv(trace, sink)
    else:
        raise TypeError(f"cannot serialize {type(trace).__name__} as a trace")


def _write_iteration_csv(trace: IterationTrace, sink) -> None:
    n = len(trace.states[0].p) if trace.states else 0
    header = ["k", "lambda"] + [f"p_{i + 1}" for i in range(n)] + ["imbalance", "delta_f"]
    sink.write(",".join(header) + "\n")
    for st in trace.states:
        row = [str(st.k), _fmt(st.lam)] + [_fmt(x) for x in st.p] \
            + [_fmt(st.imbalance), _fmt(st.delta_f)]
        sink.write(",".join(row) + "\n")


def _write_simulation_csv(trace: SimulationTrace, sink) -> None:
    gens = trace.scenario.generators
    n = len(gens)
    header = ["t"] + [f"p_{i + 1}" for i in range(n)] + ["delta_f"] \
        + [f"marginal_cost_{i + 1}" for i in range(n)]
    sink.write(",".join(header) + "\n")
    a, b = np.array([(g.cost.a, g.cost.b) for g in gens]).reshape(n, 2).T
    row = ",".join(["%.17g"] * (2 * n + 2)) + "\n"  # "%.17g" is format(x, ".17g")
    for i in range(0, len(trace.t), _CSV_BLOCK_ROWS):  # one block of rows in memory at a time
        block = slice(i, i + _CSV_BLOCK_ROWS)
        p = trace.p[block]
        # 2*a*p + b, the operations of model.marginal_cost
        table = np.column_stack([trace.t[block], p, trace.delta_f[block], 2.0 * a * p + b])
        sink.writelines(row % tuple(values.tolist()) for values in table)


def _write_sweep_csv(records, sink) -> None:
    cols = ["value",
            "dual_iterations", "dual_converged", "dual_stop_reason",
            "dual_empirical_ratio", "dual_predicted_ratio",
            "mom_iterations", "mom_converged", "mom_stop_reason",
            "mom_empirical_ratio", "mom_predicted_ratio",
            "settling_integral", "settling_pi"]
    sink.write(",".join(cols) + "\n")

    def method_cells(m):
        if m is None:
            return [""] * 5
        return [str(m.iterations), str(m.converged).lower(), m.stop_reason.value,
                "" if m.empirical_ratio is None else _fmt(m.empirical_ratio),
                _fmt(m.predicted_ratio)]

    for rec in records:
        row = [_fmt(rec.value)] + method_cells(rec.dual) + method_cells(rec.mom)
        row.append("" if rec.settling_integral is None else _fmt(rec.settling_integral))
        row.append("" if rec.settling_pi is None else _fmt(rec.settling_pi))
        sink.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# JSON summaries

def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (StopReason, ControllerKind, EquivalencePair)):
        return x.value
    if isinstance(x, float) and not math.isfinite(x):
        return None  # JSON has no Infinity (settling that never happens) or NaN
    return x


def _emit(payload) -> None:
    print(json.dumps(_jsonable(payload), indent=2, allow_nan=False))


# ---------------------------------------------------------------------------
# Commands

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures on our exit-code scheme
        raise _UsageError(message)


@functools.cache  # built once, on first use; parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="freqdispatch",
                     description="Economic dispatch solvers and the equivalent "
                                 "secondary frequency controllers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="strict-parse and validate a scenario file")
    p.add_argument("file")

    p = sub.add_parser("dispatch", help="closed-form economic dispatch")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true",
                   help="also run the grid-search oracle and report the gap")
    p.add_argument("--grid-step", type=float, default=0.01)

    p = sub.add_parser("iterate", help="run an iterative solver")
    p.add_argument("file")
    p.add_argument("--method", required=True, choices=["dual", "mom"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--lambda0", type=float)
    p.add_argument("--out-csv")

    p = sub.add_parser("simulate", help="sample the exact trajectory of the continuous closed loop")
    p.add_argument("file")
    p.add_argument("--controller", required=True, choices=["integral", "pi"])
    p.add_argument("--h", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--eps", type=float, default=1e-4,
                   help="settling band for the reported settling time (Hz)")
    p.add_argument("--out-csv")

    p = sub.add_parser("compare", help="convergence of both solvers and controllers")
    p.add_argument("file")
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--lambda0", type=float)

    p = sub.add_parser("sweep", help="sweep a solver or controller parameter")
    p.add_argument("file")
    p.add_argument("--param", required=True, choices=["alpha", "rho", "K", "tau"])
    p.add_argument("--values", required=True, type=float, nargs="+")
    p.add_argument("--tol", type=float)
    p.add_argument("--out-csv")

    p = sub.add_parser("equivalence", help="discrete iteration vs Euler-integrated controller")
    p.add_argument("file")
    p.add_argument("--pair", required=True, choices=["dual-integral", "mom-pi"])
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lambda0", type=float)

    return parser


def _read_file(path: str) -> ScenarioFile:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario_file(fh.read())


def _solver_opts(args, s: Scenario, block: SolverOptions | None) -> SolverOptions:
    """The solver block with the command's flags merged over it, checked by the
    block's rules; alpha and rho default to K/beta."""
    flags = {name: value for name in ("alpha", "rho", "tol", "max_iter", "lambda0")
             if (value := getattr(args, name, None)) is not None}
    opts = replace(block if block is not None else SolverOptions(), **flags)
    problem = _solver_problem(opts)
    if problem is not None:
        raise ValueError(f"--{problem[0].replace('_', '-')} {problem[1]}")
    coupling = s.gain_K / s.beta
    return replace(opts, alpha=coupling if opts.alpha is None else opts.alpha,
                   rho=coupling if opts.rho is None else opts.rho)


def _cmd_validate(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        parse_scenario_file(text)
    except ScenarioFileError as e:
        _emit({"valid": False, "error": str(e)})
        return EXIT_VALIDATION
    _emit({"valid": True})
    return EXIT_OK


def _cmd_dispatch(args) -> int:
    sf = _read_file(args.file)
    sol = analytic_dispatch(sf.scenario)
    payload = {"lambda_star": sol.lambda_star, "p": list(sol.p),
               "total_cost": sol.total_cost}
    if args.oracle:
        oracle = brute_force_dispatch(sf.scenario, args.grid_step)
        payload["oracle"] = {
            "grid_step": args.grid_step,
            "p": list(oracle.p),
            "total_cost": oracle.total_cost,
            "max_gap": max(abs(x - y) for x, y in zip(sol.p, oracle.p)),
        }
    _emit(payload)
    return EXIT_OK


def _cmd_iterate(args) -> int:
    sf = _read_file(args.file)
    opts = _solver_opts(args, sf.scenario, sf.solver)
    if args.method == "dual":
        trace = dual_ascent_solve(sf.scenario, opts.alpha, opts.tol, opts.max_iter, opts.lambda0)
        step_size = {"alpha": opts.alpha}
    else:
        trace = mom_solve(sf.scenario, opts.rho, opts.tol, opts.max_iter, opts.lambda0)
        step_size = {"rho": opts.rho}

    last = trace.states[-1]
    payload = {
        "method": args.method, **step_size,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "iterations": len(trace.states) - 1,
        "lambda": last.lam,
        "p": list(last.p),
        "imbalance": last.imbalance,
        "delta_f": last.delta_f,
        "empirical_ratio": empirical_ratio(trace, opts.tol),
    }
    _emit(payload)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            write_trace_csv(trace, fh)
    return EXIT_DIVERGED if trace.stop_reason is StopReason.DIVERGED else EXIT_OK


def _cmd_simulate(args) -> int:
    sf = _read_file(args.file)
    s = sf.scenario
    sim = sf.simulation if sf.simulation is not None else SimulationOptions()
    kind = ControllerKind(args.controller)
    h = args.h if args.h is not None else (sim.h if sim.h is not None else s.tau / 100.0)
    t_end = args.t_end if args.t_end is not None else \
        (sim.t_end if sim.t_end is not None else 100.0 * s.tau)

    cfg = ControllerConfig(kind, s.gain_K, s.tau)
    trace = simulate(s, cfg, QuasiStatic(s.beta), h=h, t_end=t_end, events=sim.events)
    steady = verify_steady_state_optimality(trace, s, tol=1e-6)
    payload = {
        "controller": kind,
        "h": h,
        "t_end": t_end,
        "samples": len(trace.t),
        "final_t": float(trace.t[-1]),
        "final_p": trace.p[-1].tolist(),
        "final_delta_f": float(trace.delta_f[-1]),
        "settling_time": settling_time(trace, args.eps),
        "settling_eps": args.eps,
        "steady_state": {
            "passed": steady.passed,
            "power_error": steady.power_error,
            "freq_error": steady.freq_error,
            "spread_error": steady.spread_error,
            "failures": list(steady.failures),
        },
    }
    _emit(payload)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            write_trace_csv(trace, fh)
    return EXIT_OK


def _method_payload(m) -> dict | None:
    if m is None:
        return None
    return {"iterations": m.iterations, "converged": m.converged,
            "stop_reason": m.stop_reason, "empirical_ratio": m.empirical_ratio,
            "predicted_ratio": m.predicted_ratio}


def _cmd_compare(args) -> int:
    sf = _read_file(args.file)
    opts = _solver_opts(args, sf.scenario, sf.solver)
    report = compare_convergence(sf.scenario, opts.alpha, opts.rho, opts.tol,
                                 max_iter=opts.max_iter, lambda0=opts.lambda0)
    _emit({
        "alpha": opts.alpha,
        "rho": opts.rho,
        "dual": _method_payload(report.dual),
        "mom": _method_payload(report.mom),
        "settling_integral": report.settling_integral,
        "settling_pi": report.settling_pi,
    })
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sf = _read_file(args.file)
    opts = _solver_opts(args, sf.scenario, sf.solver)
    records = sweep(sf.scenario, args.param, args.values, opts.tol,
                    max_iter=opts.max_iter, lambda0=opts.lambda0)
    _emit({
        "parameter": args.param,
        "records": [{
            "value": r.value,
            "dual": _method_payload(r.dual),
            "mom": _method_payload(r.mom),
            "settling_integral": r.settling_integral,
            "settling_pi": r.settling_pi,
        } for r in records],
    })
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            _write_sweep_csv(records, fh)
    return EXIT_OK


def _cmd_equivalence(args) -> int:
    sf = _read_file(args.file)
    pair = EquivalencePair(args.pair)
    lambda0 = _solver_opts(args, sf.scenario, sf.solver).lambda0  # --lambda0 over solver.lambda0
    report = check_euler_equivalence(sf.scenario, pair, args.steps, lambda0)
    _emit({"pair": report.pair, "steps": report.steps,
           "max_abs_deviation": report.max_abs_deviation})
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "dispatch": _cmd_dispatch,
    "iterate": _cmd_iterate,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "equivalence": _cmd_equivalence,
}


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # argparse --help
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE

    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except ScenarioFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))
