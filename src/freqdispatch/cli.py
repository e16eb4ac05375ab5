"""Command-line front end: scenario files in, JSON summaries and CSV traces out.

Exit codes: 0 success, 1 usage or I/O error, 2 scenario validation error,
3 solver diverged. Arithmetic that overflows the float range gives inf or NaN,
which the JSON summaries write as null.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .dispatch import (
    StopReason,
    _check_grid_step,
    _solver_problem,
    analytic_dispatch,
    brute_force_dispatch,
    dual_ascent_solve,
    mom_solve,
)
from .dynamics import (
    LoadEvent,
    QuasiStatic,
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
    Columns,
    ControllerConfig,
    ControllerKind,
    Scenario,
    _float,
    validate_scenario,
)
from .traceio import write_sweep_csv, write_trace_csv

__all__ = [
    "ScenarioFile",
    "ScenarioFileError",
    "SimulationOptions",
    "SolverOptions",
    "main",
    "parse_scenario_file",
    "run_command",
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
    """Optional simulation block. ``simulate``'s flags win over it; without either,
    h and t_end default to tau/100 and 100*tau, and the controller has no default."""

    controller: ControllerKind | None = None
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
# Strict parsing. A field's path is a tuple of keys and array indices, spelled
# out (``scenario.generators[3].cost.a``) only when an error names it.

def _where(path: tuple) -> str:
    """("scenario", "loads", 0) -> "scenario.loads[0]"; the root () -> ""."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _check_keys(obj, path, required, allowed):
    if not isinstance(obj, dict):
        raise ScenarioFileError(_where(path) or "<root>", "expected a JSON object")
    if not obj.keys() <= allowed:  # min() names the first offending key in sorted order
        raise ScenarioFileError(_where((*path, min(obj.keys() - allowed))), "unknown key")
    if not obj.keys() >= required:
        raise ScenarioFileError(_where(path) or "<root>",
                                f"missing required key '{min(required - obj.keys())}'")


def _number(value, path, key) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFileError(_where((*path, key)), "expected a number")
    return _float(value)  # an integer past the float range reads as a float literal that large


def _integer(value, path, key) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFileError(_where((*path, key)), "expected an integer")
    return value


def _string(value, path, key) -> str:
    if not isinstance(value, str):
        raise ScenarioFileError(_where((*path, key)), "expected a string")
    return value


def _array(value, path, key) -> list:
    if not isinstance(value, list):
        raise ScenarioFileError(_where((*path, key)), "expected an array")
    return value


_GENERATOR_KEYS = frozenset({"id", "cost"}), frozenset({"id", "cost", "p_init"})
_COST_KEYS = frozenset({"a", "b"}), frozenset({"a", "b", "c"})
_DICT, _STR, _FLOAT, _NUMBER = map(frozenset, ({dict}, {str}, {float}, {float, int}))


def _parse_generator(obj, path) -> tuple:
    """One generator entry's id, a, b, c and p_init."""
    _check_keys(obj, path, *_GENERATOR_KEYS)
    cost_obj, cost_path = obj["cost"], (*path, "cost")
    _check_keys(cost_obj, cost_path, *_COST_KEYS)
    cost = (_number(cost_obj["a"], cost_path, "a"), _number(cost_obj["b"], cost_path, "b"),
            _number(cost_obj.get("c", 0.0), cost_path, "c"))  # checked before the id
    return (_string(obj["id"], path, "id"), *cost,
            _number(obj.get("p_init", 0.0), path, "p_init"))


def _generator_columns(gens: list) -> tuple[list, Columns] | None:
    """The ids and the ``Columns`` of generator entries that keep every rule of
    ``_parse_generator``, read a column at a time; None when an entry breaks a rule
    or holds an integer that no float holds, which ``_parse_generator`` then
    settles entry by entry."""
    if not (set(map(type, gens)) <= _DICT and all(map(_GENERATOR_KEYS[1].issuperset, gens))):
        return None
    try:
        ids, costs = [g["id"] for g in gens], [g["cost"] for g in gens]
        if not (set(map(type, costs)) <= _DICT and all(map(_COST_KEYS[1].issuperset, costs))
                and set(map(type, ids)) <= _STR):
            return None
        columns = ([x["a"] for x in costs], [x["b"] for x in costs],
                   [x.get("c", 0.0) for x in costs], [g.get("p_init", 0.0) for g in gens])
    except KeyError:  # a required key is missing
        return None
    with contextlib.suppress(OverflowError):  # an integer that no float holds
        if set(map(type, itertools.chain.from_iterable(columns))) <= _NUMBER:  # bool is not int
            return ids, Columns.of(*columns)
    return None


def _parse_scenario(obj, path) -> Scenario:
    """The scenario, built from its generators' id and number columns."""
    keys = {"generators", "loads", "gain_K", "beta", "tau"}
    _check_keys(obj, path, keys, keys)
    gens = _array(obj["generators"], path, "generators")
    loads = _array(obj["loads"], path, "loads")
    columns = _generator_columns(gens)
    if columns is None:  # entry by entry, to name the first problem in document order
        ids, *numbers = zip(*(_parse_generator(g, (*path, "generators", i))
                              for i, g in enumerate(gens)))
        columns = ids, Columns.of(*numbers)
    return Scenario._of(*columns,
                        [_number(x, (*path, "loads"), j) for j, x in enumerate(loads)],
                        _number(obj["gain_K"], path, "gain_K"),
                        _number(obj["beta"], path, "beta"),
                        _number(obj["tau"], path, "tau"))


def _parse_solver(obj, path) -> SolverOptions:
    _check_keys(obj, path, set(), {"alpha", "rho", "tol", "max_iter", "lambda0"})
    opts = SolverOptions(
        alpha=_number(obj["alpha"], path, "alpha") if "alpha" in obj else None,
        rho=_number(obj["rho"], path, "rho") if "rho" in obj else None,
        tol=_number(obj.get("tol", 1e-6), path, "tol"),
        max_iter=_integer(obj.get("max_iter", 10000), path, "max_iter"),
        lambda0=_number(obj["lambda0"], path, "lambda0") if "lambda0" in obj else None,
    )
    problem = _solver_problem(vars(opts))
    if problem is not None:
        raise ScenarioFileError(_where((*path, problem[0])), problem[1])
    return opts


def _parse_simulation(obj, path, n_loads: int) -> SimulationOptions:
    _check_keys(obj, path, {"controller"}, {"controller", "h", "t_end", "events"})
    raw_kind = _string(obj["controller"], path, "controller")
    try:
        kind = ControllerKind(raw_kind)
    except ValueError:
        raise ScenarioFileError(_where((*path, "controller")),
                                f"must be 'integral' or 'pi', got {raw_kind!r}")
    h = _number(obj["h"], path, "h") if "h" in obj else None
    t_end = _number(obj["t_end"], path, "t_end") if "t_end" in obj else None
    for name, value in (("h", h), ("t_end", t_end)):
        if value is not None and not math.isfinite(value):
            raise ScenarioFileError(_where((*path, name)), "must be finite")
        if value is not None and value <= 0:
            raise ScenarioFileError(_where((*path, name)), "must be > 0")

    events = []
    for i, ev in enumerate(_array(obj.get("events", []), path, "events")):
        ev_path = (*path, "events", i)
        _check_keys(ev, ev_path, {"time", "loads"}, {"time", "loads"})
        events.append((_number(ev["time"], ev_path, "time"),
                       [_number(x, (*ev_path, "loads"), j)
                        for j, x in enumerate(_array(ev["loads"], ev_path, "loads"))]))
    return SimulationOptions(controller=kind, h=h, t_end=t_end,
                             events=_check_events(events, n_loads, ScenarioFileError,
                                                  _where((*path, "events"))))


def parse_scenario_file(text: str) -> ScenarioFile:
    """Strict parse: unknown keys are rejected, every invariant is checked.

    Raises ScenarioFileError with a field path on the first problem in document
    order. The generator entries are checked a column at a time into the ids and
    the float64 number block that the scenario keeps: no ``Generator`` is built.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioFileError("", f"syntax error: {e.msg} (line {e.lineno} column {e.colno})")

    _check_keys(raw, (), {"format_version", "scenario"},
                {"format_version", "scenario", "solver", "simulation"})
    version = _integer(raw["format_version"], (), "format_version")
    if version != FORMAT_VERSION:
        raise ScenarioFileError("format_version",
                                f"unsupported version {version} (supported: {FORMAT_VERSION})")

    scenario = _parse_scenario(raw["scenario"], ("scenario",))
    violations = validate_scenario(scenario)
    if violations:
        detail = "; ".join(f"scenario.{v.field}: {v.message}" for v in violations)
        raise ScenarioFileError("scenario", f"invalid scenario: {detail}")

    solver = _parse_solver(raw["solver"], ("solver",)) if "solver" in raw else None
    simulation = (_parse_simulation(raw["simulation"], ("simulation",), len(scenario.loads))
                  if "simulation" in raw else None)
    return ScenarioFile(version, scenario, solver, simulation)


# ---------------------------------------------------------------------------
# JSON summaries

_ENUMS = (StopReason, ControllerKind, EquivalencePair)  # written as their values
_encode = json.JSONEncoder(allow_nan=False).encode


def _json(x, indent: str = "") -> str:
    """``x`` as ``json.dumps(x, indent=2)`` writes it, nested ``indent`` deep, with
    tuples as lists, the enums above as their values, a dataclass (a report) as the
    object of its fields in declaration order and a non-finite float as null (JSON
    has no Infinity, for settling that never happens, and no NaN). A list of plain
    finite floats is written in one join. A scalar of exact type float, str, int,
    bool or None is written by the function json.dumps itself uses for it: _encode
    builds a C encoder on every call, which costs several times as much."""
    cls = type(x)
    if cls is float:
        return float.__repr__(x) if math.isfinite(x) else "null"
    if cls is str:
        return encode_basestring_ascii(x)
    if cls is int:
        return int.__repr__(x)
    if cls is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        brackets = "{}"
        items = (f"{encode_basestring_ascii(k if isinstance(k, str) else _encode(k))}: "
                 f"{_json(v, inner)}"
                 for k, v in x.items())  # a key that is no string: its JSON text, quoted
    elif isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        brackets = "[]"
        if set(map(type, x)) <= _FLOAT and all(map(math.isfinite, x)):
            items = map(float.__repr__, x)
        else:
            items = (_json(v, inner) for v in x)
    elif isinstance(x, _ENUMS):
        return _encode(x.value)
    elif is_dataclass(x):
        return _json({f.name: getattr(x, f.name) for f in fields(x)}, indent)
    elif isinstance(x, float) and not math.isfinite(x):
        return "null"
    else:
        return _encode(x)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _emit(payload) -> None:
    print(_json(payload))


# ---------------------------------------------------------------------------
# Commands

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep usage failures on our exit-code scheme
        raise _UsageError(message)


@functools.cache  # built once, on first use; parsing leaves it unchanged
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The full parser, and the subcommands' own parsers by name."""
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
    p.add_argument("--controller", choices=["integral", "pi"],
                   help="defaults to the file's simulation.controller")
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
    p.add_argument("--steps", type=int, default=200,
                   help="steps to compare; the check stops early, with the same report, "
                        "once both runs repeat a joint state (a fixed point or 2-cycle on "
                        "its first repeat), so its cost is bounded by where that cycle "
                        "starts, not by --steps")
    p.add_argument("--lambda0", type=float)

    return parser, sub.choices


def _read_file(path: str) -> ScenarioFile:
    """The scenario file at ``path``, read as text mode reads it: UTF-8, with "\r\n"
    and then "\r" turned into "\n". Read as bytes and decoded whole, which is
    faster; the text, never the bytes, goes to json.loads, which would take a
    byte-order mark or UTF-16 in bytes."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_scenario_file(text)


_NO_SOLVER_BLOCK = SolverOptions()


def _solver_opts(args, s: Scenario, block: SolverOptions | None) -> SolverOptions:
    """The solver block with the command's flags merged over it, checked by the
    block's rules; alpha and rho default to K/beta."""
    base = vars(block if block is not None else _NO_SOLVER_BLOCK)  # read, never written
    opts = {name: base[name] if (value := getattr(args, name, None)) is None else value
            for name in base}
    problem = _solver_problem(opts)
    if problem is not None:
        raise ValueError(f"--{problem[0].replace('_', '-')} {problem[1]}")
    coupling = s.gain_K / s.beta
    for name in ("alpha", "rho"):
        if opts[name] is None:
            opts[name] = coupling
    return SolverOptions(**opts)


def _emit_and_write(args, payload, write, data) -> None:
    """Print the summary ``payload`` and, given ``--out-csv``, ``write(data, file)``
    to that file. A command calls this once its result is computed, and the file is
    opened before the summary prints, so a path that cannot be opened fails the
    command with nothing on stdout. Lines end in "\n" on every platform: newline=""
    turns off the text layer's newline translation."""
    if not args.out_csv:
        _emit(payload)
        return
    with open(args.out_csv, "w", encoding="utf-8", newline="") as fh:
        _emit(payload)
        write(data, fh)


def _cmd_validate(args) -> int:
    try:
        _read_file(args.file)
    except ScenarioFileError as e:
        _emit({"valid": False, "error": str(e)})
        return EXIT_VALIDATION
    _emit({"valid": True})
    return EXIT_OK


def _cmd_dispatch(args) -> int:
    sf = _read_file(args.file)
    _check_grid_step(args.grid_step)  # also without --oracle, which alone reads it
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

    payload = {
        "method": args.method, **step_size,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "iterations": len(trace.lam) - 1,
        "lambda": float(trace.lam[-1]),
        "p": trace.power(trace.lam[-1]).tolist(),  # the one row it prints, built alone
        "imbalance": float(trace.imbalance[-1]),
        "delta_f": float(trace.delta_f[-1]),
        "empirical_ratio": empirical_ratio(trace, opts.tol),
    }
    _emit_and_write(args, payload, write_trace_csv, trace)
    return EXIT_DIVERGED if trace.stop_reason is StopReason.DIVERGED else EXIT_OK


def _cmd_simulate(args) -> int:
    sf = _read_file(args.file)
    s = sf.scenario
    sim = sf.simulation if sf.simulation is not None else SimulationOptions()
    kind = ControllerKind(args.controller) if args.controller is not None else sim.controller
    if kind is None:
        raise ValueError("--controller is required when the file has no simulation block")
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
        "steady_state": steady,
    }
    _emit_and_write(args, payload, write_trace_csv, trace)
    return EXIT_OK


def _cmd_compare(args) -> int:
    sf = _read_file(args.file)
    opts = _solver_opts(args, sf.scenario, sf.solver)
    report = compare_convergence(sf.scenario, opts.alpha, opts.rho, opts.tol,
                                 max_iter=opts.max_iter, lambda0=opts.lambda0)
    _emit({"alpha": opts.alpha, "rho": opts.rho, **vars(report)})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sf = _read_file(args.file)
    opts = _solver_opts(args, sf.scenario, sf.solver)
    records = sweep(sf.scenario, args.param, args.values, opts.tol,
                    max_iter=opts.max_iter, lambda0=opts.lambda0)
    _emit_and_write(args, {"parameter": args.param, "records": records}, write_sweep_csv, records)
    return EXIT_OK


def _cmd_equivalence(args) -> int:
    sf = _read_file(args.file)
    pair = EquivalencePair(args.pair)
    lambda0 = _solver_opts(args, sf.scenario, sf.solver).lambda0  # --lambda0 over solver.lambda0
    report = check_euler_equivalence(sf.scenario, pair, args.steps, lambda0)
    _emit({"pair": report.pair, "steps": report.steps,
           "max_abs_deviation": report.max_abs_deviation})
    return EXIT_OK if math.isfinite(report.max_abs_deviation) else EXIT_DIVERGED


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
    """Run one CLI invocation; returns the process exit code.

    A subcommand's arguments go straight to its own parser, as the full parser
    would hand them on; the full parser reads only an argv that names none."""
    argv = list(argv)
    parser, commands = _build_parser()
    try:
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # argparse --help
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE

    handler = _HANDLERS[args.command]
    try:
        with np.errstate(all="ignore"):  # overflow gives inf or NaN, which _json writes as null
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
