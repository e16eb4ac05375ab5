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
    IterationTrace,
    StopReason,
    _check_grid_step,
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
    MethodConvergence,
    SweepRecord,
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


def _solver_problem(opts: dict) -> tuple[str, str] | None:
    """The first solver rule the ``SolverOptions`` fields ``opts`` break, as (field,
    message), or None."""
    for name in ("alpha", "rho", "tol", "lambda0"):
        value = opts[name]
        if value is not None and not math.isfinite(value):
            return name, "must be finite"
        if value is not None and value <= 0 and name != "lambda0":
            return name, "must be > 0"
    return ("max_iter", "must be >= 1") if opts["max_iter"] < 1 else None


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


def serialize_scenario_file(sf: ScenarioFile) -> str:
    """Inverse of parse_scenario_file: parsing the output reproduces ``sf``."""
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


# ---------------------------------------------------------------------------
# CSV traces

# Cells per CSV block, at most: _csv_rows cuts every trace into blocks of as many
# whole rows as fit. The size comes from a cost model, measured on 2 x86 cores
# with numpy 2.4.6 by writing a 1000-unit trace at 2,048 to 16,384 cells a block.
# A block costs about 75 us whatever its size, 60 us of it the some 60 numpy calls
# of one _csv_cells call, and a cell about 95 ns, 55 ns of it in the kernel. So
# the fixed part adds 18 ns a cell at 4,096 cells and under 5 ns at 16,384.
# The ceiling is memory: a block's temporaries come to about 170 B a cell, 2.8 MB
# under tracemalloc for that trace. Past this size they outgrow a core's 2 MiB L2,
# and a float64 array of the block passes 128 KiB, glibc's mmap threshold: at
# 32,768 cells the 1000-unit trace was written no faster and a 2-unit one slower.
_CSV_BLOCK_CELLS = 16384


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trace_csv(trace, sink) -> None:
    """Write a solver or simulation trace as CSV with round-trip-exact floats.

    Every float cell holds exactly ``format(x, ".17g")``. Both kinds of trace
    are written in blocks of rows. In each block, the cells whose bits differ
    from the cell above are turned into text together by one numpy kernel,
    which formats alone only the rare cell it cannot certify, and every other
    cell copies the text above it (see ``_csv_rows``).
    """
    if isinstance(trace, IterationTrace):
        _write_iteration_csv(trace, sink)
    elif isinstance(trace, SimulationTrace):
        _write_simulation_csv(trace, sink)
    else:
        raise TypeError(f"cannot serialize {type(trace).__name__} as a trace")


def _write_iteration_csv(trace: IterationTrace, sink) -> None:
    # each block's powers come from its prices, so the trace's p matrix is never built
    n = len(trace.power(float(trace.lam[0])))
    header = ["k", "lambda"] + [f"p_{i + 1}" for i in range(n)] + ["imbalance", "delta_f"]
    sink.write(",".join(header) + "\n")

    k = np.arange(len(trace.lam), dtype=np.float64)  # a count far below 2**53 prints as str(k)

    def block(rows: slice) -> np.ndarray:
        p = np.array(list(map(trace.power, trace.lam[rows].tolist())))
        return np.column_stack([k[rows], trace.lam[rows], p,
                                trace.imbalance[rows], trace.delta_f[rows]])

    sink.writelines(_csv_rows(len(k), n + 4, block))


def _write_simulation_csv(trace: SimulationTrace, sink) -> None:
    columns = trace.scenario.columns
    n = len(columns.a)
    header = ["t"] + [f"p_{i + 1}" for i in range(n)] + ["delta_f"] \
        + [f"marginal_cost_{i + 1}" for i in range(n)]
    sink.write(",".join(header) + "\n")

    def block(rows: slice) -> np.ndarray:
        p = trace.p[rows]
        return np.column_stack([trace.t[rows], p, trace.delta_f[rows], columns.marginal(p)])

    sink.writelines(_csv_rows(len(trace.t), 2 * n + 2, block))


# The CSV float kernel. A nonzero cell x with 1e-280 <= |x| <= 1e280 has a
# decimal exponent e in _EXPONENTS, and j = e - _EXPONENTS[0] is its row in the
# tables below. Its 17-digit significand n = round(|x| * 10**(16 - e)) comes
# from Dekker's exact product of |x| with the high part of 10**(16 - e), held as
# hi + lo to about 2**-106, so the rounding fraction is known to about 1e-14.
# A cell is four 8-byte words, NUL-padded and written little-endian ("<u8"),
# so a word's byte i is its bits 8i..8i+7:
#   word 0: the sign, the "0.000" prefix of -4 <= e <= -1 and the first digit d0;
#   words 1-3: T, digits d1..d16 with "." inserted at byte q, then in bytes 1-6
#   of word 3 the exponent "e+XX" or "e+XXX" and the separator.
# Trailing zeros past the point and every unused byte stay NUL, and translate drops them.
_EXPONENTS = np.arange(-282, 282)  # the window's exponents and one step either side
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's split of a double into two 26-bit halves


def _powers_of_ten(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi = fl(10**k) and lo = fl(10**k - hi) for each k of ``ks``, which falls by one
    from ks[0] >= 0 to ks[-1] < 0. They come from the exact integers 5**|k|, since
    10**k = 5**k * 2**k and ldexp scales by 2**k exactly."""
    hi, lo, five = [], [], 1
    for _ in range(ks[0] + 1):  # int to float rounds correctly
        hi.append(float(five))
        lo.append(float(five - int(hi[-1])))
        five *= 5
    hi.reverse()
    lo.reverse()
    five = 1
    for _ in range(-ks[-1]):  # 1/5**k - m/d = (d - m * 5**k) / (d * 5**k), rounded once
        five *= 5
        m, d = (h := 1 / five).as_integer_ratio()
        hi.append(h)
        lo.append((d - m * five) / (d * five))
    return np.ldexp(hi, ks), np.ldexp(lo, ks)


@functools.cache  # built on first use, not at import; read-only
def _csv_tables() -> dict:
    """The kernel's tables. Those read at one index are stacked, one row each, and
    gathered together: "scale" and "layout" by exponent row j, "point" by q and
    "keep" by the count of T's bytes kept."""
    u, e = np.uint64, _EXPONENTS
    hi, lo = _powers_of_ten(16 - e)
    hh = hi * _SPLIT - (hi * _SPLIT - hi)
    # digit i of the groups "0000" to "9999", as axis i of a 10x10x10x10 grid
    digits = [np.arange(10).reshape([10 if j == i else 1 for j in range(4)]) for i in range(4)]
    # the last nonzero digit of each group, -64 for "0000"
    last = functools.reduce(np.maximum, [np.where(x != 0, i, -64) for i, x in enumerate(digits)])
    last = last.ravel().astype(np.int8)
    fixed, neg, ae = (e >= -4) & (e < 17), e < 0, np.abs(e)
    exp_bytes = [np.full(e.shape, 101), np.where(neg, 45, 43),
                 np.where(ae >= 100, ae // 100 + 48, 0), ae // 10 % 10 + 48, ae % 10 + 48]

    def words(values, count):  # Python ints as (count, len(values)) uint64 words
        return np.array([[v >> 64 * i & 2 ** 64 - 1 for v in values] for i in range(count)],
                        dtype=u)

    tables = {
        "scale": np.stack([hi, hh, hi - hh, lo]),  # 10**(16 - e) as hi + lo, and hi's halves
        "quad": sum(x + 48 << 8 * i for i, x in enumerate(digits)).ravel().astype(u),
        "z": last + np.array([[1], [5], [9], [13]], np.int8),  # as an index among d0..d16
        "layout": np.stack([
            # the "0.000" prefix of word 0, and word 3's exponent "e+XX" or "e+XXX"
            np.array([int.from_bytes(b"\0" + b"0.000"[:1 - k], "little") if -4 <= k < 0
                      else 0 for k in e.tolist()], dtype=u),
            np.where(fixed, u(0), sum(b.astype(u) << u(8 * i)
                                      for i, b in enumerate(exp_bytes, start=1))),
            np.where(fixed, np.where(neg, 16, e), 0),  # q: "." after d_q; at 16 it never shows
            np.where(fixed & ~neg, e, 0),  # kp: the last digit of the integer part
        ]).astype(u),
        "d0": np.arange(48, 58, dtype=u) << u(48), "sign": np.array([0, 45], dtype=u),
        "point": np.concatenate([  # T's bytes before q, then the "." at byte q
            words([(1 << 8 * q) - 1 for q in range(17)], 2),
            words([46 << 8 * q if q < 16 else 0 for q in range(17)], 2)]),
        "keep": words([(1 << 8 * c) - 1 | (1 << 192) - (1 << 136) for c in range(18)], 3),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, j: np.ndarray):
    """a * 10**(16 - e) as p + r, with p = fl(a * hi) and |r| < 32."""
    b, bh, bl, lo = np.take(_csv_tables()["scale"], j, axis=1)
    p = a * b
    ah = a * _SPLIT - (a * _SPLIT - a)
    al = a - ah
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo


def _significands(x: np.ndarray):
    """(n, j, special): |x| rounds to n * 10**(e - 16) with n of 17 digits, except
    where special (a zero, or a cell to format alone), where n = 0 and e = 0."""
    a = np.abs(x)
    special = ~((a >= 1e-280) & (a <= 1e280))
    a[special] = 1.0
    j = np.floor(np.log10(a)).astype(np.intp)  # e, or one off next to a power of ten
    j -= _EXPONENTS[0]
    p, r = _scaled(a, j)
    off = ((p - 1e16) + r < 0) | ((p - 1e17) + r >= -0.5)  # n would not have 17 digits
    if off.any():
        i = np.flatnonzero(off)
        j[i] += np.where((p[i] - 1e16) + r[i] < 0, -1, 1)
        p[i], r[i] = _scaled(a[i], j[i])
        special[i] |= ((p[i] - 1e16) + r[i] < 0) | ((p[i] - 1e17) + r[i] >= -0.5)
    rn = np.rint(r)
    special |= np.abs(r - rn) > 0.5 - 1e-6
    n = p.astype(np.int64) + rn.astype(np.int64)  # p >= 1e16 > 2**53 is an integer
    n[special] = 0
    j[special] = -_EXPONENTS[0]
    return n, j, special


def _digit_word(eight: np.ndarray, z_hi: np.ndarray, z_lo: np.ndarray):
    """Eight digits as one word of their ASCII bytes, and the index of the last nonzero one."""
    quad = _csv_tables()["quad"]
    hi = eight // 10 ** 4
    lo = eight - hi * 10 ** 4
    return quad[hi] | quad[lo] << np.uint64(32), np.maximum(z_hi[hi], z_lo[lo])


_COMMA = np.uint64(ord(",") << 48)  # byte 6 of word 3, a cell's separator


def _csv_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Lay out each cell of the 1-D float64 x, followed by a comma, in a row of
    out, an (x.size, 4) "<u8" buffer.

    Each temporary is dropped once used, since they set the writer's peak memory.
    """
    t = _csv_tables()
    n, j, special = _significands(x)
    prefix, exp, q, kp = np.take(t["layout"], j, axis=1)
    q, kp = q.view(np.int64), kp.view(np.int64)
    del j
    d0 = n // 10 ** 16
    n -= d0 * 10 ** 16
    out[:, 0] = t["d0"][d0] | prefix | t["sign"][np.signbit(x).view(np.int8)]
    del d0, prefix
    hi8 = n // 10 ** 8
    n -= hi8 * 10 ** 8
    A, last_a = _digit_word(hi8, t["z"][0], t["z"][1])  # d1..d8
    B, last_b = _digit_word(n, t["z"][2], t["z"][3])  # d9..d16
    del hi8, n
    last = np.maximum(np.maximum(last_a, last_b), kp)  # the last digit shown
    keep = last + (last > q)  # bytes of T kept: the point shows only before a digit
    out[:, 3] = exp | _COMMA
    del last, last_a, last_b, exp, kp
    low_a, low_b, dot_a, dot_b = np.take(t["point"], q, axis=1)
    mask_a, mask_b, mask_c = np.take(t["keep"], keep, axis=1)
    del q, keep
    low_a &= A
    A ^= low_a  # now the bytes from q on, which move up one byte
    out[:, 1] = (low_a | A << np.uint64(8) | dot_a) & mask_a
    del low_a, dot_a, mask_a
    low_b &= B
    B ^= low_b
    out[:, 2] = (low_b | B << np.uint64(8) | A >> np.uint64(56) | dot_b) & mask_b
    out[:, 3] |= B >> np.uint64(56) & mask_c
    cells = out.view(np.uint8)
    for i in np.flatnonzero(special & (x != 0)):
        text = _fmt(x[i]).encode()
        cells[i, :30] = 0  # the separator stays
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)


def _csv_rows(rows: int, cols: int, block):
    """Yield a table of rows x cols float64 cells as CSV text, block by block: a
    line per row, every cell exactly ``format(x, ".17g")``, comma-separated.
    ``block(s)`` returns the table's rows ``s``, a slice, as a 2-D array. A block
    is as many whole rows as fit in ``_CSV_BLOCK_CELLS`` cells, and at least one,
    so only one block of the table is in memory at a time.

    Only the cells whose bits differ from the cell above them go through the
    kernel; for a block's first row, the cell above is in the last row of the
    block before. Each other cell's 32-byte slot is copied, by one ``take``
    per block, from the slot of the nearest such cell above it in its column.
    A settled trace repeats most of its cells, and a repeated cell then costs
    only the copy and its share of the NUL-dropping ``translate``.

    A cell the kernel cannot certify is formatted alone: a rounding fraction
    within 1e-6 of a tie, a non-finite value, and a nonzero |x| outside
    [1e-280, 1e280]. Signed zeros are in the kernel.
    """
    step = max(1, _CSV_BLOCK_CELLS // cols)
    # buf holds the slots of the last row written, then those of the block's new cells
    buf = above = None
    for i in range(0, rows, step):
        table = block(slice(i, i + step))
        size = table.size
        if buf is None or len(buf) < cols + size:
            grown = np.zeros((cols + size, 4), np.dtype("<u8"))
            if buf is not None:
                grown[:cols] = buf[:cols]
            buf = grown
        bits = table.view(np.uint64)
        new = np.empty(table.shape, bool)
        np.not_equal(bits[1:], bits[:-1], out=new[1:])
        new[0] = True if above is None else bits[0] != above
        above = bits[-1].copy()
        if new.all():  # nothing to copy: the new cells' slots are the block's
            slots = buf[cols:cols + size]
            _csv_cells(table.ravel(), slots)
        else:
            _csv_cells(table[new], buf[cols:cols + np.count_nonzero(new)])
            # a new cell's slot in buf; a repeat's is the last row's for now, then
            # the nearest new cell's above
            src = np.where(new, np.cumsum(new, dtype=np.intp).reshape(new.shape) + (cols - 1),
                           np.arange(cols))
            np.maximum.accumulate(src, axis=0, out=src)
            slots = buf.take(src.ravel(), axis=0)
            del src
        buf[:cols] = slots[-cols:]
        cells = slots.view(np.uint8)
        cells[cols - 1::cols, 30] = ord("\n")  # each row ends its last cell with a newline
        yield cells.tobytes().translate(None, b"\0").decode("ascii")
        del slots, cells  # before the next block's kernel runs


def _cell(x) -> str:
    """A sweep CSV cell: None empty, a bool true or false, an int as is, a stop
    reason its value and a float ``.17g``."""
    if x is None:
        return ""
    if isinstance(x, int):  # a bool too: str(True).lower() is "true"
        return str(x).lower()
    return x.value if isinstance(x, StopReason) else _fmt(x)


def _write_sweep_csv(records, sink) -> None:
    """A row per ``SweepRecord`` and a column per field, where a ``MethodConvergence``
    field spreads into a column per field of its own (``dual_iterations``, ...)."""
    method = [m.name for m in fields(MethodConvergence)]
    columns = [(f.name, m) for f in fields(SweepRecord)
               for m in (method if "MethodConvergence" in str(f.type) else [None])]
    sink.write(",".join(name if m is None else f"{name}_{m}" for name, m in columns) + "\n")
    for rec in records:  # a method the sweep did not run is None: its cells stay empty
        cells = (getattr(rec, name) if m is None else getattr(getattr(rec, name), m, None)
                 for name, m in columns)
        sink.write(",".join(map(_cell, cells)) + "\n")


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


def _csv_file(args):
    """The ``--out-csv`` file, opened for writing, or a null context; a command opens
    it once its result is computed and before it prints the summary, so a path that
    cannot be opened fails the command with nothing on stdout. Lines end in "\n" on
    every platform: newline="" turns off the text layer's newline translation."""
    if not args.out_csv:
        return contextlib.nullcontext()
    return open(args.out_csv, "w", encoding="utf-8", newline="")


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
    with _csv_file(args) as fh:
        _emit(payload)
        if fh is not None:
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
        "steady_state": steady,
    }
    with _csv_file(args) as fh:
        _emit(payload)
        if fh is not None:
            write_trace_csv(trace, fh)
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
    with _csv_file(args) as fh:
        _emit({"parameter": args.param, "records": records})
        if fh is not None:
            _write_sweep_csv(records, fh)
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
