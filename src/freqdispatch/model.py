"""Problem data for quadratic-cost dispatch and frequency control.

Every other module consumes these types. All of them are immutable value
objects: construct them once, share them freely between threads, never
mutate them.

Units used throughout the package: power in MW, price in $/MWh, frequency
deviation in Hz, ``gain_K`` in ($/MWh)/Hz, ``beta`` in MW/Hz, ``tau`` in
seconds.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "ControllerConfig",
    "ControllerKind",
    "CostCoefficients",
    "DispatchSolution",
    "Generator",
    "Scenario",
    "Violation",
    "cost_value",
    "ensure_valid",
    "integral_gain",
    "marginal_cost",
    "total_load",
    "validate_scenario",
]


@dataclass(frozen=True)
class CostCoefficients:
    """Quadratic generation cost  a*p**2 + b*p + c  in $/h.

    ``a`` ($/MW^2 h) must be strictly positive: every closed form in this
    package divides by it. ``b`` is $/MWh. ``c`` ($/h) shifts the total
    cost and influences nothing else (its derivative is zero).
    """

    a: float
    b: float
    c: float = 0.0


@dataclass(frozen=True)
class Generator:
    """One dispatchable unit: identifier, cost curve, initial output (MW)."""

    id: str
    cost: CostCoefficients
    p_init: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """The complete problem instance.

    ``generators`` and ``loads`` are ordered; the total demand is the sum
    of the load entries. ``gain_K`` converts frequency deviation into a
    price correction, ``beta`` converts power imbalance into frequency
    deviation, and ``tau`` is both the discrete iteration step size and
    the controller time constant.
    """

    generators: tuple[Generator, ...]
    loads: tuple[float, ...]
    gain_K: float
    beta: float
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "loads", tuple(float(x) for x in self.loads))

    @cached_property
    def columns(self) -> Columns:
        """The generators' ``Columns``. ``cli.parse_scenario_file`` builds them from the
        file's lists once the scenario is valid; any other scenario builds them on first
        use, so that an invalid one raises no numpy warning while it is validated."""
        costs = [g.cost for g in self.generators]  # one list per column: the fastest way in
        return Columns.of([c.a for c in costs], [c.b for c in costs], [c.c for c in costs],
                          [g.p_init for g in self.generators])

    def replace(self, **changes) -> Scenario:
        """``dataclasses.replace`` that shares this scenario's columns unless the
        generators change: the copies with other loads, gains or time constants
        build no columns of their own."""
        out = dataclasses.replace(self, **changes)
        if "generators" not in changes:
            _cache_columns(out, self.columns)
        return out

    def with_p_init(self, p_init) -> Scenario:
        """This scenario with the generators' initial outputs set to ``p_init``; its
        columns share ``a``, ``2a``, ``b``, ``c`` and ``w`` with this one's."""
        gens = self.generators
        out = dataclasses.replace(self, generators=tuple(map(
            Generator, [g.id for g in gens], [g.cost for g in gens], p_init)))
        return _cache_columns(out, dataclasses.replace(
            self.columns, p_init=_read_only(np.array(p_init, dtype=float))))


def _cache_columns(s: Scenario, columns: Columns) -> Scenario:
    """``s`` with ``columns`` as its built columns, which must be the generators'."""
    s.__dict__["columns"] = columns  # where cached_property keeps its value
    return s


def _read_only(col: np.ndarray) -> np.ndarray:
    col.setflags(write=False)
    return col


@dataclass(frozen=True, eq=False)
class Columns:
    """Read-only float64 columns of the generators and their rank-one kernel w = 1/(2a),
    S = ``slope`` = sum(w); elementwise they give the bits of the scalar cost functions."""

    a: np.ndarray
    two_a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p_init: np.ndarray
    w: np.ndarray
    slope: float

    @classmethod
    def of(cls, a, b, c, p_init) -> Columns:
        """The columns of four equal-length sequences of numbers, with 2a, w and S
        derived from ``a``: the one place columns are built."""
        a, b, c, p_init = _read_only(np.array([a, b, c, p_init], dtype=float))  # read-only rows
        two_a = _read_only(2.0 * a)
        w = _read_only(1.0 / two_a)
        return cls(a, two_a, b, c, p_init, w, float(w.sum()))

    def solve(self, rho: float, r) -> np.ndarray:
        """p of (diag(2a) + rho * ones) p = r in O(N) by Sherman-Morrison, y = w * r."""
        y = self.w * r
        return y - self.w * (rho * float(y.sum()) / (1.0 + rho * self.slope))

    def total_cost(self, p) -> float:
        """Sum of a*p**2 + b*p + c over the units, added left to right."""
        return sum((self.a * p * p + self.b * p + self.c).tolist())

    def marginal(self, p) -> np.ndarray:
        """2*a*p + b per unit."""
        return self.two_a * p + self.b


@dataclass(frozen=True)
class DispatchSolution:
    """Optimal dispatch: power vector, clearing price, total cost ($/h)."""

    p: tuple[float, ...]
    lambda_star: float
    total_cost: float


class ControllerKind(Enum):
    INTEGRAL = "integral"
    PROPORTIONAL_INTEGRAL = "pi"


@dataclass(frozen=True)
class ControllerConfig:
    """Secondary frequency controller: kind, shared gain, time constant.

    The per-generator gains are derived, not stored; see
    :func:`integral_gain`.
    """

    kind: ControllerKind
    gain_K: float
    tau: float


def cost_value(cost: CostCoefficients, p: float) -> float:
    """Generation cost a*p**2 + b*p + c ($/h) at output ``p`` MW."""
    return cost.a * p * p + cost.b * p + cost.c


def marginal_cost(cost: CostCoefficients, p: float) -> float:
    """Incremental cost 2*a*p + b ($/MWh), the derivative of cost_value."""
    return 2.0 * cost.a * p + cost.b


def integral_gain(cost: CostCoefficients, gain_k: float, tau: float) -> float:
    """Per-generator controller gain K/(2*a*tau).

    This is the coefficient that multiplies -delta_f in the continuous
    integral control law dP/dt = -(K/(2*a*tau)) * delta_f.
    """
    return gain_k / (2.0 * cost.a * tau)


def total_load(s: Scenario) -> float:
    """Total demand, the sum of all load entries (MW)."""
    return sum(s.loads)


@dataclass(frozen=True)
class Violation:
    """One failed scenario invariant: a field path plus a human message."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


_PLAIN_NUMBERS = frozenset({float, int})


def _all_finite(col: list) -> bool:
    """``all(map(_finite, col))`` in C-level passes, for plain ints and floats;
    False (so the caller walks the column) when another type is present."""
    return set(map(type, col)) <= _PLAIN_NUMBERS and all(map(math.isfinite, col))


def _problem(name: str, x) -> str | None:
    """What is wrong with ``x`` as a generator's field ``name`` (a, b, c, p_init), or None."""
    if not _finite(x):
        return f"{name} must be finite"
    if name != "a":
        return None
    if x <= 0:
        return "a must be > 0"
    if not 0.0 < 1.0 / (2.0 * x) < math.inf:  # the weight w = 1/(2a), 0 if 2a overflows
        return "a must keep 2a and 1/(2a) finite"
    return None


def _slopes_ok(a: list) -> bool:
    """Whether every slope in a non-empty column of finite numbers passes ``_problem``:
    fl(1/fl(2a)) falls as a grows, so a > 0 and 0 < 1/(2a) < inf hold for all once
    they hold at the least and the greatest."""
    least, greatest = min(a), max(a)
    return least > 0 and 1.0 / (2.0 * least) < math.inf and 1.0 / (2.0 * greatest) > 0.0


_FIELDS = (("cost.a", "a"), ("cost.b", "b"), ("cost.c", "c"), ("p_init", "p_init"))


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check every scenario invariant; return the (possibly empty) list of violations.

    Reports rather than raises so callers can surface all problems at once. The
    generator fields are checked in bulk; rows are walked only in a column that
    fails, and the violations come out by generator, then field.
    """
    out: list[Violation] = []
    gens = s.generators
    if len(gens) < 1:
        out.append(Violation("generators", "at least one generator required"))

    # a, b, c, p_init of every generator in turn: one list serves the bulk checks
    values = [x for g in gens for x in (g.cost.a, g.cost.b, g.cost.c, g.p_init)]
    failed: dict[int, list[Violation]] = {}  # generator index -> its violations, in field order
    if gens and not (_all_finite(values) and _slopes_ok(values[0::4])):
        for k, (field, name) in enumerate(_FIELDS):
            col = values[k::4]
            if _all_finite(col) and (name != "a" or _slopes_ok(col)):
                continue
            for i, x in enumerate(col):
                if (why := _problem(name, x)) is not None:
                    failed.setdefault(i, []).append(
                        Violation(f"generators[{i}].{field}", f"{why} for generator {i + 1}"))
    ids = [g.id for g in gens]
    if len(set(ids)) < len(ids):
        seen_ids: set[str] = set()
        for i, x in enumerate(ids):
            if x in seen_ids:
                failed.setdefault(i, []).append(
                    Violation(f"generators[{i}].id", f"duplicate generator id '{x}'"))
            seen_ids.add(x)
    for i in sorted(failed):
        out += failed[i]

    if len(s.loads) < 1:
        out.append(Violation("loads", "at least one load required"))
    for j, d in enumerate(s.loads):
        if not _finite(d):
            out.append(Violation(f"loads[{j}]", f"load {j + 1} must be finite"))

    for name, value in (("gain_K", s.gain_K), ("beta", s.beta), ("tau", s.tau)):
        if not _finite(value):
            out.append(Violation(name, f"{name} must be finite"))
        elif value <= 0:
            out.append(Violation(name, f"{name} must be > 0"))

    return out


def ensure_valid(s: Scenario) -> Scenario:
    """Return ``s`` unchanged, or raise ValueError listing every violation."""
    violations = validate_scenario(s)
    if violations:
        raise ValueError("invalid scenario: " + "; ".join(str(v) for v in violations))
    return s
