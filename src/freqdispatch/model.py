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


class _GeneratorView:
    """``Scenario.generators``. Set, it keeps the generators' ids and number columns
    a, b, c and p_init, a scenario's data; read, it builds the generators from those once."""

    def __get__(self, s, owner=None) -> tuple[Generator, ...]:
        if s is None:
            raise AttributeError("generators")  # a field without a default
        if "generators" not in s.__dict__:
            a, b, c, p_init = s._numbers
            s.__dict__["generators"] = tuple(map(Generator, s._ids,
                                                 map(CostCoefficients, a, b, c), p_init))
        return s.__dict__["generators"]

    def __set__(self, s, generators) -> None:
        gens = tuple(generators)
        costs = [g.cost for g in gens]  # one list per column: the fastest way in
        s.__dict__.update(generators=gens, _ids=tuple([g.id for g in gens]), _numbers=tuple(map(
            tuple, ([c.a for c in costs], [c.b for c in costs], [c.c for c in costs],
                    [g.p_init for g in gens]))))


@dataclass(frozen=True, eq=False)
class Scenario:
    """The complete problem instance.

    ``generators`` and ``loads`` are ordered; the total demand is the sum
    of the load entries. ``gain_K`` converts frequency deviation into a
    price correction, ``beta`` converts power imbalance into frequency
    deviation, and ``tau`` is both the discrete iteration step size and
    the controller time constant. The generators are kept as their ids and
    number columns; ``generators`` is built from those on first read.
    """

    generators: tuple[Generator, ...] = _GeneratorView()
    loads: tuple[float, ...]
    gain_K: float
    beta: float
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "loads", tuple(map(float, self.loads)))

    @classmethod
    def _of(cls, ids, numbers, loads, gain_K, beta, tau, columns=None) -> Scenario:
        """The scenario of generator ``ids`` and their ``numbers`` (a, b, c, p_init),
        built without generators; ``columns``, if given, must be those numbers'."""
        s = cls.__new__(cls)
        s.__dict__.update(_ids=tuple(ids), _numbers=tuple(map(tuple, numbers)),
                          loads=tuple(map(float, loads)), gain_K=gain_K, beta=beta, tau=tau)
        if columns is not None:
            s.__dict__["columns"] = columns  # where cached_property keeps its value
        return s

    def _key(self) -> tuple:
        return self._ids, self._numbers, self.loads, self.gain_K, self.beta, self.tau

    def __eq__(self, other):  # the dataclass's, on the columns
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def columns(self) -> Columns:
        """The generators' ``Columns``, built on first use: a scenario file's after it
        is validated, so that an invalid scenario raises no numpy warning."""
        return Columns.of(*self._numbers)

    def replace(self, **changes) -> Scenario:
        """``dataclasses.replace``; a copy that keeps the generators builds none, and
        shares this scenario's columns."""
        if "generators" in changes:
            return dataclasses.replace(self, **changes)
        fields = {"loads": self.loads, "gain_K": self.gain_K, "beta": self.beta,
                  "tau": self.tau, **changes}
        return Scenario._of(self._ids, self._numbers, **fields, columns=self.columns)

    def with_p_init(self, p_init) -> Scenario:
        """This scenario with the generators' initial outputs set to ``p_init``, one
        value per generator (else ValueError); its columns share ``a``, ``2a``, ``b``,
        ``c`` and ``w`` with this one's."""
        if len(p_init := tuple(p_init)) != len(self._ids):
            raise ValueError(f"p_init holds {len(p_init)} values for {len(self._ids)} generators")
        columns = dataclasses.replace(self.columns, p_init=_read_only(np.array(p_init, float)))
        return Scenario._of(self._ids, (*self._numbers[:3], p_init), self.loads, self.gain_K,
                            self.beta, self.tau, columns)


def _row_sum(row: np.ndarray) -> float:
    """The sum of a float64 row as the builtin ``sum`` of its floats adds them."""
    return sum(row.tolist())


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
        # np.add.reduce is y.sum()'s pairwise sum, bit for bit, without its Python layer
        return y - self.w * (rho * float(np.add.reduce(y)) / (1.0 + rho * self.slope))

    def total_cost(self, p) -> float:
        """Sum of a*p**2 + b*p + c over the units, added left to right."""
        return _row_sum(self.a * p * p + self.b * p + self.c)

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
    """Whether ``x`` is an int or float that is finite as a float; an int past the
    float range counts as infinite, as the scenario file parser reads it."""
    try:
        return isinstance(x, (int, float)) and math.isfinite(x)
    except OverflowError:
        return False


_PLAIN_NUMBERS = frozenset({float, int})


def _all_finite(col) -> bool:
    """``all(map(_finite, col))`` in C-level passes, for plain ints and floats;
    False (so the caller walks the column) when another type or an int past
    the float range is present."""
    try:
        return set(map(type, col)) <= _PLAIN_NUMBERS and all(map(math.isfinite, col))
    except OverflowError:
        return False


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


def _slopes_ok(a) -> bool:
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
    ids, numbers = s._ids, s._numbers
    if len(ids) < 1:
        out.append(Violation("generators", "at least one generator required"))

    failed: dict[int, list[Violation]] = {}  # generator index -> its violations, in field order
    slopes_ok = bool(ids)  # every a passes its own rule
    for (field, name), col in zip(_FIELDS, numbers if ids else ()):
        if _all_finite(col) and (name != "a" or _slopes_ok(col)):
            continue
        for i, x in enumerate(col):
            if (why := _problem(name, x)) is not None:
                slopes_ok = slopes_ok and name != "a"
                failed.setdefault(i, []).append(
                    Violation(f"generators[{i}].{field}", f"{why} for generator {i + 1}"))
    if len(set(ids)) < len(ids):
        seen_ids: set[str] = set()
        for i, x in enumerate(ids):
            if x in seen_ids:
                failed.setdefault(i, []).append(
                    Violation(f"generators[{i}].id", f"duplicate generator id '{x}'"))
            seen_ids.add(x)
    for i in sorted(failed):
        out += failed[i]
    with np.errstate(over="ignore"):  # S as Columns.of sums it, once each 1/(2a) is finite
        if slopes_ok and not math.isfinite((1.0 / (2.0 * np.array(numbers[0], float))).sum()):
            out.append(Violation("generators", "the total slope sum 1/(2a) must be finite"))

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
