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
    """``Scenario.generators``. Set, it keeps the generators' ids and their ``Columns``,
    built from their numbers, each read by ``_float``; read, it builds the generators
    from the ids and ``columns.numbers`` once."""

    def __get__(self, s, owner=None) -> tuple[Generator, ...]:
        if s is None:
            raise AttributeError("generators")  # a field without a default
        if "generators" not in s.__dict__:
            a, b, c, p_init = s.columns.numbers.tolist()
            s.__dict__["generators"] = tuple(map(Generator, s._ids,
                                                 map(CostCoefficients, a, b, c), p_init))
        return s.__dict__["generators"]

    def __set__(self, s, generators) -> None:
        gens = tuple(generators)
        costs = [g.cost for g in gens]
        rows = ([c.a for c in costs], [c.b for c in costs], [c.c for c in costs],
                [g.p_init for g in gens])
        s.__dict__.update(generators=gens, _ids=tuple([g.id for g in gens]),
                          columns=Columns.of(*[list(map(_float, row)) for row in rows]))


@dataclass(frozen=True, eq=False)
class Scenario:
    """The complete problem instance.

    ``generators`` and ``loads`` are ordered; the total demand is the sum
    of the load entries. ``gain_K`` converts frequency deviation into a
    price correction, ``beta`` converts power imbalance into frequency
    deviation, and ``tau`` is both the discrete iteration step size and
    the controller time constant. The generators are kept as their ids and
    ``columns``, built with the scenario, whose ``numbers`` block validation,
    equality and hashing read; ``generators`` is built from those on first read.
    Each load, like each generator number, is read by ``_float``, so one that is
    not a number or not finite becomes a violation of ``validate_scenario``.
    """

    generators: tuple[Generator, ...] = _GeneratorView()
    loads: tuple[float, ...]
    gain_K: float
    beta: float
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "loads", tuple(map(_float, self.loads)))

    @classmethod
    def _of(cls, ids, columns, loads, gain_K, beta, tau) -> Scenario:
        """The scenario of generator ``ids`` and their ``columns``, without generators."""
        s = cls.__new__(cls)
        s.__dict__.update(_ids=tuple(ids), columns=columns, loads=tuple(map(_float, loads)),
                          gain_K=gain_K, beta=beta, tau=tau)
        return s

    def _key(self) -> tuple:
        return (self._ids, tuple(map(tuple, self.columns.numbers.tolist())), self.loads,
                self.gain_K, self.beta, self.tau)

    def __eq__(self, other):  # the dataclass's, on the ids and numbers
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def replace(self, **changes) -> Scenario:
        """``dataclasses.replace``; a copy that keeps the generators builds none, and
        shares this scenario's columns."""
        if "generators" in changes:
            return dataclasses.replace(self, **changes)
        fields = {"loads": self.loads, "gain_K": self.gain_K, "beta": self.beta,
                  "tau": self.tau, **changes}
        return Scenario._of(self._ids, self.columns, **fields)


# The row length from which _row_sum adds with np.add.accumulate. The Python loop costs
# about 0.13 us + 27 ns a float, the array pass, np.errstate included, about 1.8 us + 3 ns
# a float: they cross at 68-72 floats (x86-64, Python 3.11, numpy 2.4).
_ACCUMULATE_FROM = 72


def _row_sum(row: np.ndarray) -> float:
    """The floats of a 1-D float64 row added one at a time, left to right, from 0.0:
    the bits of Python 3.10 and 3.11's builtin ``sum`` of them, on every interpreter.
    From 3.12 ``sum`` compensates its rounding (Neumaier), which moves last bits.

    A row shorter than ``_ACCUMULATE_FROM`` is added by a Python loop, a longer one by
    np.add.accumulate, which adds in index order: its last entry is the loop's sum up
    to the sign of a zero, and the leading 0.0 + sets that sign as the loop does. A sum
    that overflows is inf, and one that meets inf - inf is nan, with no RuntimeWarning.
    """
    if len(row) < _ACCUMULATE_FROM:
        total = 0.0
        for x in row.tolist():
            total += x
        return total
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.0 + float(np.add.accumulate(row)[-1])


def _read_only(col: np.ndarray) -> np.ndarray:
    col.setflags(write=False)
    return col


@dataclass(frozen=True, eq=False)
class Columns:
    """Read-only float64 columns of the generators: ``numbers``, the (4, N) block whose
    rows are a, b, c and p_init, and the rank-one kernel 2a, w = 1/(2a) and S = ``slope``
    = sum(w); elementwise they give the bits of the scalar cost functions."""

    numbers: np.ndarray
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
        derived from ``a``: the one place generator numbers become float64. An ``a``
        that ``validate_scenario`` refuses gives inf, 0 or nan there, with no
        RuntimeWarning."""
        numbers = _read_only(np.array([a, b, c, p_init], dtype=float))
        a, b, c, p_init = numbers  # read-only rows
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            two_a = _read_only(2.0 * a)
            w = _read_only(1.0 / two_a)
            # np.add.reduce is w.sum()'s pairwise sum, bit for bit, without its Python layer
            return cls(numbers, a, two_a, b, c, p_init, w, float(np.add.reduce(w)))

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
    """Total demand, the sum of all load entries (MW), added left to right."""
    return _row_sum(np.array(s.loads))


@dataclass(frozen=True)
class Violation:
    """One failed scenario invariant: a field path plus a human message."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


def _float(x) -> float:
    """``x`` as the scenario file parser reads it: an int or float, and a numpy
    integer or floating scalar, as its float, an int past the float range as inf or
    -inf, and anything else as NaN. A bool is an int; a ``np.bool_`` is not."""
    if not isinstance(x, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _finite(x) -> bool:
    """Whether ``x`` is a number that is finite as ``_float`` reads it."""
    return math.isfinite(_float(x))


_FIELDS = (("cost.a", "a"), ("cost.b", "b"), ("cost.c", "c"), ("p_init", "p_init"))


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check every scenario invariant; return the (possibly empty) list of violations.

    Reports rather than raises so callers can surface all problems at once. The
    generator rules are array expressions over the scenario's columns: b, c and
    p_init finite, and 0 < w < inf for the weight w = 1/(2a), which also rejects an
    a that is not finite or not positive. Only the rows that break a rule, or
    repeat an id, are walked, and their violations come out by generator, then field.
    """
    out: list[Violation] = []
    ids, numbers, w = s._ids, s.columns.numbers, s.columns.w
    if len(ids) < 1:
        out.append(Violation("generators", "at least one generator required"))

    ok = np.isfinite(numbers)
    ok[0] = (w > 0.0) & (w < math.inf)
    if not ok.all() or len(set(ids)) < len(ids):
        first: dict[str, int] = {}  # id -> the first generator that holds it
        duplicates = {i for i, x in enumerate(ids) if first.setdefault(x, i) != i}
        for i in sorted({*np.flatnonzero(~ok.all(axis=0)).tolist(), *duplicates}):
            for (field, name), good, x in zip(_FIELDS, ok[:, i].tolist(), numbers[:, i].tolist()):
                if not good:
                    why = (f"{name} must be finite" if not math.isfinite(x) else
                           "a must be > 0" if x <= 0 else "a must keep 2a and 1/(2a) finite")
                    out.append(Violation(f"generators[{i}].{field}",
                                         f"{why} for generator {i + 1}"))
            if i in duplicates:
                out.append(Violation(f"generators[{i}].id", f"duplicate generator id '{ids[i]}'"))
    if ids and not math.isfinite(s.columns.slope) and ok[0].all():
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
