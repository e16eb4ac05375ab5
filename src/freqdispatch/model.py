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
        """The generators' ``Columns``, built on first use: an invalid scenario raises no
        numpy warning while it is built and validated."""
        gens = self.generators  # one list per column: the fastest way in at N = 1000
        a, b, c, p_init = np.array([[g.cost.a for g in gens], [g.cost.b for g in gens],
                                    [g.cost.c for g in gens], [g.p_init for g in gens]], dtype=float)
        two_a = 2.0 * a
        w = 1.0 / two_a
        for col in (a, two_a, b, c, p_init, w):
            col.flags.writeable = False
        return Columns(a, two_a, b, c, p_init, w, float(w.sum()))

    def replace(self, **changes) -> Scenario:
        """``dataclasses.replace`` that shares this scenario's columns unless the
        generators change: the copies with other loads, gains or time constants
        build no columns of their own."""
        out = dataclasses.replace(self, **changes)
        if "generators" not in changes:
            out.__dict__["columns"] = self.columns  # where cached_property keeps its value
        return out


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


def validate_scenario(s: Scenario) -> list[Violation]:
    """Check every scenario invariant; return the (possibly empty) list of violations.

    Reports rather than raises so callers can surface all problems at once.
    """
    out: list[Violation] = []

    if len(s.generators) < 1:
        out.append(Violation("generators", "at least one generator required"))
    seen_ids: set[str] = set()

    def bad(i, field, why):  # formats the path and label only for a failed check
        out.append(Violation(f"generators[{i}].{field}", f"{why} for generator {i + 1}"))
    for i, g in enumerate(s.generators):
        a = g.cost.a
        if not _finite(a):
            bad(i, "cost.a", "a must be finite")
        elif a <= 0:
            bad(i, "cost.a", "a must be > 0")
        elif not 0.0 < 1.0 / (2.0 * a) < math.inf:  # the weight w = 1/(2a), 0 if 2a overflows
            bad(i, "cost.a", "a must keep 2a and 1/(2a) finite")
        if not _finite(g.cost.b):
            bad(i, "cost.b", "b must be finite")
        if not _finite(g.cost.c):
            bad(i, "cost.c", "c must be finite")
        if not _finite(g.p_init):
            bad(i, "p_init", "p_init must be finite")
        if g.id in seen_ids:
            out.append(Violation(f"generators[{i}].id", f"duplicate generator id '{g.id}'"))
        seen_ids.add(g.id)

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
