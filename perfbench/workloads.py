"""Seeded inputs, command lists and independent output checks for each workload.

Every expected value here is computed from the generated cost data with the
closed forms below, never by calling the program: the equal-incremental-cost
optimum, the affine contraction of the two price iterations, and the single
exponential decay of the quasi-static closed loop. With S = sum 1/(2 a_i):

    lambda* = (D + sum b_i/(2 a_i)) / S,     p_i* = (lambda* - b_i) / (2 a_i)
    dual ascent imbalance ratio   c = |1 - alpha S|
    method of multipliers ratio   c = 1 / (1 + rho S)
    integral loop decay rate      r = K S / (tau beta)
    PI loop decay rate            r = K S / (tau (beta + K S))
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

LOAD_STEP = 1.2      # post-step loads are LOAD_STEP times the scenario loads
SETTLE_EPS = 1e-4    # the CLI's default settling band (Hz)


@dataclass
class Case:
    """One generated scenario file and the data the checks derive from."""

    path: Path
    a: np.ndarray
    b: np.ndarray
    p_init: np.ndarray
    loads: list[float]
    gain_K: float
    beta: float
    tau: float
    lambda0: float | None = None           # solver block warm start
    simulation: dict | None = None          # simulation block as written

    @property
    def demand(self) -> float:
        return float(sum(self.loads))

    @property
    def slope(self) -> float:
        return float(np.sum(1.0 / (2.0 * self.a)))

    def optimum(self, demand: float | None = None) -> tuple[float, np.ndarray]:
        d = self.demand if demand is None else demand
        lam = (d + float(np.sum(self.b / (2.0 * self.a)))) / self.slope
        return lam, (lam - self.b) / (2.0 * self.a)

    def warm_price(self) -> float:
        if self.lambda0 is not None:
            return self.lambda0
        return float(2.0 * self.a[0] * self.p_init[0] + self.b[0])

    def write(self) -> None:
        gens = [{"id": f"G{i + 1}",
                 "cost": {"a": float(a), "b": float(b), "c": 0.0},
                 "p_init": float(p)}
                for i, (a, b, p) in enumerate(zip(self.a, self.b, self.p_init))]
        doc: dict = {"format_version": 1,
                     "scenario": {"generators": gens, "loads": self.loads,
                                  "gain_K": self.gain_K, "beta": self.beta,
                                  "tau": self.tau}}
        if self.lambda0 is not None:
            doc["solver"] = {"lambda0": self.lambda0}
        if self.simulation is not None:
            doc["simulation"] = self.simulation
        self.path.write_text(json.dumps(doc), encoding="utf-8")


@dataclass
class Command:
    """One CLI invocation, its command family and the check of its JSON output."""

    family: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    csv: Path | None = None
    csv_check: Callable[[dict, Path], list[str]] | None = None
    reduced: bool = False  # runs on fleet-1000's three-area equivalent


@dataclass
class Workload:
    files: list[Path]
    commands: list[Command] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Closed forms

def expected_iterations(e0: float, c: float, tol: float) -> int:
    """Steps until |e0| c^k < tol for an imbalance that contracts by c per step."""
    if abs(e0) < tol:
        return 0
    if c < 1e-12:
        return 1  # deadbeat: one step leaves rounding residue only
    return math.ceil(math.log(abs(e0) / tol) / math.log(1.0 / c))


def decay_rate(case: Case, controller: str, gain_K: float) -> float:
    ks = gain_K * case.slope
    if controller == "integral":
        return ks / (case.tau * case.beta)
    return ks / (case.tau * (case.beta + ks))


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# Checks. Each returns the list of violated expectations (empty when correct).

def check_dispatch(case: Case, grid_step: float | None) -> Callable[[dict], list[str]]:
    d = case.demand
    lam_star, p_star = case.optimum()
    tol = 1e-9 * max(1.0, abs(d))

    def check(out: dict) -> list[str]:
        errs = []
        p = np.asarray(out["p"], dtype=float)
        if p.shape != p_star.shape:
            return [f"dispatch has {p.size} powers, expected {p_star.size}"]
        if abs(p.sum() - d) > tol:
            errs.append(f"sum p = {p.sum()!r}, demand {d!r}")
        marginals = 2.0 * case.a * p + case.b
        if marginals.max() - marginals.min() > tol:
            errs.append(f"marginal cost spread {marginals.max() - marginals.min():.3e}")
        if not _close(out["lambda_star"], lam_star):
            errs.append(f"lambda* = {out['lambda_star']!r}, closed form {lam_star!r}")
        if grid_step is not None:
            po = np.asarray(out["oracle"]["p"], dtype=float)
            gap = float(np.max(np.abs(po - p_star)))
            if gap > grid_step * (1.0 + 1e-9):
                errs.append(f"oracle gap {gap!r} exceeds grid step {grid_step!r}")
            if abs(po.sum() - d) > tol:
                errs.append(f"oracle sum p = {po.sum()!r}, demand {d!r}")
        return errs

    return check


def _method_errors(label: str, rec: dict | None, e0: float, c: float, tol: float) -> list[str]:
    if rec is None:
        return [f"{label}: missing"]
    errs = []
    if not rec["converged"] or rec["stop_reason"] != "tolerance":
        errs.append(f"{label}: stopped by {rec['stop_reason']}")
    want = expected_iterations(e0, c, tol)
    if abs(rec["iterations"] - want) > 1:
        errs.append(f"{label}: {rec['iterations']} iterations, closed form {want}")
    if "predicted_ratio" in rec and abs(rec["predicted_ratio"] - c) > 1e-12 * max(1.0, c):
        errs.append(f"{label}: predicted ratio {rec['predicted_ratio']!r}, expected {c!r}")
    return errs


def _initial_imbalance(case: Case, method: str, coupling: float, lam0: float) -> float:
    lam_star, _ = case.optimum()
    e0 = case.slope * (lam_star - lam0)
    return e0 if method == "dual" else e0 / (1.0 + coupling * case.slope)


def _ratio(case: Case, method: str, coupling: float) -> float:
    if method == "dual":
        return abs(1.0 - coupling * case.slope)
    return 1.0 / (1.0 + coupling * case.slope)


def check_iterate(case: Case, method: str, tol: float = 1e-6) -> Callable[[dict], list[str]]:
    coupling = case.gain_K / case.beta
    e0 = _initial_imbalance(case, method, coupling, case.warm_price())
    c = _ratio(case, method, coupling)

    def check(out: dict) -> list[str]:
        errs = _method_errors(method, out, e0, c, tol)
        p = np.asarray(out["p"], dtype=float)
        if not abs(out["imbalance"]) < tol or not abs(case.demand - p.sum()) < tol:
            errs.append(f"imbalance {out['imbalance']!r} not below tol {tol}")
        return errs

    return check


def _settling_expected(case: Case, controller: str, gain_K: float,
                       t_event: float, df0: float) -> float:
    return t_event + math.log(abs(df0) / SETTLE_EPS) / decay_rate(case, controller, gain_K)


def check_simulate(case: Case, controller: str) -> tuple[Callable, Callable]:
    sim = case.simulation
    h, t_end = sim["h"], sim["t_end"]
    (event,) = sim["events"]
    d_post = float(sum(event["loads"]))
    _, p_post = case.optimum(d_post)
    df0 = (case.demand - d_post) / case.beta  # economic start, balanced before the step
    settle = _settling_expected(case, controller, case.gain_K, event["time"], df0)
    samples = int(round(t_end / h)) + 1
    n = len(case.a)

    def check(out: dict) -> list[str]:
        errs = []
        if out["samples"] != samples:
            errs.append(f"{out['samples']} samples, expected {samples}")
        if not out["steady_state"]["passed"]:
            errs.append(f"steady-state check failed: {out['steady_state']['failures']}")
        gap = float(np.max(np.abs(np.asarray(out["final_p"]) - p_post)))
        if gap > 1e-6 * max(1.0, float(np.max(np.abs(p_post)))):
            errs.append(f"final powers {gap:.3e} from the post-step optimum")
        ts = out["settling_time"]
        if ts is None or abs(ts - settle) > h + 1e-9:
            errs.append(f"settling time {ts!r}, closed form {settle!r} (h = {h})")
        return errs

    def csv_check(out: dict, path: Path) -> list[str]:
        # streamed, so the check holds one row at a time, not the whole file
        rows = bad = 0
        last = ""
        with path.open(encoding="utf-8") as fh:
            for last in fh:
                rows += 1
                bad += last.count(",") != 2 * n + 1
        errs = []
        if rows != out["samples"] + 1:
            errs.append(f"CSV has {rows} rows, expected {out['samples'] + 1}")
        if bad:
            errs.append(f"{bad} CSV rows without {2 * n + 2} columns")
        last = last.split(",")
        if float(last[0]) != out["final_t"] or \
                [float(x) for x in last[1:n + 1]] != out["final_p"]:
            errs.append("last CSV row does not parse back to final_t/final_p")
        return errs

    return check, csv_check


def check_equivalence(case: Case, pair: str, steps: int,
                      lambda0: float | None) -> Callable[[dict], list[str]]:
    _, p_star = case.optimum()
    # the command takes its warm start from --lambda0 only, never the solver block
    lam0 = lambda0 if lambda0 is not None else \
        float(2.0 * case.a[0] * case.p_init[0] + case.b[0])
    p0 = (lam0 - case.b) / (2.0 * case.a)
    # every iterate lies within |p0 - p*| of p*, since the price error never grows
    scale = max(1.0, float(np.max(np.abs(p_star) + np.abs(p0 - p_star))))

    def check(out: dict) -> list[str]:
        errs = []
        if out["pair"] != pair or out["steps"] != steps:
            errs.append(f"ran {out['pair']} for {out['steps']} steps")
        if not out["max_abs_deviation"] < 1e-9 * scale:
            errs.append(f"residue {out['max_abs_deviation']!r} above {1e-9 * scale:.3e}")
        return errs

    return check


def check_sweep(case: Case, param: str, values: list[float],
                tol: float = 1e-6) -> Callable[[dict], list[str]]:
    lam0 = case.warm_price()

    def expected(v):
        if param == "rho":
            return {"mom": (_initial_imbalance(case, "mom", v, lam0), _ratio(case, "mom", v))}
        coupling = v / case.beta  # param == "K"
        return {m: (_initial_imbalance(case, m, coupling, lam0), _ratio(case, m, coupling))
                for m in ("dual", "mom")}

    # compare_convergence: economic start, step to LOAD_STEP x loads at t = tau
    df0 = (1.0 - LOAD_STEP) * case.demand / case.beta
    h = case.tau / 100.0

    def check(out: dict) -> list[str]:
        recs = out["records"]
        if out["parameter"] != param or [r["value"] for r in recs] != values:
            return [f"sweep over {out['parameter']} {[r['value'] for r in recs]}"]
        errs = []
        for v, rec in zip(values, recs):
            exp = expected(v)
            for method in ("dual", "mom"):
                if method in exp:
                    errs += _method_errors(f"{param}={v} {method}", rec[method], *exp[method], tol)
                elif rec[method] is not None:
                    errs.append(f"{param}={v}: unexpected {method} record")
            for controller in ("integral", "pi"):
                got = rec[f"settling_{controller}"]
                if param == "K":
                    want = _settling_expected(case, controller, v, case.tau, df0)
                    if got is None or abs(got - want) > h + 1e-9:
                        errs.append(f"K={v} {controller} settling {got!r}, closed form {want!r}")
                elif got is not None:
                    errs.append(f"{param}={v}: unexpected {controller} settling time")
        return errs

    return check


# ---------------------------------------------------------------------------
# Commands

def _dispatch_command(case: Case, grid_step: float | None) -> Command:
    oracle = [] if grid_step is None else ["--oracle", "--grid-step", repr(grid_step)]
    return Command("solve", ["dispatch", str(case.path), *oracle],
                   check_dispatch(case, grid_step))


def _iterate_commands(case: Case) -> list[Command]:
    return [Command("solve", ["iterate", str(case.path), "--method", method],
                    check_iterate(case, method))
            for method in ("dual", "mom")]


def _simulate_commands(case: Case, outdir: Path) -> list[Command]:
    cmds = []
    for controller in ("integral", "pi"):
        csv = outdir / f"simulate-{controller}.csv"
        check, csv_check = check_simulate(case, controller)
        cmds.append(Command("simulate", ["simulate", str(case.path), "--controller", controller,
                                         "--out-csv", str(csv)],
                            check, csv=csv, csv_check=csv_check))
    return cmds


def _equivalence_commands(case: Case, steps: int | None = None,
                          lambda0: float | None = None) -> list[Command]:
    cmds = []
    for pair in ("dual-integral", "mom-pi"):
        argv = ["equivalence", str(case.path), "--pair", pair]
        if steps is not None:
            argv += ["--steps", str(steps)]
        if lambda0 is not None:
            argv += ["--lambda0", repr(lambda0)]
        cmds.append(Command("experiment", argv,
                            check_equivalence(case, pair, steps or 200, lambda0)))
    return cmds


def _sweep_command(case: Case, param: str, values: list[float]) -> Command:
    return Command("experiment",
                   ["sweep", str(case.path), "--param", param,
                    "--values", *(repr(v) for v in values)],
                   check_sweep(case, param, values))


# ---------------------------------------------------------------------------
# Workloads

SMALL_PER_N = 8            # random scenarios per generator count N in {1, 2, 3}
SMALL_K_SWEEP = [0.5, 1.5]


def _random_small(rng, n: int, d_total: float, path: Path) -> Case:
    """Drawn like tests/conftest.py::random_scenarios, with a stable beta.

    a in [0.1, 5], b in [0, 20], the demand split over n loads, p_init = 0;
    draws whose optimum lies outside 1.5x the demand are redrawn so the
    oracle's box [-2D, 2D] holds it with margin. beta = K S / gamma with
    gamma in [0.25, 1.75], so the default alpha = rho = K/beta gives
    |1 - alpha S| <= 0.75.
    """
    while True:
        a = rng.uniform(0.1, 5.0, size=n)
        b = rng.uniform(0.0, 20.0, size=n)
        frac = rng.random(n)
        loads = [float(d_total * f / frac.sum()) for f in frac]
        gamma = rng.uniform(0.25, 1.75)
        slope = float(np.sum(1.0 / (2.0 * a)))
        case = Case(path, a, b, np.zeros(n), loads, 1.0, slope / gamma, 1.0)
        if np.max(np.abs(case.optimum()[1])) <= 1.5 * abs(d_total):
            return case


def paper_small(seed: int, outdir: Path) -> Workload:
    """The README's reference scenario plus a seeded batch of N <= 3 scenarios."""
    ref = Case(outdir / "reference.json", np.array([0.5, 1.0]), np.array([1.0, 2.0]),
               np.array([7.0, 3.0]), [6.0, 4.0], 1.0, 1.5, 1.0, lambda0=0.0,
               simulation={"controller": "integral",
                           "h": 0.01, "t_end": 100.0,  # the CLI defaults tau/100, 100 tau
                           "events": [{"time": 1.0, "loads": [6.0 * LOAD_STEP,
                                                              4.0 * LOAD_STEP]}]})
    rng = np.random.default_rng(seed)
    batch = []
    for n in (1, 2, 3):
        for k in range(SMALL_PER_N):
            # demand stratified over [1, 50] so every seed spans the range evenly
            d_total = 1.0 + 49.0 * (k + rng.random()) / SMALL_PER_N
            batch.append(_random_small(rng, n, d_total, outdir / f"small-{n}-{k}.json"))
    cases = [ref, *batch]
    for case in cases:
        case.write()

    wl = Workload([c.path for c in cases])
    for case in cases:
        wl.commands += [_dispatch_command(case, grid_step=0.01), *_iterate_commands(case)]
    wl.commands += _simulate_commands(ref, outdir)
    for case in batch:
        wl.commands += _equivalence_commands(case)
    wl.commands.append(_sweep_command(ref, "K", SMALL_K_SWEEP))
    return wl


FLEET_N = 1000
FLEET_GAMMA = 0.8          # K S / beta: dual ratio 0.2, MoM ratio 1/1.8
FLEET_LOADS = 10
FLEET_H, FLEET_T_END = 0.25, 50.0
FLEET_WARM_OFFSET = 0.025  # initial imbalance of the iterations, as a share of demand
FLEET_EQUIVALENCE_STEPS = 20
FLEET_AREAS = 3


def fleet_1000(seed: int, outdir: Path) -> Workload:
    """A seeded 1000-unit fleet and its three-area equivalent."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 5.0, size=FLEET_N)
    b = rng.uniform(0.0, 20.0, size=FLEET_N)
    d_total = 30.0 * FLEET_N
    frac = rng.random(FLEET_LOADS)
    loads = [float(d_total * f / frac.sum()) for f in frac]
    slope = float(np.sum(1.0 / (2.0 * a)))
    beta = slope / FLEET_GAMMA  # with K = 1
    fleet = Case(outdir / "fleet.json", a, b, np.zeros(FLEET_N), loads, 1.0, beta, 1.0)
    lam_star, p_star = fleet.optimum()
    fleet.p_init = p_star  # economic start, so the loop must land on the new optimum
    fleet.lambda0 = lam_star - FLEET_WARM_OFFSET * d_total / slope
    fleet.simulation = {"controller": "integral", "h": FLEET_H, "t_end": FLEET_T_END,
                        "events": [{"time": 1.0, "loads": [x * LOAD_STEP for x in loads]}]}

    # Each area's aggregate supply curve sum (lam - b_i)/(2 a_i) is that of one
    # unit with 1/(2 a) = S_area and b/(2 a) = sum b_i/(2 a_i), so the
    # equivalent clears at the fleet's lambda* and decays at the fleet's rates.
    groups = np.array_split(np.arange(FLEET_N), FLEET_AREAS)
    s_area = np.array([np.sum(1.0 / (2.0 * a[g])) for g in groups])
    b_area = np.array([np.sum(b[g] / (2.0 * a[g])) for g in groups])
    areas = Case(outdir / "areas.json", 1.0 / (2.0 * s_area), b_area / s_area,
                 np.array([p_star[g].sum() for g in groups]), loads, 1.0, beta, 1.0,
                 lambda0=fleet.lambda0)
    for case in (fleet, areas):
        case.write()

    oracle = _dispatch_command(areas, grid_step=d_total / 5000.0)
    area_sweep = _sweep_command(areas, "K", [1.0])
    oracle.reduced = area_sweep.reduced = True
    wl = Workload([fleet.path, areas.path])
    wl.commands += [_dispatch_command(fleet, grid_step=None), *_iterate_commands(fleet), oracle]
    wl.commands += _simulate_commands(fleet, outdir)
    wl.commands += _equivalence_commands(fleet, FLEET_EQUIVALENCE_STEPS, fleet.lambda0)
    wl.commands += [_sweep_command(fleet, "rho", [1.0 / slope, 4.0 / slope]), area_sweep]
    return wl


WORKLOADS = {"paper-small": paper_small, "fleet-1000": fleet_1000}


def build(name: str, seed: int, outdir: Path) -> Workload:
    outdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, outdir)
