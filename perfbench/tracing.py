"""Per-module spans recorded from outside the program.

Each public function listed in SPANS is replaced, in every ``freqdispatch``
module namespace that binds it, by a wrapper that records a span: name,
start, end, parent span and command id. ``cli`` and ``experiments`` import
names directly, so patching only the defining module would miss their calls.
Functions in COUNTED are called so often that a wrapper per call would
swamp the spans of their callers; their exact call counts are taken in a
pass of their own, whose times are not used. The same pass measures, with
``tracemalloc``, the peak memory that ``dynamics.simulate`` allocates in the
commands chosen for it; tracing allocations slows the call several times,
so it is limited to that pass and those commands. Spans are kept in compact
in-memory columns and written out once, when the run ends.
"""

from __future__ import annotations

import tracemalloc
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

SPANS = {
    "cli": ("run_command", "parse_scenario_file", "write_trace_csv"),
    "model": ("validate_scenario",),
    "dispatch": ("analytic_dispatch", "brute_force_dispatch", "dual_ascent_solve",
                 "dual_ascent_step", "mom_solve", "mom_step", "mom_inner_minimize"),
    "dynamics": ("simulate", "step_rk4", "step_euler", "integral_rhs", "pi_rhs",
                 "settling_time"),
    "experiments": ("sweep", "compare_convergence", "check_euler_equivalence",
                    "verify_steady_state_optimality"),
}
COUNTED = {"model": ("integral_gain",)}
MEMORY = {"dynamics": ("simulate",)}

# name -> (unit, better); the order is the order of the printed metrics
LAYER_METRICS = {
    "cli.run_command.self_ms": ("ms", "lower"),
    "cli.parse_scenario_file.ms": ("ms", "lower"),
    "cli.write_trace_csv.s": ("s", "lower"),
    "cli.write_trace_csv.mb": ("MB", "lower"),
    "model.validate_scenario.ms": ("ms", "lower"),
    "model.integral_gain.calls": ("count", "lower"),
    "dispatch.analytic_dispatch.ms": ("ms", "lower"),
    "dispatch.brute_force_dispatch.ms": ("ms", "lower"),
    "dispatch.dual_ascent_step.us": ("us", "lower"),
    "dispatch.dual.iterations": ("count", "lower"),
    "dispatch.mom_inner_minimize.ms": ("ms", "lower"),
    "dispatch.mom.iterations": ("count", "lower"),
    "dynamics.step_rk4.us": ("us", "lower"),
    "dynamics.integral_rhs.us": ("us", "lower"),
    "dynamics.pi_rhs.us": ("us", "lower"),
    "dynamics.rhs_calls_per_step": ("count", "lower"),
    "dynamics.simulate.samples": ("count", "lower"),
    "dynamics.step_euler.us": ("us", "lower"),
    "dynamics.settling_time.ms": ("ms", "lower"),
    "dynamics.trace_mb": ("MB", "lower"),
    "experiments.sweep.self_s": ("s", "lower"),
    "experiments.compare_convergence.s": ("s", "lower"),
    "experiments.check_euler_equivalence.s": ("s", "lower"),
    "experiments.verify_steady_state_optimality.ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    """Span and count store; ``install`` patches the program, ``remove`` restores it."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, m) for m in SPANS]
        self.names: list[str] = []
        self.name = array("i")
        self.command = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.command_id = -1
        self.counts: Counter = Counter()
        self.count_passes = 0
        self.peaks: list[int] = []  # bytes, one per measured call
        self.memory_commands: list[bool] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, label, fn):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        name, command, parent = self.name, self.command, self.parent
        start, end, stack = self.start, self.end, self.stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            command.append(self.command_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            return result

        return wrapper

    def _counter(self, label, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _memory(self, label, fn):
        peaks, marked = self.peaks, self.memory_commands

        def wrapper(*args, **kwargs):
            if not marked[self.command_id % len(marked)] or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    def install(self, memory: list[bool] | None = None) -> None:
        """Wrap the SPANS functions. Given ``memory``, a mask over a pass's
        commands, instead count the COUNTED functions and measure MEMORY's
        peak allocation in the marked commands."""
        if memory is None:
            self._patch(SPANS, self._span)
            return
        self.count_passes += 1
        self.memory_commands[:] = memory
        self._patch(COUNTED, self._counter)
        self._patch(MEMORY, self._memory)

    def _patch(self, table, make) -> None:
        for module, funcs in table.items():
            for func in funcs:
                original = getattr(getattr(self.package, module), func)
                wrapper = make(f"{module}.{func}", original)
                for ns in self.modules:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def remove(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.intc).copy(),
                "command": np.frombuffer(self.command, dtype=np.intc).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self, focus: list[bool]) -> dict[str, float]:
        """Per-layer figures over all traced passes.

        ``focus[i]`` marks the commands (by index within a pass) whose calls
        the per-call figures describe; a function that those commands never
        call is measured on the commands that do call it. Call counts per
        counting pass cover every command. A function never called reads 0.
        The figures that come from the commands' outputs (simulate samples,
        CSV size) are added by the caller.
        """
        focus = np.asarray(focus, dtype=bool)
        col = self.columns()
        name, parent = col["name"], col["parent"]
        in_focus = focus[col["command"] % focus.size]
        dur = col["end"] - col["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        ids = {label: i for i, label in enumerate(self.names)}

        def mask(*labels):
            calls = np.isin(name, [ids[label] for label in labels])
            focused = calls & in_focus
            return focused if focused.any() else calls

        def mean(values, label):
            sel = values[mask(label)]
            return float(sel.mean()) if sel.size else 0.0

        def children_per_call(child_labels, parent_labels):
            parents = np.flatnonzero(mask(*parent_labels))
            if not parents.size:
                return 0.0
            child = np.isin(name, [ids[c] for c in child_labels]) & np.isin(parent, parents)
            return int(child.sum()) / parents.size

        steps = ("dynamics.step_rk4", "dynamics.step_euler")
        return {
            "cli.run_command.self_ms": 1e3 * mean(self_time, "cli.run_command"),
            "cli.parse_scenario_file.ms": 1e3 * mean(dur, "cli.parse_scenario_file"),
            "cli.write_trace_csv.s": mean(dur, "cli.write_trace_csv"),
            "model.validate_scenario.ms": 1e3 * mean(dur, "model.validate_scenario"),
            "model.integral_gain.calls": self.counts["model.integral_gain"] / self.count_passes,
            "dispatch.analytic_dispatch.ms": 1e3 * mean(dur, "dispatch.analytic_dispatch"),
            "dispatch.brute_force_dispatch.ms": 1e3 * mean(dur, "dispatch.brute_force_dispatch"),
            "dispatch.dual_ascent_step.us": 1e6 * mean(dur, "dispatch.dual_ascent_step"),
            "dispatch.dual.iterations": children_per_call(["dispatch.dual_ascent_step"],
                                                          ["dispatch.dual_ascent_solve"]),
            "dispatch.mom_inner_minimize.ms": 1e3 * mean(dur, "dispatch.mom_inner_minimize"),
            "dispatch.mom.iterations": children_per_call(["dispatch.mom_step"],
                                                         ["dispatch.mom_solve"]),
            "dynamics.step_rk4.us": 1e6 * mean(dur, "dynamics.step_rk4"),
            "dynamics.integral_rhs.us": 1e6 * mean(dur, "dynamics.integral_rhs"),
            "dynamics.pi_rhs.us": 1e6 * mean(dur, "dynamics.pi_rhs"),
            "dynamics.rhs_calls_per_step": children_per_call(
                ["dynamics.integral_rhs", "dynamics.pi_rhs"], steps),
            "dynamics.step_euler.us": 1e6 * mean(dur, "dynamics.step_euler"),
            "dynamics.settling_time.ms": 1e3 * mean(dur, "dynamics.settling_time"),
            "dynamics.trace_mb": 1e-6 * float(np.mean(self.peaks)) if self.peaks else 0.0,
            "experiments.sweep.self_s": mean(self_time, "experiments.sweep"),
            "experiments.compare_convergence.s": mean(dur, "experiments.compare_convergence"),
            "experiments.check_euler_equivalence.s":
                mean(dur, "experiments.check_euler_equivalence"),
            "experiments.verify_steady_state_optimality.ms":
                1e3 * mean(dur, "experiments.verify_steady_state_optimality"),
        }
