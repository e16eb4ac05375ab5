#!/usr/bin/env python3
"""Time to solution per command family of the freqdispatch CLI.

Run from the repository root:

    python3 perfbench/run.py --workload paper-small --seed 1 --seconds 40 --trace 0

One process runs one workload. It writes the workload's scenario files under
perfbench/out/<workload>/, times a fresh interpreter's import and parse of
them (set-up), then drives ``freqdispatch.cli.run_command`` in-process as a
single closed-loop caller: each command starts when the previous one has
returned. A pass runs every command of the workload once. The first pass is
a discarded warm-up; passes then repeat until --seconds have elapsed (at
least MIN_PASSES). Every time is scaled to nominal machine speed by the
probes in calibration.py: the time spent inside ``numpy.linalg.solve`` by
the dense-solve probe, the rest by the interpreted-work probe. A family's
time is the sum over its commands of each command's median scaled time
over the measured passes. Every
command's output is checked against closed forms computed from the
generated data (see workloads.py); a command that exits non-zero or whose
output fails a check counts as failed.

With --trace 1 the measured passes alternate between untraced and traced
(see tracing.py), a last pass counts the calls of the hottest helper, and
the per-module figures plus the tracing overhead are printed instead of the
end-to-end metrics. The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

import os

# One BLAS thread: a second one would share the other core with whatever
# else runs there, which makes the dense solve's time depend on that load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

FAMILIES = ("solve", "simulate", "experiment")
MIN_PASSES = 3
SETUP_SAMPLES = 9
SPEED_WINDOW_S = 2.5  # probes this close to a command's span set its scale
DENSE_EVERY_S = 0.25  # the dense probe is slower, so it runs at most this often

# Timed inside the child, so interpreter start-up noise is left out and the
# figure is what the package costs a CLI invocation before its first command.
# The child then probes its own speed.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import freqdispatch
from freqdispatch.cli import parse_scenario_file
for path in sys.argv[3:]:
    with open(path, encoding="utf-8") as fh:
        parse_scenario_file(fh.read())
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibration, statistics
print(elapsed, statistics.median(s for _, s in calibration.probe("interp", 9)))
"""


def load_program():
    """Import freqdispatch from this checkout's src/, or exit without a result."""
    if not (SRC / "freqdispatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'freqdispatch'}")
    sys.path.insert(0, str(SRC))
    import freqdispatch
    import freqdispatch.cli  # noqa: F401
    if Path(freqdispatch.__file__).resolve().parent != SRC / "freqdispatch":
        sys.exit(f"perfbench: imported freqdispatch from {freqdispatch.__file__}")
    return freqdispatch


def setup_seconds(files) -> float:
    """Median scaled set-up time over fresh interpreters; the first writes
    bytecode caches and is dropped."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), *map(str, files)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        elapsed, probe = map(float, proc.stdout.split())
        samples.append(elapsed * calibration.NOMINAL_S["interp"] / probe)
    return statistics.median(samples[1:])


class DenseClock:
    """Seconds spent inside ``numpy.linalg.solve``, which the program's
    method-of-multipliers step calls on a dense N x N system."""

    def __init__(self):
        self.seconds = 0.0
        solve = np.linalg.solve

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return solve(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - t0

        np.linalg.solve = timed


DENSE = DenseClock()


@dataclass
class Timing:
    start: float
    seconds: float
    dense: float  # the part of ``seconds`` spent in dense solves


@dataclass
class Outcome:
    command: workloads.Command
    exit_code: int | None
    timing: Timing
    stdout: str
    stderr: str


class Speed:
    """Probe samples over the run, to scale command times to nominal speed."""

    def __init__(self):
        self.samples = {kind: [] for kind in calibration.KERNELS}

    def probe(self) -> None:
        self.samples["interp"] += calibration.probe("interp")
        dense = self.samples["dense"]
        if not dense or perf_counter() - dense[-1][0] >= DENSE_EVERY_S:
            dense += calibration.probe("dense")

    def _factor(self, kind: str, t: Timing) -> float:
        """NOMINAL_S over the median probe of this kind near the command."""
        mid, dur = np.array(self.samples[kind]).T
        near = np.abs(mid - (t.start + 0.5 * t.seconds)) <= SPEED_WINDOW_S + 0.5 * t.seconds
        return calibration.NOMINAL_S[kind] / float(np.median(dur[near]))

    def scaled(self, timings) -> list[float]:
        return [(t.seconds - t.dense) * self._factor("interp", t)
                + t.dense * self._factor("dense", t) for t in timings]


def run_pass(cli, commands, speed: Speed, tracer=None, first_id=0) -> list[Outcome]:
    outcomes = []
    for i, cmd in enumerate(commands):
        if cmd.csv is not None:
            cmd.csv.unlink(missing_ok=True)  # the check must read this command's file
        speed.probe()
        if tracer is not None:
            tracer.command_id = first_id + i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            dense0 = DENSE.seconds
            t0 = perf_counter()
            try:
                code = cli.run_command(cmd.argv)
            except Exception as e:  # an escaped exception fails the command, not the run
                code = None
                print(f"uncaught {e!r}", file=err)
            seconds = perf_counter() - t0
        timing = Timing(t0, seconds, DENSE.seconds - dense0)
        outcomes.append(Outcome(cmd, code, timing, out.getvalue(), err.getvalue()))
    speed.probe()
    return outcomes


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def parse_outputs(outcomes) -> list:
    """Each command's JSON summary; None when it failed or printed no strict JSON."""
    payloads = []
    for o in outcomes:
        try:
            payloads.append(json.loads(o.stdout, parse_constant=_reject_constant)
                            if o.exit_code == 0 else None)
        except ValueError:
            payloads.append(None)
    return payloads


def problems(outcome: Outcome, payload) -> tuple[list[str], bool]:
    """(problems, wrong): wrong means the command succeeded but its output is incorrect."""
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}: {outcome.stderr.strip()[-300:]}"], False
    if payload is None:
        return ["stdout is not one strict JSON object"], True
    cmd = outcome.command
    try:
        found = cmd.check(payload)
        if cmd.csv is not None:
            found += cmd.csv_check(payload, cmd.csv)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as e:
        found = [f"malformed output: {e!r}"]
    return found, bool(found)


class Tally:
    """Attempted, failed and wrong commands over every pass, warm-up included."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = False

    def add(self, outcomes, payloads) -> None:
        for o, p in zip(outcomes, payloads):
            self.attempted += 1
            found, wrong = problems(o, p)
            if found:
                self.failed += 1
                self.wrong |= wrong
                if self.failed <= 5:
                    print(f"FAILED {' '.join(o.command.argv)}: {'; '.join(found)}",
                          file=sys.stderr)


def family_seconds(commands, passes) -> dict[str, float]:
    """Per family, the sum over its commands of each command's median over passes."""
    sums = dict.fromkeys(FAMILIES, 0.0)
    for i, cmd in enumerate(commands):
        sums[cmd.family] += statistics.median(p[i] for p in passes)
    return sums


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = load_program()
    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, outdir)
    setup = setup_seconds(wl.files)

    tally = Tally()
    speed = Speed()
    tracer = tracing.Tracer(program) if args.trace else None
    n = len(wl.commands)
    runs = {"plain": [], "traced": []}  # timings of each measured pass
    passes = 0
    payloads: list = []  # the last pass's outputs

    def one_pass(mode: str = "plain") -> list[Timing]:
        nonlocal passes, payloads
        gc.collect()
        if mode == "traced":
            tracer.install()
        elif mode == "counted":
            tracer.install(memory=[c.csv is not None for c in wl.commands])
        try:
            outcomes = run_pass(program.cli, wl.commands, speed,
                                None if mode == "plain" else tracer, passes * n)
        finally:
            if mode != "plain":
                tracer.remove()
        passes += 1
        payloads = parse_outputs(outcomes)
        tally.add(outcomes, payloads)
        timings = [o.timing for o in outcomes]  # the outputs are checked; keep only times
        raw = family_seconds(wl.commands, [[t.seconds for t in timings]])
        print(f"pass {passes} {mode} (unscaled): "
              + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()), file=sys.stderr)
        return timings

    one_pass()  # warm-up: caches and lazy imports settle
    t0 = perf_counter()
    while len(runs["plain"]) < MIN_PASSES or perf_counter() - t0 < args.seconds:
        runs["plain"].append(one_pass())
        if tracer is not None:
            runs["traced"].append(one_pass("traced"))
    if tracer is not None:
        one_pass("counted")

    scaled = {mode: [speed.scaled(p) for p in ps] for mode, ps in runs.items()}
    (outdir / "times.json").write_text(json.dumps({
        "argv": [c.argv for c in wl.commands],
        "seconds": {mode: [[t.seconds for t in p] for p in ps] for mode, ps in runs.items()},
        "dense": {mode: [[t.dense for t in p] for p in ps] for mode, ps in runs.items()},
        "scaled": scaled,
        "probe": speed.samples,
    }), encoding="utf-8")

    if tracer is None:
        metrics = {"setup_s": (setup, "s")}
        for fam, seconds in family_seconds(wl.commands, scaled["plain"]).items():
            metrics[f"{fam}_s"] = (seconds, "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    else:
        tracer.write(outdir / "spans.npz")
        layer = tracer.layer_metrics([not c.reduced for c in wl.commands])
        sims = [(c, p) for c, p in zip(wl.commands, payloads)
                if c.csv is not None and p is not None]
        layer["cli.write_trace_csv.mb"] = _mean([1e-6 * c.csv.stat().st_size for c, _ in sims])
        layer["dynamics.simulate.samples"] = _mean([p["samples"] for _, p in sims])
        plain_total = sum(family_seconds(wl.commands, scaled["plain"]).values())
        traced_total = sum(family_seconds(wl.commands, scaled["traced"]).values())
        layer["trace.overhead_pct"] = 100.0 * (traced_total / plain_total - 1.0)
        metrics = {k: (layer[k], unit) for k, (unit, _) in tracing.LAYER_METRICS.items()}

    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
