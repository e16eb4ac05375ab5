#!/usr/bin/env python3
"""Self-test of the output checks: perturbed outputs must count as failed commands.

Run from the repository root:

    python3 perfbench/selftest.py

Runs one pass of paper-small (seed 1) and checks its outputs four times: as
produced, where no command may fail, and under each perturbation below,
where exactly the perturbed commands must fail:

- one dispatch moved by 1e-3 MW,
- the integral and PI settling times swapped,
- one row dropped from a simulation CSV.

Exits 0 when every perturbation is caught and nothing else fails.
"""

import copy
import shutil
import sys
from pathlib import Path

import run  # pins the BLAS threads before numpy loads
import workloads


def main() -> int:
    program = run.load_program()
    outdir = run.OUT / "selftest"
    shutil.rmtree(outdir, ignore_errors=True)
    wl = workloads.build("paper-small", 1, outdir)
    outcomes = run.run_pass(program.cli, wl.commands, run.Speed())
    payloads = run.parse_outputs(outcomes)

    def find(*argv) -> int:
        return next(i for i, o in enumerate(outcomes)
                    if all(a in o.command.argv for a in argv))

    dispatch = find("dispatch")
    integral = find("simulate", "integral")
    pi = find("simulate", "pi")

    def move_dispatch(p):
        p[dispatch]["p"][0] += 1e-3

    def swap_settling(p):
        p[integral]["settling_time"], p[pi]["settling_time"] = \
            p[pi]["settling_time"], p[integral]["settling_time"]

    def drop_csv_row(p):
        path = outcomes[integral].command.csv
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        del lines[len(lines) // 2]
        path.write_text("".join(lines), encoding="utf-8")

    cases = [("as produced", None, set()),
             ("dispatch moved by 1e-3 MW", move_dispatch, {dispatch}),
             ("settling times swapped", swap_settling, {integral, pi}),
             ("CSV row dropped", drop_csv_row, {integral})]
    caught = True
    for label, perturb, expected in cases:
        perturbed = copy.deepcopy(payloads)
        if perturb is not None:
            perturb(perturbed)
        failed = {i for i, (o, p) in enumerate(zip(outcomes, perturbed))
                  if run.problems(o, p)[0]}
        ok = failed == expected
        caught &= ok
        names = ", ".join(" ".join(Path(a).name for a in outcomes[i].command.argv)
                          for i in sorted(failed)) or "none"
        print(f"{'ok ' if ok else 'BAD'} {label}: failed commands: {names}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
