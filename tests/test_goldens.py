"""Every command's stdout, stderr, exit code and CSV bytes against goldens recorded
from the program: the README reference scenario, a seeded 200-unit fleet (whose
power lists take the summary writer's one-join path) and that fleet made invalid.
The same bytes must come out when the builtin ``sum`` compensates its rounding, as
it does from Python 3.12 on.

To record the goldens again, after a change that is meant to move an output:

    PYTHONPATH=src python tests/test_goldens.py
"""

import builtins
import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from freqdispatch.cli import run_command

from conftest import neumaier_sum

GOLDEN = Path(__file__).parent / "golden"
RECORDED = GOLDEN / "commands.json"

# name -> argv, with {file} the scenario file in tests/golden and {csv} a fresh path
COMMANDS = {
    "reference/validate": ["validate", "reference.json"],
    "reference/dispatch-oracle": ["dispatch", "reference.json", "--oracle"],
    "reference/iterate-dual": ["iterate", "reference.json", "--method", "dual", "--out-csv"],
    "reference/iterate-dual-diverged": ["iterate", "reference.json", "--method", "dual",
                                        "--alpha", "5", "--max-iter", "40"],
    "reference/iterate-mom": ["iterate", "reference.json", "--method", "mom", "--out-csv"],
    "reference/simulate-integral": ["simulate", "reference.json", "--controller", "integral",
                                    "--out-csv"],
    "reference/simulate-pi": ["simulate", "reference.json", "--controller", "pi",
                              "--t-end", "30", "--eps", "1e-3", "--out-csv"],
    "reference/compare": ["compare", "reference.json"],
    "reference/sweep-K": ["sweep", "reference.json", "--param", "K",
                          "--values", "0.5", "1.0", "2.0", "--out-csv"],
    "reference/sweep-alpha": ["sweep", "reference.json", "--param", "alpha",
                              "--values", "0.1", "0.5", "2.0"],
    "reference/equivalence-dual-integral": ["equivalence", "reference.json",
                                            "--pair", "dual-integral"],
    "reference/equivalence-mom-pi": ["equivalence", "reference.json", "--pair", "mom-pi"],
    "fleet/validate": ["validate", "fleet-200.json"],
    "fleet/dispatch": ["dispatch", "fleet-200.json"],
    "fleet/iterate-dual": ["iterate", "fleet-200.json", "--method", "dual"],
    "fleet/iterate-mom": ["iterate", "fleet-200.json", "--method", "mom", "--out-csv"],
    "fleet/simulate-integral": ["simulate", "fleet-200.json", "--controller", "integral",
                                "--out-csv"],
    "fleet/simulate-pi": ["simulate", "fleet-200.json", "--controller", "pi"],
    "fleet/compare": ["compare", "fleet-200.json"],
    "fleet/sweep-K": ["sweep", "fleet-200.json", "--param", "K", "--values", "0.5", "2.0",
                      "--out-csv"],
    "fleet/sweep-rho": ["sweep", "fleet-200.json", "--param", "rho", "--values", "0.01", "1.0"],
    "fleet/equivalence-dual-integral": ["equivalence", "fleet-200.json",
                                        "--pair", "dual-integral", "--steps", "20"],
    "fleet/equivalence-mom-pi": ["equivalence", "fleet-200.json", "--pair", "mom-pi",
                                 "--steps", "20"],
    "invalid-fleet/validate": ["validate", "invalid-fleet-200.json"],
    "invalid-fleet/dispatch": ["dispatch", "invalid-fleet-200.json"],
}


def _invalid_fleet() -> str:
    """fleet-200.json with four faults, in three generators: a zero slope, a
    non-finite b and p_init, and a repeated id."""
    doc = json.loads((GOLDEN / "fleet-200.json").read_text(encoding="utf-8"))
    gens = doc["scenario"]["generators"]
    gens[150]["cost"]["a"] = 0.0
    gens[17]["cost"]["b"] = math.inf
    gens[17]["p_init"] = math.nan
    gens[199]["id"] = gens[3]["id"]
    return json.dumps(doc)  # NaN and Infinity as JSON literals


def run(argv: list[str], tmp: Path) -> dict:
    """One command's exit code, stdout, stderr and, when it writes one, CSV digest."""
    (tmp / "invalid-fleet-200.json").write_text(_invalid_fleet(), encoding="utf-8")
    files = {"reference.json": GOLDEN / "reference.json",
             "fleet-200.json": GOLDEN / "fleet-200.json",
             "invalid-fleet-200.json": tmp / "invalid-fleet-200.json"}
    csv = tmp / "out.csv"
    argv = [str(files.get(arg, arg)) for arg in argv]
    if argv[-1] == "--out-csv":
        argv.append(str(csv))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "csv_sha256": digest}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_golden(name, tmp_path):
    want = json.loads(RECORDED.read_text(encoding="utf-8"))[name]
    assert run(COMMANDS[name], tmp_path) == want


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_golden_under_a_compensated_sum(name, tmp_path, monkeypatch):
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    want = json.loads(RECORDED.read_text(encoding="utf-8"))[name]
    assert run(COMMANDS[name], tmp_path) == want


# Lists and their builtin sum under Python 3.12.1 and 3.13.0; added left to right, the
# first three give 0.0, 0.9999999999999999 and 0.6000000000000001.
COMPENSATED_SUMS = [([1.0, 1e100, 1.0, -1e100], 2.0), ([0.1] * 10, 1.0), ([0.1, 0.2, 0.3], 0.6),
                    ([-0.0, -0.0], 0.0), ([1e308, 1e308, -1e308], math.inf)]


@pytest.mark.parametrize("xs, want", COMPENSATED_SUMS)
def test_the_emulated_sum_is_that_of_python_3_12(xs, want):
    assert neumaier_sum(xs).hex() == want.hex()
    if sys.version_info >= (3, 12):
        assert sum(xs).hex() == want.hex()


if __name__ == "__main__":
    import tempfile

    recorded = {}
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = run(argv, Path(tmp))
    RECORDED.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
