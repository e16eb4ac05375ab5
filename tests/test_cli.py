"""Scenario file parsing, CSV serialization, and command-line behaviour."""

import csv
import io
import json
import math
import tracemalloc
import unittest.mock
from pathlib import Path

import numpy as np
import pytest

from freqdispatch import (
    ControllerKind,
    CostCoefficients,
    Generator,
    QuasiStatic,
    SimulationTrace,
    aggregate_power_slope,
    dual_ascent_solve,
    simulate,
)
from freqdispatch import cli, traceio
from freqdispatch.cli import (
    ScenarioFileError,
    parse_scenario_file,
    run_command,
    serialize_scenario_file,
    write_trace_csv,
)
from freqdispatch.dispatch import IterState, IterationTrace
from freqdispatch.model import ControllerConfig

from conftest import (economic_start, make_scenario, reference_scenario, reference_simulation_csv,
                      strict_json)

REFERENCE_JSON = {
    "format_version": 1,
    "scenario": {
        "generators": [
            {"id": "G1", "cost": {"a": 0.5, "b": 1.0, "c": 0.0}, "p_init": 7.0},
            {"id": "G2", "cost": {"a": 1.0, "b": 2.0, "c": 0.0}, "p_init": 3.0},
        ],
        "loads": [6.0, 4.0],
        "gain_K": 1.0,
        "beta": 1.5,
        "tau": 1.0,
    },
}


def reference_text(**extra) -> str:
    payload = json.loads(json.dumps(REFERENCE_JSON))
    payload.update(extra)
    return json.dumps(payload)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario_r.json"
    path.write_text(reference_text())
    return str(path)


# ---------------------------------------------------------------------------
# parsing

def test_parse_reference_file():
    sf = parse_scenario_file(reference_text())
    assert sf.format_version == 1
    assert sf.scenario == reference_scenario()
    assert sf.solver is None
    assert sf.simulation is None


def test_parse_solver_and_simulation_blocks():
    text = reference_text(
        solver={"alpha": 0.5, "tol": 1e-8, "max_iter": 500, "lambda0": 0.0},
        simulation={"controller": "pi", "h": 0.01, "t_end": 50.0,
                    "events": [{"time": 1.0, "loads": [7.2, 4.8]}]},
    )
    sf = parse_scenario_file(text)
    assert sf.solver.alpha == 0.5
    assert sf.solver.rho is None
    assert sf.solver.tol == 1e-8
    assert sf.simulation.controller is ControllerKind.PROPORTIONAL_INTEGRAL
    assert sf.simulation.events[0].loads == (7.2, 4.8)


def test_serialize_parse_round_trip():
    text = reference_text(
        solver={"rho": 0.25},
        simulation={"controller": "integral",
                    "events": [{"time": 2.0, "loads": [8.0, 4.0]}]},
    )
    sf = parse_scenario_file(text)
    again = parse_scenario_file(serialize_scenario_file(sf))
    assert again == sf
    # And a second round trip is bitwise stable.
    assert serialize_scenario_file(again) == serialize_scenario_file(sf)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(reference_text(surprise=1))
    assert "surprise" in str(err.value)
    assert "unknown key" in str(err.value)


def test_parse_rejects_unknown_nested_key():
    payload = json.loads(reference_text())
    payload["scenario"]["generators"][0]["fuel"] = "coal"
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(json.dumps(payload))
    assert "scenario.generators[0].fuel" in str(err.value)


def test_parse_rejects_unsupported_version():
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(reference_text(format_version=2))
    assert "unsupported version 2" in str(err.value)


def test_parse_names_invariant_violations_with_path():
    payload = json.loads(reference_text())
    payload["scenario"]["generators"][1]["cost"]["a"] = 0
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(json.dumps(payload))
    assert "scenario.generators[1].cost.a" in str(err.value)
    assert "a must be > 0 for generator 2" in str(err.value)


def test_parse_reports_syntax_errors_with_position():
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file("{not json")
    assert "syntax error" in str(err.value)
    assert "line 1" in str(err.value)


def test_parse_rejects_missing_required_key():
    payload = json.loads(reference_text())
    del payload["scenario"]["tau"]
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(json.dumps(payload))
    assert "tau" in str(err.value)


def test_parse_rejects_wrong_types():
    payload = json.loads(reference_text())
    payload["scenario"]["loads"] = [6.0, "four"]
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(json.dumps(payload))
    assert "scenario.loads[1]" in str(err.value)


def test_parse_rejects_unsorted_events():
    text = reference_text(simulation={
        "controller": "integral",
        "events": [{"time": 2.0, "loads": [7.0, 5.0]},
                   {"time": 1.0, "loads": [6.0, 4.0]}],
    })
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(text)
    assert "sorted" in str(err.value)


def test_parse_rejects_event_load_length_mismatch():
    text = reference_text(simulation={
        "controller": "integral",
        "events": [{"time": 1.0, "loads": [7.0]}],
    })
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(text)
    assert "expected 2 loads" in str(err.value)


def _fleet_payload(n=1000) -> dict:
    gens = [{"id": f"G{i + 1}", "cost": {"a": 0.5 + (i % 7) * 0.25, "b": float(i % 11)},
             "p_init": 1.0} for i in range(n)]
    return {"format_version": 1,
            "scenario": {"generators": gens, "loads": [10.0 * n], "gain_K": 1.0,
                         "beta": 2.0, "tau": 1.0}}


@pytest.mark.parametrize("argv", [
    ["iterate", "--method", "dual", "--alpha", "1e-6"],
    ["compare", "--alpha", "1e-6", "--rho", "1e-5"],
    ["sweep", "--param", "alpha", "--values", "1e-6", "2e-6"],
], ids=lambda argv: argv[0])
def test_commands_without_a_trace_csv_keep_no_power_rows(tmp_path, capsys, argv):
    # At N = 2,000 and these slow steps each run stops at the file's max_iter, 500,
    # and its 501 power rows would take 8 MB. These commands print at most the last
    # row, so none of them may keep the rows.
    assert _peak_bytes(tmp_path, capsys, argv) < 8_000_000


def test_iteration_csv_keeps_one_block_of_power_rows(tmp_path, capsys):
    # The CSV holds all 501 rows, but it is written a block at a time, each block's
    # powers from its prices, so the 8 MB of rows are never in memory together.
    csv_path = tmp_path / "trace.csv"
    argv = ["iterate", "--method", "dual", "--alpha", "1e-6", "--out-csv", str(csv_path)]
    assert _peak_bytes(tmp_path, capsys, argv) < 8_000_000
    with open(csv_path) as f:
        assert sum(1 for _ in f) == 502  # header and one row per state


def _fleet_trace() -> SimulationTrace:
    """A 1000-unit PI run from the economic dispatch, 201 samples with a load step."""
    rng = np.random.default_rng(1000)
    s = make_scenario(rng.uniform(0.1, 5.0, 1000), rng.uniform(0.0, 20.0, 1000), [3e4])
    s = economic_start(s.replace(beta=s.gain_K * aggregate_power_slope(s) / 0.8))
    cfg = ControllerConfig(ControllerKind.PROPORTIONAL_INTEGRAL, s.gain_K, s.tau)
    return simulate(s, cfg, h=0.25, t_end=50.0, events=[(1.0, (3.3e4,))])


def test_simulation_csv_blocks_amortise_the_kernel_call():
    # Each _csv_cells call pays some 60 us of numpy dispatch whatever its size, so
    # a block holds at least 8 of this trace's 2,002-cell rows, not 2.
    trace = _fleet_trace()
    rows, per_block = len(trace.t), traceio._CSV_BLOCK_CELLS // 2002
    assert rows == 201 and per_block >= 8
    kernel_spy = unittest.mock.patch.object(traceio, "_csv_cells", side_effect=traceio._csv_cells)
    with kernel_spy as kernel:
        write_trace_csv(trace, io.StringIO())
    assert 0 < kernel.call_count <= -(-rows // per_block)


def test_simulation_csv_keeps_one_block_of_rows(tmp_path):
    # One block of this trace peaks near 2.8 MB. All 201 rows would take 3.2 MB as
    # floats, 12.9 MB as 32-byte slots and 7.6 MB as text.
    trace = _fleet_trace()
    with open(tmp_path / "trace.csv", "w", encoding="utf-8", newline="") as sink:
        tracemalloc.start()
        try:
            write_trace_csv(trace, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4_000_000
    with open(tmp_path / "trace.csv") as f:
        assert sum(1 for _ in f) == 202  # header and one row per sample


@pytest.mark.parametrize("argv", [
    ["simulate", "--controller", "pi"],
    ["iterate", "--method", "mom"],
    ["sweep", "--param", "K", "--values", "0.5", "1.5"],
], ids=lambda argv: argv[0])
def test_out_csv_lines_end_in_a_bare_newline(tmp_path, capsys, monkeypatch, scenario_file, argv):
    # open as on Windows, where a text file opened without newline="" writes each
    # "\n" as "\r\n"
    def windows_open(file, mode="r", *args, newline=None, **kwargs):
        if "w" in mode and newline is None:
            newline = "\r\n"
        return open(file, mode, *args, newline=newline, **kwargs)

    monkeypatch.setattr(cli, "open", windows_open, raising=False)
    path = tmp_path / "out.csv"
    assert run_command([argv[0], scenario_file, *argv[1:], "--out-csv", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data


def _peak_bytes(tmp_path, capsys, argv) -> int:
    """tracemalloc's peak over one command on the N = 2,000 fleet, max_iter 500."""
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps({**_fleet_payload(2000), "solver": {"max_iter": 500}}))
    tracemalloc.start()
    try:
        code = run_command([argv[0], str(path), *argv[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "max_iterations" in capsys.readouterr().out
    return peak


def _put(*keys, value):
    def mutate(gens, i):
        entry = gens[i]
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
    return mutate


def _drop(*keys):
    def mutate(gens, i):
        entry = gens[i]
        for key in keys[:-1]:
            entry = entry[key]
        del entry[keys[-1]]
    return mutate


def _replace_entry(value):
    def mutate(gens, i):
        gens[i] = value
    return mutate


def _update(**fields):
    return lambda gens, i: gens[i].update(fields)


_INVALID = "scenario: invalid scenario: scenario.generators[{i}]"
# One fault in one entry of a 1000-unit file -> the exact message, with {i} the
# entry's index and {n} = i + 1; faults in the same entry report in a fixed order.
MALFORMED_GENERATORS = {
    "not-an-object": (_replace_entry([1.0, 2.0]),
                      "scenario.generators[{i}]: expected a JSON object"),
    "unknown-key": (_put("pmax", value=1.0), "scenario.generators[{i}].pmax: unknown key"),
    "unknown-cost-key": (_put("cost", "d", value=1.0),
                         "scenario.generators[{i}].cost.d: unknown key"),
    "missing-id": (_drop("id"), "scenario.generators[{i}]: missing required key 'id'"),
    "missing-cost": (_drop("cost"), "scenario.generators[{i}]: missing required key 'cost'"),
    "missing-a": (_drop("cost", "a"), "scenario.generators[{i}].cost: missing required key 'a'"),
    "missing-b": (_drop("cost", "b"), "scenario.generators[{i}].cost: missing required key 'b'"),
    "cost-not-an-object": (_put("cost", value=3.0),
                           "scenario.generators[{i}].cost: expected a JSON object"),
    "bool-for-a": (_put("cost", "a", value=True),
                   "scenario.generators[{i}].cost.a: expected a number"),
    "string-for-p_init": (_put("p_init", value="1.5"),
                          "scenario.generators[{i}].p_init: expected a number"),
    "non-string-id": (_put("id", value=7), "scenario.generators[{i}].id: expected a string"),
    "nan-a": (_put("cost", "a", value=float("nan")),
              _INVALID + ".cost.a: a must be finite for generator {n}"),
    "infinite-a": (_put("cost", "a", value=float("inf")),
                   _INVALID + ".cost.a: a must be finite for generator {n}"),
    "zero-a": (_put("cost", "a", value=0.0), _INVALID + ".cost.a: a must be > 0 for generator {n}"),
    "negative-a": (_put("cost", "a", value=-1.0),
                   _INVALID + ".cost.a: a must be > 0 for generator {n}"),
    "a-past-float-range": (_put("cost", "a", value=10 ** 400),  # an integer no float holds
                           _INVALID + ".cost.a: a must be finite for generator {n}"),
    "a-with-infinite-2a": (_put("cost", "a", value=1e308),
                           _INVALID + ".cost.a: a must keep 2a and 1/(2a) finite "
                                      "for generator {n}"),
    "a-with-infinite-weight": (_put("cost", "a", value=5e-324),
                               _INVALID + ".cost.a: a must keep 2a and 1/(2a) finite "
                                          "for generator {n}"),
    "two-unknown-keys": (_update(zz=1, aa=2), "scenario.generators[{i}].aa: unknown key"),
    "unknown-before-missing": (lambda gens, i: (gens[i].pop("id"), gens[i].update(zz=1)),
                               "scenario.generators[{i}].zz: unknown key"),
    "missing-id-and-cost": (lambda gens, i: [gens[i].pop(k) for k in ("id", "cost")],
                            "scenario.generators[{i}]: missing required key 'cost'"),
    "bad-id-and-a": (_update(id=7, cost={"a": True, "b": 1.0}),
                     "scenario.generators[{i}].cost.a: expected a number"),
    "bad-b-and-c": (_update(cost={"a": 1.0, "b": "x", "c": "y"}),
                    "scenario.generators[{i}].cost.b: expected a number"),
    "every-number-non-finite": (
        _update(cost={"a": float("nan"), "b": float("inf"), "c": float("-inf")},
                p_init=float("nan")),
        _INVALID + ".cost.a: a must be finite for generator {n}; "
        "scenario.generators[{i}].cost.b: b must be finite for generator {n}; "
        "scenario.generators[{i}].cost.c: c must be finite for generator {n}; "
        "scenario.generators[{i}].p_init: p_init must be finite for generator {n}"),
}


@pytest.mark.parametrize("index", [0, 999])
@pytest.mark.parametrize("case", sorted(MALFORMED_GENERATORS))
def test_parse_names_malformed_generator_entries(case, index):
    mutate, message = MALFORMED_GENERATORS[case]
    payload = _fleet_payload()
    mutate(payload["scenario"]["generators"], index)
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(json.dumps(payload))  # NaN and Infinity go in as JSON literals
    assert str(err.value) == message.format(i=index, n=index + 1)


@pytest.mark.parametrize("index, message", [
    (0, "scenario: invalid scenario: scenario.generators[1].id: duplicate generator id 'G2'"),
    (999, "scenario: invalid scenario: scenario.generators[999].id: duplicate generator id 'G1'"),
])
def test_parse_names_duplicate_generator_ids(index, message):
    payload = _fleet_payload()
    gens = payload["scenario"]["generators"]
    gens[index]["id"] = gens[1 if index == 0 else 0]["id"]
    with pytest.raises(ScenarioFileError) as err:
        parse_scenario_file(json.dumps(payload))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# CSV traces

def test_iteration_trace_csv_line_count(scenario_r):
    trace = dual_ascent_solve(scenario_r, 1.0 / 3.0, tol=1e-6, max_iter=2, lambda0=0.0)
    assert len(trace.states) == 3
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    lines = sink.getvalue().strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "k,lambda,p_1,p_2,imbalance,delta_f"


def test_iteration_trace_csv_round_trip_bitwise(scenario_r):
    trace = dual_ascent_solve(scenario_r, 0.4, tol=1e-9, lambda0=0.0)
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    rows = list(csv.DictReader(io.StringIO(sink.getvalue())))
    assert len(rows) == len(trace.states)
    for row, st in zip(rows, trace.states):
        assert int(row["k"]) == st.k
        assert float(row["lambda"]) == st.lam
        assert float(row["p_1"]) == st.p[0]
        assert float(row["p_2"]) == st.p[1]
        assert float(row["imbalance"]) == st.imbalance
        assert float(row["delta_f"]) == st.delta_f


def test_iteration_trace_csv_matches_row_by_row_reference(scenario_r):
    # a solved trace's columns, plus rows holding cells the kernel hands to format()
    # one by one, with powers p = (-lam, 0); the reference reads the rows as states
    trace = dual_ascent_solve(scenario_r, 0.4, tol=1e-9, lambda0=0.0)
    x = np.array([math.inf, -math.inf, math.nan, 3 / 2 ** 25, 1e300])
    trace = IterationTrace(np.concatenate([trace.lam, x]),
                           np.concatenate([trace.imbalance, np.full(5, -0.0)]),
                           np.concatenate([trace.delta_f, np.full(5, 5e-324)]),
                           trace.converged, trace.stop_reason,
                           power=lambda lam: np.array([-lam, 0.0]))
    assert trace.p[-5:].tobytes() == np.column_stack([-x, np.zeros(5)]).tobytes()
    assert trace.states[-1] == IterState(len(trace.lam) - 1, 1e300, (-1e300, 0.0), -0.0, 5e-324)
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    rows = [[str(st.k)] + [format(x, ".17g") for x in (st.lam, *st.p, st.imbalance, st.delta_f)]
            for st in trace.states]
    assert sink.getvalue() == "".join(",".join(row) + "\n" for row in
                                      [["k", "lambda", "p_1", "p_2", "imbalance", "delta_f"], *rows])


@pytest.mark.parametrize("method", ["dual", "mom"])
@pytest.mark.parametrize("n", [2, 50], ids=["reference", "fleet-50"])
def test_iterate_summary_powers_are_the_last_csv_row(tmp_path, capsys, monkeypatch, method, n):
    # the summary derives its powers from the last price alone; the CSV reads the
    # trace's rows, derived from every price; both are the run's last row
    path = tmp_path / "scenario.json"
    path.write_text(reference_text() if n == 2 else
                    json.dumps({**_fleet_payload(n), "solver": {"alpha": 0.05}}))
    name = {"dual": "dual_ascent_solve", "mom": "mom_solve"}[method]
    solve, traces = getattr(cli, name), []

    def recorded(*args):
        traces.append(solve(*args))
        return traces[-1]

    monkeypatch.setattr(cli, name, recorded)
    out_csv = tmp_path / "iter.csv"
    assert run_command(["iterate", str(path), "--method", method, "--out-csv", str(out_csv)]) == 0
    summary = strict_json(capsys.readouterr().out)
    (trace,) = traces
    assert summary["converged"] is True and len(summary["p"]) == n
    last = list(csv.reader(io.StringIO(out_csv.read_text())))[-1]
    assert [float(x) for x in last[2:2 + n]] == summary["p"] == trace.p[-1].tolist()


def test_simulation_trace_csv_columns(scenario_r):
    cfg = ControllerConfig(ControllerKind.INTEGRAL, 1.0, 1.0)
    trace = simulate(scenario_r, cfg, QuasiStatic(1.5), h=0.5, t_end=1.0)
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    rows = list(csv.DictReader(io.StringIO(sink.getvalue())))
    assert list(rows[0]) == ["t", "p_1", "p_2", "delta_f",
                             "marginal_cost_1", "marginal_cost_2"]
    assert len(rows) == 3
    for row, t, p, df in zip(rows, trace.t.tolist(), trace.p.tolist(), trace.delta_f.tolist()):
        assert float(row["t"]) == t
        assert float(row["p_1"]) == p[0]
        assert float(row["delta_f"]) == df
        assert float(row["marginal_cost_1"]) == 2.0 * 0.5 * p[0] + 1.0


def test_empty_simulation_trace_writes_header_only(scenario_r):
    cfg = ControllerConfig(ControllerKind.INTEGRAL, 1.0, 1.0)
    trace = SimulationTrace(np.empty(0), np.empty((0, 2)), np.empty(0), (), cfg,
                            QuasiStatic(1.5), scenario_r)
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    assert sink.getvalue().strip().split("\n") == [
        "t,p_1,p_2,delta_f,marginal_cost_1,marginal_cost_2"]


@pytest.mark.parametrize("n", [0, 1, 2, 50])
def test_simulation_csv_matches_row_by_row_reference(n):
    if n == 0:  # the empty trace, on two generators
        s = reference_scenario()
        cfg = ControllerConfig(ControllerKind.INTEGRAL, s.gain_K, s.tau)
        trace = SimulationTrace(np.empty(0), np.empty((0, 2)), np.empty(0), (), cfg,
                                QuasiStatic(s.beta), s)
    else:
        rng = np.random.default_rng(n)
        s = make_scenario(rng.uniform(0.1, 5.0, n), rng.uniform(-20.0, 20.0, n), [30.0, 12.5],
                          p_init=rng.uniform(-5.0, 20.0, n), beta=0.7)
        cfg = ControllerConfig(ControllerKind.PROPORTIONAL_INTEGRAL, s.gain_K, s.tau)
        trace = simulate(s, cfg, h=0.1, t_end=3.0, events=[(1.0, (33.0, 1e-3))])
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    assert sink.getvalue() == reference_simulation_csv(trace)


def test_simulation_csv_blocks_match_row_by_row_reference():
    # a row count that is not a multiple of the writer's block size
    s = make_scenario([0.5, 1.0, 2.0], [1.0, 2.0, -3.0], [6.0, 4.0],
                      p_init=[4.0, 3.0, 2.0], beta=1.5)
    block_rows = traceio._CSV_BLOCK_CELLS // (2 * 3 + 2)
    rows = 2 * block_rows + 3
    cfg = ControllerConfig(ControllerKind.INTEGRAL, s.gain_K, s.tau)
    trace = simulate(s, cfg, h=0.1, t_end=(rows - 1) * 0.1, events=[(3.0, (7.2, 4.8))])
    assert len(trace.t) == rows and rows % block_rows != 0
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    assert sink.getvalue() == reference_simulation_csv(trace)


def test_write_trace_csv_rejects_unknown_types():
    with pytest.raises(TypeError):
        write_trace_csv(object(), io.StringIO())


def test_cli_binds_the_trace_writer_of_traceio():
    assert cli.write_trace_csv is traceio.write_trace_csv  # the name a tracer wraps in cli


# ---------------------------------------------------------------------------
# commands

def test_cmd_dispatch_reference(scenario_file, capsys):
    code = run_command(["dispatch", scenario_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda_star"] == 8.0
    assert payload["p"] == [7.0, 3.0]
    assert payload["total_cost"] == 46.5


def test_cmd_dispatch_oracle(scenario_file, capsys):
    code = run_command(["dispatch", scenario_file, "--oracle", "--grid-step", "0.01"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["max_gap"] <= 0.01


def test_cmd_iterate_dual_diverges_exit_3(scenario_file, capsys):
    code = run_command(["iterate", scenario_file, "--method", "dual",
                        "--alpha", "3", "--lambda0", "0"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["stop_reason"] == "diverged"
    assert payload["converged"] is False


def test_cmd_iterate_mom_converges(scenario_file, capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code = run_command(["iterate", scenario_file, "--method", "mom",
                        "--rho", "0.6666666666666666", "--lambda0", "0",
                        "--out-csv", str(out_csv)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["iterations"] == 23
    assert abs(payload["lambda"] - 8.0) < 1e-5
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 25  # header + 24 states


def test_cmd_iterate_mom_needs_no_dense_solve(scenario_file, capsys, monkeypatch):
    def no_dense_solve(*args, **kwargs):
        raise AssertionError("numpy.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    assert run_command(["iterate", scenario_file, "--method", "mom"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert payload["p"] == pytest.approx([7.0, 3.0], abs=1e-5)


def test_cmd_iterate_defaults_to_coupling_step(scenario_file, capsys):
    # alpha defaults to K/beta = 2/3, the deadbeat step for this scenario
    code = run_command(["iterate", scenario_file, "--method", "dual",
                        "--lambda0", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert payload["iterations"] == 1


def test_cmd_validate_ok(scenario_file, capsys):
    assert run_command(["validate", scenario_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True}


def test_cmd_validate_broken_exit_2(tmp_path, capsys):
    payload = json.loads(reference_text())
    payload["scenario"]["beta"] = -1.0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload))
    code = run_command(["validate", str(path)])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert "beta" in out["error"]


def test_cmd_simulate(scenario_file, capsys, tmp_path):
    out_csv = tmp_path / "sim.csv"
    code = run_command(["simulate", scenario_file, "--controller", "integral",
                        "--h", "0.01", "--t-end", "2.0", "--out-csv", str(out_csv)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 201
    assert payload["steady_state"]["passed"] is True
    assert out_csv.exists()


@pytest.mark.parametrize("flags", [["--h", "1e-9"], ["--h", "0.5", "--t-end", "1e300"]])
def test_cmd_simulate_refuses_a_grid_past_the_cell_cap(scenario_file, capsys, flags):
    assert run_command(["simulate", scenario_file, "--controller", "integral", *flags]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: t_end/h gives ") and "the limit is 100000000" in out.err


def test_cmd_simulate_uses_file_simulation_block(tmp_path, capsys):
    text = reference_text(simulation={
        "controller": "integral", "h": 0.01, "t_end": 30.0,
        "events": [{"time": 1.0, "loads": [7.2, 4.8]}],
    })
    path = tmp_path / "with_sim.json"
    path.write_text(text)
    code = run_command(["simulate", str(path), "--controller", "integral"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["final_p"] == pytest.approx([25.0 / 3.0, 11.0 / 3.0], abs=1e-6)
    assert payload["steady_state"]["passed"] is True


def test_cmd_compare(scenario_file, capsys):
    code = run_command(["compare", scenario_file, "--alpha", "0.6666666666666666",
                        "--rho", "0.6666666666666666", "--lambda0", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mom"]["iterations"] == 23
    assert payload["settling_integral"] == pytest.approx(10.50, abs=1e-9)
    assert payload["settling_pi"] == pytest.approx(20.00, abs=1e-9)


def test_cmd_sweep(scenario_file, capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code = run_command(["sweep", scenario_file, "--param", "alpha",
                        "--values", "0.1", "0.5", "--out-csv", str(out_csv)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameter"] == "alpha"
    assert len(payload["records"]) == 2
    assert all(r["dual"]["converged"] for r in payload["records"])
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 3


def test_sweep_csv_leaves_the_cells_a_parameter_does_not_run_blank(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    reference = str(Path(__file__).parent / "golden" / "reference.json")
    assert run_command(["sweep", reference, "--param", "rho", "--values", "0.5", "2",
                        "--out-csv", str(out_csv)]) == 0
    capsys.readouterr()
    assert out_csv.read_text() == (
        "value,dual_iterations,dual_converged,dual_stop_reason,dual_empirical_ratio,"
        "dual_predicted_ratio,mom_iterations,mom_converged,mom_stop_reason,"
        "mom_empirical_ratio,mom_predicted_ratio,settling_integral,settling_pi\n"
        "0.5,,,,,,29,true,tolerance,0.57142857143222103,0.5714285714285714,,\n"
        "2,,,,,,11,true,tolerance,0.25,0.25,,\n")


def test_cmd_equivalence(scenario_file, capsys):
    code = run_command(["equivalence", scenario_file, "--pair", "dual-integral",
                        "--steps", "100", "--lambda0", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_abs_deviation"] <= 1e-9
    assert payload["steps"] == 100


@pytest.mark.parametrize("pair", ["dual-integral", "mom-pi"])
def test_cmd_equivalence_ten_million_steps_prints_the_200_step_deviation(scenario_file, capsys,
                                                                        pair):
    # the check stops at the first repeat of its joint state, long before 10**7 steps,
    # and a count past sys.maxsize is echoed as given
    outputs = []
    for steps in (200, 10 ** 7, 10 ** 20):
        assert run_command(["equivalence", scenario_file, "--pair", pair,
                            "--lambda0", "-20", "--steps", str(steps)]) == 0
        outputs.append(strict_json(capsys.readouterr().out))
    short = outputs[0]
    assert outputs[1:] == [{**short, "steps": 10 ** 7}, {**short, "steps": 10 ** 20}]


@pytest.mark.parametrize("steps,deviation,code", [
    (141, 3.4927205416857597e+292, 0),  # the last step before the iterates overflow
    (142, None, 3),
    (200, None, 3),  # a NaN gap after the first step does not hide behind the earlier maximum
])
def test_cmd_equivalence_overflow_prints_null_exit_3(tmp_path, capsys, steps, deviation, code):
    # at beta = 0.01 the coupling K/beta is 100, far past dual ascent's bound 2/S = 4/3
    doc = json.loads(reference_text())
    doc["scenario"]["beta"] = 0.01
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(doc))
    assert run_command(["equivalence", str(path), "--pair", "dual-integral",
                        "--lambda0", "0", "--steps", str(steps)]) == code
    assert strict_json(capsys.readouterr().out) == {
        "pair": "dual-integral", "steps": steps, "max_abs_deviation": deviation}


def test_usage_errors_exit_1(capsys):
    assert run_command(["frobnicate"]) == 1
    assert run_command([]) == 1
    assert run_command(["iterate"]) == 1  # missing file and --method


def test_missing_file_exit_1(capsys):
    assert run_command(["dispatch", "/nonexistent/nowhere.json"]) == 1


CSV_COMMANDS = {  # each command that takes --out-csv, and a flag it refuses
    "iterate": (["--method", "mom"], ["--tol", "-1"]),
    "simulate": (["--controller", "integral"], ["--h", "nan"]),
    "sweep": (["--param", "alpha", "--values", "0.1", "0.5"], ["--tol", "-1"]),
}


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_unopenable_csv_prints_no_summary_exit_1(scenario_file, tmp_path, capsys, command):
    # the CSV is opened before the summary is printed, so a failed command prints none
    flags, _ = CSV_COMMANDS[command]
    out_csv = tmp_path / "missing" / "out.csv"
    assert run_command([command, scenario_file, *flags, "--out-csv", str(out_csv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ")


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_failed_command_creates_no_csv(scenario_file, tmp_path, capsys, command):
    flags, refused = CSV_COMMANDS[command]
    out_csv = tmp_path / "out.csv"
    assert run_command([command, scenario_file, *flags, *refused, "--out-csv", str(out_csv)]) == 1
    assert capsys.readouterr().out == ""
    assert not out_csv.exists()


def test_invalid_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(reference_text(format_version=9))
    assert run_command(["dispatch", str(path)]) == 2


def test_help_exits_cleanly(capsys):
    assert run_command(["--help"]) == 0


# ---------------------------------------------------------------------------
# A named subcommand is parsed by its own parser, and a file is read as bytes:
# each gives what the full parser and a text-mode read give

def _outcome(argv, capsys) -> tuple:
    return run_command(argv), *capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h"], ["iterate", "--help"], ["iterate"], ["iterate", "FILE"],
    ["iterate", "FILE", "--method", "dual"],
    ["iterate", "FILE", "--method", "dual", "--nope"],
    ["iterate", "FILE", "--meth", "dual"],  # an abbreviated flag
    ["dispatch", "FILE", "--grid-step", "x"],
])
def test_subcommand_parse_matches_the_full_parser(scenario_file, capsys, monkeypatch, argv):
    argv = [scenario_file if arg == "FILE" else arg for arg in argv]
    direct = _outcome(argv, capsys)
    parser, _ = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))  # names no subcommand
    assert _outcome(argv, capsys) == direct


def test_named_subcommand_skips_the_full_parser(scenario_file, capsys, monkeypatch):
    parser, _ = cli._build_parser()
    monkeypatch.setattr(parser, "parse_args", None)  # a call would raise TypeError
    assert run_command(["iterate", scenario_file, "--method", "dual"]) == 0
    assert strict_json(capsys.readouterr().out)["converged"] is True


def _text_mode_read(path):
    """The read ``cli._read_file`` replaced: a text-mode file and its universal newlines."""
    with open(path, encoding="utf-8") as fh:
        return parse_scenario_file(fh.read())


@pytest.mark.parametrize("data", [
    b'{"format_version": 1,\r\n "scenario":\r\n}\r\n',  # CRLF
    b'{"format_version": 1,\r "scenario":\r}\r',  # CR alone
    b'\r\n\r{"format_version": 1,\n\r\n "scenario": [\r\r\n',  # mixed
    b'{"format_version": 1, "scenario": "x\ry"}',  # a control character in a string
    b'\xef\xbb\xbf{"format_version": 1}',  # a byte-order mark
    b'{"format_version": 1,\r\n "scenario": "\xff"}',  # invalid UTF-8
    b'{"format_version": 1, "scenario": "\xe2\x82',  # a cut multibyte character
    b'\xff\xfe{\x00}\x00',  # UTF-16
])
@pytest.mark.parametrize("command", ["validate", "dispatch"])
def test_byte_read_matches_a_text_mode_read(tmp_path, capsys, monkeypatch, data, command):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    read = _outcome([command, str(path)], capsys)
    assert read[0] in (1, 2)
    monkeypatch.setattr(cli, "_read_file", _text_mode_read)
    assert _outcome([command, str(path)], capsys) == read


# ---------------------------------------------------------------------------
# non-finite input: a clean exit code and strict JSON on stdout

def test_nan_solver_block_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(reference_text(solver={"alpha": float("nan"), "tol": float("nan")}))
    assert run_command(["validate", str(path)]) == 2
    payload = strict_json(capsys.readouterr().out)
    assert payload == {"valid": False, "error": "solver.alpha: must be finite"}
    assert run_command(["iterate", str(path), "--method", "dual"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver.alpha: must be finite" in captured.err


def test_nan_iterate_output_is_strict_json(scenario_file, capsys):
    # A finite step size at the top of the float range overflows the price:
    # the run diverges, and the non-finite fields are written as null. (A
    # NaN --alpha is refused before the run; see test_non_finite_solver_flag_exit_1.)
    code = run_command(["iterate", scenario_file, "--method", "dual",
                        "--alpha", "1e308", "--lambda0", "0"])
    assert code == 3
    payload = strict_json(capsys.readouterr().out)
    assert payload["stop_reason"] == "diverged"
    assert payload["alpha"] == 1e308 and payload["lambda"] is None


_BIG = 10 ** 400  # json reads 1e400 as inf, but this as an int that float() refuses


@pytest.mark.parametrize("extra, error", [
    ({"scenario": {**REFERENCE_JSON["scenario"], "tau": _BIG}},
     "scenario: invalid scenario: scenario.tau: tau must be finite"),
    ({"scenario": {**REFERENCE_JSON["scenario"], "loads": [6.0, -_BIG]}},
     "scenario: invalid scenario: scenario.loads[1]: load 2 must be finite"),
    ({"simulation": {"controller": "pi", "h": _BIG}}, "simulation.h: must be finite"),
], ids=["tau", "loads", "h"])
def test_integer_past_float_range_reads_as_infinite(tmp_path, capsys, extra, error):
    path = tmp_path / "big.json"
    path.write_text(reference_text(**extra))
    assert run_command(["validate", str(path)]) == 2
    assert strict_json(capsys.readouterr().out) == {"valid": False, "error": error}


def test_overflowing_arithmetic_prints_null(tmp_path, capsys):
    # The cost a*p**2 at p ~ 1e155 overflows: written as null, with no numpy
    # warning (an error under this suite's warning filter) on the way.
    path = tmp_path / "huge.json"
    path.write_text(reference_text(scenario={**REFERENCE_JSON["scenario"],
                                             "loads": [1.5e155, 0.0]}))
    assert run_command(["dispatch", str(path)]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["total_cost"] is None and payload["lambda_star"] == pytest.approx(1e155)
    assert run_command(["simulate", str(path), "--controller", "pi"]) == 0
    assert strict_json(capsys.readouterr().out)["samples"] == 10001


def test_slope_sum_past_the_float_range_exit_2(tmp_path, capsys):
    path = tmp_path / "tiny-a.json"
    generators = [{"id": f"G{i}", "cost": {"a": 2.8e-309, "b": 1.0}} for i in (1, 2)]
    path.write_text(reference_text(scenario={**REFERENCE_JSON["scenario"],
                                             "generators": generators}))
    assert run_command(["validate", str(path)]) == 2
    assert strict_json(capsys.readouterr().out) == {
        "valid": False, "error": "scenario: invalid scenario: scenario.generators: "
                                 "the total slope sum 1/(2a) must be finite"}
    assert run_command(["compare", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_infinite_t_end_in_file_exit_2(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(reference_text(simulation={"controller": "integral",
                                               "t_end": float("inf")}))
    assert run_command(["validate", str(path)]) == 2
    payload = strict_json(capsys.readouterr().out)
    assert payload == {"valid": False, "error": "simulation.t_end: must be finite"}
    assert run_command(["simulate", str(path), "--controller", "integral"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [["--t-end", "inf"], ["--h", "inf"], ["--h", "nan"],
                                   ["--eps", "nan"], ["--eps", "inf"]])
def test_non_finite_grid_flag_exit_1(scenario_file, capsys, flags):
    code = run_command(["simulate", scenario_file, "--controller", "pi", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["iterate", "--method", "dual", "--tol", "nan", "--lambda0", "0"], "--tol"),
    (["iterate", "--method", "mom", "--rho", "inf", "--lambda0", "0"], "--rho"),
    (["iterate", "--method", "dual", "--alpha", "nan", "--lambda0", "0"], "--alpha"),
    (["iterate", "--method", "dual", "--max-iter", "0"], "--max-iter"),
    (["compare", "--alpha", "nan"], "--alpha"),
    (["compare", "--rho", "-1"], "--rho"),
    (["sweep", "--param", "K", "--values", "1", "--tol", "inf"], "--tol"),
    (["equivalence", "--pair", "dual-integral", "--lambda0", "nan"], "--lambda0"),
])
def test_non_finite_solver_flag_exit_1(scenario_file, capsys, argv, flag):
    code = run_command([argv[0], scenario_file, *argv[1:]])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be ")


def test_solver_flags_override_the_file_block(tmp_path, capsys):
    path = tmp_path / "solver.json"
    path.write_text(reference_text(solver={"alpha": 0.5, "tol": 1e-3, "lambda0": 0.0}))
    assert run_command(["iterate", str(path), "--method", "dual", "--tol", "1e-9"]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["alpha"] == 0.5
    assert payload["converged"] is True and abs(payload["imbalance"]) < 1e-9
    assert run_command(["compare", str(path), "--alpha", "0.25"]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["alpha"] == 0.25 and payload["rho"] == 1.0 / 1.5


ONE_ITERATION = {"max_iter": 1, "alpha": 0.5, "lambda0": 0}


def test_compare_reads_solver_max_iter(tmp_path, capsys):
    path = tmp_path / "solver.json"
    path.write_text(reference_text(solver=ONE_ITERATION))
    assert run_command(["compare", str(path)]) == 0
    dual = strict_json(capsys.readouterr().out)["dual"]
    assert dual["iterations"] == 1
    assert dual["converged"] is False and dual["stop_reason"] == "max_iterations"


def test_sweep_reads_solver_max_iter(tmp_path, capsys):
    path = tmp_path / "solver.json"
    path.write_text(reference_text(solver=ONE_ITERATION))
    assert run_command(["sweep", str(path), "--param", "K", "--values", "1.0"]) == 0
    (record,) = strict_json(capsys.readouterr().out)["records"]
    # at alpha = rho = K/beta dual ascent is deadbeat and MoM halves the imbalance
    assert record["dual"]["iterations"] == 1 and record["dual"]["converged"] is True
    assert record["mom"]["iterations"] == 1
    assert record["mom"]["stop_reason"] == "max_iterations"


def test_equivalence_reads_solver_lambda0(tmp_path, capsys, monkeypatch):
    seen = []
    original = cli.check_euler_equivalence

    def recording(s, pair, steps, lambda0=None):
        seen.append(lambda0)
        return original(s, pair, steps, lambda0)

    monkeypatch.setattr(cli, "check_euler_equivalence", recording)
    path = tmp_path / "solver.json"
    path.write_text(reference_text(solver={"lambda0": 2.5}))
    assert run_command(["equivalence", str(path), "--pair", "mom-pi"]) == 0
    assert run_command(["equivalence", str(path), "--pair", "mom-pi", "--lambda0", "0"]) == 0
    assert seen == [2.5, 0.0]  # the flag overrides the block
    capsys.readouterr()


@pytest.mark.parametrize("step", ["nan", "inf", "-0.5", "1e-6"])
def test_bad_oracle_grid_step_exit_1(scenario_file, capsys, step):
    code = run_command(["dispatch", scenario_file, "--oracle", "--grid-step", step])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grid_step ")


@pytest.mark.parametrize("step", ["nan", "inf", "-0.5", "0"])
def test_bad_grid_step_exit_1_without_the_oracle(scenario_file, capsys, step):
    assert run_command(["dispatch", scenario_file, "--grid-step", step]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid_step must be finite and > 0\n"


def test_oracle_refuses_large_four_unit_grid_exit_1(tmp_path, capsys):
    payload = json.loads(reference_text())
    payload["scenario"]["generators"] = [
        {"id": f"G{i}", "cost": {"a": 1.0, "b": 0.0}} for i in range(1, 5)]
    path = tmp_path / "four.json"
    path.write_text(json.dumps(payload))
    # D = 10 spans [-20, 20]: a 0.004 step gives 10,001 points, above MAX_GRID_POINTS_N4
    code = run_command(["dispatch", str(path), "--oracle", "--grid-step", "0.004"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: grid_step 0.004 gives more than 8001 grid points")


# ---------------------------------------------------------------------------
# The command path reads the scenario's columns, never its generator objects

FLEET_200 = str(Path(__file__).parent / "golden" / "fleet-200.json")
NO_GENERATOR_COMMANDS = [
    ["dispatch"],
    ["iterate", "--method", "dual"],
    ["iterate", "--method", "dual", "--lambda0", "20"],
    ["iterate", "--method", "mom"],
    ["iterate", "--method", "mom", "--lambda0", "20"],
    ["simulate", "--controller", "integral", "--out-csv", "{csv}"],
    ["simulate", "--controller", "pi"],
    ["compare"],
    ["equivalence", "--pair", "dual-integral", "--steps", "20"],
    ["equivalence", "--pair", "mom-pi", "--steps", "20"],
    ["sweep", "--param", "K", "--values", "0.5", "2.0"],
    ["sweep", "--param", "rho", "--values", "0.01", "1.0"],
]


@pytest.fixture
def generator_inits(monkeypatch):
    """The class name of every Generator and CostCoefficients built, as they are built."""
    built = []
    for cls in (Generator, CostCoefficients):
        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("warm_start", [False, True], ids=["file-lambda0", "warm-start"])
@pytest.mark.parametrize("argv", NO_GENERATOR_COMMANDS, ids=" ".join)
def test_commands_build_no_generator_objects(generator_inits, tmp_path, capsys, argv,
                                             warm_start):
    # warm-start: the file's solver block without lambda0, so that a command without
    # --lambda0 starts from the first unit's marginal cost
    path = FLEET_200
    if warm_start:
        doc = json.loads(Path(FLEET_200).read_text(encoding="utf-8"))
        del doc["solver"]["lambda0"]
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
    command, *flags = argv
    csv_path = str(tmp_path / "out.csv")
    assert run_command([command, str(path), *(f.format(csv=csv_path) for f in flags)]) == 0
    assert capsys.readouterr().out
    assert generator_inits == []
    # the count is live: reading the parsed scenario's generators builds all 400
    assert len(parse_scenario_file(Path(path).read_text(encoding="utf-8"))
               .scenario.generators) == 200
    assert sorted(set(generator_inits)) == ["CostCoefficients", "Generator"]
    assert len(generator_inits) == 400


def test_serialize_builds_no_generator_objects(generator_inits):
    # the writer reads the ids and number columns, not Scenario.generators
    sf = parse_scenario_file(Path(FLEET_200).read_text(encoding="utf-8"))
    text = serialize_scenario_file(sf)
    assert "generators" not in sf.scenario.__dict__ and generator_inits == []
    assert parse_scenario_file(text) == sf
