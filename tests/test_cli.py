"""Scenario file parsing, CSV serialization, and command-line behaviour."""

import csv
import io
import json

import numpy as np
import pytest

from freqdispatch import (
    ControllerKind,
    QuasiStatic,
    SimulationTrace,
    dual_ascent_solve,
    simulate,
)
from freqdispatch import cli
from freqdispatch.cli import (
    ScenarioFileError,
    parse_scenario_file,
    run_command,
    serialize_scenario_file,
    write_trace_csv,
)
from freqdispatch.model import ControllerConfig, marginal_cost

from conftest import make_scenario, reference_scenario

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


def _reference_simulation_csv(trace) -> str:
    """Row by row: every value through format(x, ".17g"), costs through marginal_cost."""
    gens = trace.scenario.generators
    n = len(gens)
    lines = [",".join(["t"] + [f"p_{i + 1}" for i in range(n)] + ["delta_f"]
                      + [f"marginal_cost_{i + 1}" for i in range(n)])]
    for t, p, df in zip(trace.t.tolist(), trace.p.tolist(), trace.delta_f.tolist()):
        marginals = [marginal_cost(g.cost, x) for g, x in zip(gens, p)]
        lines.append(",".join(format(x, ".17g") for x in [t, *p, df, *marginals]))
    return "\n".join(lines) + "\n"


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
    assert sink.getvalue() == _reference_simulation_csv(trace)


def test_simulation_csv_blocks_match_row_by_row_reference():
    # a row count that is not a multiple of the writer's block size
    s = make_scenario([0.5, 1.0, 2.0], [1.0, 2.0, -3.0], [6.0, 4.0],
                      p_init=[4.0, 3.0, 2.0], beta=1.5)
    rows = 2 * cli._CSV_BLOCK_ROWS + 3
    cfg = ControllerConfig(ControllerKind.INTEGRAL, s.gain_K, s.tau)
    trace = simulate(s, cfg, h=0.1, t_end=(rows - 1) * 0.1, events=[(3.0, (7.2, 4.8))])
    assert len(trace.t) == rows and rows % cli._CSV_BLOCK_ROWS != 0
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    assert sink.getvalue() == _reference_simulation_csv(trace)


def test_write_trace_csv_rejects_unknown_types():
    with pytest.raises(TypeError):
        write_trace_csv(object(), io.StringIO())


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


def test_cmd_equivalence(scenario_file, capsys):
    code = run_command(["equivalence", scenario_file, "--pair", "dual-integral",
                        "--steps", "100", "--lambda0", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_abs_deviation"] <= 1e-9
    assert payload["steps"] == 100


def test_usage_errors_exit_1(capsys):
    assert run_command(["frobnicate"]) == 1
    assert run_command([]) == 1
    assert run_command(["iterate"]) == 1  # missing file and --method


def test_missing_file_exit_1(capsys):
    assert run_command(["dispatch", "/nonexistent/nowhere.json"]) == 1


def test_invalid_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(reference_text(format_version=9))
    assert run_command(["dispatch", str(path)]) == 2


def test_help_exits_cleanly(capsys):
    assert run_command(["--help"]) == 0


# ---------------------------------------------------------------------------
# non-finite input: a clean exit code and strict JSON on stdout

def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_nan_solver_block_exit_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(reference_text(solver={"alpha": float("nan"), "tol": float("nan")}))
    assert run_command(["validate", str(path)]) == 2
    payload = _strict_json(capsys.readouterr().out)
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
    payload = _strict_json(capsys.readouterr().out)
    assert payload["stop_reason"] == "diverged"
    assert payload["alpha"] == 1e308 and payload["lambda"] is None


def test_infinite_t_end_in_file_exit_2(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(reference_text(simulation={"controller": "integral",
                                               "t_end": float("inf")}))
    assert run_command(["validate", str(path)]) == 2
    payload = _strict_json(capsys.readouterr().out)
    assert payload == {"valid": False, "error": "simulation.t_end: must be finite"}
    assert run_command(["simulate", str(path), "--controller", "integral"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [["--t-end", "inf"], ["--h", "inf"], ["--h", "nan"]])
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
    payload = _strict_json(capsys.readouterr().out)
    assert payload["alpha"] == 0.5
    assert payload["converged"] is True and abs(payload["imbalance"]) < 1e-9
    assert run_command(["compare", str(path), "--alpha", "0.25"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["alpha"] == 0.25 and payload["rho"] == 1.0 / 1.5


ONE_ITERATION = {"max_iter": 1, "alpha": 0.5, "lambda0": 0}


def test_compare_reads_solver_max_iter(tmp_path, capsys):
    path = tmp_path / "solver.json"
    path.write_text(reference_text(solver=ONE_ITERATION))
    assert run_command(["compare", str(path)]) == 0
    dual = _strict_json(capsys.readouterr().out)["dual"]
    assert dual["iterations"] == 1
    assert dual["converged"] is False and dual["stop_reason"] == "max_iterations"


def test_sweep_reads_solver_max_iter(tmp_path, capsys):
    path = tmp_path / "solver.json"
    path.write_text(reference_text(solver=ONE_ITERATION))
    assert run_command(["sweep", str(path), "--param", "K", "--values", "1.0"]) == 0
    (record,) = _strict_json(capsys.readouterr().out)["records"]
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
