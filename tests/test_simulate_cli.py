"""Closed-loop simulation reports and the command line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ucdkit
import ucdkit.qp
from ucdkit import (
    DisturbanceScript,
    UcdError,
    compare_with_oracle,
    save_model,
    simulate,
    train,
)
from ucdkit.cli import main


def test_disturbance_parse_forms():
    script = DisturbanceScript.parse(["t=2:200,150", "t=5:100,100"])
    assert script.lookup(2) == (200.0, 150.0)
    assert script.lookup(5) == (100.0, 100.0)
    assert script.lookup(3) is None


def test_disturbance_parse_rejects_malformed():
    for bad in ("2:200", "t=2", "t=x:1,2", "t=2:1,oops"):
        with pytest.raises(UcdError):
            DisturbanceScript.parse([bad])


def test_disturbance_periods_strictly_increasing():
    with pytest.raises(UcdError, match="strictly increasing"):
        DisturbanceScript(overrides=((3, (1.0, 2.0)), (3, (1.0, 2.0))))


def test_disturbance_rejects_negative_values():
    with pytest.raises(UcdError, match="finite"):
        DisturbanceScript.parse(["t=2:-5,0"])


def test_simulate_marks_divergence_only_at_overrides(e1c1, model_e1c1):
    script = DisturbanceScript.parse(["t=2:200,150"])
    rep = simulate(e1c1, model_e1c1, script)
    assert [r["t"] for r in rep.rows if r["diverged"]] == [2]
    assert np.allclose(rep.rows[1]["realized"][:2], [200.0, 150.0])
    # planned dispatch is what the scheduler wanted before the override
    assert rep.rows[1]["planned"][0] == pytest.approx(350.0)


def test_simulate_tail_matches_oracle_after_shock(e1c1, model_e1c1):
    script = DisturbanceScript.parse(["t=2:200,150"])
    rep = simulate(e1c1, model_e1c1, script)
    (cmp_row,) = rep.oracle_comparison
    assert cmp_row["after_t"] == 2
    assert cmp_row["gap"] == pytest.approx(0.0, abs=1e-6)


def test_relaxed_exact_tail_is_scored_from_the_stage_rows(e2c1, monkeypatch):
    # 24 periods of 32 modes: enumeration would exhaust its budget, the
    # value table over the rollout's own stage rows scores the tail with
    # no QP solve beyond the rollout's T * 2^N
    model = train(e2c1)
    solves = []
    solve = ucdkit.qp.solve

    def counting(problem):
        solves.append(problem.t)
        return solve(problem)

    monkeypatch.setattr(ucdkit.qp, "solve", counting)
    override = [0.5 * (u.p_min + u.p_max) for u in e2c1.units]
    rep = simulate(e2c1, model, DisturbanceScript(((12, override),)))
    (row,) = rep.oracle_comparison
    assert row["after_t"] == 12
    assert row["gap"] is not None and row["gap"] >= -1e-6
    assert len(solves) == e2c1.horizon << e2c1.n_units == 768


def test_simulate_totals_recompute(e1c4, model_e1c4):
    rep = simulate(e1c4, model_e1c4)
    assert rep.total_cost == pytest.approx(
        rep.running_total + rep.switching_total - rep.quota_rebate
    )
    assert rep.running_total == pytest.approx(sum(r["running"] for r in rep.rows))
    assert rep.switching_total == pytest.approx(sum(r["switching"] for r in rep.rows))


def test_simulate_rejects_out_of_range_period(e1c1, model_e1c1):
    with pytest.raises(UcdError, match="outside"):
        simulate(e1c1, model_e1c1, DisturbanceScript.parse(["t=9:1,2"]))


def test_simulate_rejects_wrong_model(e1c4, model_e1c1):
    from ucdkit import ModelMismatchError

    with pytest.raises(ModelMismatchError):
        simulate(e1c4, model_e1c1)


def test_report_json_round_trip(e1c1, model_e1c1, tmp_path):
    script = DisturbanceScript.parse(["t=3:300,50"])
    rep = simulate(e1c1, model_e1c1, script)
    path = tmp_path / "report.json"
    rep.write_json(path)
    doc = json.loads(path.read_text())
    assert doc["schedule"] == "122333"
    assert len(doc["rows"]) == 6
    assert doc["rows"][2]["diverged"] is True
    assert doc["total_cost"] == pytest.approx(rep.total_cost)


def test_compare_with_oracle_marks_argmin(e1c1, model_e1c1):
    rep = compare_with_oracle(e1c1, model_e1c1)
    assert rep.matches is True
    assert rep.oracle_schedule == "122333"
    argmins = [r for r in rep.rows if r["is_argmin"]]
    assert len(argmins) == 1
    assert argmins[0]["schedule"] == "122333"
    assert len(rep.rows) == 18
    header, *lines = rep.csv().strip().splitlines()
    assert header == "schedule,total_cost,is_argmin,is_clho"
    assert len(lines) == 18


# --- command line ---------------------------------------------------------


def _scenario_arg(key):
    """File path of a bundled scenario, read from the package directory."""
    return str(Path(ucdkit.__file__).parent / "scenarios" / f"{key}.ucd")


def test_cli_validate_ok(capsys):
    rc = main(["validate", _scenario_arg("example1_case1")])
    assert rc == 0
    assert "ok: 2 units, 6 periods" in capsys.readouterr().out


def test_cli_accepts_bundled_names(capsys):
    # a bare bundled name works wherever a file path does
    rc = main(["dispatch", "example1_case1", "--t", "4", "--mode", "11"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "500.9,199.1"
    rc = main(["validate", "no_such_scenario.ucd"])
    assert rc == 1
    assert "cannot read scenario file" in capsys.readouterr().err


def test_cli_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.ucd"
    p.write_text("units:\n  - {a: 0.0, b: 1, c: 1, p_min: 0, p_max: 10}\n"
                 "periods:\n  - {demand: 5}\n"
                 "initial:\n  commitment: [1]\n  dispatch: [5]\n")
    rc = main(["validate", str(p)])
    assert rc == 1
    assert "strict convexity" in capsys.readouterr().err


def test_cli_dispatch(capsys):
    rc = main(["dispatch", _scenario_arg("example1_case1"), "--t", "4", "--mode", "11"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "500.9,199.1"


def test_cli_dispatch_infeasible(capsys):
    rc = main(["dispatch", _scenario_arg("example1_case1"), "--t", "4", "--mode", "01"])
    assert rc == 1
    assert "no feasible dispatch" in capsys.readouterr().err


def test_cli_oracle_both_methods(capsys):
    rc = main(["oracle", _scenario_arg("example1_case4")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("133333 ")
    rc = main(["oracle", _scenario_arg("example1_case4"), "--graph"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("133333 ")


def test_cli_oracle_dump_table(capsys):
    rc = main(["oracle", _scenario_arg("example1_case1"), "--dump-table"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "schedule,total_cost"
    assert len(out) == 19


def test_cli_train_schedule_simulate_compare(tmp_path, capsys):
    scn = _scenario_arg("example1_case1")
    model = str(tmp_path / "m.json")
    assert main(["train", scn, "--out", model, "--samples", "25"]) == 0
    capsys.readouterr()

    assert main(["schedule", scn, "--model", model]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("t,mode,")
    assert lines[1].startswith("1,01,")

    report = str(tmp_path / "rep.json")
    assert main(["simulate", scn, "--model", model,
                 "--disturb", "t=2:200,150", "--report", report]) == 0
    out = capsys.readouterr().out
    assert out.startswith("122333 ")
    assert "gap 0.000000" in out
    assert json.loads(open(report).read())["rows"][1]["diverged"] is True

    assert main(["compare", scn, "--model", model]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "schedule,total_cost,is_argmin,is_clho"
    assert sum(",1,1" in ln or ln.endswith("1,1") for ln in out[1:]) == 1


def test_cli_schedule_from_midhorizon_state(tmp_path, capsys):
    scn = _scenario_arg("example1_case1")
    model = str(tmp_path / "m.json")
    main(["train", scn, "--out", model])
    capsys.readouterr()
    rc = main(["schedule", scn, "--model", model, "--from-t", "4",
               "--state", "350,0", "--prev-mode", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + t in {4, 5, 6}
    assert all(ln.split(",")[1] == "11" for ln in lines[1:])


@pytest.mark.parametrize("from_t", ["0", "7", "9"])
def test_cli_schedule_rejects_from_t_outside_the_horizon(from_t, tmp_path, capsys,
                                                         model_e1c1):
    model = str(tmp_path / "m.json")
    save_model(model_e1c1, model)
    rc = main(["schedule", _scenario_arg("example1_case1"), "--model", model,
               "--from-t", from_t])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: --from-t {from_t} outside 1..6\n"


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(ucdkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ucdkit", "validate", "example1_case1"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "ok: 2 units, 6 periods\n")


def test_cli_model_mismatch_is_domain_error(tmp_path, capsys, e1c1, model_e1c1):
    model = str(tmp_path / "m.json")
    save_model(model_e1c1, model)
    rc = main(["simulate", _scenario_arg("example1_case4"), "--model", model])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_malformed_model_is_domain_error(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text("[]")
    rc = main(["schedule", _scenario_arg("example1_case1"), "--model", str(model)])
    assert rc == 1
    assert capsys.readouterr().err == "error: not a value model document\n"


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_cli_train_rejects_bad_regularization(value, tmp_path, capsys):
    model = tmp_path / "m.json"
    rc = main(["train", _scenario_arg("example1_case1"), "--out", str(model),
               "--regularization", value])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: regularization must be finite")
    assert not model.exists()


def test_cli_train_rejects_negative_seed(tmp_path, capsys):
    model = tmp_path / "m.json"
    rc = main(["train", _scenario_arg("example1_case1"), "--out", str(model),
               "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not model.exists()


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_cli_model_of_another_shape_is_domain_error(force, tmp_path, capsys, model_e1c1):
    model = tmp_path / "m.json"
    save_model(model_e1c1, model)
    doc = json.loads(model.read_text())
    doc["n_units"] = 3
    doc["basis"]["coords"] = [0, 4]
    model.write_text(json.dumps(doc))
    rc = main(["schedule", _scenario_arg("example1_case1"), "--model", str(model), *force])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: model has 3 units over 6 periods")


@pytest.mark.parametrize("args", [
    ["schedule", "--from-t", "2", "--state", "nan,-5"],
    ["dispatch", "--t", "4", "--mode", "11", "--prev", "inf,-3"],
    ["dispatch", "--t", "4", "--mode", "11", "--prev", "300,-1"],
], ids=["schedule-nan", "dispatch-inf", "dispatch-negative"])
def test_cli_state_entries_must_be_finite_and_nonnegative(args, tmp_path, capsys,
                                                          model_e1c1):
    model = str(tmp_path / "m.json")
    save_model(model_e1c1, model)
    extra = ["--model", model] if args[0] == "schedule" else []
    rc = main([args[0], _scenario_arg("example1_case1"), *extra, *args[1:]])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "values must be finite and >= 0" in captured.err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["oracle"])  # missing scenario positional
    assert e.value.code == 2


def test_cli_run_schedule(capsys):
    assert main(["run", _scenario_arg("example1_case4"), "133333"]) == 0
    assert capsys.readouterr().out.startswith("133333 ")
    assert main(["run", _scenario_arg("example1_case4"), "133333", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("t,I_1,I_2,")


@pytest.mark.parametrize("command", ["oracle", "compare"])
@pytest.mark.parametrize("budget", ["0", "-3", "1.5"])
def test_cli_budget_takes_positive_integers_only(command, budget, tmp_path, capsys,
                                                 model_e1c1):
    model = str(tmp_path / "m.json")
    save_model(model_e1c1, model)
    extra = ["--model", model] if command == "compare" else []
    with pytest.raises(SystemExit) as e:
        main([command, _scenario_arg("example1_case1"), *extra, "--budget", budget])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget:" in captured.err
    assert main([command, _scenario_arg("example1_case1"), *extra, "--budget", "18"]) == 0
