import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from logschro import (
    SWEEP_CSV_HEADER,
    GraphValidationError,
    NonConvergence,
    ProblemInstance,
    SolveOptions,
    SweepRow,
    WeightedGraph,
    generate_graph,
    parse_well,
    solve_nodal,
    sweep,
    sweep_csv,
)
from logschro import lab
from logschro.cli import build_parser
from logschro.cli import main as cli_main

E = math.e
OPTS = SolveOptions(starts=16, seed=0)

# `logschro sweep --lambdas 1,10,100,1000,10000 --starts 16 --seed 0` on the
# generated 6-path with well 3..4: CSV rows and the stderr summary.
P6_SWEEP_ROWS = [
    [1.0, 5.765838439032475, 2.3324167529468767, 1.1010049331387215, 14.319698484155186,
     6.6889449515858175, 11.541100694309906, 6.6889449515858175],
    [10.0, 18.82430513652381, 2.5689159350823774, 13.686473266359057, 1.2612317866638492,
     1.8256451289318858, 0.9498405059589206, 0.1825645128931886],
    [100.0, 19.902744907150456, 2.6939938514629374, 14.514757204224582, 0.18279201603720452,
     0.33892618325558715, 0.13004266064484307, 0.0033892618325558716],
    [1000.0, 20.06573538219289, 2.7156072652074426, 14.634520851778007, 0.01980154099477005,
     0.03912032764229027, 0.013984070311733779, 3.912032764229027e-05],
    [10000.0, 20.083532163357162, 2.718010567880014, 14.647511027597133,
     0.002004759830498415, 0.0040027453827665305, 0.0014146811908375995, 4.0027453827665305e-07],
]
P6_SWEEP_SUMMARY = {
    "c_omega": 2.7182818284590446,
    "final_thresholds_ok": True,
    "m_omega": 20.08553692318766,
    "sup_h_lambda_norm": 12.675339846027892,
    "trend_ok": True,
    "u0_h1_sq": 160.6842953855013,
    "u0_l2_sq": 40.17107384637532,
    "verdict": True,
}


class TestGenerateGraph:
    def test_path_fixture(self):
        data = generate_graph("path", 6, "3..4")
        assert [v["id"] for v in data["vertices"]] == [f"v{i}" for i in range(1, 7)]
        assert [v["a"] for v in data["vertices"]] == [1.0, 1.0, 0.0, 0.0, 1.0, 1.0]
        assert data["validation"]["passes"]
        assert set(data["validation"]["omega"]["interior"]) == {"v3", "v4"}

    def test_disconnected_well_rejected(self):
        with pytest.raises(ValueError):
            generate_graph("path", 6, "v2,v4")

    def test_grid_well(self):
        data = generate_graph("grid", 4, "v2-2,v2-3,v3-2,v3-3")
        assert len(data["vertices"]) == 16
        assert sum(1 for v in data["vertices"] if v["a"] == 0.0) == 4
        assert data["validation"]["passes"]

    def test_round_trip_is_canonical(self, tmp_path):
        data = generate_graph("cycle", 5, "1..2")
        data.pop("validation")
        g = WeightedGraph.from_dict(data)
        path = tmp_path / "g.json"
        g.save(path)
        again = WeightedGraph.load(path)
        assert again.to_json() == g.to_json()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            generate_graph("path", 6, "3..4", a_out=0.0)
        with pytest.raises(ValueError):
            generate_graph("blob", 6, "3..4")
        with pytest.raises(ValueError):
            generate_graph("path", 1, "1..1")
        with pytest.raises(ValueError, match="cycle needs at least three vertices"):
            generate_graph("cycle", 2, "1..2")

    @pytest.mark.parametrize("option", ["mu", "omega_w"])
    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
    def test_bad_measure_or_weight_rejected(self, option, value):
        # The graph constructor judges them; generate used to let NaN and
        # inf through its own check.
        with pytest.raises(GraphValidationError):
            generate_graph("path", 6, "3..4", **{option: value})


class TestParseWell:
    def test_range(self):
        ids = [f"v{i}" for i in range(1, 7)]
        assert parse_well("3..4", ids) == ["v3", "v4"]
        assert parse_well("v3..v4", ids) == ["v3", "v4"]

    def test_id_list(self):
        ids = ["c", "l1", "l2"]
        assert parse_well("l1,l2", ids) == ["l1", "l2"]

    def test_errors(self):
        ids = ["v1", "v2"]
        with pytest.raises(ValueError):
            parse_well("1..9", ids)
        with pytest.raises(ValueError):
            parse_well("", ids)
        with pytest.raises(ValueError):
            parse_well("zz", ids)
        # "vv1..2" used to be read as 1..2: every leading "v" was stripped.
        for spec in ("vv1..2", "1..x"):
            with pytest.raises(ValueError, match="bad well range"):
                parse_well(spec, ids)


class TestSweep:
    def test_single_lambda_has_no_trend_verdict(self, p6):
        rows, summary = sweep(p6, [1.0], OPTS)
        assert len(rows) == 1
        assert summary.trend_ok is None and summary.verdict is None
        assert summary.m_omega == pytest.approx(E**3, rel=1e-10)

    def test_rows_respect_level_bounds(self, p6):
        rows, summary = sweep(p6, [1.0, 10.0, 100.0], OPTS)
        for row in rows:
            assert row.m_lambda <= summary.m_omega + 1e-8
            assert row.margin_m_minus_2c > 0.0
            assert row.gap_to_m_omega >= -1e-8
        assert summary.sup_h_lambda_norm < math.inf

    def test_lambdas_must_increase(self, p6):
        with pytest.raises(ValueError):
            sweep(p6, [10.0, 1.0], OPTS)
        with pytest.raises(ValueError):
            sweep(p6, [-1.0, 1.0], OPTS)

    def test_csv_format(self, p6):
        rows, _ = sweep(p6, [1.0, 10.0], OPTS)
        text = sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        # Full round-trip decimal formatting.
        assert first[1] == repr(rows[0].m_lambda)

    def test_csv_header_names_the_row_fields(self):
        names = [f.name for f in fields(SweepRow)]
        assert (names[0], names[-1]) == ("lam", "failed")
        assert SWEEP_CSV_HEADER.split(",") == ["lambda"] + names[1:-1]

    def test_single_vertex_well_rejected(self):
        g = WeightedGraph.from_dict(generate_graph("path", 3, "2..2"))
        with pytest.raises(ValueError, match="at least two vertices"):
            sweep(g, [1.0], OPTS)

    def test_programming_errors_propagate(self, p6, monkeypatch):
        real = lab.solve_nodal

        def broken(inst, opts=None):
            if inst.lam is not None:
                raise TypeError("bug")
            return real(inst, opts)

        monkeypatch.setattr(lab, "solve_nodal", broken)
        with pytest.raises(TypeError):
            sweep(p6, [1.0], OPTS)

    def test_nonconvergence_is_a_failed_row(self, p6, monkeypatch):
        real = lab.solve_nodal

        def failing(inst, opts=None):
            if inst.lam is not None:
                raise NonConvergence("no start")
            return real(inst, opts)

        monkeypatch.setattr(lab, "solve_nodal", failing)
        rows, _ = sweep(p6, [1.0], OPTS)
        assert [r.failed for r in rows] == [True]

    def test_integer_lambdas_print_as_floats_in_failed_rows(self, p6, monkeypatch):
        # A failed row used to print an integer lambda as given ("10,FAILED").
        real = lab.solve_nodal

        def failing_at_10(inst, opts=None):
            if inst.lam == 10.0:
                raise NonConvergence("no start")
            return real(inst, opts)

        monkeypatch.setattr(lab, "solve_nodal", failing_at_10)
        rows, _ = sweep(p6, [1, 10], OPTS)
        assert [r.failed for r in rows] == [False, True]
        lines = sweep_csv(rows).strip().split("\n")[1:]
        assert [line.split(",")[0] for line in lines] == ["1.0", "10.0"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lambda_rejected_before_any_solve(self, p6, monkeypatch, bad):
        calls = []

        def record(inst, opts=None):
            calls.append(inst.lam)
            raise AssertionError("solve reached")

        monkeypatch.setattr(lab, "solve_nodal", record)
        monkeypatch.setattr(lab, "solve_ground", record)
        with pytest.raises(ValueError, match="lambda"):
            sweep(p6, [1.0, bad], OPTS)
        assert calls == []

    def test_empty_lambdas_rejected_before_any_solve(self, p6, monkeypatch):
        # It used to run the two Dirichlet solves and return no rows.
        calls = []

        def record(inst, opts=None):
            calls.append(inst.lam)
            raise AssertionError("solve reached")

        monkeypatch.setattr(lab, "solve_nodal", record)
        monkeypatch.setattr(lab, "solve_ground", record)
        with pytest.raises(ValueError, match="lambdas"):
            sweep(p6, [], OPTS)
        assert calls == []

    def test_determinism(self, p6):
        rows_a, _ = sweep(p6, [1.0, 10.0], OPTS)
        rows_b, _ = sweep(p6, [1.0, 10.0], OPTS)
        assert sweep_csv(rows_a) == sweep_csv(rows_b)


class TestCli:
    def run(self, *argv, capsys=None):
        return cli_main(list(argv))

    def test_generate_solve_check_round_trip(self, tmp_path, capsys):
        gpath = tmp_path / "k2.json"
        code = cli_main(
            ["generate", "--topology", "path", "--n", "2", "--well", "1..2", "--out", str(gpath)]
        )
        assert code == 0
        spath = tmp_path / "sol.json"
        code = cli_main(
            [
                "solve", "--graph", str(gpath), "--mode", "full", "--lambda", "1",
                "--nodal", "--starts", "8", "--seed", "0", "--out", str(spath),
            ]
        )
        assert code == 0
        report = json.loads(spath.read_text())
        assert report["level"] == pytest.approx(E * E, rel=1e-8)

        fpath = tmp_path / "field.json"
        fpath.write_text(json.dumps({"values": report["minimizer"]["values"]}))
        code = cli_main(
            ["check", "--graph", str(gpath), "--state", str(fpath), "--lambda", "1"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["residual_inf"] <= 1e-10

    def test_project_subcommand(self, tmp_path, capsys):
        gpath = tmp_path / "k2.json"
        cli_main(["generate", "--topology", "path", "--n", "2", "--well", "1..2",
                  "--out", str(gpath)])
        fpath = tmp_path / "u.json"
        fpath.write_text(json.dumps({"values": {"v1": 2.0, "v2": -1.0}}))
        code = cli_main(["project", "--graph", str(gpath), "--state", str(fpath),
                         "--lambda", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["s"] == pytest.approx(E / 2.0, rel=1e-8)
        assert out["t"] == pytest.approx(E, rel=1e-8)
        assert not out["degenerate"]

    @pytest.mark.parametrize("values", [{"v1": 1, "v2": -1}, {"v1": 1, "v3": -1}],
                             ids=["no_bracket", "overflow"])
    def test_project_failure_exits_2(self, tmp_path, p3_no_well, capsys, values):
        gpath = tmp_path / "p3.json"
        p3_no_well.save(gpath)
        fpath = tmp_path / "u.json"
        fpath.write_text(json.dumps({"values": values}))
        code = cli_main(["project", "--graph", str(gpath), "--state", str(fpath),
                         "--lambda", "5000"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: pair projection failed")

    def test_check_reads_solve_report(self, tmp_path, capsys):
        gpath = tmp_path / "p6.json"
        cli_main(["generate", "--topology", "path", "--n", "6", "--well", "3..4",
                  "--out", str(gpath)])
        upath = tmp_path / "u.json"
        code = cli_main(["solve", "--graph", str(gpath), "--nodal", "--lambda", "10",
                         "--starts", "8", "--out", str(upath)])
        assert code == 0
        code = cli_main(["check", "--graph", str(gpath), "--state", str(upath),
                         "--lambda", "10"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["level"] == pytest.approx(json.loads(upath.read_text())["level"], rel=1e-12)

    def test_sweep_subcommand(self, tmp_path, capsys):
        gpath = tmp_path / "p6.json"
        cli_main(["generate", "--topology", "path", "--n", "6", "--well", "3..4",
                  "--out", str(gpath)])
        cpath = tmp_path / "rows.csv"
        code = cli_main(["sweep", "--graph", str(gpath), "--lambdas", "1,10,100",
                         "--starts", "8", "--out", str(cpath)])
        assert code == 0
        lines = cpath.read_text().strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 4

    def test_dirichlet_solve_and_check(self, tmp_path, p6, capsys):
        gpath, spath = tmp_path / "p6.json", tmp_path / "u.json"
        p6.save(gpath)
        code = cli_main(["solve", "--graph", str(gpath), "--mode", "dirichlet", "--nodal",
                         "--starts", "8", "--out", str(spath)])
        assert code == 0
        report = json.loads(spath.read_text())
        assert report["level"] == pytest.approx(E**3, rel=1e-10)
        values = report["minimizer"]["values"]
        assert all(values[v] == 0.0 for v in ("v1", "v2", "v5", "v6"))
        code = cli_main(["check", "--graph", str(gpath), "--state", str(spath),
                         "--mode", "dirichlet"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["residual_inf"] <= 1e-10 * max(1.0, max(abs(x) for x in values.values()))
        assert out["level"] == pytest.approx(E**3, rel=1e-10)

    def test_bad_lambdas_list_exits_3(self, tmp_path, p6, capsys):
        gpath = tmp_path / "p6.json"
        p6.save(gpath)
        assert cli_main(["sweep", "--graph", str(gpath), "--lambdas", "1,x", "--starts", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad --lambdas list")

    def test_failed_sweep_row_exits_2(self, tmp_path, p6, capsys, monkeypatch):
        real = lab.solve_nodal

        def failing_at_10(inst, opts=None):
            if inst.lam == 10.0:
                raise NonConvergence("no start")
            return real(inst, opts)

        monkeypatch.setattr(lab, "solve_nodal", failing_at_10)
        gpath = tmp_path / "p6.json"
        p6.save(gpath)
        assert cli_main(["sweep", "--graph", str(gpath), "--lambdas", "1,10", "--starts", "4"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[1].startswith("1.0,") and lines[2] == "10.0,FAILED,,,,,,"
        summary = json.loads(captured.err)
        assert summary["verdict"] is None and "u0" not in summary

    @pytest.mark.parametrize("option", ["--mu", "--w"])
    @pytest.mark.parametrize("value", ["0", "nan", "inf"])
    def test_bad_measure_or_weight_exits_3(self, capsys, option, value):
        argv = ["generate", "--topology", "path", "--n", "6", "--well", "3..4", option, value]
        assert cli_main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_usage_errors_exit_1(self, capsys):
        assert cli_main(["solve", "--graph", "x.json"]) == 1
        assert cli_main(["generate", "--topology", "hexagon", "--n", "4", "--well", "1..2"]) == 1

    def test_project_without_lambda_exits_1(self, tmp_path, p3, capsys):
        gpath, spath = tmp_path / "g.json", tmp_path / "s.json"
        p3.save(gpath)
        spath.write_text(json.dumps({"values": {"v1": 1.0}}))
        assert cli_main(["project", "--graph", str(gpath), "--state", str(spath)]) == 1
        assert "--lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "project"])
    def test_bad_lambda_is_reported_before_the_state(self, tmp_path, p3, capsys, command):
        # Both subcommands build the instance before they read the state.
        gpath = tmp_path / "g.json"
        p3.save(gpath)
        assert cli_main([command, "--graph", str(gpath), "--state", str(tmp_path / "none.json"),
                         "--lambda", "nan"]) == 3
        assert "lambda must be positive and finite" in capsys.readouterr().err

    def test_solve_defaults_are_solve_options(self):
        defaults = SolveOptions()
        parser = build_parser()
        solve_args = parser.parse_args(["solve", "--graph", "g.json", "--nodal"])
        sweep_args = parser.parse_args(["sweep", "--graph", "g.json", "--lambdas", "1"])
        for args in (solve_args, sweep_args):
            assert (args.starts, args.seed) == (defaults.starts, defaults.seed)
        assert solve_args.tol == defaults.tol_residual

    def test_validation_errors_exit_3(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli_main(["solve", "--graph", str(missing), "--mode", "full",
                         "--lambda", "1", "--nodal"]) == 3
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [], "edges": []}')
        assert cli_main(["solve", "--graph", str(bad), "--mode", "full",
                         "--lambda", "1", "--nodal"]) == 3
        # Full mode without --lambda is a validation failure on the instance.
        gpath = tmp_path / "g.json"
        cli_main(["generate", "--topology", "path", "--n", "2", "--well", "1..2",
                  "--out", str(gpath)])
        assert cli_main(["solve", "--graph", str(gpath), "--mode", "full", "--nodal"]) == 3
        # A one-vertex graph carries no sign-changing field.
        WeightedGraph(["v1"], [1.0], [1.0], []).save(gpath)
        assert cli_main(["solve", "--graph", str(gpath), "--lambda", "1", "--nodal"]) == 3

    @pytest.mark.parametrize(
        "state", [{"values": [1, 2]}, {"values": {"v1": None}}], ids=["list", "null_value"]
    )
    def test_malformed_state_exits_3(self, tmp_path, p3, capsys, state):
        # These used to escape as a raw AttributeError and TypeError.
        gpath, spath = tmp_path / "g.json", tmp_path / "s.json"
        p3.save(gpath)
        spath.write_text(json.dumps(state))
        assert cli_main(["check", "--graph", str(gpath), "--state", str(spath),
                         "--lambda", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_null_edge_weight_exits_3(self, tmp_path, p3, capsys):
        # It used to escape WeightedGraph.__init__ as a raw TypeError.
        data = p3.to_dict()
        data["edges"][0]["w"] = None
        gpath, spath = tmp_path / "g.json", tmp_path / "s.json"
        gpath.write_text(json.dumps(data))
        spath.write_text(json.dumps({"values": {"v1": 1.0}}))
        assert cli_main(["check", "--graph", str(gpath), "--state", str(spath),
                         "--lambda", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: edge weight is not a number")

    def test_unhashable_edge_endpoint_exits_3(self, tmp_path, p3, capsys):
        # It used to escape WeightedGraph.__init__ as a raw TypeError (exit 1).
        data = p3.to_dict()
        data["edges"][0]["u"] = [data["edges"][0]["u"]]
        gpath, spath = tmp_path / "g.json", tmp_path / "s.json"
        gpath.write_text(json.dumps(data))
        spath.write_text(json.dumps({"values": {"v1": 1.0}}))
        assert cli_main(["check", "--graph", str(gpath), "--state", str(spath),
                         "--lambda", "1"]) == 3
        assert capsys.readouterr().err.startswith("error: edge references unknown vertex")

    def test_infinite_tolerance_exits_3(self, tmp_path, p6, capsys):
        # An infinite tolerance used to report the first projected start
        # as converged and exit 0.
        gpath = tmp_path / "p6.json"
        p6.save(gpath)
        assert cli_main(["solve", "--graph", str(gpath), "--lambda", "10", "--nodal",
                         "--starts", "2", "--tol", "inf"]) == 3
        assert "tol_residual" in capsys.readouterr().err

    def test_negative_seed_exits_3(self, tmp_path, p6, capsys):
        # numpy used to reject it inside the first start, with a message
        # that did not name the option.
        gpath = tmp_path / "p6.json"
        p6.save(gpath)
        assert cli_main(["solve", "--graph", str(gpath), "--lambda", "10", "--nodal",
                         "--starts", "2", "--seed", "-1"]) == 3
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    def test_empty_lambdas_exits_3(self, tmp_path, p6, capsys):
        # It used to print only the CSV header and exit 0 with verdict null.
        gpath = tmp_path / "p6.json"
        p6.save(gpath)
        assert cli_main(["sweep", "--graph", str(gpath), "--lambdas", ",", "--starts", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lambdas must not be empty" in captured.err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exits_3(self, tmp_path, p6, capsys, lam):
        gpath = tmp_path / "p6.json"
        p6.save(gpath)
        assert cli_main(["solve", "--graph", str(gpath), "--lambda", lam, "--nodal",
                         "--starts", "2"]) == 3
        assert "lambda must be positive and finite" in capsys.readouterr().err

    def test_decoupled_projection_failure_exits_2(self, tmp_path, p6, capsys):
        # Separated supports at lambda = 1000: t^2 overflows, and the report
        # used to print "g2_residual": NaN with exit 0.
        gpath = tmp_path / "p6.json"
        p6.save(gpath)
        fpath = tmp_path / "u.json"
        fpath.write_text(json.dumps({"values": {"v3": 1, "v6": -1}}))
        code = cli_main(["project", "--graph", str(gpath), "--state", str(fpath),
                         "--lambda", "1000"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pair projection failed")
        assert "float range" in captured.err

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_state_beyond_float_range_exits_2(self, tmp_path, p6, capsys, scale):
        # Both sign parts are nonzero.  At 1e-170 their squares underflow,
        # which exited 3 as if a part were zero; at 1e160 they overflow,
        # which printed raw RuntimeWarnings first.
        gpath = tmp_path / "p6.json"
        p6.save(gpath)
        fpath = tmp_path / "u.json"
        fpath.write_text(json.dumps({"values": {"v2": scale, "v3": -2.0 * scale, "v5": scale}}))
        code = cli_main(["project", "--graph", str(gpath), "--state", str(fpath),
                         "--lambda", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pair projection failed")
        assert ("underflows" if scale < 1.0 else "the field's norms overflow") in captured.err
        assert "Warning" not in captured.err

    def test_scaling_overflow_exits_2(self, tmp_path, p3_no_well, capsys):
        gpath = tmp_path / "p3.json"
        p3_no_well.save(gpath)
        for kind in ("--ground", "--nodal"):
            code = cli_main(["solve", "--graph", str(gpath), "--lambda", "5000", kind,
                             "--starts", "4"])
            assert code == 2
        assert "no ground start" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        commands = [
            line.strip() for line in readme.splitlines() if line.strip().startswith("logschro ")
        ]
        assert len(commands) >= 5
        parser = build_parser()
        for command in commands:
            parser.parse_args(shlex.split(command)[1:])

    def test_p6_sweep_values_pinned(self, tmp_path, capsys):
        # The acceptance sweep's CSV and stderr summary, recorded once the
        # reported minimizers were polished to rounding level, so that the
        # values no longer depend on the descent's path.
        gpath = tmp_path / "p6.json"
        cli_main(["generate", "--topology", "path", "--n", "6", "--well", "3..4",
                  "--out", str(gpath)])
        capsys.readouterr()
        code = cli_main(["sweep", "--graph", str(gpath), "--lambdas", "1,10,100,1000,10000",
                         "--starts", "16", "--seed", "0"])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        got = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert got == [pytest.approx(row, rel=1e-12) for row in P6_SWEEP_ROWS]
        summary = json.loads(captured.err)
        for key, value in P6_SWEEP_SUMMARY.items():
            assert summary[key] == (value if isinstance(value, bool) else pytest.approx(value, rel=1e-12))
        assert set(summary) == set(P6_SWEEP_SUMMARY)

    def test_byte_identical_outputs(self, tmp_path):
        gpath = tmp_path / "p6.json"
        cli_main(["generate", "--topology", "path", "--n", "6", "--well", "3..4",
                  "--out", str(gpath)])
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = cli_main(["solve", "--graph", str(gpath), "--mode", "full",
                             "--lambda", "10", "--nodal", "--starts", "8",
                             "--seed", "7", "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, logschro, logschro.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
