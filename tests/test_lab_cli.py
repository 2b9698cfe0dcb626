import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logschro import (
    SWEEP_CSV_HEADER,
    NonConvergence,
    ProblemInstance,
    SolveOptions,
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

    def test_programming_errors_propagate(self, p6, monkeypatch):
        real = lab.solve_nodal

        def broken(inst, opts=None):
            if inst.mode == "full":
                raise TypeError("bug")
            return real(inst, opts)

        monkeypatch.setattr(lab, "solve_nodal", broken)
        with pytest.raises(TypeError):
            sweep(p6, [1.0], OPTS)

    def test_nonconvergence_is_a_failed_row(self, p6, monkeypatch):
        real = lab.solve_nodal

        def failing(inst, opts=None):
            if inst.mode == "full":
                raise NonConvergence("no start")
            return real(inst, opts)

        monkeypatch.setattr(lab, "solve_nodal", failing)
        rows, _ = sweep(p6, [1.0], OPTS)
        assert [r.failed for r in rows] == [True]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lambda_rejected_before_any_solve(self, p6, monkeypatch, bad):
        calls = []

        def record(inst, opts=None):
            calls.append(inst.mode)
            raise AssertionError("solve reached")

        monkeypatch.setattr(lab, "solve_nodal", record)
        monkeypatch.setattr(lab, "solve_ground", record)
        with pytest.raises(ValueError, match="lambda"):
            sweep(p6, [1.0, bad], OPTS)
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

    def test_usage_errors_exit_1(self, capsys):
        assert cli_main(["solve", "--graph", "x.json"]) == 1
        assert cli_main(["generate", "--topology", "hexagon", "--n", "4", "--well", "1..2"]) == 1

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

    def test_infinite_tolerance_exits_3(self, tmp_path, p6, capsys):
        # An infinite tolerance used to report the first projected start
        # as converged and exit 0.
        gpath = tmp_path / "p6.json"
        p6.save(gpath)
        assert cli_main(["solve", "--graph", str(gpath), "--lambda", "10", "--nodal",
                         "--starts", "2", "--tol", "inf"]) == 3
        assert "tol_residual" in capsys.readouterr().err

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
        assert captured.err.startswith("error: pair projection stalled")

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
