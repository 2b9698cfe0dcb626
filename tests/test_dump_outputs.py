"""``tools/dump_outputs.py`` gives the same digests on two runs of one tree,
and compares two trees."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("dump_outputs", ROOT / "tools" / "dump_outputs.py")
dump = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dump)


def _tiny_slice() -> list[str]:
    return [
        dump.digest(dump.fixtures(families=dump.FIXTURE_FAMILIES[3:4], starts=2)),
        dump.digest(dump.cli_sweep(graphs=dump.SWEEP_GRAPHS[:1], lambdas="1,10", starts=2)),
        dump.digest(dump.random_mix(count=3, starts=2)),
        dump.digest(dump.projections(count=20)),
        dump.digest(dump.cli_reports(families=dump.FIXTURE_FAMILIES[3:4], starts=2)),
    ]


def test_tiny_slice_is_deterministic():
    first = _tiny_slice()
    assert first == _tiny_slice()
    counts = [line.split()[1:] for line in first]
    assert counts[0] == ["records=4", "errors=0"]
    assert [c[0] for c in counts[1:]] == ["records=1", "records=6", "records=20", "records=6"]


def test_main_prints_one_line_per_group(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(dump, "GROUPS", {"projections": lambda: dump.projections(count=5)})
    assert dump.main([str(ROOT / "src")]) == 0
    name, sha, records, _ = capsys.readouterr().out.split()
    assert (name, len(sha), records) == ("projections", 64, "records=5")


def test_two_trees_run_in_subprocesses(capsys):
    src = str(ROOT / "src")
    assert dump.main([src, src, "--groups", "projections"]) == 0
    verdict, first, second = capsys.readouterr().out.splitlines()
    assert verdict == "projections equal"
    assert first == second and first.split()[1:3] == ["records=1000", "errors=723"]


def test_differing_trees_exit_1(monkeypatch, capsys):
    records = iter([{"cli": ["exit 0\n1.0"]}, {"cli": ["exit 0\n1.5"]}])
    monkeypatch.setattr(dump, "_tree_records", lambda src_dir, groups: next(records))
    assert dump.main(["x", "y", "--groups", "cli"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("cli DIFFERS\n")
    assert "  1 records differ, 1 only in numbers\n" in out


def test_compare_says_how_far_records_moved():
    hexed = "00" * 15 + "01"
    first = [
        "r000 ground 1.0",
        f'r001 ground {{"level": 2.0, "residual": 1e-15}} {hexed}',
        "r002 ground 4.0 [1]",
        "r003 nodal error NoBracket: beyond float range",
        "r004 ground 3.0",
    ]
    second = [
        "r000 ground 1.0",
        f'r001 ground {{"level": 2.000000002, "residual": 3e-15}} {"00" * 16}',
        "r002 ground 4.0 [1, 2]",
        "r003 nodal 5.0",
        "r004 ground 3.0",
        "r005 nodal 1.0",
    ]
    # Only r001 differs in numbers alone; its residual is below 1e-12 of its
    # level, and its bytes in hex are not compared.
    assert dump.compare(first, second) == [
        "4 records differ, 1 only in numbers",
        f"largest relative change 1e-09 in {first[1][:60]!r}",
        f"largest absolute change below 1e-12 of the largest 2e-15 in {first[1][:60]!r}",
        "3 other records differ:",
        "  'r002 ground 4.0 [1]'",
        "  'r003 nodal error NoBracket: beyond float range'",
        "  'r005 nodal 1.0'",
    ]
    assert dump.compare(first, first) == ["0 records differ, 0 only in numbers"]
