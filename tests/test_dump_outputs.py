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
    digests = iter([{"cli": "a records=1 errors=0"}, {"cli": "b records=1 errors=0"}])
    monkeypatch.setattr(dump, "_tree_digests", lambda src_dir, groups: next(digests))
    assert dump.main(["x", "y", "--groups", "cli"]) == 1
    assert capsys.readouterr().out.startswith("cli DIFFERS\n")
