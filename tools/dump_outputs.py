"""Print one SHA-256 per output group of the ``logschro`` package in SRC_DIR.

Equal digests mean byte-identical outputs.  Given a second tree, it runs
each tree in its own subprocess, prints both digests of each group with
``equal`` or ``DIFFERS``, and exits 1 on any difference.  Under a group
that differs it says by how much (see ``compare``): the number of
differing records, the largest change of the records whose text differs
only in numbers, and the first 60 characters of each other differing
record:

    python tools/dump_outputs.py src
    python tools/dump_outputs.py src ../other-checkout/src --groups fixtures cli

Groups, each hashed over its records in order:

``fixtures``
    7 fixture families x full (lambda = 10) / Dirichlet x ground / nodal
    at 8 starts, seed 0: ``SolveReport.to_dict`` and the minimizer's
    bytes, or the error.
``sweep``
    CLI ``sweep`` on p6 and grid5, lambda = 1..1e4, 16 starts, seed 0:
    exit code, CSV and stderr.
``cli``
    The fixture families through the CLI: ``generate``'s JSON (with its
    validation report); ``solve --mode full|dirichlet --ground|--nodal``
    at 8 starts, seed 0 (full at lambda = 10); ``check`` and ``project``
    on each solve's output; and ``identity_suite(...).to_json()`` on a
    seeded field of the full problem.  Each command gives its exit code,
    stdout and stderr.
``random_mix``
    Seed 0: the first 200 random graphs, lambda = 10^U(-1, 5), x ground /
    nodal at 4 starts, with the error texts.
``projections``
    1,000 seeded random fields, each through ``project_pair`` and
    ``project_ray``: result and projected-field bytes, or the error.

The random graphs and fields come from this checkout's
``tests/conftest.py``, so every tree gets the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile

TESTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")

FIXTURE_FAMILIES = (
    ("path", 12, "5..8"),
    ("path", 24, "10..15"),
    ("cycle", 10, "4..6"),
    ("star", 8, "1..2"),
    ("grid", 4, "v2-2,v2-3,v3-2,v3-3"),
    ("grid", 5, "v2-2,v2-3,v3-2,v3-3"),
    ("grid", 7, "v3-3,v3-4,v4-3,v4-4,v3-5,v4-5"),
)
SWEEP_GRAPHS = (("path", 6, "3..4"), ("grid", 5, "v2-2,v2-3,v3-2,v3-3"))
SWEEP_LAMBDAS = "1,10,100,1000,10000"
# A decimal number, and a whitespace-delimited run of float64 bytes in hex.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
HEX_BYTES = re.compile(r"(?<!\S)(?:[0-9a-f]{16})+(?!\S)")


def _error(exc: Exception) -> str:
    return f"error {type(exc).__name__}: {exc}"


def _solve_record(inst, kind: str, starts: int) -> str:
    import logschro

    solve = logschro.solve_ground if kind == "ground" else logschro.solve_nodal
    try:
        rep = solve(inst, logschro.SolveOptions(starts=starts, seed=0))
    except Exception as exc:  # the error text is part of the output
        return f"{kind} {_error(exc)}"
    return f"{kind} {json.dumps(rep.to_dict(inst), sort_keys=True)} {rep.minimizer.tobytes().hex()}"


def fixtures(families=FIXTURE_FAMILIES, starts: int = 8):
    """Solve records of the fixture families, full and Dirichlet."""
    from logschro import ProblemInstance, WeightedGraph, generate_graph

    for topology, n, well in families:
        graph = WeightedGraph.from_dict(generate_graph(topology, n, well))
        for inst in (ProblemInstance.full(graph, 10.0), ProblemInstance.dirichlet(graph)):
            for kind in ("ground", "nodal"):
                yield f"{topology}{n} {inst.lam} {_solve_record(inst, kind, starts)}"


def _run(*argv: str) -> str:
    """Exit code, stdout and stderr of one CLI call."""
    from logschro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def _read(path: str) -> str:
    """Text of a file a CLI call wrote, or "" when it wrote none."""
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _generate(tmp: str, topology: str, n: int, well: str) -> tuple[str, str]:
    """Path of a generated fixture graph, and its ``generate`` record."""
    path = os.path.join(tmp, f"{topology}{n}.json")
    record = _run("generate", "--topology", topology, "--n", str(n), "--well", well, "--out", path)
    if not record.startswith("exit 0\n"):
        raise RuntimeError(f"logschro generate {topology} {n} {well} failed: {record}")
    return path, record + _read(path)


def cli_sweep(graphs=SWEEP_GRAPHS, lambdas: str = SWEEP_LAMBDAS, starts: int = 16):
    """Exit code, CSV and stderr of the CLI ``sweep`` on each graph."""
    with tempfile.TemporaryDirectory() as tmp:
        for topology, n, well in graphs:
            path, _ = _generate(tmp, topology, n, well)
            yield f"{topology}{n} " + _run(
                "sweep", "--graph", path, "--lambdas", lambdas, "--starts", str(starts), "--seed", "0"
            )


def cli_reports(families=FIXTURE_FAMILIES, starts: int = 8):
    """The JSON reports of ``generate``, ``solve``, ``check`` and ``project``
    on the fixture families, and the identity suite on a seeded field."""
    import numpy as np
    from conftest import random_field
    from logschro import ProblemInstance, WeightedGraph, identity_suite

    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        for topology, n, well in families:
            name = f"{topology}{n}"
            path, record = _generate(tmp, topology, n, well)
            yield f"{name} generate {record}"
            for mode, lam in (("full", ("--lambda", "10")), ("dirichlet", ())):
                for kind in ("ground", "nodal"):
                    state = os.path.join(tmp, f"{name}-{mode}-{kind}.json")
                    solve = _run(
                        "solve", "--graph", path, "--mode", mode, *lam, f"--{kind}",
                        "--starts", str(starts), "--seed", "0", "--out", state,
                    )
                    check = _run("check", "--graph", path, "--state", state, "--mode", mode, *lam)
                    project = _run("project", "--graph", path, "--state", state, "--lambda", "10")
                    yield (
                        f"{name} {mode} {kind} solve {solve}{_read(state)}"
                        f" check {check} project {project}"
                    )
            graph = WeightedGraph.load(path)
            suite = identity_suite(ProblemInstance.full(graph, 10.0), random_field(rng, graph.n))
            yield f"{name} identity {suite.to_json()}"


def random_mix(count: int = 200, starts: int = 4):
    """Ground and nodal solve records of the seed-0 random mix."""
    import numpy as np
    from conftest import random_graph
    from logschro import ProblemInstance

    rng = np.random.default_rng(0)
    for i in range(count):
        inst = ProblemInstance.full(random_graph(rng), float(10.0 ** rng.uniform(-1.0, 5.0)))
        for kind in ("ground", "nodal"):
            yield f"r{i:03d} {_solve_record(inst, kind, starts)}"


def projections(count: int = 1000):
    """Pair and ray projections of seeded random fields."""
    import numpy as np
    from conftest import random_field, random_graph
    from logschro import ProblemInstance, project_pair, project_ray

    rng = np.random.default_rng(2026)
    for i in range(count):
        g = random_graph(rng)
        inst = ProblemInstance.full(g, float(10.0 ** rng.uniform(-1.0, 5.0)))
        u = random_field(rng, g.n) * 10.0 ** rng.uniform(-3.0, 3.0)
        try:
            proj = project_pair(inst, u)
            pair = f"{json.dumps(proj.to_dict(), sort_keys=True)} {proj.projected.tobytes().hex()}"
        except Exception as exc:
            pair = _error(exc)
        try:
            ray = repr(project_ray(inst, u))
        except Exception as exc:
            ray = _error(exc)
        yield f"p{i:04d} pair {pair} ray {ray}"


GROUPS = {
    "fixtures": fixtures,
    "sweep": cli_sweep,
    "random_mix": random_mix,
    "projections": projections,
    "cli": cli_reports,
}


def digest(records) -> str:
    """SHA-256 of a group's records, each ended by a newline, with the
    numbers of records and of errors raised by the package."""
    h, n, errors = hashlib.sha256(), 0, 0
    for rec in records:
        h.update(rec.encode() + b"\n")
        n += 1
        errors += rec.count(" error ")
    return f"{h.hexdigest()} records={n} errors={errors}"


def _numbers(record: str) -> tuple[str, list[float]]:
    """A record's text with its numbers cut out, and the numbers; the
    minimizer's bytes in hex are dropped, as its JSON values repeat them."""
    text = HEX_BYTES.sub("", record)
    return NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def compare(first: list[str], second: list[str]) -> list[str]:
    """Lines saying by how much two trees' records of one group differ.

    Records are paired in order.  A pair whose texts are equal once their
    numbers are cut out differs only in numbers: each number is compared
    by its relative change, except one below 1e-12 of the largest number
    of its pair, which is compared by its absolute change.  Every other
    differing pair is listed by its first 60 characters.
    """
    pairs = [(a, b) for a, b in itertools.zip_longest(first, second, fillvalue="") if a != b]
    rel, small, other = (0.0, ""), (0.0, ""), []
    for a, b in pairs:
        (text_a, xs), (text_b, ys) = _numbers(a), _numbers(b)
        if text_a != text_b:
            other.append(f"  {(a or b)[:60]!r}")
            continue
        top = max(map(abs, xs + ys), default=0.0)
        for x, y in zip(xs, ys):
            if max(abs(x), abs(y)) < 1e-12 * top:
                small = max(small, (abs(x - y), a[:60]))
            elif x != y:
                rel = max(rel, (abs(x - y) / max(abs(x), abs(y)), a[:60]))
    lines = [f"{len(pairs)} records differ, {len(pairs) - len(other)} only in numbers"]
    if len(other) < len(pairs):
        lines.append(f"largest relative change {rel[0]:.2g} in {rel[1]!r}")
        lines.append(f"largest absolute change below 1e-12 of the largest {small[0]:.2g} in {small[1]!r}")
    if other:
        lines.append(f"{len(other)} other records differ:")
    return lines + other


def _tree_records(src_dir: str, groups: list[str]) -> dict[str, list[str]]:
    """Each group's records for the tree ``src_dir``, from a subprocess."""
    argv = [sys.executable, os.path.abspath(__file__), src_dir, "--groups", *groups, "--records"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir", help="directory holding the logschro package")
    parser.add_argument("other_src_dir", nargs="?", help="a second tree to compare against")
    parser.add_argument("--groups", nargs="+", choices=list(GROUPS), default=list(GROUPS))
    parser.add_argument("--records", action="store_true", help="print the records as JSON instead")
    args = parser.parse_args(argv)
    if args.other_src_dir is None:
        sys.path[:0] = [os.path.abspath(args.src_dir), TESTS_DIR]
        if args.records:
            print(json.dumps({name: list(GROUPS[name]()) for name in args.groups}))
            return 0
        for name in args.groups:
            print(f"{name} {digest(GROUPS[name]())}", flush=True)
        return 0
    first, second = (_tree_records(src, args.groups) for src in (args.src_dir, args.other_src_dir))
    for name in args.groups:
        a, b = digest(first[name]), digest(second[name])
        print(name, "equal" if a == b else "DIFFERS")
        print(f"  {a}  {args.src_dir}\n  {b}  {args.other_src_dir}")
        if a != b:
            print("\n".join("  " + line for line in compare(first[name], second[name])))
    return 0 if first == second else 1


if __name__ == "__main__":
    raise SystemExit(main())
