"""Command line interface.

Subcommands: generate, solve, project, check, sweep.  Exit codes: 0 on
success, 1 on usage errors, 2 when a solve or a pair projection fails to
converge, 3 on validation failures (bad graph/field files or hypotheses).
"""

from __future__ import annotations

import argparse
import json
import sys

from .energy import ProblemInstance, load_field
from .graphs import GraphValidationError, WeightedGraph
from .lab import generate_graph, sweep, sweep_csv
from .nehari import NoBracket, NonConvergence, project_pair
from .solver import SolveOptions, solve_ground, solve_nodal, verify

EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write(report: dict | str, out: str | None) -> None:
    """Write the sweep CSV, or a JSON report, to ``out`` or stdout."""
    if not isinstance(report, str):
        report = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)


def _load_instance(args) -> ProblemInstance:
    graph = WeightedGraph.load(args.graph)
    if args.mode == "dirichlet":
        return ProblemInstance.dirichlet(graph)
    if args.lam is None:
        raise GraphValidationError("--lambda is required in full mode")
    return ProblemInstance.full(graph, args.lam)


def _load_state(graph: WeightedGraph, path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_field(graph, fh.read())


def build_parser() -> _Parser:
    defaults = SolveOptions()
    parser = _Parser(prog="logschro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a fixture graph JSON file")
    p.add_argument("--topology", required=True, choices=["path", "cycle", "grid", "star"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--well", required=True, help="position range 'i..j' or comma list of ids")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--a-out", type=float, default=1.0)
    p.add_argument("--out")

    p = sub.add_parser("solve", help="compute a ground or nodal minimizer")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=["full", "dirichlet"], default="full")
    p.add_argument("--lambda", dest="lam", type=float)
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--nodal", action="store_true")
    kind.add_argument("--ground", action="store_true")
    p.add_argument("--starts", type=int, default=defaults.starts)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--tol", type=float, default=defaults.tol_residual)
    p.add_argument("--out")

    p = sub.add_parser("project", help="pair-project a field onto the nodal Nehari set")
    p.add_argument("--graph", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(mode="full")

    p = sub.add_parser("check", help="verify a field as a pointwise solution")
    p.add_argument("--graph", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--mode", choices=["full", "dirichlet"], default="full")
    p.add_argument("--lambda", dest="lam", type=float)

    p = sub.add_parser("sweep", help="run the large-coupling convergence experiment")
    p.add_argument("--graph", required=True)
    p.add_argument("--lambdas", required=True, help="comma separated increasing list")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--starts", type=int, default=defaults.starts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "generate":
            data = generate_graph(
                args.topology, args.n, args.well, mu=args.mu, omega_w=args.w, a_out=args.a_out
            )
            _write(data, args.out)
            return 0

        if args.command == "solve":
            inst = _load_instance(args)
            opts = SolveOptions(starts=args.starts, seed=args.seed, tol_residual=args.tol)
            report = (solve_nodal if args.nodal else solve_ground)(inst, opts)
            _write(report.to_dict(inst), args.out)
            return 0

        if args.command == "project":
            inst = _load_instance(args)
            try:
                proj = project_pair(inst, _load_state(inst.graph, args.state))
            except NoBracket as exc:
                raise NonConvergence(f"pair projection failed: {exc}") from None
            _write(proj.to_dict(), None)
            return 0

        if args.command == "check":
            inst = _load_instance(args)
            _write(verify(inst, _load_state(inst.graph, args.state)).to_dict(), None)
            return 0

        if args.command == "sweep":
            graph = WeightedGraph.load(args.graph)
            try:
                lambdas = [float(tok) for tok in args.lambdas.split(",") if tok.strip()]
            except ValueError:
                raise GraphValidationError(f"bad --lambdas list {args.lambdas!r}") from None
            opts = SolveOptions(starts=args.starts, seed=args.seed)
            rows, summary = sweep(graph, lambdas, opts)
            _write(sweep_csv(rows), args.out)
            print(json.dumps(summary.to_dict(), sort_keys=True), file=sys.stderr)
            if any(r.failed for r in rows):
                return EXIT_NONCONVERGENCE
            return 0
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
