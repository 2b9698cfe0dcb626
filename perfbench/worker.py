"""One benchmark process: set up a workload, run it, check it, report.

Started by ``run.py``, never by hand.  With ``--setup-only`` it stops at
the first solve call and reports how long set-up took since it was
spawned; otherwise it runs the measured passes and prints one JSON line.
BLAS and OpenMP are pinned to one thread by ``run.py`` through the
environment, before NumPy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import workloads
from tracer import SolveProbe, StopAtFirstSolve, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _import_logschro():
    if not os.path.isfile(os.path.join(SRC, "logschro", "__init__.py")):
        raise SystemExit(f"error: no logschro source tree under {SRC}")
    sys.path.insert(0, SRC)
    import logschro  # noqa: F401  (pulls in scipy)
    import logschro.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(logschro.__file__)) != os.path.join(SRC, "logschro"):
        raise SystemExit(f"error: imported logschro from {logschro.__file__}, not {SRC}")


@dataclass
class Pass:
    traced: bool
    wall_s: float
    first_solve_at: float | None
    outputs: list  # (label, case output, solve records)
    errors: list
    digest: str
    tracer: object = None

    @property
    def records(self):
        return [rec for _, _, recs in self.outputs for rec in recs]


def run_pass(workload, cases, traced: bool, deadline: float | None) -> Pass:
    """Run ``cases`` in order; with a deadline, start none after it."""
    tracer = Tracer() if traced else None
    outputs, errors = [], []
    with SolveProbe() as probe, (tracer or contextlib.nullcontext()):
        t0 = time.perf_counter()
        for case in cases:
            if deadline is not None and outputs and time.perf_counter() >= deadline:
                break
            n0 = len(probe.records)
            try:
                out = case.run()
            except Exception as exc:
                # A failing solve is recorded by the probe and counted;
                # anything else is a fault of the case itself.
                if not any(rec.error for rec in probe.records[n0:]):
                    errors.append(f"{case.label}: {type(exc).__name__}: {exc}")
                out = None
            outputs.append((case.label, out, probe.records[n0:]))
        wall = time.perf_counter() - t0
    # Checks run after the patches are undone: outside timing and spans.
    by_label = {case.label: case for case in cases}
    for label, out, recs in outputs:
        check = by_label[label].check
        if check is not None and out is not None:
            errors.extend(check(out, recs))
    errors.extend(workloads.check_solves(workload, [(label, recs) for label, _, recs in outputs]))
    return Pass(traced, wall, probe.first_solve_at, outputs, errors, workloads.digest(outputs), tracer)


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, read from the process map."""
    found = {}
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line and line.strip().endswith(".so")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--first-case", action="store_true", help="run only the first case (self-test)")
    args = parser.parse_args(argv)

    _import_logschro()
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.first_case:
        workload.cases = workload.cases[:1]

    if args.setup_only:
        with SolveProbe(stop_at_first=True):
            try:
                workload.cases[0].run()
            except StopAtFirstSolve as stop:
                print(json.dumps({"setup_s": stop.at - args.spawned_at}))
                return 0
        raise SystemExit("error: the first case made no solve")

    start = time.perf_counter()
    deadline = start + args.seconds
    first = run_pass(workload, workload.cases, False, None if workload.complete_passes else deadline)
    passes = [first]
    if args.trace:
        done = {label for label, _, _ in first.outputs}
        again = [case for case in workload.cases if case.label in done]
        passes.append(run_pass(workload, again, True, None))
    elif workload.complete_passes:
        while time.perf_counter() + passes[-1].wall_s <= deadline:
            passes.append(run_pass(workload, workload.cases, False, None))

    errors = [e for p in passes for e in p.errors]
    if len({p.digest for p in passes}) > 1:
        errors.append(f"determinism: passes of identical inputs gave digests {[p.digest[:12] for p in passes]}")
    untraced = [p for p in passes if not p.traced]
    records = [rec for p in untraced for rec in p.records]
    failed = sum(rec.failed for rec in records)
    latencies = sorted(rec.latency_s for rec in records)
    result = {
        "setup_s": first.first_solve_at - args.spawned_at,
        "attempted": len(records),
        "failed": failed,
        "errors": errors,
        "digest": first.digest,
        "passes": len(untraced),
        "machine": machine_facts(),
        "solves": [
            [label, "nodal" if rec.nodal else "ground", rec.latency_s,
             rec.error or rec.check_error or rec.report.level]
            for label, _, recs in first.outputs
            for rec in recs
        ],
    }
    if args.trace:
        traced = passes[-1]
        layers = traced.tracer.layer_metrics()
        layers["trace_overhead_frac"] = traced.wall_s / first.wall_s - 1.0
        result["metrics"] = layers
        result["never_called"] = traced.tracer.missing()
        result["spans_kept"] = len(traced.tracer.span_name)
        result["spans_total"] = traced.tracer.span_count
        traced.tracer.save_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "solve_p50_s": statistics.median(latencies),
            "starts_converged_frac": sum(rec.starts_converged for rec in records)
            / sum(rec.starts for rec in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_frac": failed / len(records),
        }
        if len(latencies) >= 100:
            # The highest percentile with at least ten samples beyond it.
            metrics["solve_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
        result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
