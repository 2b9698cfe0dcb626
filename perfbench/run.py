"""logschro benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep_p6 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload once
untraced and once traced and prints the per-layer metrics.  Every line
but the last is for people; the last is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
including metrics that are not in ``BENCHMARK.json`` and the span log of
a traced run, goes to ``.perfbench_out/``.  The exit code is 0 only when
every correctness check passed.

This process imports nothing from logschro.  Each measurement runs in a
fresh worker process (``worker.py``) so that set-up time starts at
process start; set-up is measured in ``SETUP_SAMPLES`` processes and
reported as their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
# Workers still running this long after the start are killed: a run at
# BENCHMARK.json's run_seconds must end within 180 s.
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Start a worker, wait for it, and return its JSON line."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args, "--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    finally:
        # Also on an interrupt: leave no worker running.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: int, first_case: bool = False) -> dict:
    """Run one workload and return the full result."""
    deadline = time.monotonic() + max(WORKER_TIMEOUT_S, seconds + 120.0)
    loadavg = os.getloadavg()
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if first_case:
        common.append("--first-case")
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(run_worker(common + ["--setup-only"], deadline)["setup_s"])
    result = run_worker(common, deadline)
    setup.append(result.pop("setup_s"))
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    result["setup_samples_s"] = setup
    result["machine"]["loadavg_at_start"] = loadavg
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    result["correct"] = not result["errors"]
    return result


def report(result: dict, spec: dict) -> dict:
    """Print the result for people; return the machine-readable last line."""
    listed = spec["per_layer" if result["trace"] else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, value in sorted(result["metrics"].items()):
        print(f"{name:45s} {value!r:>24} {units.get(name, '')}")
    print(f"solves attempted {result['attempted']}, failed {result['failed']}, passes {result['passes']}")
    print(f"digest {result['digest']}")
    print(f"setup samples (s) {result['setup_samples_s']}")
    print(f"machine {json.dumps(result['machine'], sort_keys=True)}")
    for error in result["errors"][:20]:
        print(f"CHECK FAILED: {error}")
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]} for name in units},
    }


def save(result: dict, name: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def smoke(seed: int) -> int:
    """First case of each workload, untraced and traced; every check must pass."""
    called: set[str] = set()
    layer_names: set[str] = set()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, seed, 1.0, trace, first_case=True)
            tag = f"{workload} trace={trace}"
            print(f"{tag}: attempted {result['attempted']} failed {result['failed']} errors {len(result['errors'])}")
            problems += [f"{tag}: {e}" for e in result["errors"]]
            if trace:
                calls = {k[: -len(".calls")] for k in result["metrics"] if k.endswith(".calls")}
                layer_names |= calls
                called |= calls - set(result["never_called"])
    never = sorted(layer_names - called)
    if never:
        problems.append(f"wrapped but never called: {never}")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "logschro", "__init__.py")):
        print(f"error: no logschro source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(args.seed)
        if not args.workload:
            parser.error("--workload is required")
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        result = measure(args.workload, args.seed, seconds, args.trace)
        save(result, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
        line = report(result, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
