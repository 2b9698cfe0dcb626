"""Outside-in instrumentation of logschro for the benchmark.

Nothing under ``src/`` knows about this module.  Public functions are
replaced, for the duration of a ``with`` block, by wrappers in every
``logschro`` module that binds them.  Modules import names with
``from .energy import residual``, so patching only the defining module
would miss most call sites; instead every module attribute that *is* the
original object is swapped, and restored on exit.

Two instruments share that patching:

* ``SolveProbe`` wraps only ``solve_ground``/``solve_nodal``.  It is
  installed in every measured pass, traced or not, and records each
  solve's latency, outcome and result (a dozen calls per sweep, so its
  cost is negligible).
* ``Tracer`` wraps every function in ``LAYERS`` and records one span per
  call: name, start, end, parent span and the id of the enclosing solve.
  Self time (span time minus child span time) and call/failure counts
  are aggregated online, so they are exact even when the span log is
  capped; the kept spans are written out by ``save_spans`` at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass, field

# module -> wrapped public names ("Class.method" for methods).
LAYERS: dict[str, tuple[str, ...]] = {
    "graphs": (
        "WeightedGraph.check_field",
        "WeightedGraph.laplacian",
        "WeightedGraph.gamma",
        "WeightedGraph.integrate",
        "WeightedGraph.norms",
    ),
    "energy": (
        "energy",
        "residual",
        "dir_deriv",
        "coupling_k",
        "ProblemInstance.check_admissible",
        "ProblemInstance.norm_h_sq",
    ),
    "nehari": ("project_ray", "project_pair"),
    "solver": ("solve_ground", "solve_nodal"),
    "lab": ("sweep",),
    "cli": ("main",),
}

SOLVE_FUNCS = ("solve_ground", "solve_nodal")

# Span log cap: the fixture workload makes several million wrapped calls
# per pass, and each kept span costs 28 bytes.
MAX_SPANS = 1_000_000


def metric_name(module: str, qualname: str) -> str:
    """``graphs.check_field`` for ``WeightedGraph.check_field`` in graphs."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "logschro" or name.startswith("logschro."))
    ]


def _lookup(module: str, qualname: str):
    """(owner, attribute, current object); raise if the name is gone."""
    # ``logschro.energy`` resolves to the re-exported function, so go
    # through sys.modules for the module object.
    mod = sys.modules.get(f"logschro.{module}")
    if mod is None:
        raise LookupError(f"module logschro.{module} is not imported")
    owner = mod
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"logschro.{module}.{qualname} no longer exists")
    if parts[-1] not in vars(owner):
        raise LookupError(f"logschro.{module}.{qualname} no longer exists")
    return owner, parts[-1], vars(owner)[parts[-1]]


class _Patches:
    """Swap objects everywhere the package binds them; undo on close."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, qualname: str, make_wrapper) -> None:
        owner, attr, orig = _lookup(module, qualname)
        wrapped = make_wrapper(orig)
        if isinstance(owner, type):
            # Methods are looked up through the class at call time.
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            return
        for mod in _package_modules():
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, name, orig))
                    setattr(mod, name, wrapped)

    def close(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


class StopAtFirstSolve(BaseException):
    """Raised by a set-up probe at the first solve call.

    Derives from BaseException so that ``lab.sweep``'s ``except
    Exception`` cannot swallow it.
    """

    def __init__(self, at: float):
        super().__init__(at)
        self.at = at


@dataclass
class SolveRecord:
    """One solve_ground/solve_nodal call as seen from outside."""

    nodal: bool
    inst: object
    starts: int
    tol: float
    latency_s: float
    error: str | None = None
    report: object = None
    # Set by the benchmark's checks after the pass.
    check_error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.check_error is not None

    @property
    def starts_converged(self) -> int:
        return 0 if self.failed else self.report.starts_converged


@dataclass
class SolveProbe:
    """Latency, outcome and result of every solve; optionally stops at the first."""

    stop_at_first: bool = False
    first_solve_at: float | None = None
    records: list[SolveRecord] = field(default_factory=list)

    def __enter__(self):
        self._patches = _Patches()
        for name in SOLVE_FUNCS:
            self._patches.replace("solver", name, functools.partial(self._wrap, name == "solve_nodal"))
        return self

    def __exit__(self, *exc):
        self._patches.close()
        return False

    def _wrap(self, nodal: bool, fn):
        @functools.wraps(fn)
        def probe(inst, opts=None):
            t0 = time.perf_counter()
            if self.first_solve_at is None:
                self.first_solve_at = time.monotonic()
                if self.stop_at_first:
                    raise StopAtFirstSolve(self.first_solve_at)
            used = opts if opts is not None else sys.modules[fn.__module__].SolveOptions()
            rec = SolveRecord(nodal, inst, used.starts, used.tol_residual, latency_s=0.0)
            try:
                rec.report = fn(inst, opts)
                return rec.report
            except Exception as exc:
                rec.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec.latency_s = time.perf_counter() - t0
                self.records.append(rec)

        return probe


class Tracer:
    """Per-call spans and per-function aggregates for the LAYERS table."""

    def __init__(self):
        self.names: list[str] = []  # metric names, index = span name id
        self.modules: list[str] = []
        self.calls: list[int] = []
        self.failed: list[int] = []
        self.self_s: list[float] = []
        self.pair_iterations = 0
        self.span_count = 0
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_solve = array("q")
        self._stack: list[list] = []  # [span id, child time]
        self._solve_id = -1
        self._patches: _Patches | None = None

    def __enter__(self):
        self._patches = _Patches()
        try:
            for module, qualnames in LAYERS.items():
                for qualname in qualnames:
                    idx = len(self.names)
                    self.names.append(metric_name(module, qualname))
                    self.modules.append(module)
                    self.calls.append(0)
                    self.failed.append(0)
                    self.self_s.append(0.0)
                    self._patches.replace(module, qualname, functools.partial(self._wrap, idx))
        except BaseException:
            self._patches.close()
            raise
        return self

    def __exit__(self, *exc):
        self._patches.close()
        return False

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        is_solve = self.modules[idx] == "solver"
        is_pair = name == "nehari.project_pair"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = self.span_count
            self.span_count = sid + 1
            parent = stack[-1][0] if stack else -1
            outer_solve = self._solve_id
            if is_solve:
                self._solve_id = sid
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.self_s[idx] += dur - frame[1]
                self.calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
                if sid < MAX_SPANS:
                    self.span_name.append(idx)
                    self.span_start.append(t0)
                    self.span_end.append(t1)
                    self.span_parent.append(parent)
                    self.span_solve.append(self._solve_id)
                self._solve_id = outer_solve
            if is_pair:
                self.pair_iterations += result.iterations
            return result

        return span

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.{calls,failed,self_s}`` and ``<module>.self_s``."""
        out: dict[str, float] = {}
        module_self: dict[str, float] = {m: 0.0 for m in LAYERS}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.failed"] = self.failed[i]
            out[f"{name}.self_s"] = self.self_s[i]
            module_self[self.modules[i]] += self.self_s[i]
        for module, total in module_self.items():
            out[f"{module}.self_s"] = total
        out["nehari.project_pair.iterations"] = self.pair_iterations
        return out

    def missing(self) -> list[str]:
        """Wrapped names that were never called."""
        return [name for i, name in enumerate(self.names) if self.calls[i] == 0]

    def save_spans(self, path) -> None:
        """Write the kept spans as a compressed NumPy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            solve=np.frombuffer(self.span_solve, dtype=np.int64),
            total_spans=np.int64(self.span_count),
        )
