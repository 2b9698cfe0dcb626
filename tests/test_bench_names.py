"""The names the benchmark harness in ``perfbench/`` reaches into still exist.

``perfbench/tracer.py`` wraps the functions listed in its ``LAYERS`` table
and raises on a name it cannot find, and ``perfbench/workloads.py`` reads a
few attributes of each solved instance.  A refactor that renames any of
them breaks ``--trace 1`` runs and the workload checks, not the suite, so
the suite checks them here.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import logschro.cli  # noqa: F401  (the tracer wraps cli.main)
from logschro import ProblemInstance, WeightedGraph, generate_graph


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
NAMES = [(module, name) for module, names in TRACER.LAYERS.items() for name in names]


@pytest.mark.parametrize("module,qualname", NAMES, ids=[f"{m}.{q}" for m, q in NAMES])
def test_layer_name_resolves(module, qualname):
    _, _, obj = TRACER._lookup(module, qualname)
    assert callable(obj)


def test_solve_funcs_are_layer_names():
    assert set(TRACER.SOLVE_FUNCS) <= set(TRACER.LAYERS["solver"])


@pytest.mark.parametrize("mode", ["full", "dirichlet"])
def test_instance_attributes_read_by_workloads(mode):
    g = WeightedGraph.from_dict(generate_graph("path", 6, "3..4"))
    inst = ProblemInstance.full(g, 10.0) if mode == "full" else ProblemInstance.dirichlet(g)
    assert inst.graph is g
    assert inst.lam == (10.0 if mode == "full" else None)
    assert inst.free.dtype == bool and inst.free.shape == (g.n,)
    assert np.array_equal(np.flatnonzero(inst.free), [2, 3] if mode == "dirichlet" else range(g.n))
