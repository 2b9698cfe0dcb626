"""Shared fixtures: tiny exact graphs plus seeded random instances."""

import sys

import numpy as np
import pytest
from hypothesis import settings

from logschro import ProblemInstance, WeightedGraph, generate_graph

# Property tests draw the same examples on every run and have no time
# limit per example, so a slow machine cannot fail them.
settings.register_profile("logschro", derandomize=True, deadline=None)
settings.load_profile("logschro")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance scoreboard after the run summary."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "SCOREBOARD", None) if mod else None
    if lines:
        terminalreporter.section("acceptance scoreboard")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def k2():
    """Two vertices, one unit edge, unit measure, zero potential."""
    return WeightedGraph(["v1", "v2"], [1.0, 1.0], [0.0, 0.0], [("v1", "v2", 1.0)])


@pytest.fixture
def k2_inst(k2):
    return ProblemInstance.full(k2, 1.0)


@pytest.fixture
def p3():
    """Path on three vertices, zero potential."""
    return WeightedGraph(
        ["v1", "v2", "v3"],
        [1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0],
        [("v1", "v2", 1.0), ("v2", "v3", 1.0)],
    )


@pytest.fixture
def p3_no_well():
    """Path on three vertices with unit potential everywhere."""
    return WeightedGraph(
        ["v1", "v2", "v3"],
        [1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [("v1", "v2", 1.0), ("v2", "v3", 1.0)],
    )


@pytest.fixture
def p6():
    """Six-vertex path with a two-vertex potential well in the middle."""
    return WeightedGraph.from_dict(generate_graph("path", 6, "3..4"))


@pytest.fixture
def p6_dirichlet(p6):
    return ProblemInstance.dirichlet(p6)


@pytest.fixture
def p5_dirichlet():
    """Dirichlet problem on the three-vertex well of a five-vertex path."""
    return ProblemInstance.dirichlet(WeightedGraph.from_dict(generate_graph("path", 5, "2..4")))


@pytest.fixture
def grid4():
    """4x4 grid with the central 2x2 block as the potential well."""
    return WeightedGraph.from_dict(
        generate_graph("grid", 4, "v2-2,v2-3,v3-2,v3-3")
    )


def random_graph(rng: np.random.Generator, n_max: int = 12, zero_potential: bool = False):
    """Random connected graph: a random tree plus a few extra edges."""
    n = int(rng.integers(2, n_max + 1))
    ids = [f"x{i}" for i in range(n)]
    edges = []
    seen = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((ids[i], ids[j], float(rng.uniform(0.5, 2.0))))
        seen.add(frozenset((ids[i], ids[j])))
    for _ in range(int(rng.integers(0, n))):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        key = frozenset((ids[i], ids[j]))
        if i == j or key in seen:
            continue
        seen.add(key)
        edges.append((ids[i], ids[j], float(rng.uniform(0.5, 2.0))))
    mu = rng.uniform(0.5, 2.0, size=n)
    if zero_potential:
        a = np.zeros(n)
    else:
        a = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.7)
    return WeightedGraph(ids, mu, a, edges)


def random_field(rng: np.random.Generator, n: int, signed: bool = True) -> np.ndarray:
    """Entries bounded away from zero, optionally with random signs."""
    u = rng.uniform(0.5, 2.5, size=n)
    if signed:
        u *= rng.choice([-1.0, 1.0], size=n)
    return u
