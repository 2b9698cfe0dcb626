"""Finite weighted graphs and the discrete calculus built on them.

A graph carries a positive per-vertex measure ``mu``, a nonnegative
per-vertex potential ``a`` and symmetric positive edge weights.  Vertex
functions ("fields") are plain numpy vectors ordered like ``vertex_ids``;
all file IO is keyed by vertex id, so the ordering is an internal detail.

Each graph also holds its stiffness matrix ``S = diag(deg) - W``, built
once at construction: the Laplacian is ``-(S u) / mu`` and the gradient
energy is the quadratic form ``integral of Gamma(u) dmu = u^T S u``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "GraphValidationError",
    "SubDomain",
    "NormBundle",
    "ValidationReport",
    "WeightedGraph",
    "positive_part",
    "negative_part",
]


class GraphValidationError(ValueError):
    """Raised when a graph (or graph file) violates the data contract."""


def positive_part(u: np.ndarray) -> np.ndarray:
    """max(u, 0), the nonnegative part of a field."""
    return np.maximum(u, 0.0)


def negative_part(u: np.ndarray) -> np.ndarray:
    """min(u, 0), the nonpositive part of a field; u == u+ + u- exactly."""
    return np.minimum(u, 0.0)


@dataclass(frozen=True)
class SubDomain:
    """A vertex subset together with its derived edge boundary."""

    interior: tuple[str, ...]
    boundary: tuple[str, ...]

    @property
    def closure(self) -> tuple[str, ...]:
        return self.interior + self.boundary

    def to_dict(self) -> dict:
        return {"interior": list(self.interior), "boundary": list(self.boundary)}


@dataclass(frozen=True)
class NormBundle:
    """Squared H1 / weighted-H and L2 norms plus the sup norm of a field."""

    h1_sq: float
    h_lambda_sq: float
    l2_sq: float
    linf: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the potential-well hypotheses check.

    ``passes`` requires a non-empty connected zero set of the potential.
    ``vol_d_m`` is the measure of ``{a(x) < m_threshold}``, always finite
    here and reported for documentation only.  ``small_well_warning`` is
    set when the well has fewer than two vertices, in which case no
    sign-changing Dirichlet solution can exist.
    """

    omega: SubDomain
    omega_nonempty: bool
    omega_connected: bool
    passes: bool
    small_well_warning: bool
    m_threshold: float
    vol_d_m: float

    def to_dict(self) -> dict:
        return {
            "omega": self.omega.to_dict(),
            "omega_nonempty": self.omega_nonempty,
            "omega_connected": self.omega_connected,
            "passes": self.passes,
            "small_well_warning": self.small_well_warning,
            "m_threshold": self.m_threshold,
            "vol_d_m": self.vol_d_m,
        }


class WeightedGraph:
    """Finite connected weighted graph with measure and potential.

    Parameters
    ----------
    vertex_ids : sequence of str
        Vertex identifiers; fixes the ordering of all field vectors.
    mu : sequence of float
        Positive per-vertex measure.
    potential_a : sequence of float
        Nonnegative per-vertex potential.
    edges : iterable of (str, str, float)
        Undirected edges with positive weights; no self loops, no
        duplicates (an edge listed in both orientations counts as a
        duplicate, even with differing weights).

    Instances are immutable after construction and safe to share between
    concurrent workers; every operation is a pure function of its inputs.
    """

    def __init__(
        self,
        vertex_ids: Sequence[str],
        mu: Sequence[float],
        potential_a: Sequence[float],
        edges: Iterable[tuple[str, str, float]],
    ):
        ids = [str(v) for v in vertex_ids]
        if len(ids) != len(set(ids)):
            raise GraphValidationError("duplicate vertex ids")
        if len(ids) == 0:
            raise GraphValidationError("empty vertex set")
        n = len(ids)
        mu_arr = np.asarray(mu, dtype=float)
        a_arr = np.asarray(potential_a, dtype=float)
        if mu_arr.shape != (n,) or a_arr.shape != (n,):
            raise GraphValidationError("mu/a length does not match vertex count")
        if not np.all(np.isfinite(mu_arr)) or np.any(mu_arr <= 0):
            raise GraphValidationError("measure mu must be positive and finite")
        if not np.all(np.isfinite(a_arr)) or np.any(a_arr < 0):
            raise GraphValidationError("potential a must be nonnegative and finite")

        index = {v: i for i, v in enumerate(ids)}
        weights = np.zeros((n, n))
        seen: set[frozenset] = set()
        for x, y, w in edges:
            if x not in index or y not in index:
                raise GraphValidationError(f"edge references unknown vertex: {x!r}-{y!r}")
            if x == y:
                raise GraphValidationError(f"self loop at {x!r}")
            key = frozenset((x, y))
            if key in seen:
                raise GraphValidationError(f"duplicate edge {x!r}-{y!r}")
            seen.add(key)
            w = float(w)
            if not np.isfinite(w) or w <= 0:
                raise GraphValidationError(f"edge weight must be positive: {x!r}-{y!r}")
            i, j = index[x], index[y]
            weights[i, j] = w
            weights[j, i] = w

        self._ids: tuple[str, ...] = tuple(ids)
        self._index = index
        self.mu = mu_arr
        self.mu.setflags(write=False)
        self.potential_a = a_arr
        self.potential_a.setflags(write=False)
        self.weights = weights
        self.weights.setflags(write=False)
        # deg(x) = sum of incident weights, used by Gamma and by the
        # stiffness matrix S = diag(deg) - W behind the Laplacian.
        self.deg = weights.sum(axis=1)
        self.deg.setflags(write=False)
        self.stiffness = np.diag(self.deg) - weights
        self.stiffness.setflags(write=False)
        self.mu_min = float(mu_arr.min())
        self.n = n
        self._neighbors = [np.nonzero(weights[i])[0] for i in range(n)]

        if not self.is_connected(self._ids):
            raise GraphValidationError("graph is not connected")

    # -- basic structure ------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return self._ids

    def index(self, vertex_id: str) -> int:
        try:
            return self._index[vertex_id]
        except KeyError:
            raise GraphValidationError(f"unknown vertex id {vertex_id!r}") from None

    def field(self, values: Mapping[str, float] | None = None, default: float = 0.0) -> np.ndarray:
        """Dense field from an id-keyed mapping; missing ids get ``default``."""
        u = np.full(self.n, float(default))
        if values:
            for vid, val in values.items():
                u[self.index(vid)] = float(val)
        return u

    def check_field(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"field has shape {u.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(u)):
            raise ValueError("field has non-finite entries")
        return u

    # -- discrete calculus ----------------------------------------------

    def laplacian(self, u: np.ndarray) -> np.ndarray:
        """Graph Laplacian: (1/mu(x)) sum_y w_xy (u(y) - u(x))."""
        u = self.check_field(u)
        return -(self.stiffness @ u) / self.mu

    def gamma(self, u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        """Gradient form: (1/(2 mu(x))) sum_y w_xy (u(y)-u(x))(v(y)-v(x))."""
        u = self.check_field(u)
        v = u if v is None else self.check_field(v)
        w = self.weights
        t = w @ (u * v) - u * (w @ v) - v * (w @ u) + u * v * self.deg
        return t / (2.0 * self.mu)

    def gradient_length(self, u: np.ndarray) -> np.ndarray:
        """|grad u|(x) = sqrt(gamma(u)(x))."""
        return np.sqrt(self.gamma(u))

    def integrate(self, f: np.ndarray) -> float:
        """Integral against the vertex measure: sum_x mu(x) f(x)."""
        f = self.check_field(f)
        return float(self.mu @ f)

    def norms(self, u: np.ndarray, lam: float) -> NormBundle:
        """H1, potential-weighted, L2 and sup norms of a field.

        The weighted norm uses the mass factor ``lam * a(x) + 1``, so it
        dominates the plain H1 norm whenever the potential is nonnegative.
        """
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        u = self.check_field(u)
        grad_sq = self.integrate(self.gamma(u))
        l2_sq = self.integrate(u * u)
        h_lambda_sq = grad_sq + self.integrate((lam * self.potential_a + 1.0) * u * u)
        return NormBundle(
            h1_sq=grad_sq + l2_sq,
            h_lambda_sq=h_lambda_sq,
            l2_sq=l2_sq,
            linf=float(np.max(np.abs(u))) if self.n else 0.0,
        )

    # -- subsets, boundary, connectivity --------------------------------

    def boundary(self, interior: Iterable[str]) -> SubDomain:
        """Subdomain with boundary {y not in S : y adjacent to some x in S}."""
        interior_ids = [str(v) for v in interior]
        inside = np.zeros(self.n, dtype=bool)
        for vid in interior_ids:
            inside[self.index(vid)] = True
        on_boundary = np.zeros(self.n, dtype=bool)
        for i in np.nonzero(inside)[0]:
            for j in self._neighbors[i]:
                if not inside[j]:
                    on_boundary[j] = True
        boundary_ids = tuple(self._ids[i] for i in np.nonzero(on_boundary)[0])
        return SubDomain(interior=tuple(dict.fromkeys(interior_ids)), boundary=boundary_ids)

    def distance(self, x: str, y: str) -> int:
        """Hop distance: minimal number of edges on a connecting path."""
        i, j = self.index(x), self.index(y)
        if i == j:
            return 0
        dist = {i: 0}
        queue = deque([i])
        while queue:
            k = queue.popleft()
            for m in self._neighbors[k]:
                if m not in dist:
                    dist[m] = dist[k] + 1
                    if m == j:
                        return dist[m]
                    queue.append(m)
        raise GraphValidationError(f"vertices {x!r} and {y!r} are not connected")

    def is_connected(self, subset: Iterable[str]) -> bool:
        """Connectivity of the induced subgraph on ``subset`` (BFS)."""
        idx = {self.index(str(v)) for v in subset}
        if not idx:
            return False
        start = next(iter(idx))
        seen = {start}
        queue = deque([start])
        while queue:
            k = queue.popleft()
            for m in self._neighbors[k]:
                if m in idx and m not in seen:
                    seen.add(m)
                    queue.append(m)
        return seen == idx

    def validate_potential(self) -> ValidationReport:
        """Check the potential-well hypotheses and locate the well.

        The well is the zero set of the potential.  It must be non-empty
        and connected.  The reported ``m_threshold`` is ``max(a) + 1``, so
        the reported sublevel set is the whole graph.
        """
        m_threshold = float(self.potential_a.max()) + 1.0
        interior = [self._ids[i] for i in np.nonzero(self.potential_a == 0.0)[0]]
        omega = self.boundary(interior)
        nonempty = len(interior) > 0
        connected = self.is_connected(interior) if nonempty else False
        vol = float(self.mu[self.potential_a < m_threshold].sum())
        return ValidationReport(
            omega=omega,
            omega_nonempty=nonempty,
            omega_connected=connected,
            passes=nonempty and connected,
            small_well_warning=len(interior) < 2,
            m_threshold=m_threshold,
            vol_d_m=vol,
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        edges = []
        for i in range(self.n):
            for j in self._neighbors[i]:
                if j > i:
                    edges.append(
                        {"u": self._ids[i], "v": self._ids[int(j)], "w": float(self.weights[i, j])}
                    )
        return {
            "vertices": [
                {"id": v, "mu": float(self.mu[i]), "a": float(self.potential_a[i])}
                for i, v in enumerate(self._ids)
            ],
            "edges": edges,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WeightedGraph":
        try:
            vertices = data["vertices"]
            edge_list = data["edges"]
        except (KeyError, TypeError):
            raise GraphValidationError("graph JSON needs 'vertices' and 'edges'") from None
        try:
            ids = [v["id"] for v in vertices]
            mu = [v["mu"] for v in vertices]
            a = [v["a"] for v in vertices]
            edges = [(e["u"], e["v"], e["w"]) for e in edge_list]
        except (KeyError, TypeError):
            raise GraphValidationError("malformed vertex or edge record") from None
        return cls(ids, mu, a, edges)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "WeightedGraph":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphValidationError(f"invalid graph JSON: {exc}") from None
        return cls.from_dict(data)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "WeightedGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
