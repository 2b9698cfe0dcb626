"""Energy functionals for the logarithmic nonlinearity on a graph.

A :class:`ProblemInstance` is a coupling ``lam`` and a free vertex set
``F``: admissible fields vanish off ``F``, and the potential term is
``lam * a``.  The full problem takes ``F = V``; its large-coupling limit,
the Dirichlet problem on the well ``Omega = {a = 0}``, takes ``F =
Omega`` and drops the potential term (``lam=None``); a ball ``B_R`` as
``F`` truncates the full problem.  The convention ``0 * log 0 = 0`` is
applied everywhere.

The instance stores the free block of every coefficient (``mu``, ``lam *
a`` and the stiffness block ``S[F, F]``), and the private kernels
(``_norm_h_sq``, ``_energy``, ``_residual``, ``_dir_deriv``,
``_coupling_k``) run on the free values of a field alone;
``_norm_h_sq``, ``_residual`` and ``_energies`` (``_energy`` of each row)
also take a stack of fields as rows and give each row the floats of that
field alone.  ``S[F, F]`` is the Dirichlet operator: its diagonal still
counts every edge to the boundary, so ``u_F^T S[F, F] u_F`` is the
gradient energy of the zero extension and ``(S[F, F] u_F) / mu_F`` its
``-Laplacian`` on ``F``.  The kernels use ``integral of Gamma(u, v) dmu =
v^T S u`` and trust their arrays.

Full-length fields appear only at the public API: a public function
validates and gathers its field arguments once (``free_values``) and
scatters a field it returns once (``extend``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .graphs import SubDomain, WeightedGraph, _json_fields, negative_part, positive_part

__all__ = [
    "NotAdmissible",
    "ProblemInstance",
    "IdentityCheck",
    "IdentityReport",
    "energy",
    "dir_deriv",
    "residual",
    "coupling_k",
    "identity_suite",
    "load_field",
    "field_to_dict",
]


class NotAdmissible(ValueError):
    """Field is nonzero off the instance's free vertex set."""


# Least positive subnormal: flooring |u| here changes no nonzero entry and
# keeps log finite at u = 0, where the products below vanish.
_TINY = 5e-324


def sq_log_sq(u: np.ndarray) -> np.ndarray:
    """u^2 log u^2 with the value 0 at u = 0.

    One ufunc chain with no mask: log u^2 is taken as 2 log max(|u|, 5e-324),
    which avoids underflow of u*u for tiny entries and is finite at u = 0.
    The value at u = 0 is a signed zero.
    """
    return u * u * (2.0 * np.log(np.maximum(np.abs(u), _TINY)))


def u_log_sq(u: np.ndarray) -> np.ndarray:
    """u log u^2 with the value 0 at u = 0, floored like :func:`sq_log_sq`."""
    return u * (2.0 * np.log(np.maximum(np.abs(u), _TINY)))


class ProblemInstance:
    """A graph, a coupling ``lam`` and a free vertex set ``F``.

    ``lam`` scales the stored potential; ``None`` drops the potential
    term.  ``free`` lists the vertex ids of ``F`` (all of ``V`` when
    omitted), which must be non-empty and connected.  :meth:`full` and
    :meth:`dirichlet` build the paper's two problems.

    ``free`` is then the full-length mask of ``F``.  The read-only arrays
    ``free_index``, ``stiffness`` (``S[F, F]``), ``mu``, ``lam_a`` and
    ``mass`` (``mu * (lam_a + 1)``) live on ``F``.
    """

    def __init__(self, graph: WeightedGraph, lam: float | None, free: Iterable[str] | None = None):
        # Written so that NaN fails it too; inf * 0 would be NaN in lam_a.
        if lam is not None and not 0 < lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {lam!r}")
        ids = graph.vertex_ids if free is None else tuple(free)
        if not ids:
            raise ValueError("free vertex set is empty")
        # WeightedGraph already checked that all of V is connected.
        if free is not None and not graph.is_connected(ids):
            raise ValueError("free vertex set is not connected")
        self.graph = graph
        self.lam = lam
        self.free = np.zeros(graph.n, dtype=bool)
        self.free[[graph.index(vid) for vid in ids]] = True
        f = self.free_index = np.flatnonzero(self.free)
        # The full problem shares the graph's read-only arrays.
        if f.size == graph.n:
            self.stiffness, self.mu = graph.stiffness, graph.mu
        else:
            self.stiffness, self.mu = graph.stiffness[np.ix_(f, f)], graph.mu[f]
        self.lam_a = (0.0 if lam is None else lam) * graph.potential_a[f]
        self.mass = self.mu * (self.lam_a + 1.0)
        for arr in (self.free, f, self.stiffness, self.mu, self.lam_a, self.mass):
            arr.setflags(write=False)

    @classmethod
    def full(cls, graph: WeightedGraph, lam: float) -> "ProblemInstance":
        """The full problem: coupling ``lam`` on all of ``V``."""
        return cls(graph, float(lam))

    @classmethod
    def dirichlet(cls, graph: WeightedGraph, omega: SubDomain | None = None) -> "ProblemInstance":
        """The Dirichlet problem on the interior of ``omega``, the well by default."""
        omega = graph.validate_potential().omega if omega is None else omega
        return cls(graph, None, omega.interior)

    def check_admissible(self, u: np.ndarray) -> np.ndarray:
        u = self.graph.check_field(u)
        if np.any(u[~self.free] != 0.0):
            raise NotAdmissible("field is nonzero outside the free vertex set")
        return u

    def free_values(self, u: np.ndarray) -> np.ndarray:
        """Values on ``F`` of a full-length field, after checking it."""
        return self.check_admissible(u)[self.free_index]

    def extend(self, u_free: np.ndarray) -> np.ndarray:
        """Full-length field equal to ``u_free`` on ``F`` and zero elsewhere."""
        u = np.zeros(self.graph.n)
        u[self.free_index] = u_free
        return u

    def norm_h_sq(self, u: np.ndarray) -> float:
        """Squared energy-space norm: gradient + weighted mass term.

        The gradient term is that of the zero extension off ``F`` and the
        mass weight is ``lam_a + 1``: the ``H_lam`` norm for ``F = V``, and
        the zero-extension H1 norm without a potential term.
        """
        return float(_norm_h_sq(self, self.free_values(u)))


# -- trusted kernels: finite free values of an admissible field -------------
#
# A kernel that takes a stack of fields as rows gives each row the same
# floats as the 1-d field alone: ``_matvec`` and ``_dot`` run one BLAS
# matrix-vector product or dot per row (a matrix product over the whole
# stack rounds differently).


def _matvec(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``a @ u`` for one field, or for each row of a stack of fields."""
    return np.matmul(a, u[..., None])[..., 0]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` along the last axis, row by row; a scalar for two 1-d arrays."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _norm_h_sq(inst: ProblemInstance, u: np.ndarray) -> np.ndarray:
    return _dot(u, _matvec(inst.stiffness, u)) + _dot(inst.mass, u * u)


def _energies(inst: ProblemInstance, u: np.ndarray) -> np.ndarray:
    return 0.5 * _norm_h_sq(inst, u) - 0.5 * _dot(inst.mu, sq_log_sq(u))


def _energy(inst: ProblemInstance, u: np.ndarray) -> float:
    return float(_energies(inst, u))


def _residual(inst: ProblemInstance, u: np.ndarray) -> np.ndarray:
    return _matvec(inst.stiffness, u) / inst.mu + inst.lam_a * u - u_log_sq(u)


def _dir_deriv(inst: ProblemInstance, u: np.ndarray, v: np.ndarray) -> float:
    return float(inst.mu @ (_residual(inst, u) * v))


def _coupling_k(inst: ProblemInstance, u: np.ndarray) -> float:
    # The supports of u+ and u- are disjoint, so u+ . (S u-) = -u+ . (W u-).
    return -2.0 * float(positive_part(u) @ (inst.stiffness @ negative_part(u)))


# -- public API: validate once, then call a kernel -------------------------


def energy(inst: ProblemInstance, u: np.ndarray) -> float:
    """Value of the variational functional at ``u``."""
    return _energy(inst, inst.free_values(u))


def dir_deriv(inst: ProblemInstance, u: np.ndarray, v: np.ndarray) -> float:
    """Directional derivative of the energy at ``u`` along ``v``.

    Matches the one-sided difference quotient wherever the field is
    bounded away from zero on its support.
    """
    return _dir_deriv(inst, inst.free_values(u), inst.free_values(v))


def residual(inst: ProblemInstance, u: np.ndarray) -> np.ndarray:
    """Pointwise Euler-Lagrange residual field.

    Satisfies the duality ``dir_deriv(inst, u, v) == integrate(r * v)`` for
    every admissible direction ``v``; a zero residual certifies a
    pointwise solution.  It vanishes off the free vertex set.
    """
    return inst.extend(_residual(inst, inst.free_values(u)))


def coupling_k(inst: ProblemInstance, u: np.ndarray) -> float:
    """Edge coupling between the positive and negative parts of ``u``.

    Always nonpositive; zero exactly when no edge joins the supports of
    the two parts.
    """
    return _coupling_k(inst, inst.free_values(u))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    left: float
    right: float

    @property
    def abs_discrepancy(self) -> float:
        return abs(self.left - self.right)

    @property
    def rel_discrepancy(self) -> float:
        scale = max(abs(self.left), abs(self.right), 1.0)
        return self.abs_discrepancy / scale

    def to_dict(self) -> dict:
        return _json_fields(
            self, abs_discrepancy=self.abs_discrepancy, rel_discrepancy=self.rel_discrepancy
        )


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def max_rel_discrepancy(self) -> float:
        return max(c.rel_discrepancy for c in self.checks)

    def __getitem__(self, name: str) -> IdentityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        return json.dumps([c.to_dict() for c in self.checks], indent=2) + "\n"


def identity_suite(inst: ProblemInstance, u: np.ndarray) -> IdentityReport:
    """Evaluate the sign-split decomposition identities at ``u``.

    Reports both sides and the discrepancy for:
    the gradient-energy split against the coupling term, the energy and
    directional-derivative splits into positive/negative parts, the
    quadratic identity J(u) - J'(u).u/2 = |u|_2^2/2, and integration by
    parts over the full indicator basis (worst offender reported).
    """
    u = inst.free_values(u)
    g = inst.graph
    up, um = positive_part(u), negative_part(u)
    k = _coupling_k(inst, u)

    def grad_sq(w: np.ndarray) -> float:
        return g.integrate(g.gamma(inst.extend(w)))

    checks = [
        IdentityCheck("gamma_split", grad_sq(u), grad_sq(up) + grad_sq(um) - k),
        IdentityCheck(
            "energy_split",
            _energy(inst, u),
            _energy(inst, up) + _energy(inst, um) - 0.5 * k,
        ),
        IdentityCheck(
            "deriv_split_pos",
            _dir_deriv(inst, u, up),
            _dir_deriv(inst, up, up) - 0.5 * k,
        ),
        IdentityCheck(
            "deriv_split_neg",
            _dir_deriv(inst, u, um),
            _dir_deriv(inst, um, um) - 0.5 * k,
        ),
        IdentityCheck(
            "nehari_quadratic",
            _energy(inst, u) - 0.5 * _dir_deriv(inst, u, u),
            0.5 * float(inst.mu @ (u * u)),
        ),
    ]

    # Integration by parts on every vertex indicator; keep the worst pair.
    u = inst.extend(u)
    lap = g.laplacian(u)
    worst = IdentityCheck("integration_by_parts", 0.0, 0.0)
    for i in range(g.n):
        phi = np.zeros(g.n)
        phi[i] = 1.0
        cand = IdentityCheck(
            "integration_by_parts",
            g.integrate(g.gamma(u, phi)),
            -g.integrate(lap * phi),
        )
        if cand.rel_discrepancy >= worst.rel_discrepancy:
            worst = cand
    checks.append(worst)
    return IdentityReport(tuple(checks))


# -- field IO -----------------------------------------------------------


def load_field(graph: WeightedGraph, data: Mapping | str) -> np.ndarray:
    """Field from JSON ``{"values": {id: number, ...}}``; missing ids are 0.

    A solve report, which nests that mapping under ``minimizer``, is read
    too.
    """
    if isinstance(data, str):
        data = json.loads(data)
    try:
        values = data["values"] if "values" in data else data["minimizer"]["values"]
    except (KeyError, TypeError):
        raise ValueError("field JSON needs a 'values' mapping") from None
    return graph.check_field(graph.field(values))


def field_to_dict(graph: WeightedGraph, u: np.ndarray, ids: Iterable[str] | None = None) -> dict:
    u = graph.check_field(u)
    ids = graph.vertex_ids if ids is None else ids
    return {"values": {vid: float(u[graph.index(vid)]) for vid in ids}}
