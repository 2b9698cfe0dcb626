"""Energy functionals for the logarithmic nonlinearity on a graph.

Two problem modes share one code path: the full problem on all vertices
with potential coupling ``lam * a(x)``, and the Dirichlet problem on the
potential well, where admissible fields vanish identically outside the
well interior.  The convention ``0 * log 0 = 0`` is applied everywhere.

Public functions validate their field arguments once (shape, finiteness
and, in Dirichlet mode, support in the well) and then call a private
kernel (``_norm_h_sq``, ``_energy``, ``_residual``, ``_dir_deriv``,
``_coupling_k``) that trusts its arrays.  The kernels compute the
gradient terms from the graph's stiffness matrix ``S``, using
``integral of Gamma(u, v) dmu = v^T S u`` and ``-mu Laplacian(u) = S u``.
Callers inside the package that build their own fields call the kernels
directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .graphs import SubDomain, WeightedGraph, negative_part, positive_part

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
    """Field violates the mode's admissibility constraint."""


def sq_log_sq(u: np.ndarray) -> np.ndarray:
    """u^2 log u^2 with the value 0 at u = 0."""
    out = np.zeros_like(u)
    nz = u != 0.0
    un = u[nz]
    # 2 log |u| avoids underflow of u*u for tiny entries.
    out[nz] = un * un * (2.0 * np.log(np.abs(un)))
    return out


def u_log_sq(u: np.ndarray) -> np.ndarray:
    """u log u^2 with the value 0 at u = 0."""
    out = np.zeros_like(u)
    nz = u != 0.0
    un = u[nz]
    out[nz] = un * (2.0 * np.log(np.abs(un)))
    return out


class ProblemInstance:
    """A graph together with the energy definition in force.

    Build with :meth:`full` (coupling strength ``lam`` against the stored
    potential) or :meth:`dirichlet` (zero-extension problem on the well).
    """

    def __init__(self, graph: WeightedGraph, lam: float | None, omega: SubDomain | None):
        self.graph = graph
        self.lam = lam
        self.omega = omega
        if lam is not None:
            # Written so that NaN fails it too; inf * 0 would be NaN in lam_a.
            if not 0 < lam < math.inf:
                raise ValueError(f"lambda must be positive and finite, got {lam!r}")
            self.free = np.ones(graph.n, dtype=bool)
            self.lam_a = lam * graph.potential_a
        else:
            assert omega is not None
            if not omega.interior:
                raise ValueError("Dirichlet domain is empty")
            if not graph.is_connected(omega.interior):
                raise ValueError("Dirichlet domain is not connected")
            self.free = np.zeros(graph.n, dtype=bool)
            for vid in omega.interior:
                self.free[graph.index(vid)] = True
            self.lam_a = np.zeros(graph.n)
        # Built once for the kernels.  On a field vanishing off the free set
        # the residual there is free_stiffness @ u_f + lam_a_free * u_f -
        # u_f log u_f^2, with free_stiffness the free block of S / mu.
        self.mass = graph.mu * (self.lam_a + 1.0)
        self.free_index = np.flatnonzero(self.free)
        block = np.ix_(self.free_index, self.free_index)
        self.free_stiffness = graph.stiffness[block] / graph.mu[self.free_index, None]
        self.lam_a_free = self.lam_a[self.free_index]
        for arr in (
            self.free,
            self.lam_a,
            self.mass,
            self.free_index,
            self.free_stiffness,
            self.lam_a_free,
        ):
            arr.setflags(write=False)

    @classmethod
    def full(cls, graph: WeightedGraph, lam: float) -> "ProblemInstance":
        return cls(graph, float(lam), None)

    @classmethod
    def dirichlet(cls, graph: WeightedGraph, omega: SubDomain | None = None) -> "ProblemInstance":
        if omega is None:
            report = graph.validate_potential()
            if not report.passes:
                raise ValueError("potential well fails the non-empty/connected hypothesis")
            omega = report.omega
        return cls(graph, None, omega)

    @property
    def mode(self) -> str:
        return "full" if self.lam is not None else "dirichlet"

    def check_admissible(self, u: np.ndarray) -> np.ndarray:
        u = self.graph.check_field(u)
        if self.mode == "dirichlet" and np.any(u[~self.free] != 0.0):
            raise NotAdmissible("field is nonzero outside the Dirichlet domain")
        return u

    def project(self, u: np.ndarray) -> np.ndarray:
        """Zero the field outside the free vertex set (no-op in full mode)."""
        u = self.graph.check_field(u)
        return np.where(self.free, u, 0.0)

    def norm_h_sq(self, u: np.ndarray) -> float:
        """Squared energy-space norm: gradient + weighted mass term.

        Full mode uses the mass weight ``lam a + 1``; Dirichlet mode the
        zero-extension H1 norm (the two agree on admissible fields when the
        potential vanishes on the well).
        """
        return _norm_h_sq(self, self.check_admissible(u))


# -- trusted kernels: admissible, finite fields of the right shape --------


def _norm_h_sq(inst: ProblemInstance, u: np.ndarray) -> float:
    return float(u @ (inst.graph.stiffness @ u) + inst.mass @ (u * u))


def _energy(inst: ProblemInstance, u: np.ndarray) -> float:
    return 0.5 * _norm_h_sq(inst, u) - 0.5 * float(inst.graph.mu @ sq_log_sq(u))


def _residual(inst: ProblemInstance, u: np.ndarray) -> np.ndarray:
    g = inst.graph
    r = (g.stiffness @ u) / g.mu + inst.lam_a * u - u_log_sq(u)
    if inst.mode == "dirichlet":
        r = np.where(inst.free, r, 0.0)
    return r


def _dir_deriv(inst: ProblemInstance, u: np.ndarray, v: np.ndarray) -> float:
    return float(inst.graph.mu @ (_residual(inst, u) * v))


def _coupling_k(inst: ProblemInstance, u: np.ndarray) -> float:
    # An admissible field vanishes off the free set, so in Dirichlet mode
    # the sum over the well's closure is the sum over all vertices.
    return 2.0 * float(positive_part(u) @ (inst.graph.weights @ negative_part(u)))


# -- public API: validate once, then call a kernel -------------------------


def energy(inst: ProblemInstance, u: np.ndarray) -> float:
    """Value of the variational functional at ``u``."""
    return _energy(inst, inst.check_admissible(u))


def dir_deriv(inst: ProblemInstance, u: np.ndarray, v: np.ndarray) -> float:
    """Directional derivative of the energy at ``u`` along ``v``.

    Matches the one-sided difference quotient wherever the field is
    bounded away from zero on its support.
    """
    return _dir_deriv(inst, inst.check_admissible(u), inst.check_admissible(v))


def residual(inst: ProblemInstance, u: np.ndarray) -> np.ndarray:
    """Pointwise Euler-Lagrange residual field.

    Satisfies the duality ``dir_deriv(inst, u, v) == integrate(r * v)`` for
    every admissible direction ``v``; a zero residual certifies a
    pointwise solution.
    """
    return _residual(inst, inst.check_admissible(u))


def coupling_k(inst: ProblemInstance, u: np.ndarray) -> float:
    """Edge coupling between the positive and negative parts of ``u``.

    Always nonpositive; zero exactly when no edge joins the supports of
    the two parts.
    """
    return _coupling_k(inst, inst.check_admissible(u))


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
        return {
            "name": self.name,
            "left": self.left,
            "right": self.right,
            "abs_discrepancy": self.abs_discrepancy,
            "rel_discrepancy": self.rel_discrepancy,
        }


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
    u = inst.check_admissible(u)
    g = inst.graph
    up, um = positive_part(u), negative_part(u)
    k = _coupling_k(inst, u)

    checks = [
        IdentityCheck(
            "gamma_split",
            g.integrate(g.gamma(u)),
            g.integrate(g.gamma(up)) + g.integrate(g.gamma(um)) - k,
        ),
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
            0.5 * g.integrate(u * u),
        ),
    ]

    # Integration by parts on every vertex indicator; keep the worst pair.
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
