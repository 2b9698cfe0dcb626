"""Validation at the API boundary, and the trusted kernels behind it.

The public functions of ``energy``, ``nehari`` and ``solver`` check their
field arguments once and then compute through private kernels that work
on the stiffness matrix ``S = D - W``.  The reference forms below are the
pointwise definitions of the Laplacian and the gradient form.
"""

import numpy as np
import pytest

from logschro import (
    NotAdmissible,
    ProblemInstance,
    coupling_k,
    dir_deriv,
    energy,
    identity_suite,
    pair_residuals,
    project_pair,
    project_ray,
    residual,
    verify,
)
from logschro import nehari, solver
from logschro.energy import _energies, sq_log_sq, u_log_sq

from conftest import random_field, random_graph

# Fixed before the kernels were written: rounding of a reordered sum of
# O(n) terms, relative to the largest term.
RTOL = 1e-12


def _scale(*terms) -> float:
    return max([1.0] + [float(np.max(np.abs(t))) for t in terms])


def _ref_laplacian(g, u):
    """(1/mu(x)) sum_y w_xy (u(y) - u(x)), written from the definition."""
    return np.array(
        [sum(g.weights[x, y] * (u[y] - u[x]) for y in range(g.n)) / g.mu[x] for x in range(g.n)]
    )


def _ref_terms(inst, u, v):
    g = inst.graph
    # The Dirichlet problem has no potential term.
    lam_a = np.zeros(g.n) if inst.lam is None else inst.lam * g.potential_a
    grad = g.integrate(g.gamma(u))
    mass = g.integrate((lam_a + 1.0) * u * u)
    log_mass = g.integrate(sq_log_sq(u))
    cross = g.integrate(g.gamma(u, v))
    pot = g.integrate(lam_a * u * v)
    nonlin = g.integrate(v * u_log_sq(u))
    lap = -_ref_laplacian(g, u)
    res = np.where(inst.free, lap + lam_a * u - u_log_sq(u), 0.0)
    return {
        "norm_h_sq": (grad + mass, (grad, mass)),
        "energy": (0.5 * (grad + mass) - 0.5 * log_mass, (grad, mass, log_mass)),
        "dir_deriv": (cross + pot - nonlin, (cross, pot, nonlin)),
        "residual": (res, (lap, lam_a * u, u_log_sq(u))),
    }


def _instances():
    """Full and Dirichlet instances on 20 seeded random graphs."""
    out = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        out.append((f"full-{seed}", ProblemInstance.full(g, float(rng.uniform(0.1, 50.0)))))
        # The closed neighbourhood of a vertex is a connected well.
        x = int(rng.integers(g.n))
        well = [g.vertex_ids[x]] + [g.vertex_ids[y] for y in np.nonzero(g.weights[x])[0]]
        out.append((f"dirichlet-{seed}", ProblemInstance.dirichlet(g, g.boundary(well))))
    return out


INSTANCES = _instances()


def _fields(inst, seed):
    rng = np.random.default_rng([seed, 1])
    n = inst.graph.n
    u = np.where(inst.free, random_field(rng, n), 0.0)
    v = np.where(inst.free, random_field(rng, n), 0.0)
    return u, v


@pytest.mark.parametrize("inst", [i for _, i in INSTANCES], ids=[k for k, _ in INSTANCES])
class TestKernelsMatchReference:
    def test_laplacian(self, inst):
        g = inst.graph
        u, _ = _fields(inst, 0)
        ref = _ref_laplacian(g, u)
        assert np.max(np.abs(g.laplacian(u) - ref)) <= RTOL * _scale(ref, g.deg * u / g.mu)

    def test_gamma_integral_is_quadratic_form(self, inst):
        g = inst.graph
        for seed in range(3):
            u, _ = _fields(inst, seed)
            ref = g.integrate(g.gamma(u))
            assert abs(u @ g.stiffness @ u - ref) <= RTOL * _scale(ref, g.deg * u * u)

    def test_scalar_functionals(self, inst):
        for seed in range(3):
            u, v = _fields(inst, seed)
            ref = _ref_terms(inst, u, v)
            got = {
                "norm_h_sq": inst.norm_h_sq(u),
                "energy": energy(inst, u),
                "dir_deriv": dir_deriv(inst, u, v),
            }
            for name, value in got.items():
                want, terms = ref[name]
                assert abs(value - want) <= RTOL * _scale(*terms), name

    def test_residual(self, inst):
        for seed in range(3):
            u, v = _fields(inst, seed)
            want, terms = _ref_terms(inst, u, v)["residual"]
            assert np.max(np.abs(residual(inst, u) - want)) <= RTOL * _scale(*terms)

    def test_polish_free_block_residual(self, inst):
        for seed in range(3):
            u, _ = _fields(inst, seed)
            full = residual(inst, u)
            got = solver._residual(inst, u[inst.free])
            assert np.max(np.abs(got - full[inst.free])) <= RTOL * _scale(
                full, inst.graph.deg * u / inst.graph.mu, u_log_sq(u)
            )

    def test_stacked_rows_match_each_field_alone(self, inst):
        # The kernels the stacked descent uses give each row of a stack
        # the very floats of that field alone.
        stack = np.array([_fields(inst, seed)[0][inst.free] for seed in range(5)])
        stack[1] = np.abs(stack[1])
        norms, up, um = nehari._split_stats(inst, stack)
        residuals = solver._residual(inst, stack)
        jacobians = solver._residual_jacobian(inst, stack)
        energies = _energies(inst, stack)
        for i, row in enumerate(stack):
            np.testing.assert_array_equal(residuals[i], solver._residual(inst, row))
            np.testing.assert_array_equal(jacobians[i], solver._residual_jacobian(inst, row))
            # The solver's polish judges energies as rows; each is the
            # energy of that field evaluated alone.
            assert energies[i] == 0.5 * float(nehari._norm_h_sq(inst, row)) - 0.5 * float(
                inst.mu @ sq_log_sq(row)
            )
            assert nehari._norm_h_sq(inst, stack)[i] == nehari._norm_h_sq(inst, row)
            norms_alone, up_alone, um_alone = nehari._split_stats(inst, row[None, :])
            assert norms[i].tolist() == norms_alone[0].tolist()
            np.testing.assert_array_equal(up[i], up_alone[0])
            np.testing.assert_array_equal(um[i], um_alone[0])

    def test_polish_jacobian_matches_differences(self, inst):
        u, _ = _fields(inst, 0)
        uf = u[inst.free]
        jac = solver._residual_jacobian(inst, uf)
        h = 1e-6
        for j in range(len(uf)):
            e = np.zeros(len(uf))
            e[j] = h
            diff = (solver._residual(inst, uf + e) - solver._residual(inst, uf - e)) / (2 * h)
            assert np.max(np.abs(jac[:, j] - diff)) <= 1e-6 * _scale(jac)


def test_polish_jacobian_finite_beyond_square_range(p6):
    # u * u overflows for |u| > 1e154; log u^2 = 2 log|u| does not.
    inst = ProblemInstance.full(p6, 10.0)
    uf = np.full(p6.n, 1e200)
    uf[1] = -1e-200
    with np.errstate(all="raise"):
        jac = solver._residual_jacobian(inst, uf)
    want = inst.lam_a - 2.0 * np.log(np.array([1e200, 1e-150] + [1e200] * (p6.n - 2))) - 2.0
    assert np.allclose(np.diag(jac) - np.diag(inst.stiffness) / inst.mu, want, rtol=1e-14)


@pytest.mark.parametrize("kind", ["full", "dirichlet", "ball"])
@pytest.mark.parametrize("seed", range(5))
def test_jacobian_diagonal_matches_formula(kind, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng)
    lam = float(rng.uniform(0.1, 50.0))
    # The closed neighbourhood of a vertex is connected.
    x = int(rng.integers(g.n))
    ball = [g.vertex_ids[x]] + [g.vertex_ids[y] for y in np.nonzero(g.weights[x])[0]]
    inst = {
        "full": ProblemInstance.full(g, lam),
        "dirichlet": ProblemInstance.dirichlet(g, g.boundary(ball)),
        "ball": ProblemInstance(g, lam, ball),
    }[kind]
    f = inst.free_index
    lam_a = 0.0 if inst.lam is None else inst.lam * g.potential_a[f]
    stack = np.array([random_field(rng, len(f)) for _ in range(3)])
    stack[0, 0] = 0.0
    for u in (stack, stack[1]):
        diagonal = solver._jacobian_diagonal(inst, u)
        # D = S_ii/mu_i + lam a_i - log u_i^2 - 2, with |u| floored at 1e-150.
        want = np.diag(g.stiffness)[f] / g.mu[f] + lam_a - np.log(np.maximum(u * u, 1e-300)) - 2.0
        np.testing.assert_allclose(diagonal, want, rtol=1e-13, atol=1e-12)
        jac = solver._residual_jacobian(inst, u)
        np.testing.assert_array_equal(np.diagonal(jac, axis1=-2, axis2=-1), diagonal)


def test_stiffness_is_read_only(k2):
    assert np.array_equal(k2.stiffness, [[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError):
        k2.stiffness[0, 0] = 0.0


# -- validation at the boundary ---------------------------------------------

BOUNDARY = {
    "energy": lambda inst, u, ok: energy(inst, u),
    "residual": lambda inst, u, ok: residual(inst, u),
    "dir_deriv_u": lambda inst, u, ok: dir_deriv(inst, u, ok),
    "dir_deriv_v": lambda inst, u, ok: dir_deriv(inst, ok, u),
    "coupling_k": lambda inst, u, ok: coupling_k(inst, u),
    "norm_h_sq": lambda inst, u, ok: inst.norm_h_sq(u),
    "project_ray": lambda inst, u, ok: project_ray(inst, u),
    "project_pair": lambda inst, u, ok: project_pair(inst, u),
    "pair_residuals": lambda inst, u, ok: pair_residuals(inst, u, 1.0, 1.0),
    "verify": lambda inst, u, ok: verify(inst, u),
    "identity_suite": lambda inst, u, ok: identity_suite(inst, u),
}


@pytest.mark.parametrize("call", list(BOUNDARY.values()), ids=list(BOUNDARY))
class TestBoundaryValidation:
    def _good(self, inst):
        # Sign-changing on the well (v3, v4) of the 6-path.
        return inst.graph.field({"v3": 1.0, "v4": -1.5})

    def test_wrong_shape(self, call, p6):
        inst = ProblemInstance.full(p6, 10.0)
        with pytest.raises(ValueError):
            call(inst, np.ones(p6.n + 1), self._good(inst))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, call, p6, bad):
        inst = ProblemInstance.full(p6, 10.0)
        u = self._good(inst)
        u[inst.graph.index("v3")] = bad
        with pytest.raises(ValueError):
            call(inst, u, self._good(inst))

    def test_outside_the_well(self, call, p6_dirichlet):
        inst = p6_dirichlet
        u = self._good(inst)
        u[inst.graph.index("v1")] = 0.5
        with pytest.raises(NotAdmissible):
            call(inst, u, self._good(inst))
