"""Validation at the API boundary, and the trusted kernels behind it.

The public functions of ``energy``, ``nehari`` and ``solver`` check their
field arguments once and then compute through private kernels that work
on the stiffness matrix ``S = D - W``.  The reference forms below are the
pointwise definitions of the Laplacian and the gradient form.
"""

import math

import numpy as np
import pytest

from logschro import (
    NoBracket,
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
from logschro.energy import (
    _dot,
    _energies,
    _floored_log,
    _matvec,
    _norm_h_sq,
    sq_log_sq,
    u_log_sq,
)

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
        jac_base = solver._jacobian_base(inst)
        jacobians = solver._residual_jacobian(jac_base, stack)
        energies = _energies(inst, stack)
        for i, row in enumerate(stack):
            np.testing.assert_array_equal(residuals[i], solver._residual(inst, row))
            np.testing.assert_array_equal(jacobians[i], solver._residual_jacobian(jac_base, row))
            # The solver's polish judges energies as rows; each is the
            # energy of that field evaluated alone.
            assert energies[i] == 0.5 * float(_norm_h_sq(inst, row)) - 0.5 * float(
                inst.mu @ sq_log_sq(row)
            )
            assert _norm_h_sq(inst, stack)[i] == _norm_h_sq(inst, row)
            norms_alone, up_alone, um_alone = nehari._split_stats(inst, row[None, :])
            assert norms[i].tolist() == norms_alone[0].tolist()
            np.testing.assert_array_equal(up[i], up_alone[0])
            np.testing.assert_array_equal(um[i], um_alone[0])

    def test_polish_jacobian_matches_differences(self, inst):
        u, _ = _fields(inst, 0)
        uf = u[inst.free]
        jac = solver._residual_jacobian(solver._jacobian_base(inst), uf)
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
        jac = solver._residual_jacobian(solver._jacobian_base(inst), uf)
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
    _, base = solver._jacobian_base(inst)
    for u in (stack, stack[1]):
        diagonal = solver._jacobian_diagonal(base, _floored_log(np.abs(u)))
        # D = S_ii/mu_i + lam a_i - log u_i^2 - 2, with |u| floored at 1e-150.
        want = np.diag(g.stiffness)[f] / g.mu[f] + lam_a - np.log(np.maximum(u * u, 1e-300)) - 2.0
        np.testing.assert_allclose(diagonal, want, rtol=1e-13, atol=1e-12)
        jac = solver._residual_jacobian(solver._jacobian_base(inst), u)
        np.testing.assert_array_equal(np.diagonal(jac, axis1=-2, axis2=-1), diagonal)


def test_stiffness_is_read_only(k2):
    assert np.array_equal(k2.stiffness, [[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError):
        k2.stiffness[0, 0] = 0.0


# -- lean kernels against the forms they replaced ---------------------------


def _old_matvec(a, u):
    return np.matmul(a, u[..., None])[..., 0]


def _old_dot(x, y):
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _old_jacobian_diagonal(inst, u):
    base = np.diag(inst.stiffness) / inst.mu + inst.lam_a
    return base - 2.0 * np.log(np.maximum(np.abs(u), 1e-150)) - 2.0


# Magnitudes at the floors of the two logs and beyond the square range.
EDGE_VALUES = [
    0.0, 5e-324, -5e-324, 1e-151, -1e-150, 1e-150,
    np.nextafter(1e-150, 0.0), np.nextafter(1e-150, 1.0), 1e154, -1e200, 1e200, -0.7, 2.5,
]


class TestLeanKernelsMatchOldForms:
    """The kernels give the very floats of the forms they replaced."""

    def test_gufunc_dot_and_matvec_match_matmul(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n, rows = int(rng.integers(2, 60)), int(rng.integers(1, 17))
            a = rng.standard_normal((n, n))
            mu = rng.uniform(0.5, 2.0, n)
            stack = rng.standard_normal((rows, 2 * n))[:, ::2]  # strided rows
            parts = np.empty((2, rows, n))
            np.maximum(stack, 0.0, out=parts[0])
            np.minimum(stack, 0.0, out=parts[1])
            for u in (stack[0], np.ascontiguousarray(stack), stack, parts):
                np.testing.assert_array_equal(_matvec(a, u), _old_matvec(a, u))
                np.testing.assert_array_equal(_dot(mu, u), _old_dot(mu, u))
                np.testing.assert_array_equal(_dot(u, u[..., ::-1]), _old_dot(u, u[..., ::-1]))
            assert _dot(mu, stack[0]) == _old_dot(mu, stack[0])

    def test_log_floors_agree(self):
        # max(log max(|u|, 5e-324), log 1e-150) is log max(|u|, 1e-150).
        rng = np.random.default_rng(0)
        au = np.abs(rng.integers(0, 2**63, 1_000_000, dtype=np.int64).view(np.float64))
        au = np.concatenate([au[np.isfinite(au)], np.abs(EDGE_VALUES)])
        np.testing.assert_array_equal(
            np.maximum(_floored_log(au), solver._LOG_FLOOR), np.log(np.maximum(au, 1e-150))
        )

    def test_descent_residual_and_metric_from_one_log(self, p6, p6_dirichlet):
        for inst in (ProblemInstance.full(p6, 10.0), p6_dirichlet):
            m = len(inst.mu)
            stack = np.array([np.roll(EDGE_VALUES, i)[:m] for i in range(len(EDGE_VALUES))])
            _, base = solver._jacobian_base(inst)
            for u in (stack, stack[3:4]):
                # What a descent iteration takes from one log of |u|.
                log_abs = _floored_log(np.abs(u))
                r = solver._residual(inst, u, log_abs)
                metric = np.maximum(solver._jacobian_diagonal(base, log_abs), inst.lam_a + 1.0)
                np.testing.assert_array_equal(r, solver._residual(inst, u))
                np.testing.assert_array_equal(
                    r,
                    _old_matvec(inst.stiffness, u) / inst.mu + inst.lam_a * u - u_log_sq(u),
                )
                np.testing.assert_array_equal(
                    metric, np.maximum(_old_jacobian_diagonal(inst, u), inst.lam_a + 1.0)
                )
                jac = solver._residual_jacobian(solver._jacobian_base(inst), u)
                np.testing.assert_array_equal(
                    np.diagonal(jac, axis1=-2, axis2=-1), _old_jacobian_diagonal(inst, u)
                )

    def test_projection_norms_match_old_forms(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = random_graph(rng)
            inst = ProblemInstance.full(g, float(rng.uniform(0.1, 100.0)))
            stack = np.array([random_field(rng, g.n) for _ in range(4)])
            stack[0, 0] = 0.0
            stack[1] = np.abs(stack[1])
            stack[2, :2] = (1e-200, -5e-324)
            mu = inst.mu
            ray = nehari._ray_norms(inst, stack)
            np.testing.assert_array_equal(ray[:, 0], _old_dot(mu, stack * stack))
            np.testing.assert_array_equal(ray[:, 1], _norm_h_sq(inst, stack))
            np.testing.assert_array_equal(ray[:, 2], _old_dot(mu, sq_log_sq(stack)))
            norms, up, um = nehari._split_stats(inst, stack)
            parts = np.stack([up, um])
            logs = _old_dot(mu, np.where(parts != 0.0, sq_log_sq(stack), 0.0)).T
            # Equal up to the sign of a zero.
            np.testing.assert_array_equal(norms[:, 1:6:3], logs)


def _old_pair_tail(norms, s, t):
    """The acceptance test and the (g1, g2) of the pair projection at its
    root (s, t), as ``_pair_row`` evaluated them on every row."""
    a_pos, l_pos, b_pos, a_neg, l_neg, b_neg, k = norms
    g1, g2 = nehari._g_pair(norms, s, t)
    ss, tt = s * s, t * t
    ls2, lt2 = math.log(ss), math.log(tt)
    r, q = t / s, s / t
    e1 = (a_pos - l_pos - b_pos) - ls2 * b_pos - 0.5 * r * k
    e2 = (a_neg - l_neg - b_neg) - lt2 * b_neg - 0.5 * q * k
    ok = (
        abs(e1) <= 1e-10 * max(a_pos, r * r * a_neg, 1.0 / ss)
        and abs(e2) <= 1e-10 * max(q * q * a_pos, a_neg, 1.0 / tt)
    )
    g1 = g1 if math.isfinite(g1) else ss * e1
    g2 = g2 if math.isfinite(g2) else tt * e2
    return ok, g1, g2


def test_pair_row_matches_full_path(monkeypatch):
    # The test_matches_scan recipe at seed 5, whose draws 1372, 2082 and
    # 2877 have roots where g1 = s^2 (...) overflows.
    rng = np.random.default_rng(5)
    rows = overflowing = 0
    for _ in range(2878):
        g = random_graph(rng)
        inst = ProblemInstance.full(g, 10.0 ** rng.uniform(-1.0, 4.0))
        u = random_field(rng, g.n) * 10.0 ** rng.uniform(-3.0, 3.0)
        if not u.max() > 0.0 > u.min():
            continue
        norms = nehari._field_norms(inst, u)
        try:
            s, t, _, _, iterations, _ = nehari._pair_row(norms)
        except (NoBracket, nehari.NonConvergence):
            continue
        ok, g1, g2 = _old_pair_tail(norms, s, t)
        assert ok
        proj = project_pair(inst, u)
        assert (proj.s, proj.t, proj.g1_residual, proj.g2_residual) == (s, t, g1, g2)
        _, _, stacked_ok = nehari._project(inst, u[None, :], True)
        assert stacked_ok[0] == (np.abs(proj.projected).max() <= 1e150)
        # A row that fails its acceptance test names the same (g1, g2).
        with monkeypatch.context() as mp:
            mp.setattr(nehari, "_PAIR_TOL", -1.0)
            with pytest.raises(nehari.NonConvergence) as err:
                nehari._pair_row(norms)
        assert str(err.value) == (
            f"pair projection stalled at (g1, g2) = ({g1:.3e}, {g2:.3e}) "
            f"after {iterations} steps"
        )
        rows += 1
        overflowing += not math.isfinite(nehari._g_pair(norms, s, t)[0])
    assert rows >= 2000 and overflowing >= 3


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
