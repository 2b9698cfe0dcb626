import math

import numpy as np
import pytest

from logschro import (
    NotAdmissible,
    ProblemInstance,
    WeightedGraph,
    coupling_k,
    dir_deriv,
    energy,
    identity_suite,
    load_field,
    residual,
)

from conftest import random_field, random_graph

E = math.e


class TestEnergy:
    def test_constant_one(self, k2_inst):
        assert energy(k2_inst, np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_antisymmetric_solution_level(self, k2_inst):
        assert energy(k2_inst, np.array([E, -E])) == pytest.approx(E * E, rel=1e-12)

    def test_dirichlet_well_level(self, p6_dirichlet):
        alpha = math.exp(1.5)
        u = p6_dirichlet.graph.field({"v3": alpha, "v4": -alpha})
        assert energy(p6_dirichlet, u) == pytest.approx(E**3, rel=1e-12)

    def test_dirichlet_rejects_support_outside_well(self, p6_dirichlet):
        u = p6_dirichlet.graph.field({"v1": 1.0, "v3": 1.0})
        with pytest.raises(NotAdmissible):
            energy(p6_dirichlet, u)

    def test_zero_extension_matches_full_energy(self, p6):
        # With a = 0 on the well and u = 0 where a > 0, the potential term
        # vanishes for every coupling strength.
        rng = np.random.default_rng(5)
        dir_inst = ProblemInstance.dirichlet(p6)
        for lam in (1.0, 7.5, 400.0):
            full_inst = ProblemInstance.full(p6, lam)
            for _ in range(5):
                u = np.zeros(p6.n)
                u[dir_inst.free] = random_field(rng, 2)
                assert energy(dir_inst, u) == pytest.approx(
                    energy(full_inst, u), rel=1e-12
                )


class TestProblemInstance:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_bad_lambda(self, p6, lam):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            ProblemInstance.full(p6, lam)


class TestDirDeriv:
    def test_critical_point(self, k2_inst):
        u = np.array([E, -E])
        assert dir_deriv(k2_inst, u, u) == pytest.approx(0.0, abs=1e-12)

    def test_constant_direction(self, k2_inst):
        assert dir_deriv(k2_inst, np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_scaled_solution_against_positive_part(self, k2_inst):
        u = np.array([2.0 * E, -2.0 * E])
        got = dir_deriv(k2_inst, u, np.array([2.0 * E, 0.0]))
        assert got == pytest.approx(-8.0 * E * E * math.log(2.0), rel=1e-12)

    def test_central_difference_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = random_graph(rng)
            inst = ProblemInstance.full(g, float(rng.uniform(0.2, 5.0)))
            u = random_field(rng, g.n)
            v = random_field(rng, g.n)
            exact = dir_deriv(inst, u, v)
            errs = []
            for h in (1e-3, 1e-4, 1e-5, 1e-6):
                fd = (energy(inst, u + h * v) - energy(inst, u - h * v)) / (2.0 * h)
                errs.append(abs(fd - exact) / max(1.0, abs(exact)))
            assert errs[-1] <= 1e-6


class TestResidual:
    def test_exact_solution(self, k2_inst):
        assert np.allclose(residual(k2_inst, np.array([E, -E])), 0.0, atol=1e-14)

    def test_constant_one_zero_potential(self, p3):
        inst = ProblemInstance.full(p3, 2.0)
        assert np.allclose(residual(inst, np.ones(3)), 0.0, atol=1e-14)

    def test_dirichlet_solution(self, p6_dirichlet):
        alpha = math.exp(1.5)
        u = p6_dirichlet.graph.field({"v3": alpha, "v4": -alpha})
        assert np.allclose(residual(p6_dirichlet, u), 0.0, atol=1e-12)

    def test_duality_with_directional_derivative(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            g = random_graph(rng)
            inst = ProblemInstance.full(g, float(rng.uniform(0.2, 5.0)))
            u, v = random_field(rng, g.n), random_field(rng, g.n)
            lhs = dir_deriv(inst, u, v)
            rhs = g.integrate(residual(inst, u) * v)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_duality_dirichlet(self, p6_dirichlet):
        rng = np.random.default_rng(8)
        g = p6_dirichlet.graph
        for _ in range(10):
            u = np.zeros(g.n)
            v = np.zeros(g.n)
            u[p6_dirichlet.free] = random_field(rng, 2)
            v[p6_dirichlet.free] = random_field(rng, 2)
            lhs = dir_deriv(p6_dirichlet, u, v)
            rhs = g.integrate(residual(p6_dirichlet, u) * v)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestCoupling:
    def test_k2_sign_change(self, k2_inst):
        assert coupling_k(k2_inst, np.array([1.0, -1.0])) == pytest.approx(-2.0)

    def test_single_signed_is_zero(self, k2_inst):
        assert coupling_k(k2_inst, np.array([1.0, 2.0])) == 0.0

    def test_separated_supports_vanish(self, p3):
        inst = ProblemInstance.full(p3, 1.0)
        assert coupling_k(inst, np.array([1.0, 0.0, -1.0])) == 0.0

    def test_always_nonpositive(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_graph(rng)
            inst = ProblemInstance.full(g, 1.0)
            assert coupling_k(inst, random_field(rng, g.n)) <= 0.0


class TestIdentitySuite:
    def test_k2_hand_values(self, k2_inst):
        report = identity_suite(k2_inst, np.array([1.0, -1.0]))
        gamma_split = report["gamma_split"]
        assert gamma_split.left == pytest.approx(4.0)
        assert gamma_split.right == pytest.approx(4.0)
        assert report.max_rel_discrepancy <= 1e-12

    def test_single_signed_collapse(self, k2_inst):
        report = identity_suite(k2_inst, np.array([1.0, 2.0]))
        assert report.max_rel_discrepancy <= 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            g = random_graph(rng)
            inst = ProblemInstance.full(g, float(rng.uniform(0.2, 10.0)))
            report = identity_suite(inst, random_field(rng, g.n))
            assert report.max_rel_discrepancy <= 1e-12

    def test_report_serializes(self, k2_inst):
        report = identity_suite(k2_inst, np.array([1.5, -0.5]))
        names = {c.name for c in report.checks}
        assert "integration_by_parts" in names and "nehari_quadratic" in names
        assert report.to_json().endswith("\n")


class TestFieldIO:
    def test_missing_ids_default_to_zero(self, p6):
        u = load_field(p6, '{"values": {"v3": 2.5}}')
        assert u[p6.index("v3")] == 2.5
        assert float(np.abs(u).sum()) == 2.5

    def test_unknown_id_rejected(self, p6):
        with pytest.raises(ValueError):
            load_field(p6, '{"values": {"bogus": 1.0}}')

    def test_nonfinite_rejected(self, p6):
        with pytest.raises(ValueError):
            load_field(p6, '{"values": {"v1": Infinity}}')
