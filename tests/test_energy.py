import json
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

from logschro.energy import sq_log_sq, u_log_sq

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


def _masked(u, square):
    """The log kernels as masked definitions: 0 at u = 0, else u^2 log u^2
    (``square``) or u log u^2."""
    out = np.zeros_like(u)
    nz = u != 0.0
    un = u[nz]
    out[nz] = (un * un if square else un) * (2.0 * np.log(np.abs(un)))
    return out


class TestLogKernels:
    VALUES = [0.0, 5e-324, 1e-300, 1e-160, 1.0, 1e154, math.inf, math.nan]

    @pytest.mark.parametrize("kernel, square", [(sq_log_sq, True), (u_log_sq, False)])
    def test_match_masked_definitions(self, kernel, square):
        u = np.array(self.VALUES + [-v for v in self.VALUES])
        # (1e154)^2 log 1e308 overflows to inf in both definitions; any
        # other floating-point event (log 0, 0 * inf) raises.
        with np.errstate(over="ignore"):
            want = _masked(u, square)
        with np.errstate(all="raise", over="ignore", under="ignore"):
            got = kernel(u)
        # Equal entry for entry, NaN in the same places.
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.isnan(got), np.isnan(u))


class TestProblemInstance:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_bad_lambda(self, p6, lam):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            ProblemInstance.full(p6, lam)

    def test_constructor_matches_factories(self, p6):
        # Bit for bit, including the sign of zeros: the factories add nothing.
        omega = p6.validate_potential().omega
        for built, factory in (
            (ProblemInstance(p6, 10.0), ProblemInstance.full(p6, 10.0)),
            (ProblemInstance(p6, None, omega.interior), ProblemInstance.dirichlet(p6)),
        ):
            assert built.lam == factory.lam
            for name in ("free", "free_index", "stiffness", "mu", "lam_a", "mass"):
                got, want = getattr(built, name), getattr(factory, name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name

    def test_factories_give_the_paper_problems(self, p6):
        full = ProblemInstance.full(p6, 10.0)
        assert full.free.all()
        assert full.stiffness.tobytes() == p6.stiffness.tobytes()
        assert full.lam_a.tobytes() == (10.0 * p6.potential_a).tobytes()
        dirichlet = ProblemInstance.dirichlet(p6)
        assert list(dirichlet.free_index) == [2, 3]
        assert dirichlet.lam is None
        assert dirichlet.lam_a.tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("free", [[], ["v1", "v3"]], ids=["empty", "disconnected"])
    def test_rejects_empty_or_disconnected_free_set(self, p6, free):
        with pytest.raises(ValueError, match="free vertex set is"):
            ProblemInstance(p6, 10.0, free)

    def test_full_problem_skips_the_connectivity_check(self, p6, monkeypatch):
        # WeightedGraph already checked that all of V is connected.
        calls = []
        is_connected = WeightedGraph.is_connected

        def counted(graph, subset):
            calls.append(tuple(subset))
            return is_connected(graph, subset)

        monkeypatch.setattr(WeightedGraph, "is_connected", counted)
        ProblemInstance.full(p6, 10.0)
        assert calls == []
        with pytest.raises(ValueError, match="free vertex set is not connected"):
            ProblemInstance(p6, 10.0, ["v1", "v3"])
        assert calls == [("v1", "v3")]


class TestFreeBlock:
    """Only the instance knows the free set: gather once, scatter once."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(rng)
            yield rng, ProblemInstance.full(g, float(rng.uniform(0.1, 50.0)))
            # The closed neighbourhood of a vertex is a connected well.
            x = int(rng.integers(g.n))
            well = [g.vertex_ids[x]] + [g.vertex_ids[y] for y in np.nonzero(g.weights[x])[0]]
            yield rng, ProblemInstance.dirichlet(g, g.boundary(well))

    def test_extend_inverts_free_values(self):
        for rng, inst in self._instances():
            u = np.where(inst.free, random_field(rng, inst.graph.n), 0.0)
            assert np.array_equal(inst.extend(inst.free_values(u)), u)

    def test_free_block_arrays(self):
        for _, inst in self._instances():
            m = int(inst.free.sum())
            assert inst.stiffness.shape == (m, m)
            for arr in (inst.free_index, inst.mu, inst.lam_a, inst.mass):
                assert arr.shape == (m,)
            for arr in (inst.free, inst.free_index, inst.stiffness, inst.mu, inst.lam_a, inst.mass):
                with pytest.raises(ValueError):
                    arr[0] = arr[0]

    def test_free_values_rejects_support_off_the_well(self):
        seen = 0
        for rng, inst in self._instances():
            if inst.free.all():
                continue
            seen += 1
            u = np.where(inst.free, 0.0, random_field(rng, inst.graph.n))
            with pytest.raises(NotAdmissible):
                inst.free_values(u)
        assert seen > 0


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

    def test_report_json_lists_fields_then_discrepancies(self, k2_inst):
        report = identity_suite(k2_inst, np.array([1.5, -0.5]))
        assert list(json.loads(report.to_json())[0]) == [
            "name", "left", "right", "abs_discrepancy", "rel_discrepancy"
        ]

    def test_report_lookup_of_a_missing_check(self, k2_inst):
        report = identity_suite(k2_inst, np.array([1.5, -0.5]))
        with pytest.raises(KeyError):
            report["missing"]


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

    @pytest.mark.parametrize("text", ['{"v1": 1.0}', '{"minimizer": {}}', "[1.0]"])
    def test_missing_values_rejected(self, p6, text):
        with pytest.raises(ValueError, match="needs a 'values' mapping"):
            load_field(p6, text)
