import math

import numpy as np
import pytest

from logschro import (
    DegenerateCoupling,
    NoBracket,
    NonConvergence,
    ProblemInstance,
    coupling_k,
    dir_deriv,
    energy,
    fiber_energy,
    miranda_bracket,
    pair_residuals,
    project_pair,
    project_ray,
)
from logschro import nehari

from conftest import random_field, random_graph

E = math.e


def signed_field_with_coupling(rng, g, inst):
    """Random field whose sign parts touch across at least one edge."""
    for _ in range(100):
        u = random_field(rng, g.n, signed=True)
        if u.max() > 0 > u.min() and coupling_k(inst, u) < 0:
            return u
    raise AssertionError("could not draw a coupled sign-changing field")


class TestProjectRay:
    def test_fixed_point(self, k2_inst):
        assert project_ray(k2_inst, np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_rescaling(self, k2_inst):
        s = project_ray(k2_inst, np.array([2.0, 2.0]))
        assert s == pytest.approx(0.5, rel=1e-12)

    def test_single_support(self, k2_inst):
        s = project_ray(k2_inst, np.array([0.0, 1.0]))
        assert s == pytest.approx(math.sqrt(E), rel=1e-12)
        w = s * np.array([0.0, 1.0])
        assert dir_deriv(k2_inst, w, w) == pytest.approx(0.0, abs=1e-12)

    def test_zero_field_rejected(self, k2_inst):
        with pytest.raises(ValueError):
            project_ray(k2_inst, np.zeros(2))

    def test_homogeneity(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            g = random_graph(rng)
            inst = ProblemInstance.full(g, float(rng.uniform(0.2, 5.0)))
            w = random_field(rng, g.n)
            c = float(rng.uniform(0.1, 10.0))
            assert project_ray(inst, c * w) == pytest.approx(
                project_ray(inst, w) / c, rel=1e-12
            )

    def test_level_is_half_l2_mass(self):
        rng = np.random.default_rng(78)
        g = random_graph(rng)
        inst = ProblemInstance.full(g, 1.5)
        w = random_field(rng, g.n)
        s = project_ray(inst, w)
        sw = s * w
        assert dir_deriv(inst, sw, sw) == pytest.approx(0.0, abs=1e-10 * max(1.0, s * s))
        assert energy(inst, sw) == pytest.approx(
            0.5 * g.integrate(sw * sw), rel=1e-10
        )


class TestPairResiduals:
    def test_member_of_nodal_set(self, k2_inst):
        g1, g2 = pair_residuals(k2_inst, np.array([E, -E]), 1.0, 1.0)
        assert abs(g1) <= 1e-12 and abs(g2) <= 1e-12

    def test_diagonal_scaling_closed_form(self, k2_inst):
        u = np.array([E, -E])
        for c in (0.5, 2.0, 3.0):
            g1, g2 = pair_residuals(k2_inst, u, c, c)
            expect = -2.0 * c * c * E * E * math.log(c)
            assert g1 == pytest.approx(expect, rel=1e-12)
            assert g2 == pytest.approx(expect, rel=1e-12)

    def test_positive_near_origin(self, k2_inst):
        g1, g2 = pair_residuals(k2_inst, np.array([2.0, -1.0]), 1e-3, 1e-3)
        assert g1 > 0.0 and g2 > 0.0

    def test_matches_directional_derivative(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            g = random_graph(rng, n_max=8)
            inst = ProblemInstance.full(g, float(rng.uniform(0.2, 5.0)))
            try:
                u = signed_field_with_coupling(rng, g, inst)
            except AssertionError:
                continue
            s, t = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
            g1, g2 = pair_residuals(inst, u, s, t)
            up = np.maximum(u, 0.0)
            um = np.minimum(u, 0.0)
            mixed = s * up + t * um
            assert g1 == pytest.approx(dir_deriv(inst, mixed, s * up), rel=1e-12, abs=1e-10)
            assert g2 == pytest.approx(dir_deriv(inst, mixed, t * um), rel=1e-12, abs=1e-10)

    def test_single_signed_rejected(self, k2_inst):
        with pytest.raises(ValueError):
            pair_residuals(k2_inst, np.array([1.0, 2.0]), 1.0, 1.0)


class TestMirandaBracket:
    def test_corner_signs(self, k2_inst):
        u = np.array([2.0, -1.0])
        r, big = miranda_bracket(k2_inst, u)
        assert 0.0 < r < big
        # Monotonicity in the off-variable reduces the face conditions to
        # the corners; check the full faces on a grid anyway.
        for t in np.linspace(r, big, 9):
            assert pair_residuals(k2_inst, u, r, float(t))[0] > 0.0
            assert pair_residuals(k2_inst, u, big, float(t))[0] < 0.0
        for s in np.linspace(r, big, 9):
            assert pair_residuals(k2_inst, u, float(s), r)[1] > 0.0
            assert pair_residuals(k2_inst, u, float(s), big)[1] < 0.0

    def test_contains_fixed_point_for_members(self, k2_inst):
        r, big = miranda_bracket(k2_inst, np.array([E, -E]))
        assert r <= 1.0 <= big

    def test_degenerate_coupling(self, p3):
        inst = ProblemInstance.full(p3, 1.0)
        with pytest.raises(DegenerateCoupling):
            miranda_bracket(inst, np.array([1.0, 0.0, -1.0]))


def scanned_bracket(stats):
    """Reference: the power-of-two corner scan, capped at 2^+-40, that the
    closed-form box replaced.  None where the scan gave up."""
    r = 1.0
    while not all(g > 0.0 for g in nehari._g_pair(stats, r, r)):
        r *= 0.5
        if r < 2.0**-40:
            return None
    big = max(r, 1.0)
    while not all(g < 0.0 for g in nehari._g_pair(stats, big, big)):
        big *= 2.0
        if big > 2.0**40:
            return None
    return r, big


class TestClosedFormBracket:
    def test_matches_scan(self):
        rng = np.random.default_rng(2026)
        matched = beyond_scan = 0
        for _ in range(2000):
            g = random_graph(rng)
            inst = ProblemInstance.full(g, 10.0 ** rng.uniform(-1.0, 4.0))
            u = random_field(rng, g.n) * 10.0 ** rng.uniform(-3.0, 3.0)
            if not u.max() > 0.0 > u.min():
                continue
            stats = nehari._split_stats(inst, u)
            expect = scanned_bracket(stats)
            try:
                got = nehari._bracket_from_stats(stats)
            except NoBracket:
                assert expect is None
                continue
            if expect is not None:
                assert got == expect
                matched += 1
                continue
            # Beyond the old cap: the corners still carry the sign pattern,
            # and halving r or R (when it is not 1) loses it.
            beyond_scan += 1
            r, big = got
            assert r <= 1.0 <= big
            assert all(v > 0.0 for v in nehari._g_pair(stats, r, r))
            assert all(v < 0.0 for v in nehari._g_pair(stats, big, big))
            if r < 1.0:
                assert not all(v > 0.0 for v in nehari._g_pair(stats, 2.0 * r, 2.0 * r))
            if big > 1.0:
                assert not all(v < 0.0 for v in nehari._g_pair(stats, 0.5 * big, 0.5 * big))
        assert matched >= 500 and beyond_scan >= 50

    def test_root_beyond_old_cap_converges(self, p6):
        # The two sign parts need scalings ~1.6e20 and ~1.4e22, past 2^40.
        inst = ProblemInstance.full(p6, 100.0)
        u = p6.field({"v3": 1.0, "v2": -1.0})
        assert coupling_k(inst, u) == -2.0
        proj = project_pair(inst, u)
        assert proj.iterations <= 20
        r, big = proj.bracket
        assert big > 2.0**40
        assert r <= proj.s <= big and r <= proj.t <= big
        scale = max(
            proj.s**2 * inst.norm_h_sq(np.maximum(u, 0.0)),
            proj.t**2 * inst.norm_h_sq(np.minimum(u, 0.0)),
            1.0,
        )
        assert abs(proj.g1_residual) <= 1e-10 * scale
        assert abs(proj.g2_residual) <= 1e-10 * scale

    def test_beyond_float_range_is_typed(self, p6):
        inst = ProblemInstance.full(p6, 1000.0)
        u = p6.field({"v3": 1.0, "v2": -1.0})
        with pytest.raises(NoBracket, match="float range"):
            project_pair(inst, u)
        with pytest.raises(NoBracket, match="float range"):
            miranda_bracket(inst, u)


class TestProjectPair:
    def test_member_returns_unit_pair(self, k2_inst):
        proj = project_pair(k2_inst, np.array([E, -E]))
        assert proj.s == pytest.approx(1.0, rel=1e-10)
        assert proj.t == pytest.approx(1.0, rel=1e-10)

    def test_asymmetric_field_lands_on_known_member(self, k2_inst):
        proj = project_pair(k2_inst, np.array([2.0, -1.0]))
        assert proj.s == pytest.approx(E / 2.0, rel=1e-9)
        assert proj.t == pytest.approx(E, rel=1e-9)
        assert np.allclose(proj.projected, [E, -E], rtol=1e-9)

    def test_scaled_member_contracts(self, k2_inst):
        u = np.array([2.0 * E, -2.0 * E])
        assert dir_deriv(k2_inst, u, np.maximum(u, 0.0)) < 0.0
        proj = project_pair(k2_inst, u)
        assert proj.s == pytest.approx(0.5, rel=1e-10)
        assert proj.t == pytest.approx(0.5, rel=1e-10)
        assert proj.s <= 1.0 + 1e-10 and proj.t <= 1.0 + 1e-10

    def test_residuals_within_bracket(self, k2_inst):
        proj = project_pair(k2_inst, np.array([0.3, -4.0]))
        r, big = proj.bracket
        assert r <= proj.s <= big and r <= proj.t <= big
        scale = max(
            k2_inst.norm_h_sq(np.array([0.3, 0.0])),
            k2_inst.norm_h_sq(np.array([0.0, -4.0])),
            1.0,
        )
        assert abs(proj.g1_residual) <= 1e-10 * scale
        assert abs(proj.g2_residual) <= 1e-10 * scale

    def test_degenerate_coupling_decouples(self, p3):
        inst = ProblemInstance.full(p3, 1.0)
        u = np.array([1.0, 0.0, -1.0])
        proj = project_pair(inst, u)
        assert proj.degenerate
        # Each part is independently ray-projected.
        assert proj.s == pytest.approx(project_ray(inst, np.array([1.0, 0.0, 0.0])), rel=1e-12)
        assert proj.t == pytest.approx(project_ray(inst, np.array([0.0, 0.0, -1.0])), rel=1e-12)
        g1, g2 = pair_residuals(inst, u, proj.s, proj.t)
        assert abs(g1) <= 1e-10 and abs(g2) <= 1e-10

    def test_decoupled_overflow_fails_acceptance(self, p6):
        # Separated supports; t ~ 2.3e217, so t^2 overflows and g2 is NaN.
        inst = ProblemInstance.full(p6, 1000.0)
        u = p6.field({"v3": 1.0, "v6": -1.0})
        assert coupling_k(inst, u) == 0.0
        with pytest.raises(NonConvergence):
            project_pair(inst, u)

    def test_restart_uniqueness(self):
        rng = np.random.default_rng(909)
        g = random_graph(rng, n_max=8)
        inst = ProblemInstance.full(g, 1.0)
        u = signed_field_with_coupling(rng, g, inst)
        base = project_pair(inst, u)
        r, big = base.bracket
        for _ in range(8):
            init = (float(rng.uniform(r, big)), float(rng.uniform(r, big)))
            again = project_pair(inst, u, initial=init)
            assert again.s == pytest.approx(base.s, rel=1e-8)
            assert again.t == pytest.approx(base.t, rel=1e-8)

    def test_large_scale_root_converges(self, p6):
        # The root sits at s ~ 5.5e4, where |g| ~ s^2 |u+|_H^2 ~ 1e10: the
        # stopping test must be relative to the projected field.
        inst = ProblemInstance.full(p6, 100.0)
        u = np.array(
            [0.23071841, -0.21534711, 0.65980497, -1.09593231, 0.20239761, 0.07128713]
        )
        proj = project_pair(inst, u)
        assert proj.s == pytest.approx(5.5e4, rel=0.01)
        scale = max(
            proj.s**2 * inst.norm_h_sq(np.maximum(u, 0.0)),
            proj.t**2 * inst.norm_h_sq(np.minimum(u, 0.0)),
            1.0,
        )
        assert abs(proj.g1_residual) <= 1e-10 * scale
        assert abs(proj.g2_residual) <= 1e-10 * scale
        # c*u spans the same fiber {s*u+ + t*u-}, which meets the
        # sign-changing Nehari set once, so both project to one field.
        for c in (1e-3, 1e3):
            again = project_pair(inst, c * u)
            np.testing.assert_allclose(again.projected, proj.projected, rtol=1e-12, atol=0.0)


class TestFiberEnergy:
    def test_unit_pair_recovers_energy(self, k2_inst):
        u = np.array([E, -E])
        assert fiber_energy(k2_inst, u, 1.0, 1.0).value == pytest.approx(
            energy(k2_inst, u), rel=1e-12
        )

    def test_closed_form_matches_direct_energy(self, k2_inst):
        u = np.array([E, -E])
        got = fiber_energy(k2_inst, u, 2.0, 1.0).value
        direct = energy(k2_inst, np.array([2.0 * E, -E]))
        assert got == pytest.approx(direct, rel=1e-12)
        assert got == pytest.approx(E * E * (2.0 - 4.0 * math.log(2.0)), rel=1e-12)

    def test_origin_is_zero(self, k2_inst):
        assert fiber_energy(k2_inst, np.array([E, -E]), 0.0, 0.0).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rejects_nonmembers(self, k2_inst):
        with pytest.raises(ValueError):
            fiber_energy(k2_inst, np.array([1.0, -3.0]), 1.0, 1.0)

    def test_strict_maximum_at_unit_pair(self, k2_inst):
        u = np.array([E, -E])
        ju = energy(k2_inst, u)
        for s in np.linspace(0.1, 2.5, 13):
            for t in np.linspace(0.1, 2.5, 13):
                val = fiber_energy(k2_inst, u, float(s), float(t)).value
                if abs(s - 1.0) < 1e-12 and abs(t - 1.0) < 1e-12:
                    assert val == pytest.approx(ju, rel=1e-12)
                else:
                    assert val < ju
