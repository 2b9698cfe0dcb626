import gc
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logschro import (
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
from logschro import WeightedGraph, nehari, solver
from logschro.energy import _energy, _norm_h_sq

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

    def test_scaling_beyond_float_range_is_typed(self, p3_no_well):
        # lam * a = 5000 everywhere: log s^2 is about 5000, whose exp used
        # to overflow as a raw OverflowError.
        inst = ProblemInstance.full(p3_no_well, 5000.0)
        with pytest.raises(NoBracket, match="float range"):
            project_ray(inst, p3_no_well.field({"v1": 1.0}))

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

    @pytest.mark.parametrize("s, t", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_nonpositive_scalings_rejected(self, k2_inst, s, t):
        with pytest.raises(ValueError, match="must be positive"):
            pair_residuals(k2_inst, np.array([2.0, -1.0]), s, t)


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
        # At zero coupling g1 depends on s alone and g2 on t alone, so the
        # closed-form box still carries the face sign pattern.
        inst = ProblemInstance.full(p3, 1.0)
        u = np.array([1.0, 0.0, -1.0])
        assert coupling_k(inst, u) == 0.0
        r, big = miranda_bracket(inst, u)
        for x in np.linspace(r, big, 9):
            assert pair_residuals(inst, u, r, float(x))[0] > 0.0
            assert pair_residuals(inst, u, big, float(x))[0] < 0.0
            assert pair_residuals(inst, u, float(x), r)[1] > 0.0
            assert pair_residuals(inst, u, float(x), big)[1] < 0.0


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
            stats = nehari._field_norms(inst, u)
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

    def test_separated_supports_beyond_float_range(self, p3_no_well):
        # lam * a = 5000 on every vertex: the box bounds every exp argument
        # below the float limit, so the failure is typed, never an overflow.
        inst = ProblemInstance.full(p3_no_well, 5000.0)
        with pytest.raises(NoBracket, match="float range"):
            project_pair(inst, p3_no_well.field({"v1": 1.0, "v3": -1.0}))

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
        assert proj.iterations == 0

    def test_decoupled_overflow_fails_acceptance(self, p6):
        # Separated supports; t ~ 2.3e217, so t^2 overflows: the box that
        # bounds it is beyond float range, as for a coupled pair.
        inst = ProblemInstance.full(p6, 1000.0)
        u = p6.field({"v3": 1.0, "v6": -1.0})
        assert coupling_k(inst, u) == 0.0
        with pytest.raises(NoBracket, match="float range"):
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

    @pytest.mark.parametrize("initial", [(0.0, 1.0), (1.0, math.nan), (-1.0, 1.0)])
    def test_initial_must_be_positive_and_finite(self, k2_inst, initial):
        with pytest.raises(ValueError, match="initial"):
            project_pair(k2_inst, np.array([2.0, -1.0]), initial=initial)

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


class TestRatioNewton:
    """The root in p = t / s: few steps, and no stall under weak coupling."""

    def test_steps_on_scan_recipe(self):
        rng = np.random.default_rng(2026)
        converged = 0
        for _ in range(2000):
            g = random_graph(rng)
            inst = ProblemInstance.full(g, 10.0 ** rng.uniform(-1.0, 4.0))
            u = random_field(rng, g.n) * 10.0 ** rng.uniform(-3.0, 3.0)
            if not u.max() > 0.0 > u.min():
                continue
            try:
                proj = project_pair(inst, u)
            except NoBracket:
                continue
            assert proj.iterations <= 10
            converged += 1
            # A start at a far corner of the box must not crawl there.
            lo, hi = proj.bracket
            for init in ((lo, hi), (hi, lo)):
                again = project_pair(inst, u, initial=init)
                assert again.iterations <= 10
                assert again.s == pytest.approx(proj.s, rel=1e-12)
                assert again.t == pytest.approx(proj.t, rel=1e-12)
        assert converged >= 1000

    @pytest.mark.parametrize("w", [1e-6, 1e-8])
    def test_weak_coupling_converges(self, w):
        # k = -2w moves the pair O(w) off the ray roots (1, 1), to
        # s = t = e^w exactly.
        g = WeightedGraph(["v1", "v2"], [1, 1], [0, 0], [("v1", "v2", w)])
        inst = ProblemInstance.full(g, 1.0)
        proj = project_pair(inst, np.array([1.0, -1.0]))
        assert proj.s == pytest.approx(math.exp(w), rel=1e-15)
        assert proj.t == pytest.approx(math.exp(w), rel=1e-15)
        for u in ([2.0, -0.5], [0.9, -1.1]):
            u = np.array(u)
            proj = project_pair(inst, u)
            scale = max(
                proj.s**2 * inst.norm_h_sq(np.maximum(u, 0.0)),
                proj.t**2 * inst.norm_h_sq(np.minimum(u, 0.0)),
                1.0,
            )
            assert abs(proj.g1_residual) <= 1e-10 * scale
            assert abs(proj.g2_residual) <= 1e-10 * scale

    def test_random_mix_weak_coupling_solve_never_stalls(self, monkeypatch):
        # Instance r002 of the seed-0 random mix: n = 10, lam ~ 7482.  Its
        # nodal descent projects hundreds of weakly coupled fields; it takes
        # 16 starts to reach that many, since the descent's
        # Barzilai-Borwein steps make few trials per start.
        rng = np.random.default_rng(0)
        for _ in range(3):
            g = random_graph(rng)
            lam = float(10.0 ** rng.uniform(-1.0, 5.0))
        assert g.n == 10 and lam == pytest.approx(7481.9, rel=1e-4)
        inst = ProblemInstance.full(g, lam)
        outcomes = []  # one per row that reaches the pair's scalar root
        pair_row = nehari._pair_row

        def counted(stats, initial=None):
            try:
                root = pair_row(stats, initial)
            except Exception as exc:
                outcomes.append(type(exc).__name__)
                raise
            outcomes.append("ok")
            return root

        monkeypatch.setattr(nehari, "_pair_row", counted)
        rep = solver.solve_nodal(inst, solver.SolveOptions(starts=16, seed=0))
        assert "NonConvergence" not in outcomes
        assert outcomes.count("ok") >= 100
        assert rep.starts_converged == 16


class TestRootNearTopOfBox:
    """Roots where s^2 |u+|_H^2 overflows while the projected field is finite."""

    def test_draws_with_overflowing_residual_form_converge(self):
        # The test_matches_scan recipe at seed 5.  At these roots s is
        # 3e151 to 1e152, so g1 = s^2 (...) overflowed to NaN and the pair
        # used to stall; judged on g1 / s^2 and g2 / t^2 they are roots.
        rng = np.random.default_rng(5)
        draws = {}
        for i in range(2878):
            g = random_graph(rng)
            inst = ProblemInstance.full(g, 10.0 ** rng.uniform(-1.0, 4.0))
            u = random_field(rng, g.n) * 10.0 ** rng.uniform(-3.0, 3.0)
            if i in (1372, 2082, 2877):
                draws[i] = (inst, u)
        for inst, u in draws.values():
            proj = project_pair(inst, u)
            assert 1e151 < proj.s < 2e152
            assert np.all(np.isfinite(proj.projected))
            assert math.isfinite(proj.g1_residual) and math.isfinite(proj.g2_residual)


def _parent_split_stats(inst, u):
    """The sign-part statistics evaluated part by part, as before the fused
    pass: each part's own matvec and masked u^2 log u^2, and the coupling
    from a third matvec."""

    def masked_sq_log_sq(w):
        out = np.zeros_like(w)
        nz = w != 0.0
        out[nz] = w[nz] * w[nz] * (2.0 * np.log(np.abs(w[nz])))
        return out

    def norm_h_sq(w):
        return float(w @ (inst.stiffness @ w) + inst.mass @ (w * w))

    up, um = np.maximum(u, 0.0), np.minimum(u, 0.0)
    return {
        "a_pos": norm_h_sq(up),
        "l_pos": float(inst.mu @ masked_sq_log_sq(up)),
        "b_pos": float(inst.mu @ (up * up)),
        "a_neg": norm_h_sq(um),
        "l_neg": float(inst.mu @ masked_sq_log_sq(um)),
        "b_neg": float(inst.mu @ (um * um)),
        "k": -2.0 * float(np.maximum(u, 0.0) @ (inst.stiffness @ np.minimum(u, 0.0))),
    }


def _full_and_dirichlet(seed, draws):
    """(instance, free values of a random field) on seeded random graphs.

    lambda = 10^U(-1, 4) and field scale 10^U(-3, 3); each graph gives a
    full instance and a Dirichlet instance on a vertex's closed
    neighbourhood.
    """
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        g = random_graph(rng)
        lam = 10.0 ** rng.uniform(-1.0, 4.0)
        x = int(rng.integers(g.n))
        well = [g.vertex_ids[x]] + [g.vertex_ids[y] for y in np.nonzero(g.weights[x])[0]]
        for inst in (ProblemInstance.full(g, lam), ProblemInstance.dirichlet(g, g.boundary(well))):
            yield inst, random_field(rng, len(inst.mu)) * 10.0 ** rng.uniform(-3.0, 3.0)


class TestClosedFormLevel:
    """The fused statistics, and the levels the projections return."""

    def test_split_stats_bit_identical_to_part_by_part(self):
        rng = np.random.default_rng(7)
        checked = one_signed = 0
        for inst, u in _full_and_dirichlet(3, 300):
            u[rng.random(len(u)) < 0.2] = 0.0
            if not u.max() > 0.0 > u.min():
                with pytest.raises(ValueError):
                    nehari._pair_row(nehari._split_stats(inst, u[None, :])[0][0].tolist())
                one_signed += 1
                continue
            norms, up, um = nehari._split_stats(inst, u[None, :])
            for got, (name, want) in zip(norms[0].tolist(), _parent_split_stats(inst, u).items()):
                assert got == want, name
            np.testing.assert_array_equal(up[0] + um[0], u)
            checked += 1
        assert (checked, one_signed) == (419, 181)

    def test_pair_level_is_energy_of_projection(self):
        checked = 0
        for inst, u in _full_and_dirichlet(11, 1000):
            if not u.max() > 0.0 > u.min():
                continue
            w, level, ok = nehari._project(inst, u[None, :], nodal=True)
            # A row projected past 1e150, where the energy's own u^2 log u^2
            # overflows, is not ok.
            if not ok[0]:
                continue
            w, level = w[0], level[0]
            proj = project_pair(inst, inst.extend(u))
            np.testing.assert_array_equal(inst.free_values(proj.projected), w)
            a_pos, a_neg = nehari._split_stats(inst, u[None, :])[0][0, [0, 3]]
            scale = 0.5 * (proj.s**2 * a_pos + proj.t**2 * a_neg)
            assert abs(level - _energy(inst, w)) <= 1e-13 * scale
            checked += 1
        assert checked >= 500

    def test_ray_level_is_energy_of_projection(self):
        checked = 0
        for inst, u in _full_and_dirichlet(11, 1000):
            w, level, ok = nehari._project(inst, u[None, :], nodal=False)
            if not ok[0]:
                continue
            w, level = w[0], level[0]
            scale = 0.5 * _norm_h_sq(inst, w)
            assert abs(level - _energy(inst, w)) <= 1e-13 * scale
            checked += 1
        assert checked >= 1000


def _normal_square(x):
    return sys.float_info.min <= x * x <= sys.float_info.max


class TestFailuresAreTyped:
    """Both projections fail typed beyond float range, never by overflow."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(-1.0, 5.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_projections_raise_only_typed_errors(self, seed, log_lam, log_scale):
        # Random-mix graphs, lambda = 10^U(-1, 5), field scale 10^U(-3, 3).
        # A raw OverflowError from the ray's exp, or a scaling whose square
        # overflows, fails this test.
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        inst = ProblemInstance.full(g, 10.0**log_lam)
        u = random_field(rng, g.n) * 10.0**log_scale
        try:
            s = project_ray(inst, u)
        except (ValueError, NoBracket):
            pass
        else:
            assert _normal_square(s)
        try:
            proj = project_pair(inst, u)
        except (ValueError, NoBracket):
            pass
        else:
            assert _normal_square(proj.s) and _normal_square(proj.t)

    @pytest.mark.parametrize("scale", [1e-170, 1e-320, 1e160, 1e300])
    @pytest.mark.parametrize("project", [project_ray, project_pair, miranda_bracket])
    def test_fields_beyond_float_range_raise_no_bracket(self, p6, project, scale):
        # Both sign parts are nonzero.  At 1e-170 and below their squares
        # underflow, and this used to raise ValueError as for a zero part;
        # at 1e160 and above they overflow, which used to warn first and
        # then name a NaN scaling or a non-finite level.  The suite turns a
        # RuntimeWarning into an error.
        u = p6.field({"v2": 1.0, "v3": -2.0, "v5": 0.5}) * scale
        cause = "underflows" if scale < 1.0 else "the field's norms overflow"
        with pytest.raises(NoBracket, match=cause):
            project(ProblemInstance.full(p6, 10.0), u)

    @pytest.mark.parametrize("scale", [1e-320, 1e-170, 1.0, 1e160])
    def test_missing_parts_stay_value_errors(self, p6, scale):
        inst = ProblemInstance.full(p6, 10.0)
        with pytest.raises(ValueError, match="zero field"):
            project_ray(inst, p6.field({}) * scale)
        for project in (project_pair, miranda_bracket):
            with pytest.raises(ValueError, match="both sign parts"):
                project(inst, p6.field({"v2": 1.0, "v5": 0.5}) * scale)

    @pytest.mark.parametrize(
        "values, project, raised_in",
        [
            ({"v1": 1.0, "v2": -1.0}, project_pair, "_bracket_from_stats"),
            ({"v1": 1.0}, project_ray, "_ray_scaling"),
        ],
        ids=["pair", "ray"],
    )
    def test_public_errors_keep_the_raising_frame(self, p3_no_well, values, project, raised_in):
        # At lam * a = 5000 both scalings lie beyond float range.  The error
        # must come from the frame that computed it, not from a re-raise.
        inst = ProblemInstance.full(p3_no_well, 5000.0)
        with pytest.raises(NoBracket) as info:
            project(inst, p3_no_well.field(values))
        assert info.traceback[-1].name == raised_in


class TestStackedRows:
    """A stack of fields projects row by row as each field does alone."""

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(-1.0, 5.0),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_stack_matches_each_row_alone(self, seed, log_lam, log_scale):
        # The draws of TestFailuresAreTyped, six fields to a stack; one row
        # lacks its negative part and one is zero, so that every stack holds
        # typed failures next to projected rows.
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        inst = ProblemInstance.full(g, 10.0**log_lam)
        u = np.array([random_field(rng, g.n) for _ in range(6)]) * 10.0**log_scale
        u[1] = np.abs(u[1])
        u[4] = 0.0
        for nodal, public in ((False, project_ray), (True, project_pair)):
            w, level, ok = nehari._project(inst, u, nodal)
            assert w.shape == u.shape and len(level) == len(ok) == len(u)
            for row, w_i, level_i, ok_i in zip(u, w, level, ok):
                w_alone, level_alone, ok_alone = nehari._project(inst, row[None, :], nodal)
                assert ok_i == ok_alone[0]
                if not ok_i:
                    # A typed error, or a projected field past _FIELD_MAX.
                    try:
                        got = public(inst, row)
                    except (ValueError, NoBracket, NonConvergence):
                        continue
                    w_public = got.projected if nodal else got * row
                    assert not np.abs(w_public).max() <= nehari._FIELD_MAX
                    continue
                np.testing.assert_array_equal(w_i, w_alone[0])
                assert level_i == level_alone[0]
                # The public projection of the row scales it the same way.
                got = public(inst, row)
                np.testing.assert_array_equal(w_i, got.projected if nodal else got * row)

    def test_failed_rows_leave_no_reference_cycle(self, p6):
        # A failed row leaves only ok = False behind: neither its exception
        # nor that exception's frame outlives the projection.
        inst = ProblemInstance.full(p6, 10.0)
        u = np.array([[1.0, -1.0, 0.5, 0.2, -0.3, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [0.0] * 6])
        gc.collect()
        gc.disable()
        try:
            for nodal in (False, True):
                _, _, ok = nehari._project(inst, u, nodal)
                assert not ok[2] and ok[1] != nodal
                del ok
                assert gc.collect() == 0
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("s, t", [(-1.0, 1.0), (1.0, -0.5)])
    def test_negative_scalings_rejected(self, k2_inst, s, t):
        with pytest.raises(ValueError, match="must be nonnegative"):
            fiber_energy(k2_inst, np.array([E, -E]), s, t)

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
