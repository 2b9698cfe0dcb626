import itertools
import math

import numpy as np
import pytest

from logschro import (
    DofLimitExceeded,
    InfeasibleWell,
    NonConvergence,
    ProblemInstance,
    SolveOptions,
    WeightedGraph,
    dir_deriv,
    energy,
    generate_graph,
    oracle_enumerate,
    solve_ground,
    solve_nodal,
    verify,
)
from logschro import solver
from logschro.solver import _Collapse, _project_nodal

from conftest import random_graph

E = math.e
OPTS = SolveOptions(starts=16, seed=0)


class TestSolveGround:
    def test_k2_level(self, k2):
        for lam in (1.0, 5.0):
            rep = solve_ground(ProblemInstance.full(k2, lam), OPTS)
            assert rep.level == pytest.approx(1.0, rel=1e-8)
            assert np.allclose(np.abs(rep.minimizer), 1.0, atol=1e-5)

    def test_level_equals_half_l2_mass(self, p6):
        inst = ProblemInstance.full(p6, 10.0)
        rep = solve_ground(inst, OPTS)
        assert rep.level == pytest.approx(
            0.5 * p6.integrate(rep.minimizer**2), rel=1e-10
        )
        for lvl in rep.level_histogram:
            assert lvl >= rep.level - 1e-10 * max(1.0, abs(rep.level))

    def test_determinism(self, p6):
        inst = ProblemInstance.full(p6, 10.0)
        a = solve_ground(inst, OPTS)
        b = solve_ground(inst, OPTS)
        assert np.array_equal(a.minimizer, b.minimizer)
        assert a.level == b.level
        assert a.level_histogram == b.level_histogram


class TestSolveNodal:
    def test_k2_exact(self, k2_inst):
        rep = solve_nodal(k2_inst, OPTS)
        assert rep.level == pytest.approx(E * E, rel=1e-10)
        assert np.allclose(np.sort(rep.minimizer), [-E, E], atol=1e-8)

    def test_dirichlet_well_exact(self, p6_dirichlet):
        rep = solve_nodal(p6_dirichlet, OPTS)
        alpha = math.exp(1.5)
        assert rep.level == pytest.approx(E**3, rel=1e-10)
        nz = np.sort(rep.minimizer[rep.minimizer != 0.0])
        assert np.allclose(nz, [-alpha, alpha], atol=1e-8)

    def test_sign_normalization(self, k2_inst):
        rep = solve_nodal(k2_inst, OPTS)
        nz = rep.minimizer[rep.minimizer != 0.0]
        assert nz[0] > 0.0
        assert set(rep.sign_pattern["positive"]) == {"v1"}
        assert set(rep.sign_pattern["negative"]) == {"v2"}

    def test_negation_has_same_level(self, k2_inst):
        rep = solve_nodal(k2_inst, OPTS)
        assert energy(k2_inst, -rep.minimizer) == pytest.approx(rep.level, rel=1e-12)

    def test_membership_residuals(self, p6):
        inst = ProblemInstance.full(p6, 10.0)
        rep = solve_nodal(inst, OPTS)
        scale = max(1.0, abs(rep.level))
        assert abs(rep.membership_residuals[0]) <= 1e-8 * scale
        assert abs(rep.membership_residuals[1]) <= 1e-8 * scale
        assert rep.residual_inf <= 1e-9 * max(1.0, float(np.abs(rep.minimizer).max()))

    def test_infeasible_single_vertex_well(self):
        g = WeightedGraph(
            ["v1", "v2", "v3"],
            [1.0] * 3,
            [1.0, 0.0, 1.0],
            [("v1", "v2", 1.0), ("v2", "v3", 1.0)],
        )
        with pytest.raises(InfeasibleWell):
            solve_nodal(ProblemInstance.dirichlet(g), OPTS)

    def test_sign_parts_bounded_below_across_couplings(self, p6):
        # Qualitative uniform lower bound on both sign parts of the nodal
        # minimizer over a coupling grid (fixture-specific floor).
        floor = math.inf
        for lam in (1.0, 10.0, 100.0, 1000.0):
            rep = solve_nodal(ProblemInstance.full(p6, lam), OPTS)
            for part in (np.maximum(rep.minimizer, 0.0), np.minimum(rep.minimizer, 0.0)):
                floor = min(floor, math.sqrt(p6.norms(part, 0.0).h1_sq))
        assert floor > 1e-3


class TestPolishRetry:
    """A failed Newton polish is not rerun until the residual has halved."""

    def test_grid5_ground_polish_count(self, monkeypatch):
        g = WeightedGraph.from_dict(generate_graph("grid", 5, "v2-2,v2-3,v3-2,v3-3"))
        calls = []
        polish = solver._newton_polish

        def counted(*args, **kwargs):
            calls.append(1)
            return polish(*args, **kwargs)

        monkeypatch.setattr(solver, "_newton_polish", counted)
        rep = solve_ground(ProblemInstance.full(g, 10.0), SolveOptions(starts=8, seed=0))
        # Retrying at every small-residual iterate made 1,054 calls here.
        assert len(calls) <= 120
        assert rep.starts_converged == 8
        assert rep.level == pytest.approx(13.134618343915474, rel=1e-10)


POLISH_EVAL_BOUND = solver._POLISH_MAX_ITER * (solver._POLISH_HALVINGS + 1) + 1


def _count_residuals(mp):
    """Count the ``solver._residual_free`` calls made while ``mp`` is active."""
    evals = [0]
    residual_free = solver._residual_free

    def counted(*args):
        evals[0] += 1
        return residual_free(*args)

    mp.setattr(solver, "_residual_free", counted)
    return evals


@pytest.fixture(scope="module")
def grid5_polishes():
    """grid5 ground at lambda = 10 with every polish and residual counted.

    Returns the report, the total ``_residual_free`` calls, and one
    ``(rtol, result, evaluations)`` entry per polish.
    """
    g = WeightedGraph.from_dict(generate_graph("grid", 5, "v2-2,v2-3,v3-2,v3-3"))
    inst = ProblemInstance.full(g, 10.0)
    polishes = []
    polish = solver._newton_polish

    def recorded_polish(inst, u, rtol):
        before = evals[0]
        out = polish(inst, u, rtol)
        polishes.append((rtol, out, evals[0] - before))
        return out

    with pytest.MonkeyPatch.context() as mp:
        evals = _count_residuals(mp)
        mp.setattr(solver, "_newton_polish", recorded_polish)
        rep = solve_ground(inst, SolveOptions(starts=8, seed=0))
    return inst, rep, evals[0], polishes


def _settled(inst, u, rtol):
    res = solver._residual_free(inst, u[inst.free_index])
    return float(np.max(np.abs(res))) <= rtol * max(1.0, float(np.max(np.abs(u))))


class TestNewtonPolish:
    """Each Newton step tries at most a few halvings before the polish gives up."""

    def test_grid5_ground_residual_evaluations(self, grid5_polishes):
        _, rep, evals, _ = grid5_polishes
        # Halving each step down to 1e-10 made about 31k evaluations here.
        assert evals <= 3000
        assert rep.starts_converged == 8
        assert rep.level == pytest.approx(13.134618343915474, rel=1e-10)

    def test_every_polish_settles_or_gives_up_in_budget(self, grid5_polishes):
        inst, _, _, polishes = grid5_polishes
        assert any(out is None for _, out, _ in polishes)
        for rtol, out, evals in polishes:
            assert evals <= POLISH_EVAL_BOUND
            assert out is None or _settled(inst, out, rtol)

    def test_settles_from_perturbed_minimizer(self, grid5_polishes):
        inst, rep, _, _ = grid5_polishes
        rng = np.random.default_rng(3)
        u = rep.minimizer + np.where(inst.free, 1e-4 * rng.standard_normal(inst.graph.n), 0.0)
        out = solver._newton_polish(inst, u, 1e-11)
        assert out is not None and _settled(inst, out, 1e-11)
        assert np.max(np.abs(out - rep.minimizer)) <= 1e-8

    def test_gives_up_on_unreachable_tolerance(self, grid5_polishes, monkeypatch):
        # A zero residual is below rounding, so no polish can reach it.
        inst, rep, _, _ = grid5_polishes
        evals = _count_residuals(monkeypatch)
        assert solver._newton_polish(inst, rep.minimizer, 0.0) is None
        assert 1 <= evals[0] <= POLISH_EVAL_BOUND


class TestSolveOptions:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
    def test_rejects_non_finite_tolerance(self, tol):
        # An infinite tolerance used to pass every start at once.
        with pytest.raises(ValueError, match="tol_residual"):
            SolveOptions(tol_residual=tol)


class TestCollapseGuards:
    def test_non_finite_trial_field_collapses(self, p6):
        inst = ProblemInstance.full(p6, 10.0)
        u = p6.field({"v3": 1.0, "v4": -1.0})
        u[0] = math.nan
        for project in (solver._project_ground, _project_nodal):
            with pytest.raises(_Collapse):
                project(inst, u)


class TestScalingOverflow:
    """At large lam * a the Nehari scaling leaves the float range."""

    def test_ground_raises_nonconvergence(self, p3_no_well):
        inst = ProblemInstance.full(p3_no_well, 5000.0)
        with pytest.raises(NonConvergence):
            solve_ground(inst, SolveOptions(starts=4, seed=0))

    def test_nodal_raises_nonconvergence(self, p3_no_well):
        inst = ProblemInstance.full(p3_no_well, 5000.0)
        # Separated sign supports take the decoupled ray-projection branch.
        with pytest.raises(_Collapse):
            _project_nodal(inst, np.array([1.0, 0.0, -1.0]))
        with pytest.raises(NonConvergence):
            solve_nodal(inst, SolveOptions(starts=4, seed=0))


class TestLargeField:
    """Stopping tests scale with the field when |u| is far above 1."""

    @staticmethod
    def _random_mix_instance(k):
        """Instance r<k> of the seed-0 random mix, drawn in generator order."""
        rng = np.random.default_rng(0)
        for _ in range(k + 1):
            g = random_graph(rng)
            lam = float(10.0 ** rng.uniform(-1.0, 5.0))
        return ProblemInstance.full(g, lam)

    def test_random_mix_r100_ground_converges(self):
        # n = 11, lam ~ 379.9, |u| ~ 2.2e8: an absolute polish tolerance
        # could not be met here.
        inst = self._random_mix_instance(100)
        assert inst.graph.n == 11 and inst.lam == pytest.approx(379.88, rel=1e-4)
        opts = SolveOptions(starts=4, seed=0)
        rep = solve_ground(inst, opts)
        scale = max(1.0, float(np.max(np.abs(rep.minimizer))))
        assert scale > 1e8
        assert verify(inst, rep.minimizer).residual_inf <= opts.tol_residual * scale

    def test_random_mix_r151_ground_fails_typed(self):
        # lam * a reaches 4e4, so every start runs off past |u| ~ 1e180,
        # where the energy is NaN; no polish there may count as converged.
        inst = self._random_mix_instance(151)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonConvergence):
            solve_ground(inst, SolveOptions(starts=4, seed=0))


class TestVerify:
    def test_constant_solution(self, p3):
        inst = ProblemInstance.full(p3, 1.0)
        rep = verify(inst, np.ones(3))
        assert rep.residual_inf == pytest.approx(0.0, abs=1e-14)
        assert rep.nehari_gap == pytest.approx(0.0, abs=1e-14)

    def test_perturbation_detected(self, k2_inst):
        u = np.array([E, -E])
        u[0] += 0.01
        rep = verify(k2_inst, u)
        assert rep.residual_inf > 1e-4
        assert abs(rep.membership_residuals[0]) > 1e-4

    def test_nodal_margin(self, k2_inst):
        rep = verify(k2_inst, np.array([E, -E]), companion_ground=1.0)
        assert rep.m_gt_2c
        assert rep.m_margin == pytest.approx(E * E - 2.0, rel=1e-10)

    def test_margin_absent_without_companion(self, k2_inst):
        rep = verify(k2_inst, np.array([E, -E]))
        assert rep.m_margin is None and rep.m_gt_2c is None


class TestLevelOrdering:
    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_nodal_exceeds_twice_ground(self, p6, lam):
        inst = ProblemInstance.full(p6, lam)
        m = solve_nodal(inst, OPTS).level
        c = solve_ground(inst, OPTS).level
        assert m > 2.0 * c

    def test_full_mode_bounded_by_dirichlet_level(self, p6, p6_dirichlet):
        m_omega = solve_nodal(p6_dirichlet, OPTS).level
        for lam in (1.0, 100.0):
            m = solve_nodal(ProblemInstance.full(p6, lam), OPTS).level
            assert m <= m_omega + 1e-8


class TestOracle:
    def test_k2_catalog(self, k2_inst):
        res = oracle_enumerate(k2_inst)
        assert res.min_nehari_level == pytest.approx(1.0, rel=1e-10)
        assert res.min_nodal_level == pytest.approx(E * E, rel=1e-10)
        found = {tuple(np.round(p, 6)) for p in res.points}
        for expect in ((0.0, 0.0), (1.0, 1.0), (-1.0, -1.0), (E, -E), (-E, E)):
            assert tuple(np.round(expect, 6)) in found

    def test_dirichlet_catalog(self, p6_dirichlet):
        res = oracle_enumerate(p6_dirichlet)
        assert res.min_nodal_level == pytest.approx(E**3, rel=1e-10)
        alpha = math.exp(1.5)
        best = min(
            res.points,
            key=lambda p: abs(energy(p6_dirichlet, p) - E**3)
            + (0.0 if p.max() > 0 > p.min() else 1e9),
        )
        nz = np.sort(best[best != 0.0])
        assert np.allclose(np.abs(nz), alpha, atol=1e-6)

    def test_k2_roots_deduplicated(self, k2_inst):
        # The Jacobian at +-(1, 1) is singular; its polished copies differ
        # by about 1e-6 and must still merge into one root each.
        assert len(oracle_enumerate(k2_inst).points) == 5

    def test_all_roots_are_solutions(self, k2_inst, p6_dirichlet, p5_dirichlet):
        for inst in (k2_inst, p6_dirichlet, p5_dirichlet):
            res = oracle_enumerate(inst)
            for u, lvl in zip(res.points, res.levels):
                assert verify(inst, u).residual_inf <= 1e-9
                assert lvl == pytest.approx(energy(inst, u), rel=1e-12)
                if float(np.abs(u).max()) > 1e-8:
                    assert dir_deriv(inst, u, u) == pytest.approx(0.0, abs=1e-8)

    def test_catalog_has_trivial_root_and_negations(self):
        # u = 0 always solves the system and the residual is odd in u.
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(rng, n_max=3)
            lam = float(np.exp(rng.uniform(np.log(0.1), np.log(50.0))))
            points = oracle_enumerate(ProblemInstance.full(g, lam)).points
            assert any(not p.any() for p in points)
            for p in points:
                assert any(np.max(np.abs(q + p)) <= 1e-12 for q in points)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cell_scan_matches_loop(self, d):
        # Reference: the per-cell loop the array scan replaced.
        rng = np.random.default_rng(d)
        grid = 6
        res_grid = rng.choice([-2.0, -1.0, 0.0, 1.0, 3.0], size=(grid + 1,) * d + (d,))
        expect = []
        for cell in itertools.product(range(grid), repeat=d):
            vals = [
                res_grid[tuple(c + o for c, o in zip(cell, offs))]
                for offs in itertools.product((0, 1), repeat=d)
            ]
            if all(min(v[k] for v in vals) <= 0.0 <= max(v[k] for v in vals) for k in range(d)):
                expect.append(cell)
        got = solver._sign_change_cells(res_grid)
        assert [tuple(c) for c in got] == expect
        assert 0 < len(expect) < grid**d

    def test_dof_limit(self, p6):
        with pytest.raises(DofLimitExceeded):
            oracle_enumerate(ProblemInstance.full(p6, 1.0))


def test_degenerate_coupling_flagged():
    # Separated well components are impossible (the well must be connected),
    # but a nodal minimizer with separated sign supports can arise on a path
    # whose middle vertex is heavily penalized; the solver reports the flag.
    g = WeightedGraph.from_dict(generate_graph("path", 5, "2..4"))
    inst = ProblemInstance.dirichlet(g)
    rep = solve_nodal(inst, SolveOptions(starts=24, seed=1))
    # On this fixture the least nodal level is attained with adjacent sign
    # supports, so the flag stays off; the field genuinely changes sign.
    assert rep.minimizer.max() > 0.0 > rep.minimizer.min()
    assert isinstance(rep.degenerate_coupling, bool)
