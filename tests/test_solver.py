import collections
import hashlib
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
    coupling_k,
    dir_deriv,
    energy,
    generate_graph,
    oracle_enumerate,
    project_pair,
    solve_ground,
    solve_nodal,
    verify,
)
from logschro import nehari, solver

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

    def test_infeasible_single_vertex_graph(self):
        # The full problem on one vertex has no sign-changing field either;
        # it used to run every start and raise NonConvergence.
        g = WeightedGraph(["v1"], [1.0], [1.0], [])
        with pytest.raises(InfeasibleWell):
            solve_nodal(ProblemInstance.full(g, 1.0), OPTS)

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
        calls = collections.Counter()
        # A polish call takes a stack: count the rows it polishes.
        monkeypatch.setattr(
            solver, "_newton_roots", _counted_rows(calls, "rows", solver._newton_roots)
        )
        rep = solve_ground(ProblemInstance.full(g, 10.0), SolveOptions(starts=8, seed=0))
        # Retrying at every small-residual iterate made 1,054 polishes here.
        assert 0 < calls["rows"] <= 120
        assert rep.starts_converged == 8
        assert rep.level == pytest.approx(13.134618343915474, rel=1e-10)


class TestLineSearchCost:
    def test_trials_make_no_energy_call(self, monkeypatch):
        # Trials are judged by the level their projection returns.
        # _energy gives each converged start's level and the reported
        # level (a polish judges its rows through _energies); one call per
        # trial would exceed the bound below many times over.
        # At lambda = 100 the descent still makes many trials per polish;
        # at lambda = 10 its Barzilai-Borwein steps leave too few for the
        # factor below to tell one call per trial from none.
        g = WeightedGraph.from_dict(generate_graph("grid", 5, "v2-2,v2-3,v3-2,v3-3"))
        inst = ProblemInstance.full(g, 100.0)
        opts = SolveOptions(starts=8, seed=0)
        calls = collections.Counter()
        monkeypatch.setattr(solver, "_energy", _counted(calls, "_energy", solver._energy))
        # Projection and polish calls take stacks: count the rows.
        monkeypatch.setattr(nehari, "_project", _counted_rows(calls, "_project", nehari._project))
        monkeypatch.setattr(
            solver, "_newton_roots", _counted_rows(calls, "_newton_roots", solver._newton_roots)
        )
        solve_ground(inst, opts)
        solve_nodal(inst, opts)
        assert calls["_newton_roots"] > 0
        bound = 2 * calls["_newton_roots"] + 2 * opts.starts + 2
        assert calls["_project"] > 5 * bound
        assert calls["_energy"] <= bound


class TestStackedDescent:
    """All starts descend as one stack, and each row as it would alone."""

    # lam None is the Dirichlet problem, solved at 16 starts: its first row
    # (the taper seed, which lands on the root sqrt(e) (1, 1)) retires at
    # tolerance at once, and the others come due a polish at their
    # iterations 0, 2, 3, 4 and 7 and are polished in one stack.  On path24
    # the four polishes due at the rows' iteration 24 fail, so those rows
    # resume descent after the stack's polish and are polished again at
    # their iterations 39, 46, 46 and 49.
    @pytest.mark.parametrize(
        "topology, n, well, lam, nodal",
        [
            ("path", 6, "3..4", 100.0, True),
            ("grid", 5, "v2-2,v2-3,v3-2,v3-3", 10.0, False),
            ("path", 6, "3..4", None, False),
            ("path", 24, "10..15", 10.0, True),
        ],
    )
    def test_stack_matches_each_seed_alone(self, topology, n, well, lam, nodal):
        graph = WeightedGraph.from_dict(generate_graph(topology, n, well))
        inst = ProblemInstance.dirichlet(graph) if lam is None else ProblemInstance.full(graph, lam)
        opts = SolveOptions(starts=16 if lam is None else 8, seed=0)
        u, level, seeded = solver._seed_stack(inst, opts, nodal)
        assert seeded.all()
        fields, converged = solver._descend(inst, u, level, opts, nodal)
        assert converged.any()
        for i in range(len(u)):
            alone, ok = solver._descend(inst, u[i : i + 1], level[i : i + 1], opts, nodal)
            assert ok[0] == converged[i]
            # Each row takes the very steps it takes alone, so not only the
            # level (to 1e-13) but the field agrees to the last bit.
            np.testing.assert_array_equal(alone[0], fields[i])


class TestParkedPolish:
    """Rows due a polish wait until no row is left descending, and are then
    polished as one stack."""

    @pytest.mark.parametrize("lam", [None, 1e3, 1e4])
    def test_degenerate_ground_polishes_in_one_call(self, p6, monkeypatch, lam):
        # Near these degenerate, or nearly degenerate, minimizers each
        # polish converges only linearly, taking up to 58 Newton steps.
        # Polishing the rows due in each iteration on their own made 4, 7
        # and 6 calls.  On the Dirichlet problem the taper seed lands on
        # the root sqrt(e) (1, 1) with residual 0 and is not polished.
        inst = ProblemInstance.dirichlet(p6) if lam is None else ProblemInstance.full(p6, lam)
        calls = collections.Counter()
        monkeypatch.setattr(
            solver,
            "_newton_roots",
            _counted(calls, "calls", _counted_rows(calls, "rows", solver._newton_roots)),
        )
        rep = solve_ground(inst, OPTS)
        assert (calls["calls"], calls["rows"]) == (1, 15 if lam is None else 16)
        assert rep.starts_converged == 16

    def test_rows_at_tolerance_are_not_polished(self, p6_dirichlet, monkeypatch):
        # Every nodal seed and the ground taper seed project onto a root:
        # polishing them made 17 of the 32 rows handed to the polish here.
        tol = OPTS.tol_residual
        handed = []
        newton_roots = solver._newton_roots

        def recorded(inst, u, rtol):
            rinf = np.abs(solver._residual(inst, u)).max(axis=1)
            handed.append(rinf / (tol * np.maximum(1.0, np.abs(u).max(axis=1))))
            return newton_roots(inst, u, rtol)

        monkeypatch.setattr(solver, "_newton_roots", recorded)
        assert solve_ground(p6_dirichlet, OPTS).starts_converged == 16
        assert solve_nodal(p6_dirichlet, OPTS).starts_converged == 16
        ratio = np.concatenate(handed)
        assert ratio.size and np.all(ratio > 1.0)


class TestSeedMemo:
    """A start's random seed fields come from a memo of its stream."""

    @pytest.mark.parametrize("nodal", [False, True])
    @pytest.mark.parametrize("n", [2, 6, 25])
    def test_fields_match_the_stream(self, n, nodal):
        for seed, i in itertools.product(range(4), range(4)):
            rng = np.random.default_rng([seed, i])
            for k in range(4):
                want = rng.uniform(0.5, 2.5, size=n)
                if nodal:
                    signs = rng.choice([-1.0, 1.0], size=n)
                    if np.all(signs > 0) or np.all(signs < 0):
                        signs[0] = -signs[0]
                    want = want * signs
                got = solver._random_field(seed, i, n, nodal, k)
                np.testing.assert_array_equal(got, want)
                assert not got.flags.writeable


class TestStepStarts:
    """Each row starts its line search at its own clipped Barzilai-Borwein
    step, with a nodal row's step clipped far below a ground row's."""

    def test_safeguards(self, p6):
        inst = ProblemInstance.full(p6, 10.0)  # mass = mu (lam a + 1) differs from mu
        s = np.array([[1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0], [0.0] * 6,
                      [1e-3, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0], [0.0, 0, 1.0, 0, 0, 0],
                      [1e200, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0]])
        y = np.array([[-1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0], [1.0] * 6,
                      [1e4, 0, 0, 0, 0, 0], [1e-9, 0, 0, 0, 0, 0], [0.0, 0, 4.0, 0, 0, 0],
                      [1e-200, 0, 0, 0, 0, 0], [-1.0, 0, 0, 0, 0, 0], [-1.0, 0, 0, 0, 0, 0]])
        # Each row's 1/P: lam a + 1, except 3 in the well on row 5.
        metric = np.tile(inst.lam_a + 1.0, (len(s), 1))
        metric[5, 2] = 3.0
        alpha_prev = np.array([0.3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e5, 1e-4])
        # <s, y> < 0, = 0, = 0; clipped below and above (the step is about
        # 1e9); the step itself, <s, s/P> / <s, y> = (0 + 3) / 4 in the
        # well; not finite; < 0 after steps whose double is above and below
        # the bounds.
        # Each kind of row has its own upper bound, and where <s, y> < 0 a
        # ground row doubles its last step, clipped, and a nodal row
        # restarts.
        init, lo = solver._STEP_INIT, solver._STEP_MIN
        for nodal, hi in ((False, solver._STEP_MAX_GROUND), (True, solver._STEP_MAX_NODAL)):
            alpha = solver._step_starts(inst, s, y, metric, alpha_prev, nodal)
            negative = [init] * 3 if nodal else [0.6, hi, lo]
            expected = [negative[0], init, init, lo, hi, 0.75, init, negative[1], negative[2]]
            np.testing.assert_array_equal(alpha, expected)

    @pytest.mark.parametrize("lam, nodal", [(10.0, False), (100.0, True)])
    def test_every_start_in_bounds(self, p6, monkeypatch, lam, nodal):
        inst = ProblemInstance.full(p6, lam)
        seen = []
        step_starts = solver._step_starts

        def recorded(inst, s, y, metric, alpha_prev, nodal):
            alpha = step_starts(inst, s, y, metric, alpha_prev, nodal)
            seen.append((solver._dot(inst.mu, s * y), alpha_prev.copy(), alpha.copy()))
            return alpha

        monkeypatch.setattr(solver, "_step_starts", recorded)
        (solver.solve_nodal if nodal else solver.solve_ground)(inst, OPTS)
        sy, alpha_prev, alpha = (np.concatenate(c) for c in zip(*seen))
        lo = solver._STEP_MIN
        hi = solver._STEP_MAX_NODAL if nodal else solver._STEP_MAX_GROUND
        assert np.all((lo <= alpha) & (alpha <= hi))
        assert np.all(alpha[sy == 0.0] == solver._STEP_INIT)
        negative = sy < 0.0
        if nodal:
            assert np.all(alpha[negative] == solver._STEP_INIT)
        else:
            np.testing.assert_array_equal(
                alpha[negative], np.clip(2.0 * alpha_prev[negative], lo, hi)
            )
        # Not vacuous: every kind of row occurs, and BB moves the step.
        assert (sy == 0.0).any() and negative.any() and (alpha != solver._STEP_INIT).any()
        # Ground rows do take steps beyond the nodal bound.
        assert nodal or (alpha > solver._STEP_MAX_NODAL).any()

    def test_first_iteration_starts_at_init(self, p6, monkeypatch):
        inst = ProblemInstance.full(p6, 10.0)
        opts = SolveOptions(starts=8, seed=0)
        u, level, _ = solver._seed_stack(inst, opts, nodal=True)
        trials = []
        project = nehari._project

        def recorded(inst, w, nodal):
            trials.append(w.copy())
            return project(inst, w, nodal)

        monkeypatch.setattr(nehari, "_project", recorded)
        solver._descend(inst, u, level, opts, nodal=True)
        # P = 1 / max(D(u), lam a + 1), D the residual Jacobian's diagonal.
        floor = inst.lam_a + 1.0
        diag = np.diag(inst.stiffness) / inst.mu + inst.lam_a
        diag = diag - 2.0 * np.log(np.maximum(np.abs(u), 1e-150)) - 2.0
        assert (diag > floor).any()
        d = -solver._residual(inst, u) * (1.0 / np.maximum(diag, floor))
        np.testing.assert_array_equal(trials[0], u + solver._STEP_INIT * d)

    def test_ground_row_leaves_a_saddle_at_a_growing_step(self, p6, monkeypatch):
        # Restarted at 0.5 wherever <s, y> < 0, the last rows of this solve
        # crept away from a saddle: 70 stacked iterations.
        calls = collections.Counter()
        monkeypatch.setattr(solver, "_step_starts", _counted(calls, "its", solver._step_starts))
        rep = solve_ground(ProblemInstance.full(p6, 1.0), OPTS)
        assert calls["its"] <= 45
        assert rep.starts_converged == 16


class TestPreconditioner:
    """The descent's preconditioner keeps the log term of the residual
    Jacobian's diagonal."""

    def test_grid5_nodal_at_lambda_1_reaches_the_least_level(self):
        # With P = 1 / (lam a + 1) the 16 starts found 13.666431372812884
        # at best; that preconditioner reaches this level only at 64.
        g = WeightedGraph.from_dict(generate_graph("grid", 5, "v2-2,v2-3,v3-2,v3-3"))
        rep = solve_nodal(ProblemInstance.full(g, 1.0), OPTS)
        assert rep.level == pytest.approx(13.57264219636761, rel=1e-10)


class TestFinalNewton:
    """The reported minimizer is polished to rounding level."""

    @pytest.mark.parametrize("k", range(6))
    def test_never_raises_the_sup_residual(self, k):
        rng = np.random.default_rng(k)
        inst = ProblemInstance.full(random_graph(rng), float(10.0 ** rng.uniform(-1.0, 3.0)))
        n = len(inst.mu)
        rep = solve_nodal(inst, SolveOptions(starts=4, seed=k)) if n >= 2 else None
        fields = [rng.uniform(0.5, 2.5, n) * rng.choice([-1.0, 1.0], n) for _ in range(4)]
        if rep is not None:
            u = inst.free_values(rep.minimizer)
            fields += [u, u * (1.0 + 10.0 ** -rng.uniform(3, 12, n))]
        for uf in fields:
            out = solver._final_newton(inst, uf)
            rinf = np.abs(solver._residual(inst, uf)).max()
            assert np.abs(solver._residual(inst, out)).max() <= rinf
            np.testing.assert_array_equal(np.sign(out), np.sign(uf))

    def test_singular_jacobian(self, p6_dirichlet):
        # At the root sqrt(e) (1, 1) the Jacobian S - 3I is singular and the
        # residual is zero, so the root is kept; near it Newton is linear
        # along the kernel (1, -1) but still lowers the residual.
        root = np.full(2, math.exp(0.5))
        np.testing.assert_array_equal(solver._final_newton(p6_dirichlet, root), root)
        near = root * (1.0 + np.array([1e-6, -2e-6]))
        out = solver._final_newton(p6_dirichlet, near)
        rinf = np.abs(solver._residual(p6_dirichlet, near)).max()
        assert np.abs(solver._residual(p6_dirichlet, out)).max() <= 1e-6 * rinf

    @pytest.mark.parametrize(
        "topology, n, well, nodal",
        [("path", 6, "3..4", True), ("grid", 5, "v2-2,v2-3,v3-2,v3-3", False)],
    )
    def test_minimizer_does_not_depend_on_the_descent_path(
        self, monkeypatch, topology, n, well, nodal
    ):
        inst = ProblemInstance.full(WeightedGraph.from_dict(generate_graph(topology, n, well)), 10.0)
        solve = solve_nodal if nodal else solve_ground
        bb = solve(inst, OPTS)
        # Clipped to one value, the step is the fixed step of a plain descent.
        for name in ("_STEP_MIN", "_STEP_MAX_GROUND", "_STEP_MAX_NODAL"):
            monkeypatch.setattr(solver, name, solver._STEP_INIT)
        fixed = solve(inst, OPTS)
        scale = np.abs(fixed.minimizer).max()
        assert np.abs(bb.minimizer - fixed.minimizer).max() <= 1e-13 * scale
        assert bb.level == pytest.approx(fixed.level, rel=1e-13)


def _counted(calls, name, func):
    def counted(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)

    return counted


def _counted_rows(calls, name, func):
    """``func(inst, u, arg)`` that adds the number of rows of ``u`` to ``calls[name]``."""

    def counted(inst, u, arg):
        calls[name] += len(u)
        return func(inst, u, arg)

    return counted


POLISH_EVAL_BOUND = solver._POLISH_MAX_ITER * (solver._POLISH_HALVINGS + 1) + 1


def _count_residuals(mp):
    """Count the rows of the ``solver._residual`` calls made inside
    ``solver._newton_roots`` while ``mp`` is active; descent's own residuals
    are not counted."""
    evals = [0]
    inside = [False]
    residual, newton_roots = solver._residual, solver._newton_roots

    def counted(inst, u):
        if inside[0]:
            evals[0] += len(u) if u.ndim == 2 else 1
        return residual(inst, u)

    def polish(*args, **kwargs):
        inside[0] = True
        try:
            return newton_roots(*args, **kwargs)
        finally:
            inside[0] = False

    mp.setattr(solver, "_residual", counted)
    mp.setattr(solver, "_newton_roots", polish)
    return evals


@pytest.fixture(scope="module")
def grid5_polishes():
    """grid5 ground at lambda = 10 with every polish and residual counted.

    Returns the report, the total row-residuals the polish evaluated, and
    one ``(rtol, rows in, rows out, ok)`` entry per polish call.
    """
    g = WeightedGraph.from_dict(generate_graph("grid", 5, "v2-2,v2-3,v3-2,v3-3"))
    inst = ProblemInstance.full(g, 10.0)
    polishes = []

    def recorded_polish(inst, u, rtol):
        out, ok = polish(inst, u, rtol)
        polishes.append((rtol, u.copy(), out, ok))
        return out, ok

    with pytest.MonkeyPatch.context() as mp:
        evals = _count_residuals(mp)
        polish = solver._newton_roots
        mp.setattr(solver, "_newton_roots", recorded_polish)
        rep = solve_ground(inst, SolveOptions(starts=8, seed=0))
    return inst, rep, evals[0], polishes


def _settled(inst, uf, rtol):
    res = solver._residual(inst, uf)
    return float(np.max(np.abs(res))) <= rtol * max(1.0, float(np.max(np.abs(uf))))


class TestNewtonPolish:
    """Each Newton step tries at most a few halvings before the polish gives up."""

    def test_grid5_ground_residual_evaluations(self, grid5_polishes):
        _, rep, evals, _ = grid5_polishes
        # Halving each step down to 1e-10 made about 31k evaluations here.
        assert evals <= 3000
        assert rep.starts_converged == 8
        assert rep.level == pytest.approx(13.134618343915474, rel=1e-10)

    def test_every_polish_settles_or_gives_up_in_budget(self, grid5_polishes, monkeypatch):
        inst, _, _, polishes = grid5_polishes
        assert not all(ok.all() for _, _, _, ok in polishes)
        evals = _count_residuals(monkeypatch)
        for rtol, rows, out, ok in polishes:
            for row, got, settled in zip(rows, out, ok):
                # Each row alone: its own residual budget, and the very
                # result it got in the stack.
                before = evals[0]
                alone, ok_alone = solver._newton_roots(inst, row[None, :], rtol)
                assert evals[0] - before <= POLISH_EVAL_BOUND
                assert ok_alone[0] == settled
                np.testing.assert_array_equal(alone[0], got)
                assert not settled or _settled(inst, got, rtol)

    def test_settles_from_perturbed_minimizer(self, grid5_polishes):
        inst, rep, _, _ = grid5_polishes
        rng = np.random.default_rng(3)
        u = rep.minimizer + np.where(inst.free, 1e-4 * rng.standard_normal(inst.graph.n), 0.0)
        out, ok = solver._newton_roots(inst, inst.free_values(u)[None, :], 1e-11)
        assert ok[0] and _settled(inst, out[0], 1e-11)
        assert np.max(np.abs(inst.extend(out[0]) - rep.minimizer)) <= 1e-8

    def test_gives_up_on_unreachable_tolerance(self, grid5_polishes, monkeypatch):
        # A zero residual is below rounding, so no polish can reach it.
        inst, rep, _, _ = grid5_polishes
        evals = _count_residuals(monkeypatch)
        _, ok = solver._newton_roots(inst, inst.free_values(rep.minimizer)[None, :], 0.0)
        assert not ok[0]
        assert 1 <= evals[0] <= POLISH_EVAL_BOUND


def _reference_jacobian(inst, uf):
    """The residual Jacobian at one field, built as the per-row loop built it."""
    jac = inst.stiffness / inst.mu[:, None]
    log_term = 2.0 * np.log(np.maximum(np.abs(uf), 1e-150))
    np.fill_diagonal(jac, np.diag(jac) + inst.lam_a - log_term - 2.0)
    return jac


def _reference_newton_root(inst, uf, rtol):
    """One row polished by the loop the stacked kernel replaced.

    A full step is also taken when the simplified Newton correction at its
    end is shorter than it in sup norm (natural monotonicity).  Returns
    (root or None, why): "settled", "singular", "halvings" when no finite
    trial was taken, "non-finite" when no trial was finite, or "budget".
    """
    r = solver._residual(inst, uf)
    rnorm = float(np.abs(r).max())
    for it in range(solver._POLISH_MAX_ITER + 1):
        if rnorm <= rtol * max(1.0, float(np.abs(uf).max())):
            return uf, "settled"
        if it == solver._POLISH_MAX_ITER:
            return None, "budget"
        jac = _reference_jacobian(inst, uf)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None, "singular"
        finite = False
        for k in range(solver._POLISH_HALVINGS + 1):
            cand = uf + 0.5**k * step
            if not np.all(np.isfinite(cand)):
                continue
            finite = True
            cr = solver._residual(inst, cand)
            cnorm = float(np.abs(cr).max())
            if cnorm < rnorm or k == 0 and (
                np.abs(np.linalg.solve(jac, -cr)).max() < np.abs(step).max()
            ):
                uf, r, rnorm = cand, cr, cnorm
                break
        else:
            return None, "halvings" if finite else "non-finite"


class TestNewtonRoots:
    """Each row of the stacked polish is the row polished alone."""

    # On k2 at lambda = 1 the Jacobian at |u| = (1, 1) is exactly
    # [[-1, -1], [-1, -1]], and near it Newton steps are huge.
    ROWS = np.array([
        [E * (1.0 + 1e-6), -E * (1.0 - 2e-6)],  # settles at (e, -e)
        [1.0, -(1.0 + 1e-12)],  # a step of 1e12: every halving fails
        [1.0, -1.0],  # singular Jacobian
        [1e307, -1e307],  # residual and step overflow
        [2.0, -0.2],  # 26 full steps, most taken by natural monotonicity
        [0.5, 2.0],  # takes a step at 1/16 on its way to (1, 1)
        [-3.0, 0.1],
    ])
    FINITE = [0, 1, 4, 5, 6]  # rows whose every trial and step is finite

    def test_mixed_stack_matches_each_row_alone(self, k2):
        inst = ProblemInstance.full(k2, 1.0)
        rows, rtol = self.ROWS, 1e-14
        # The non-finite row overflows by design.
        with np.errstate(over="ignore", invalid="ignore"):
            out, ok = solver._newton_roots(inst, rows, rtol)
            reference = [_reference_newton_root(inst, row, rtol) for row in rows]
            for i, (root, why) in enumerate(reference):
                alone, ok_alone = solver._newton_roots(inst, rows[i : i + 1], rtol)
                assert ok[i] == ok_alone[0] == (root is not None), why
                np.testing.assert_array_equal(out[i], alone[0])
                if root is not None:
                    np.testing.assert_array_equal(out[i], root)
        # Row 4 ran out of steps while the residual alone judged a full
        # step, halving most of them five times.
        assert [why for _, why in reference[:6]] == [
            "settled", "halvings", "singular", "non-finite", "settled", "settled"
        ]
        np.testing.assert_allclose(out[0], [E, -E], rtol=1e-14)

    def test_out_of_steps_matches_row_alone(self, k2, monkeypatch):
        # Row 4 needs 26 steps; with a budget of 10 it gives up.
        monkeypatch.setattr(solver, "_POLISH_MAX_ITER", 10)
        inst = ProblemInstance.full(k2, 1.0)
        rows = self.ROWS[self.FINITE]
        out, ok = solver._newton_roots(inst, rows, 1e-14)
        root, why = _reference_newton_root(inst, rows[2], 1e-14)
        assert (root, why) == (None, "budget")
        alone, ok_alone = solver._newton_roots(inst, rows[2:3], 1e-14)
        assert not ok[2] and not ok_alone[0]
        np.testing.assert_array_equal(out[2], alone[0])

    def test_evaluates_what_the_per_row_loop_evaluates(self, k2, monkeypatch):
        # Same steps and halvings row by row: the same residual rows.
        inst = ProblemInstance.full(k2, 1.0)
        rows = self.ROWS[self.FINITE]
        evals = [0]
        residual = solver._residual

        def counted(inst, u):
            evals[0] += len(u) if u.ndim == 2 else 1
            return residual(inst, u)

        monkeypatch.setattr(solver, "_residual", counted)
        solver._newton_roots(inst, rows, 1e-14)
        stacked, evals[0] = evals[0], 0
        for row in rows:
            _reference_newton_root(inst, row, 1e-14)
        assert stacked == evals[0]

    def test_singular_root_settles_on_full_steps(self, p6_dirichlet, monkeypatch):
        # The Dirichlet ground state sqrt(e) (1, 1) has the singular Jacobian
        # [[-1, -1], [-1, -1]]; near it the full step often does not lower the
        # sup residual.  Judged by the residual alone, these seeds took 58
        # and 36 damped steps; the simplified correction takes 17 and 18
        # full ones.  With no halvings, every step taken is a full step.
        monkeypatch.setattr(solver, "_POLISH_MAX_ITER", 24)
        monkeypatch.setattr(solver, "_POLISH_HALVINGS", 0)
        root = math.sqrt(E) * np.ones(2)
        offsets = np.array([0.013, -0.013, 0.025, -0.025])[:, None] * np.array([1.0, -1.0])
        seeds, _, projected = nehari._project(p6_dirichlet, root + offsets, False)
        assert projected.all()
        out, ok = solver._newton_roots(p6_dirichlet, seeds, 0.1 * OPTS.tol_residual)
        assert ok.all()
        np.testing.assert_allclose(out, np.broadcast_to(root, out.shape), atol=1e-4)

    def test_batched_solve_matches_each_matrix(self):
        rng = np.random.default_rng(0)
        for n in range(2, 50):
            jac = rng.standard_normal((3, n, n)) + n * np.eye(n)
            r = rng.standard_normal((3, n))
            step = solver._newton_steps(jac, r)
            for i in range(3):
                np.testing.assert_array_equal(step[i], np.linalg.solve(jac[i], -r[i]))
            # A singular matrix fails its own row only, with a NaN step.
            jac[1] = 0.0
            step = solver._newton_steps(jac, r)
            assert np.isnan(step[1]).all()
            for i in (0, 2):
                np.testing.assert_array_equal(step[i], np.linalg.solve(jac[i], -r[i]))


class TestSolveOptions:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
    def test_rejects_non_finite_tolerance(self, tol):
        # An infinite tolerance used to pass every start at once.
        with pytest.raises(ValueError, match="tol_residual"):
            SolveOptions(tol_residual=tol)

    @pytest.mark.parametrize("starts", [0, -3, 2.5, None])
    def test_rejects_starts_that_is_not_a_positive_integer(self, starts):
        # A fractional count used to fail inside the solve, in range().
        with pytest.raises(ValueError, match="starts"):
            SolveOptions(starts=starts)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        # A negative seed used to fail inside the first start, in numpy.
        with pytest.raises(ValueError, match="seed"):
            SolveOptions(seed=seed)


class TestCollapseGuards:
    def test_non_finite_trial_field_collapses(self, p6):
        inst = ProblemInstance.full(p6, 10.0)
        u = p6.field({"v3": 1.0, "v4": -1.0})
        u[0] = math.nan
        for nodal in (False, True):
            _, _, ok = nehari._project(inst, u[None, :], nodal)
            assert not ok[0]

    def test_vanishing_sign_part_projects_as_project_pair(self, p6):
        # |u-|_H1 ~ 1.4e-16: the pair projection scales each sign part, so a
        # tiny part is no special case for descent either.
        inst = ProblemInstance.full(p6, 10.0)
        u = p6.field({"v3": 1.0, "v6": -1e-16})
        w, level, ok = nehari._project(inst, u[None, :], nodal=True)
        proj = project_pair(inst, u)
        assert ok[0]
        np.testing.assert_array_equal(w[0], proj.projected)
        b_pos, b_neg = nehari._split_stats(inst, u[None, :])[0][0, [2, 5]]
        assert level[0] == 0.5 * (proj.s * proj.s * b_pos + proj.t * proj.t * b_neg)


class TestScalingOverflow:
    """At large lam * a the Nehari scaling leaves the float range."""

    def test_ground_raises_nonconvergence(self, p3_no_well):
        inst = ProblemInstance.full(p3_no_well, 5000.0)
        with pytest.raises(NonConvergence):
            solve_ground(inst, SolveOptions(starts=4, seed=0))

    def test_nodal_raises_nonconvergence(self, p3_no_well):
        inst = ProblemInstance.full(p3_no_well, 5000.0)
        # Separated sign supports: the box bounding their ray roots is
        # beyond float range.
        _, _, ok = nehari._project(inst, np.array([[1.0, 0.0, -1.0]]), nodal=True)
        assert not ok[0]
        with pytest.raises(NonConvergence):
            solve_nodal(inst, SolveOptions(starts=4, seed=0))


def _random_mix_instance(k):
    """Instance r<k> of the seed-0 random mix, drawn in generator order."""
    rng = np.random.default_rng(0)
    for _ in range(k + 1):
        g = random_graph(rng)
        lam = float(10.0 ** rng.uniform(-1.0, 5.0))
    return ProblemInstance.full(g, lam)


class TestIterationCap:
    """At the iteration cap each row is judged as it stands."""

    # (case, cap) -> (converged flags, SHA-256 prefix of the final fields),
    # recorded before the stalled-row polish moved into the polish pass;
    # the cap-25 records again once the step became a row's own
    # Barzilai-Borwein step, which leaves caps 0 and 1 alone since a row
    # takes it from its second iteration on; grid5's cap-25 record
    # once ground rows were clipped to [1e-3, 1e5] instead of [1e-3, 2];
    # and the cap-1 and cap-25 records of p6 and grid5, and r083's cap-25
    # record, once the preconditioner kept the Jacobian's log term.  r083's
    # cap-1 record stands: its seeds' P is 1 / (lam a + 1) except on row 2,
    # which the line search cannot move under either P.  grid5's cap-25
    # record again once the polish took a full Newton step by natural
    # monotonicity: its row 4 now converges by its second polish.
    # Cap 25 passes the polish every 25th iteration triggers.  r083's
    # row 2 is the one row of the first 200 seed-0 random-mix solves that
    # the line search cannot move: it stalls at iteration 0, so at cap 1
    # it stalled in the last iteration and converges by its polish alone.
    RECORDED = {
        ("p6", 0): ("00000000", "04c9a2275e0811d1"),
        ("p6", 1): ("00000000", "0f72329b4a706aea"),
        ("p6", 25): ("11111111", "b45836a3f55bf674"),
        ("grid5", 0): ("00000000", "7856d67e5864c283"),
        ("grid5", 1): ("00000000", "6f938d30d6da880a"),
        ("grid5", 25): ("11001010", "1a1e7f4ed3999110"),
        ("r083", 0): ("0000", "c7c276f8039e2934"),
        ("r083", 1): ("0010", "ff4573a43cffbbcc"),
        ("r083", 25): ("1111", "d82838c3adfb31f9"),
    }

    @staticmethod
    def _case(name):
        """(instance, nodal, options) of a named case."""
        if name == "p6":
            g = WeightedGraph.from_dict(generate_graph("path", 6, "3..4"))
            return ProblemInstance.full(g, 100.0), True, SolveOptions(starts=8, seed=0)
        if name == "grid5":
            g = WeightedGraph.from_dict(generate_graph("grid", 5, "v2-2,v2-3,v3-2,v3-3"))
            return ProblemInstance.full(g, 10.0), False, SolveOptions(starts=8, seed=0)
        return _random_mix_instance(83), True, SolveOptions(starts=4, seed=0)

    @pytest.mark.parametrize("case, cap", sorted(RECORDED))
    def test_capped_descent_matches_record(self, monkeypatch, case, cap):
        monkeypatch.setattr(solver, "_MAX_OUTER_ITERS", cap)
        inst, nodal, opts = self._case(case)
        u, level, seeded = solver._seed_stack(inst, opts, nodal)
        assert seeded.all()
        fields, converged = solver._descend(inst, u, level, opts, nodal)
        flags = "".join("1" if c else "0" for c in converged)
        assert (flags, hashlib.sha256(fields.tobytes()).hexdigest()[:16]) == self.RECORDED[case, cap]
        rinf = np.abs(solver._residual(inst, fields)).max(axis=1)
        scale = np.maximum(1.0, np.abs(fields).max(axis=1))
        assert np.all(rinf[converged] <= opts.tol_residual * scale[converged])


class TestGroundStepClip:
    """Long Barzilai-Borwein steps carry ground rows across the flat
    directions of a nearly degenerate minimizer."""

    def test_grid5_ground_at_large_lambda_converges_every_start(self):
        # The minimizer's Jacobian has two eigenvalues near 2e-4 here; with
        # steps clipped at 2, 12 of the 16 starts ran to the iteration cap.
        g = WeightedGraph.from_dict(generate_graph("grid", 5, "v2-2,v2-3,v3-2,v3-3"))
        rep = solve_ground(ProblemInstance.full(g, 1e3), SolveOptions(starts=16, seed=0))
        assert rep.starts_converged == 16


class TestLargeField:
    """Stopping tests scale with the field when |u| is far above 1."""

    def test_random_mix_r100_ground_converges(self):
        # n = 11, lam ~ 379.9, |u| ~ 2.2e8: an absolute polish tolerance
        # could not be met here.
        inst = _random_mix_instance(100)
        assert inst.graph.n == 11 and inst.lam == pytest.approx(379.88, rel=1e-4)
        opts = SolveOptions(starts=4, seed=0)
        rep = solve_ground(inst, opts)
        scale = max(1.0, float(np.max(np.abs(rep.minimizer))))
        assert scale > 1e8
        assert verify(inst, rep.minimizer).residual_inf <= opts.tol_residual * scale

    def test_random_mix_r151_ground_fails_typed(self):
        # lam * a reaches 4e4, so projections run off past |u| ~ 1e180,
        # where squares overflow.  Such fields collapse the start before
        # any overflow: the suite turns a RuntimeWarning into a failure.
        inst = _random_mix_instance(151)
        with pytest.raises(NonConvergence):
            solve_ground(inst, SolveOptions(starts=4, seed=0))

    def test_random_mix_r151_nodal_fails_typed(self):
        inst = _random_mix_instance(151)
        with pytest.raises(NonConvergence):
            solve_nodal(inst, SolveOptions(starts=4, seed=0))

    @pytest.mark.parametrize("bad", [1e151, math.inf, math.nan])
    def test_projected_field_beyond_range_collapses(self, p6, monkeypatch, bad):
        inst = ProblemInstance.full(p6, 10.0)
        u = p6.field({"v3": 1.0, "v4": -1.0}, default=0.5)

        # Every row's scalings are bad.
        monkeypatch.setattr(nehari, "_ray_scaling", lambda *norms: bad)
        monkeypatch.setattr(nehari, "_pair_row", lambda norms: (bad, bad, 0.0, 0.0, 0, (1.0, 1.0)))
        for nodal in (False, True):
            _, _, ok = nehari._project(inst, u[None, :], nodal)
            assert not ok[0]


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

    @pytest.mark.parametrize("solve", [solve_ground, solve_nodal])
    def test_solve_checks_no_field_of_its_own(self, p6, p6_dirichlet, monkeypatch, solve):
        # A solve verifies its minimizer on free values; only the public
        # boundary sends a field through check_field.
        calls = []
        check_field = WeightedGraph.check_field

        def counted(graph, u):
            calls.append(len(u))
            return check_field(graph, u)

        monkeypatch.setattr(WeightedGraph, "check_field", counted)
        for inst in (ProblemInstance.full(p6, 10.0), p6_dirichlet):
            rep = solve(inst, SolveOptions(starts=4, seed=0))
            assert calls == []
            assert verify(inst, rep.minimizer) == solver._verification(
                inst, rep.minimizer[inst.free_index]
            )
            assert calls == [p6.n]
            calls.clear()


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


FIXTURE_FAMILIES = (
    ("path", 12, "5..8"),
    ("path", 24, "10..15"),
    ("cycle", 10, "4..6"),
    ("star", 8, "1..2"),
    ("grid", 4, "v2-2,v2-3,v3-2,v3-3"),
    ("grid", 5, "v2-2,v2-3,v3-2,v3-3"),
    ("grid", 7, "v3-3,v3-4,v4-3,v4-4,v3-5,v4-5"),
)


def test_max_coupling_signs_has_both_signs():
    # On a connected free block of 2 or more vertices S has nonpositive
    # off-diagonals, so its lowest eigenvector is positive (Perron-Frobenius)
    # and the top one, orthogonal to it, changes sign.
    graphs = [WeightedGraph.from_dict(generate_graph(*family)) for family in FIXTURE_FAMILIES]
    rng = np.random.default_rng(0)
    graphs += [random_graph(rng) for _ in range(50)]
    kinds = collections.Counter()
    for g in graphs:
        insts = [("full", ProblemInstance.full(g, 10.0))]
        try:
            insts.append(("dirichlet", ProblemInstance.dirichlet(g)))
        except ValueError:  # the well is empty or not connected
            pass
        for kind, inst in insts:
            if len(inst.free_index) < 2:
                continue
            signs = solver._max_coupling_signs(inst)
            assert (signs > 0).any() and (signs < 0).any()
            kinds[kind] += 1
    # Not vacuous: 11 of the random graphs have a connected well of 2 or
    # more vertices.
    assert kinds == {"full": 57, "dirichlet": 18}


@pytest.mark.parametrize("case", ["k2", "p6", "p6_dirichlet", "p5_dirichlet", "grid4"])
def test_degenerate_coupling_describes_minimizer(request, case):
    inst = request.getfixturevalue(case)
    if isinstance(inst, WeightedGraph):
        inst = ProblemInstance.full(inst, 10.0)
    assert not solve_ground(inst, OPTS).degenerate_coupling
    rep = solve_nodal(inst, OPTS)
    assert rep.degenerate_coupling == (coupling_k(inst, rep.minimizer) >= 0.0)


def _ball(g, centre, radius):
    """Ids within ``radius`` hops of the ids in ``centre``."""
    ball = set(centre)
    for _ in range(radius):
        ball |= {g.vertex_ids[j] for v in ball for j in np.nonzero(g.weights[g.index(v)])[0]}
    return ball


def test_dirichlet_truncation_to_balls():
    # Zero extension from B_R to B_{R+1} is admissible, so the levels can
    # only fall as R grows: a rise is a missed minimum, not noise.  B_0 is
    # the well (the Dirichlet problem) and B_4 is all of the 9-path.
    g = WeightedGraph.from_dict(generate_graph("path", 9, "4..5"))
    well = g.validate_potential().omega.interior
    for solve in (solve_ground, solve_nodal):
        levels = [solve(ProblemInstance(g, 1.0, _ball(g, well, r)), OPTS).level for r in range(5)]
        assert all(b <= a for a, b in zip(levels, levels[1:])), levels
        assert levels[0] == solve(ProblemInstance.dirichlet(g), OPTS).level
        assert levels[-1] == solve(ProblemInstance.full(g, 1.0), OPTS).level


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
