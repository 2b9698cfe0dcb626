"""Ground-state and sign-changing level computation by projected descent.

All starts of a solve descend together as the rows of one stack.  Each
start draws a seed (deterministic seeds first, then random fields from
its own stream ``default_rng([seed, i])``), and every seed is projected
onto the relevant Nehari set before descent begins.  Each row counts its
own iterations.  A pass of the stack takes the residual, the stopping
and polish tests, the descent direction and its slope for all live rows
in one array pass; the first line-search round projects every live row,
and each later round only the rows still searching.  The stacked
kernels give every row the floats it would get alone, so a start follows
the same steps whatever else is in the stack, and results are collected
in start order.  A row descends along ``-P r``, its residual scaled by
the diagonal preconditioner ``P = 1/max(D(u), lam a + 1)``, where ``D``
is the residual Jacobian's diagonal: its log term makes ``D`` large
where ``|u|`` is small, so that those vertices no longer limit the
step of the whole row.  Each row starts its line search at its own
Barzilai-Borwein step in the metric of ``P`` (Barzilai & Borwein, IMA
J. Numer. Anal. 8, 1988; Molina & Raydan, Numer. Algorithms 13, 1996),
clipped to ``[_STEP_MIN, _STEP_MAX_NODAL]`` on nodal rows and to the far
wider ``[_STEP_MIN, _STEP_MAX_GROUND]`` on ground rows; a ground row
that met negative curvature takes the size of its BB quotient instead,
clipped the same way, and a nodal row restarts at ``_STEP_INIT``.  It
halves its own step on each rejected trial.  A line-search trial costs one
projection and nothing else: the projection returns the level of its
field in closed form (``J(w) = |w|_2^2 / 2`` on both Nehari sets), and
the nonmonotone Armijo test of Grippo, Lampariello & Lucidi (SIAM J.
Numer. Anal. 23, 1986) compares that level with the largest of the
row's last ``_HISTORY`` levels, each ``|u|_2^2 / 2`` of a projected
field the row carried.  Energies are evaluated on their own only to
judge a polish and to report a level.

A row at tolerance retires at once.  A damped Newton polish on the
pointwise residual system ends a start early once it succeeds; descent
tries it when the residual is small, every 25 iterations of the row, and
on the iteration after the line search cannot move a row.  A row due a
polish leaves the stack ("parks") until no row is left descending; then
every parked row is polished as one stack (``_newton_roots``): one
batched linear solve per Newton step, and each halving round evaluates
only the rows still searching.  A full step is taken when it lowers the
sup residual or, by Deuflhard's natural monotonicity test, when the
simplified Newton correction at its end is shorter than the step; only
otherwise is it halved.  Near a degenerate minimizer each polish
converges only linearly, so rows that come due on nearby iterations
share those steps.  After that polish a row leaves for good when its
polish is taken or when it stalled; the others rejoin the stack and
finish the iteration they parked in.  The polish aims at a tenth of the
descent stopping test, relative to the field's sup norm, and a row gives
up once a Newton step has been halved five times without lowering its
residual, leaving the start to descent.  A brute-force oracle on
instances with at most a few free vertices provides independent
reference levels: a vectorized grid scan of the
residual system, whose sign-change cells it polishes in one stack with
the same damped Newton.  The minimizer a solve reports gets up to
``_FINAL_NEWTON_STEPS`` full Newton steps more, on the same linear solve
(``_newton_steps``), so that it sits at rounding level whatever path
descent took to it; a singular or non-finite step is rejected by its
residual comparison.

Seeds, descent, projections, polish and oracle all work on the free
values of a field (see :class:`~logschro.energy.ProblemInstance`) and
share one residual kernel and its Jacobian, whose field-free parts
(``_jacobian_base``) each descent or polish call forms once;
``solve_*`` and ``oracle_enumerate`` extend the fields they return to
full length.  ``verify`` checks a full-length field once, gathers its
free values and hands them to ``_verification``, which a solve calls on
its own minimizer directly.
The random seed fields of a start come from a bounded memo keyed on the
solver seed, the start, the free-vertex count, the kind and the field's
place in the stream, so repeated solves do not rebuild the streams.
Seeds and line-search trials go through the one stacked projection,
``nehari._project``, which returns the projected rows, their levels and
a mask of the rows that succeeded.  A seed that fails is redrawn from its
stream, at most four tries; a trial that fails is treated as one the
Armijo test rejects.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .energy import (
    ProblemInstance,
    _coupling_k,
    _dot,
    _energies,
    _energy,
    _floored_log,
    _residual,
    field_to_dict,
)
from .graphs import _json_fields, negative_part, positive_part
from . import nehari
from .nehari import NonConvergence

__all__ = [
    "SolveOptions",
    "SolveReport",
    "VerificationReport",
    "OracleResult",
    "InfeasibleWell",
    "DofLimitExceeded",
    "NonConvergence",
    "solve_ground",
    "solve_nodal",
    "verify",
    "oracle_enumerate",
]

_SIGN_EPS = 1e-8
_SIGNS = np.array([-1.0, 1.0])
# Newton polish budget: steps per polish, and step halvings per step.
_POLISH_MAX_ITER = 60
_POLISH_HALVINGS = 5
# Descent budget per start and nonmonotone Armijo line search: a row's
# first trial step is its Barzilai-Borwein step clipped to [_STEP_MIN,
# _STEP_MAX_GROUND] or [_STEP_MIN, _STEP_MAX_NODAL] (on a ground row
# past negative curvature, the BB quotient's size, clipped), or
# _STEP_INIT where there is none, and a trial is judged against the
# largest of the row's last _HISTORY levels.  Long nodal steps fail the
# pair projection; the ray projection has a closed form, and a ground row
# near a degenerate minimizer needs steps of order 1/eig to cross its
# flat directions.
_MAX_OUTER_ITERS = 5000
_STEP_INIT = 0.5
_STEP_MIN = 1e-3
_STEP_MAX_GROUND = 1e5
_STEP_MAX_NODAL = 2.0
_HISTORY = 10
_ARMIJO = 1e-4
_SHRINK = 0.5
# Full Newton steps on the reported minimizer.
_FINAL_NEWTON_STEPS = 8
# The Jacobian diagonal floors |u| at 1e-150.
_LOG_FLOOR = math.log(1e-150)
# Oracle budget: free vertices, and lattice cells per axis.
_ORACLE_DOF_LIMIT = 3
_ORACLE_GRID = 32


class InfeasibleWell(ValueError):
    """Free vertex set too small to carry a sign-changing solution."""


class DofLimitExceeded(ValueError):
    """Instance has more free vertices than the oracle budget."""


@dataclass(frozen=True)
class SolveOptions:
    starts: int = 64
    seed: int = 0
    tol_residual: float = 1e-10

    def __post_init__(self):
        if not (isinstance(self.starts, numbers.Integral) and self.starts >= 1):
            raise ValueError(f"starts must be an integer >= 1, got {self.starts!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # Written so that NaN fails it too.  An infinite tolerance would
        # pass every start at once.
        if not 0 < self.tol_residual < math.inf:
            raise ValueError("tol_residual must be positive and finite")


@dataclass(frozen=True, slots=True)
class SolveReport:
    minimizer: np.ndarray
    level: float
    residual_inf: float
    membership_residuals: tuple[float, float]
    starts_converged: int
    level_histogram: tuple[float, ...]
    sign_pattern: dict
    degenerate_coupling: bool

    def to_dict(self, inst: ProblemInstance) -> dict:
        return _json_fields(self, minimizer=field_to_dict(inst.graph, self.minimizer))


@dataclass(frozen=True)
class VerificationReport:
    residual_inf: float
    membership_residuals: tuple[float, float]
    nehari_gap: float  # J(u) - |u|_2^2 / 2; zero on the Nehari sets
    level: float
    companion_ground: float | None = None

    @property
    def m_margin(self) -> float | None:
        if self.companion_ground is None:
            return None
        return self.level - 2.0 * self.companion_ground

    @property
    def m_gt_2c(self) -> bool | None:
        margin = self.m_margin
        return None if margin is None else margin > 0.0

    def to_dict(self) -> dict:
        return _json_fields(self, m_margin=self.m_margin, m_gt_2c=self.m_gt_2c)


# -- residual Newton polish ----------------------------------------------


def _jacobian_base(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """The field-free parts of the Jacobian of ``_residual``: the block
    ``S/mu`` and the diagonal ``S_ii / mu_i + lam a_i``."""
    block = inst.stiffness / inst.mu[:, None]
    return block, np.diagonal(block) + inst.lam_a


def _jacobian_diagonal(base: np.ndarray, log_abs: np.ndarray) -> np.ndarray:
    """The diagonal ``S_ii / mu_i + lam a_i - log u_i^2 - 2`` of the
    Jacobian of ``_residual`` from the ``_jacobian_base`` diagonal and
    ``log_abs = _floored_log(|u|)`` of free values or a stack of them."""
    # d/du (u log u^2) = log u^2 + 2, with log u^2 taken as 2 log|u| so it
    # stays finite for |u| beyond 1e154; |u| is floored at 1e-150.
    return base - 2.0 * np.maximum(log_abs, _LOG_FLOOR) - 2.0


def _residual_jacobian(jac_base: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """The Jacobian of ``_residual`` at the free values ``u``, or at each
    row of a stack of them, from the ``_jacobian_base`` pair: shape
    ``u.shape[:-1] + (n, n)``, the block with ``_jacobian_diagonal``'s
    diagonal."""
    block, base = jac_base
    jac = np.broadcast_to(block, u.shape + block.shape[-1:]).copy()
    # The diagonals are written through a strided view.
    diagonal = _jacobian_diagonal(base, _floored_log(np.abs(u)))
    jac.reshape(u.shape[:-1] + (-1,))[..., :: len(base) + 1] = diagonal
    return jac


def _newton_steps(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Newton steps ``-jac^-1 r`` of a stack of rows; NaN for a row whose
    Jacobian LAPACK finds singular.

    One batched solve gives each row the floats of its own solve; when a
    matrix is singular the rows are solved one by one, so only that row
    fails.
    """
    try:
        return np.linalg.solve(jac, -r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    step = np.full_like(r, np.nan)
    for i in range(len(r)):
        try:
            step[i] = np.linalg.solve(jac[i], -r[i])
        except np.linalg.LinAlgError:
            pass
    return step


def _newton_roots(inst: ProblemInstance, u: np.ndarray, rtol: float):
    """Damped Newton on the free residual system for each row of ``u``.

    Returns (rows, ok): ``ok[i]`` marks a row that settled, and then
    ``rows[i]`` is its root; any other row is returned as given.  A row
    settles once its sup residual is at most ``rtol * max(1, max|u_i|)``
    at its current iterate.  Each Newton step tries ``alpha = 1, 1/2,
    ..., 2**-_POLISH_HALVINGS`` and takes the first trial that lowers the
    row's sup residual.  The full step ``d`` is also taken when the
    simplified Newton correction ``-J(u)^-1 r(u + d)``, on the same
    Jacobian, is shorter than ``d`` in sup norm: Deuflhard's natural
    monotonicity test (Newton Methods for Nonlinear Problems, Springer
    2004).  Near a singular root, such as the Dirichlet ground state
    ``sqrt(e) (1, 1)`` of a two-vertex well, the error shrinks along the
    Jacobian's kernel while the residual may not, and the residual test
    alone would damp those steps.  A trial that is not finite, such as
    the step of a singular Jacobian, has a residual and a correction that
    compare false and is rejected.  When no trial is taken, or after
    ``_POLISH_MAX_ITER`` steps, the row gives up: a root that needs
    tinier steps than these is stalled on an ill-conditioned Jacobian,
    not converging.  At most ``_POLISH_MAX_ITER * (_POLISH_HALVINGS + 1)
    + 1`` residual evaluations per row.

    The live rows step together: one Jacobian stack and one batched solve
    per step, one residual for every row's full step, one more batched
    solve for the simplified corrections of the rows whose full step did
    not lower the residual, and each halving round evaluates only the
    rows still searching.  The kernels give each row the floats it would
    get alone, so a row's result does not depend on the rest of the
    stack.
    """
    jac_base = _jacobian_base(inst)
    roots, ok = u.copy(), np.zeros(len(u), dtype=bool)
    # The live rows: their index in ``roots``, iterate, residual and sup
    # residual; ``search`` holds those that gave up in the last step.
    live, u = np.arange(len(u)), u.copy()
    r = _residual(inst, u)
    rnorm = np.abs(r).max(axis=1)
    search = live[:0]

    def trial(w, step, alpha):
        cand = w + alpha * step
        cr = _residual(inst, cand)
        return cand, cr, np.abs(cr).max(axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(_POLISH_MAX_ITER + 1):
            settled = rnorm <= rtol * np.maximum(1.0, np.abs(u).max(axis=1))
            if search.size or settled.any():
                roots[live[settled]], ok[live[settled]] = u[settled], True
                keep = ~settled
                keep[search] = False
                live, u, r, rnorm = live[keep], u[keep], r[keep], rnorm[keep]
            if not live.size or it == _POLISH_MAX_ITER:
                break
            jac = _residual_jacobian(jac_base, u)
            step = _newton_steps(jac, r)
            cand, cr, cnorm = trial(u, step, 1.0)
            better = cnorm < rnorm
            if not better.all():
                # Natural monotonicity: a full step is also taken when the
                # simplified correction at its end is shorter than it.
                rej = np.flatnonzero(~better)
                simple = _newton_steps(jac[rej], cr[rej])
                better[rej] = np.abs(simple).max(axis=1) < np.abs(step[rej]).max(axis=1)
            if better.all():
                u, r, rnorm, search = cand, cr, cnorm, search[:0]
                continue
            u[better], r[better], rnorm[better] = cand[better], cr[better], cnorm[better]
            search = np.flatnonzero(~better)
            for k in range(1, _POLISH_HALVINGS + 1):
                cand, cr, cnorm = trial(u[search], step[search], 0.5**k)
                better = cnorm < rnorm[search]
                taken = search[better]
                u[taken], r[taken], rnorm[taken] = cand[better], cr[better], cnorm[better]
                search = search[~better]
                if not search.size:
                    break
    return roots, ok


def _final_newton(inst: ProblemInstance, uf: np.ndarray) -> np.ndarray:
    """Up to ``_FINAL_NEWTON_STEPS`` full Newton steps on the free residual
    system from ``uf``, stopping at the first step that changes the sign
    pattern or does not lower the sup residual.

    The step comes from ``_newton_steps``, the polish's linear solve: a
    singular Jacobian gives a NaN step, and a step along a near-singular
    direction may be huge enough that its residual overflows.  A NaN or
    infinite residual compares false, so such a step is rejected like any
    other that does not lower the residual.

    Polishing a converged minimizer to rounding level makes the reported
    field independent of where descent stopped; the sup residual of the
    field returned is never above that of ``uf``.
    """
    jac_base = _jacobian_base(inst)
    r = _residual(inst, uf)
    rnorm = float(np.abs(r).max())
    signs = np.sign(uf)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_FINAL_NEWTON_STEPS):
            cand = uf + _newton_steps(_residual_jacobian(jac_base, uf[None]), r[None])[0]
            cr = _residual(inst, cand)
            cnorm = float(np.abs(cr).max())
            if not (cnorm < rnorm and np.array_equal(np.sign(cand), signs)):
                break
            uf, r, rnorm = cand, cr, cnorm
    return uf


# -- stacked descent on the free values of the starts ----------------------


def _sign_ok(u: np.ndarray, nodal: bool) -> np.ndarray:
    """Whether a field, or each row of a stack, has the sign pattern its
    Nehari set asks for."""
    if nodal:
        return (u.max(axis=-1) > _SIGN_EPS) & (u.min(axis=-1) < -_SIGN_EPS)
    return np.abs(u).max(axis=-1) > _SIGN_EPS


def _step_starts(
    inst: ProblemInstance, s: np.ndarray, y: np.ndarray, metric: np.ndarray, nodal: bool
) -> np.ndarray:
    """Each row's first trial step from the change ``s`` of its field and
    ``y`` of its residual over its last iteration.

    The Barzilai-Borwein step ``<s, s/P>_mu / <s, y>_mu`` of the direction
    ``-P r``, where ``metric`` holds each row's ``1/P``, clipped to
    ``[_STEP_MIN, _STEP_MAX_NODAL]`` for nodal rows and to ``[_STEP_MIN,
    _STEP_MAX_GROUND]`` for ground rows.  Where ``<s, y>_mu < 0`` a ground
    row takes the quotient's size ``|<s, s/P>_mu / <s, y>_mu|``, clipped
    the same way, so that it leaves a saddle at a step of the scale its
    own curvature sets; a nodal row, whose long steps fail the pair
    projection, takes ``_STEP_INIT``.  ``_STEP_INIT`` also where ``<s,
    y>_mu = 0`` (a row's first iteration) or the quotient is not finite.
    """
    hi = _STEP_MAX_NODAL if nodal else _STEP_MAX_GROUND
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sy = _dot(inst.mu, s * y)
        bb = _dot(inst.mu, metric * s * s) / sy
        taken = ((sy > 0.0) if nodal else (sy != 0.0)) & np.isfinite(bb)
        return np.where(taken, np.minimum(np.maximum(np.abs(bb), _STEP_MIN), hi), _STEP_INIT)


def _descend(inst: ProblemInstance, u: np.ndarray, opts: SolveOptions, nodal: bool):
    """Projected descent from a stack of projected fields.

    Each row counts its own iterations and follows the same steps as it
    would alone, whatever else is in the stack.  A row's field is always
    a projection's output, so its level is ``|u|_2^2 / 2``, and each
    iteration records that level; a line-search trial is accepted when
    the level the projection returns for it in closed form is at most
    the largest of the row's last ``_HISTORY`` levels plus ``_ARMIJO *
    alpha * slope``, so it costs one projection and no energy
    evaluation.  Energies are evaluated only to judge a polish.

    A row's direction is ``-P r`` with ``P = 1/max(D(u), lam a + 1)``
    and ``D`` the residual Jacobian's diagonal (``_jacobian_diagonal``),
    so its step is never longer than under ``1/(lam a + 1)`` and shorter
    only where ``D`` is larger.  Each row has its own step: its
    Barzilai-Borwein step in the metric of ``P`` (see ``_step_starts``),
    which is ``_STEP_INIT`` on the row's first iteration, where its field
    has not changed yet; a ground row whose last iteration met negative
    curvature takes the size of its BB quotient.  The first
    line-search round projects every live row and each later round the
    rows still searching; a rejected row halves its own step, and a row
    whose step falls to 1e-16 stops searching.

    A row at tolerance retires at once, converged.  Any other row is due
    a Newton polish on its every 25th iteration, when the sup residual is
    at most 1e-2 of the field's scale, and on the iteration after the
    line search cannot move it; such a row is marked stalled.  A row due
    a polish parks: it leaves the live stack with its residual.  Once no
    row is left descending, every parked row is polished in one
    ``_newton_roots`` call, and a polish is taken only if it keeps the
    sign pattern and does not raise the energy.  A parked row then
    retires, converged, when its polish was taken, and unconverged when
    it stalled; the others rejoin the stack and finish the iteration they
    parked in.  At the cap a row that did not stall retires at once,
    judged as it stands.  After a polish fails, the small-residual trigger
    waits until the residual has halved since that failure: a row
    drifting along a flat part of the Nehari set would otherwise rerun the
    same failing polish on every iteration.  Both the stopping test and
    the polish tolerance scale with ``max(1, max|u|)`` of the field they
    judge: descent stops at ``tol_residual`` times that and the polish
    aims at a tenth of it, so a field far above 1 is held to the digits a
    double carries, not to an absolute bound.

    Returns (fields, converged): the final field of each row and whether
    it reached tolerance.
    """
    mu = inst.mu
    tol = opts.tol_residual
    _, base = _jacobian_base(inst)
    floor = inst.lam_a + 1.0
    n = len(u)
    fields = u.copy()
    converged = np.zeros(n, dtype=bool)
    # The live rows: their index in ``fields``, iteration count, field,
    # sup residual at their last failed polish, whether the line search
    # could not move them, last levels, and field and residual one
    # iteration back (for the step).
    live = (
        np.arange(n), np.zeros(n, dtype=int), u.copy(), np.full(n, math.inf),
        np.zeros(n, dtype=bool), np.full((n, _HISTORY), -math.inf), u.copy(), np.zeros_like(u),
    )
    # The parked rows, in chunks: their live state plus residual, metric
    # and sup residual.
    parked = []
    while True:
        idx, its, u, failed_at, stalled, history, u_prev, r_prev = live
        if idx.size:
            # One log of |u| gives both the residual and 1/P: where |u| is
            # small the log term makes D large, and P shortens the step there.
            au = np.abs(u)
            log_abs = _floored_log(au)
            r = _residual(inst, u, log_abs)
            metric = np.maximum(_jacobian_diagonal(base, log_abs), floor)
            rinf = np.abs(r).max(axis=1)
            scale = np.maximum(1.0, au.max(axis=1))
            done = rinf <= tol * scale
            # A row at tolerance retires at once; at the iteration cap each
            # row is judged as it stands, once a row that stalled has had
            # its polish.
            cap = its == _MAX_OUTER_ITERS
            small = (rinf <= 1e-2 * scale) & (rinf <= 0.5 * failed_at)
            due = ~done & (stalled | ~cap & (small | (its % 25 == 24)))
            out = done | cap & ~due
            keep = ~(due | out)
            if not keep.all():
                if due.any():
                    parked.append([a[due] for a in (*live, r, metric, rinf)])
                fields[idx[out]], converged[idx[out]] = u[out], done[out]
                idx, its, u, failed_at, stalled, history, u_prev, r_prev, r, metric = (
                    a[keep] for a in (*live, r, metric)
                )
        if not idx.size:
            if not parked:
                break
            # The stack has drained: polish every parked row as one stack.
            idx, its, u, failed_at, stalled, history, u_prev, r_prev, r, metric, rinf = (
                np.concatenate(chunk) for chunk in zip(*parked)
            )
            parked = []
            cand, ok = _newton_roots(inst, u, 0.1 * tol)
            ok &= _sign_ok(cand, nodal)
            # Only rows that passed so far are evaluated.  Written so that
            # a NaN energy (|u| beyond 1e154) rejects the polish.
            j_cur, j_cand = _energies(inst, u[ok]), _energies(inst, cand[ok])
            ok[ok] = j_cand <= j_cur + 1e-9 * np.maximum(1.0, np.abs(j_cur))
            u[ok], failed_at[~ok] = cand[ok], rinf[~ok]
            # The other rows rejoin the stack and finish their iteration;
            # a row parks at the cap only when it stalled.
            out = ok | stalled
            fields[idx[out]], converged[idx[out]] = u[out], ok[out]
            idx, its, u, failed_at, history, u_prev, r_prev, r, metric = (
                a[~out] for a in (idx, its, u, failed_at, history, u_prev, r_prev, r, metric)
            )
            if not idx.size:
                break

        # The rest of each live row's iteration: every live row moved in
        # its last iteration, since the rows that did not were stalled and
        # have retired.
        d = -r * (1.0 / metric)
        slope = _dot(mu, r * d)
        alpha = _step_starts(inst, u - u_prev, r - r_prev, metric, nodal)
        # u is a projection's output, so this is its level.
        history[np.arange(len(idx)), its % _HISTORY] = 0.5 * _dot(mu, u * u)
        ref = history.max(axis=1)
        u_prev, r_prev = u.copy(), r
        # The first line-search round takes every live row, each later
        # round the rows still searching.
        w, w_level, ok = nehari._project(inst, u + alpha[:, None] * d, nodal)
        ok &= w_level <= ref + _ARMIJO * alpha * slope
        stalled = ~ok
        if ok.all():
            u = w
        else:
            u[ok] = w[ok]
        search = np.flatnonzero(stalled)
        while search.size:
            alpha[search] *= _SHRINK
            search = search[alpha[search] > 1e-16]
            if not search.size:
                break
            w, w_level, ok = nehari._project(
                inst, u[search] + alpha[search, None] * d[search], nodal
            )
            ok &= w_level <= ref[search] + _ARMIJO * alpha[search] * slope[search]
            u[search[ok]] = w[ok]
            stalled[search[ok]] = False
            search = search[~ok]
        live = (idx, its + 1, u, failed_at, stalled, history, u_prev, r_prev)
    return fields, converged


# -- initialization: seeds are free values ---------------------------------


def _max_coupling_signs(inst: ProblemInstance) -> np.ndarray:
    """Sign pattern cutting many edges: top eigenvector of the free block of S."""
    _, vecs = np.linalg.eigh(inst.stiffness)
    # Both signs: on a connected block of 2+ vertices it is orthogonal to the positive lowest one.
    signs = np.sign(vecs[:, -1])
    signs[signs == 0] = 1.0
    return signs


def _seed_taper(inst: ProblemInstance) -> np.ndarray:
    # True solutions decay like 1/sqrt(lam*a + 1) into the penalized region;
    # seeding with that profile keeps the Nehari scaling factors near 1.
    return 1.0 / np.sqrt(inst.lam_a + 1.0)


def _spike_order(inst: ProblemInstance) -> np.ndarray:
    """Free vertices sorted by the level of their ray-projected indicator.

    The scaled indicator at x lands on the Nehari manifold at level
    (mu/2) exp((deg + lam a mu)/mu); low scores mark vertices where a
    localized state is cheap, which delocalized seeds tend to miss.
    The diagonal of the free block of S is ``deg``.
    """
    mu = inst.mu
    score = (np.diag(inst.stiffness) + inst.lam_a * mu) / mu + np.log(mu)
    # Spikes at heavily penalized vertices are never competitive and their
    # ray projection overflows; drop them.
    keep = np.flatnonzero(score <= 100.0)
    return keep[np.argsort(score[keep], kind="stable")]


def _deterministic_seeds(inst: ProblemInstance, taper: np.ndarray, nodal: bool) -> list[np.ndarray]:
    m = len(taper)
    spikes = _spike_order(inst)
    if not nodal:
        seeds = [taper]
        for idx in spikes[:4]:
            spike = np.zeros(m)
            spike[idx] = 1.0
            seeds.append(spike)
        return seeds
    half = np.full(m, 1.5)
    half[m // 2 :] = -1.5
    seeds = [half * taper, 1.5 * taper * _max_coupling_signs(inst)]
    if len(spikes) >= 2:
        dipole = np.zeros(m)
        dipole[spikes[0]] = 1.0
        dipole[spikes[1]] = -1.0
        seeds.append(dipole)
    return seeds


@functools.lru_cache(maxsize=4096)
def _random_field(seed: int, i: int, n: int, nodal: bool, k: int) -> np.ndarray:
    """The ``k``-th random seed field of start ``i``'s stream
    ``default_rng([seed, i])`` on ``n`` free vertices, before its taper;
    read-only.

    Each field draws its magnitudes from ``U(0.5, 2.5)`` and, when
    ``nodal``, its signs, flipping the first when all agree.  The memo
    spares a solve the stream's creation; a field past the first replays
    the stream from its start.
    """
    rng = np.random.default_rng([seed, i])
    for _ in range(k + 1):
        field = rng.uniform(0.5, 2.5, size=n)
        if nodal:
            # The draws of rng.choice([-1.0, 1.0]), without its overhead.
            signs = _SIGNS[rng.integers(0, 2, size=n)]
            if np.all(signs > 0) or np.all(signs < 0):
                signs[0] = -signs[0]
            field = field * signs
    field.setflags(write=False)
    return field


def _normalize_sign(u: np.ndarray) -> np.ndarray:
    nz = np.nonzero(u)[0]
    if len(nz) and u[nz[0]] < 0:
        return -u
    return u


def _sign_pattern(inst: ProblemInstance, u: np.ndarray) -> dict:
    ids = inst.graph.vertex_ids
    return {
        "positive": [ids[i] for i in np.nonzero(u > 0)[0]],
        "negative": [ids[i] for i in np.nonzero(u < 0)[0]],
        "zero": [ids[i] for i in np.nonzero(u == 0)[0]],
    }


def _seed_stack(inst: ProblemInstance, opts: SolveOptions, nodal: bool):
    """Projected seeds of all starts: (fields, ok).

    Each start has at most 4 attempts.  Start ``i`` first takes
    deterministic seed ``i`` while there is one, and after that the next
    random field of its own stream ``default_rng([seed, i])``, read from
    the memo ``_random_field`` and scaled by the taper.  A start tries
    again only when its projection fails; ``ok`` marks the starts that
    got a projected seed.
    """
    taper = _seed_taper(inst)
    seeds = _deterministic_seeds(inst, taper, nodal)

    def attempt_seed(i, attempt):
        # Start i's k-th random field, or its deterministic seed at k = -1.
        k = attempt - (i < len(seeds))
        return seeds[i] if k < 0 else _random_field(opts.seed, i, len(taper), nodal, k) * taper

    u, ok = np.zeros((opts.starts, len(taper))), np.zeros(opts.starts, dtype=bool)
    todo = np.arange(opts.starts)
    for attempt in range(4):
        if not todo.size:
            break
        w0 = np.array([attempt_seed(i, attempt) for i in todo.tolist()])
        w, _, got = nehari._project(inst, w0, nodal)
        u[todo[got]], ok[todo[got]] = w[got], True
        todo = todo[~got]
    return u, ok


def _solve(inst: ProblemInstance, opts: SolveOptions, nodal: bool) -> SolveReport:
    u, seeded = _seed_stack(inst, opts, nodal)
    fields, converged = _descend(inst, u[seeded], opts, nodal)
    # In start order, so that ties and the histogram do not depend on the stacking.
    fields = fields[converged]
    results = list(zip(_energies(inst, fields).tolist(), map(_normalize_sign, fields)))
    if not results:
        mode = "nodal" if nodal else "ground"
        raise NonConvergence(f"no {mode} start reached tolerance (starts={opts.starts})")

    best_level = min(level for level, _ in results)
    ties = [r for r in results if r[0] <= best_level + 1e-12 * max(1.0, abs(best_level))]
    _, u_best = min(ties, key=lambda r: tuple(r[1]))
    u_best = _final_newton(inst, u_best)
    # Read off the reported minimizer; k is even under u -> -u.
    degenerate = nodal and _coupling_k(inst, u_best) >= 0.0

    check = _verification(inst, u_best)
    u_best = inst.extend(u_best)
    return SolveReport(
        minimizer=u_best,
        level=check.level,
        residual_inf=check.residual_inf,
        membership_residuals=check.membership_residuals,
        starts_converged=len(results),
        level_histogram=tuple(level for level, _ in results),
        sign_pattern=_sign_pattern(inst, u_best),
        degenerate_coupling=degenerate,
    )


def solve_ground(inst: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Least level on the Nehari manifold, best over random starts."""
    return _solve(inst, opts or SolveOptions(), nodal=False)


def solve_nodal(inst: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Least level on the sign-changing Nehari set, best over random starts."""
    if len(inst.free_index) < 2:
        raise InfeasibleWell("sign-changing solutions need at least two free vertices")
    return _solve(inst, opts or SolveOptions(), nodal=True)


def verify(
    inst: ProblemInstance, u: np.ndarray, companion_ground: float | None = None
) -> VerificationReport:
    """Solution and membership diagnostics for an arbitrary field.

    With a companion ground level the report also carries the margin of
    the nodal level over twice the ground level.
    """
    return _verification(inst, inst.free_values(u), companion_ground)


def _verification(
    inst: ProblemInstance, u: np.ndarray, companion_ground: float | None = None
) -> VerificationReport:
    """``verify`` on the free values ``u`` of a field, trusted as given."""
    mu = inst.mu
    r = _residual(inst, u)
    up, um = positive_part(u), negative_part(u)
    level = _energy(inst, u)
    return VerificationReport(
        residual_inf=float(np.max(np.abs(r))),
        membership_residuals=(float(mu @ (r * up)), float(mu @ (r * um))),
        nehari_gap=level - 0.5 * float(mu @ (u * u)),
        level=level,
        companion_ground=companion_ground,
    )


# -- brute-force oracle -----------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    points: tuple[np.ndarray, ...]
    levels: tuple[float, ...]
    min_nehari_level: float | None
    min_nodal_level: float | None


def _sign_change_cells(res_grid: np.ndarray) -> np.ndarray:
    """Index (K, d) of the cells of a (grid + 1,)^d lattice of d-component
    residuals where, in every component, the least of the cell's 2^d corner
    values is <= 0 and the greatest >= 0."""
    d, grid = res_grid.ndim - 1, res_grid.shape[0] - 1
    corners = [
        res_grid[tuple(slice(o, o + grid) for o in offs)]
        for offs in itertools.product((0, 1), repeat=d)
    ]
    lo, hi = np.min(corners, axis=0), np.max(corners, axis=0)
    return np.argwhere(np.all((lo <= 0.0) & (hi >= 0.0), axis=-1))


def oracle_enumerate(inst: ProblemInstance) -> OracleResult:
    """Brute-force enumeration of pointwise solutions on tiny instances.

    The residual system over the free vertices is evaluated on a dense
    lattice in one array pass, and every cell whose corners change sign in
    each component seeds a root polish, as do seeded random points for
    safety.  The polish is the damped Newton of the descent solver; the
    grid scan keeps the oracle independent of descent.  The catalog holds
    the trivial root and is closed under ``u -> -u``, a symmetry of the
    residual.  Distinct roots are deduplicated and classified: any
    nontrivial root lies on the Nehari manifold; sign-changing roots lie on
    the sign-changing set.
    """
    d = len(inst.mu)
    if d > _ORACLE_DOF_LIMIT:
        raise DofLimitExceeded(
            f"{d} free vertices exceed the oracle budget {_ORACLE_DOF_LIMIT}"
        )
    g = inst.graph
    deg_scale = float(np.max(g.deg / g.mu))
    bound = 2.0 * math.e * max(1.0, deg_scale)
    pts = np.linspace(-bound, bound, _ORACLE_GRID + 1)

    lattice = np.stack(np.meshgrid(*([pts] * d), indexing="ij"), axis=-1).reshape(-1, d)
    res = _residual(inst, lattice)
    cells = _sign_change_cells(res.reshape((_ORACLE_GRID + 1,) * d + (d,)))
    candidates = list(pts[cells] + 0.5 * (pts[1] - pts[0]))
    rng = np.random.default_rng(12345)
    candidates.extend(rng.uniform(-bound, bound, size=(200, d)))

    # Along the kernel of a singular Jacobian Newton converges only
    # linearly and the residual falls like the error squared.  So the
    # polish aims near rounding (about 1e-15 of the field's scale), and
    # copies of such a root that pass the 1e-9 test may still lie about
    # its square root apart: merge at that distance.
    polished, ok = _newton_roots(inst, np.array(candidates), 1e-14)
    settled = polished[ok]
    roots: list[np.ndarray] = [np.zeros(d)]
    for uf in settled[np.abs(_residual(inst, settled)).max(axis=1) <= 1e-9]:
        if not any(np.max(np.abs(uf - r)) <= 1e-4 * max(1.0, np.max(np.abs(r))) for r in roots):
            roots.extend((uf, -uf))

    # Snap near-zero entries so sign classification is exact.
    roots = [np.where(np.abs(uf) < 1e-12, 0.0, uf) for uf in roots]
    levels = [_energy(inst, uf) for uf in roots]
    nehari = [lvl for uf, lvl in zip(roots, levels) if _sign_ok(uf, nodal=False)]
    nodal = [lvl for uf, lvl in zip(roots, levels) if _sign_ok(uf, nodal=True)]
    return OracleResult(
        points=tuple(inst.extend(uf) for uf in roots),
        levels=tuple(levels),
        min_nehari_level=min(nehari) if nehari else None,
        min_nodal_level=min(nodal) if nodal else None,
    )
