"""Ground-state and sign-changing level computation by projected descent.

Each start draws a random field, projects it onto the relevant Nehari
set, and alternates descent steps along the negative residual with
re-projection.  A damped Newton polish on the pointwise residual system
ends a start early once it succeeds; descent tries it when the residual
is small, every 25 iterations, when the line search cannot move, and at
tolerance.  The polish aims at a tenth of the descent stopping test,
relative to the field's sup norm, and gives up once a Newton step has
been halved five times without lowering the residual, leaving the start
to descent.  A brute-force oracle on instances with at most a few free
vertices provides independent reference levels: a vectorized grid scan
of the residual system, whose sign-change cells it polishes with the
same damped Newton.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    ProblemInstance,
    _energy,
    _residual,
    dir_deriv,
    energy,
    field_to_dict,
    residual,
    u_log_sq,
)
from .graphs import WeightedGraph, negative_part, positive_part
from .nehari import NoBracket, NonConvergence, project_pair, project_ray

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

_COLLAPSE_TOL = 1e-14
_SIGN_EPS = 1e-8
# Newton polish budget: steps per polish, and step halvings per step.
_POLISH_MAX_ITER = 60
_POLISH_HALVINGS = 5
# Descent budget per start and Armijo backtracking line search.
_MAX_OUTER_ITERS = 5000
_STEP_INIT = 0.5
_ARMIJO = 1e-4
_SHRINK = 0.5
# Oracle budget: free vertices, and lattice cells per axis.
_ORACLE_DOF_LIMIT = 3
_ORACLE_GRID = 32


class InfeasibleWell(ValueError):
    """Dirichlet well too small to carry a sign-changing solution."""


class DofLimitExceeded(ValueError):
    """Instance has more free vertices than the oracle budget."""


class _Collapse(Exception):
    pass


@dataclass(frozen=True)
class SolveOptions:
    starts: int = 64
    seed: int = 0
    tol_residual: float = 1e-10

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        # Written so that NaN fails it too.  An infinite tolerance would
        # pass every start at once.
        if not 0 < self.tol_residual < math.inf:
            raise ValueError("tol_residual must be positive and finite")


@dataclass(frozen=True)
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
        return {
            "minimizer": field_to_dict(inst.graph, self.minimizer),
            "level": self.level,
            "residual_inf": self.residual_inf,
            "membership_residuals": list(self.membership_residuals),
            "starts_converged": self.starts_converged,
            "level_histogram": list(self.level_histogram),
            "sign_pattern": self.sign_pattern,
            "degenerate_coupling": self.degenerate_coupling,
        }

    def to_json(self, inst: ProblemInstance) -> str:
        return json.dumps(self.to_dict(inst), sort_keys=True, indent=2) + "\n"


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
        return {
            "residual_inf": self.residual_inf,
            "membership_residuals": list(self.membership_residuals),
            "nehari_gap": self.nehari_gap,
            "level": self.level,
            "companion_ground": self.companion_ground,
            "m_margin": self.m_margin,
            "m_gt_2c": self.m_gt_2c,
        }


# -- residual Newton polish ----------------------------------------------


def _residual_free(inst: ProblemInstance, u_free: np.ndarray) -> np.ndarray:
    """Residual on the free set of the field equal to u_free there, 0 elsewhere."""
    if not np.all(np.isfinite(u_free)):
        # Keep root finders that wander off the chart moving back.
        return np.full(len(u_free), 1e300)
    return inst.free_stiffness @ u_free + inst.lam_a_free * u_free - u_log_sq(u_free)


def _residual_jacobian(inst: ProblemInstance, uf: np.ndarray) -> np.ndarray:
    """Jacobian of ``_residual_free`` at the free values ``uf``."""
    jac = inst.free_stiffness.copy()
    # d/du (u log u^2) = log u^2 + 2, with log u^2 taken as 2 log|u| so it
    # stays finite for |u| beyond 1e154; tiny |u| keep the floor log 1e-300.
    log_term = 2.0 * np.log(np.maximum(np.abs(uf), 1e-150))
    np.fill_diagonal(jac, np.diag(jac) + inst.lam_a_free - log_term - 2.0)
    return jac


def _scatter(inst: ProblemInstance, u_free: np.ndarray) -> np.ndarray:
    u = np.zeros(inst.graph.n)
    u[inst.free_index] = u_free
    return u


def _newton_root(inst: ProblemInstance, uf: np.ndarray, rtol: float):
    """Damped Newton on the free residual system; None when it fails to settle.

    It settles once the sup residual is at most ``rtol * max(1, max|uf|)``
    at the current iterate.  Each Newton step tries ``alpha = 1, 1/2, ...,
    2**-_POLISH_HALVINGS`` and takes the first trial that lowers the sup
    residual.  When none does, or after ``_POLISH_MAX_ITER`` steps, it
    gives up: a root that needs tinier steps than these is stalled on an
    ill-conditioned Jacobian, not converging.  At most
    ``_POLISH_MAX_ITER * (_POLISH_HALVINGS + 1) + 1`` residual evaluations.
    """
    r = _residual_free(inst, uf)
    rnorm = float(np.max(np.abs(r)))
    for it in range(_POLISH_MAX_ITER + 1):
        if rnorm <= rtol * max(1.0, float(np.max(np.abs(uf)))):
            return uf
        if it == _POLISH_MAX_ITER:
            return None
        try:
            step = np.linalg.solve(_residual_jacobian(inst, uf), -r)
        except np.linalg.LinAlgError:
            return None
        for k in range(_POLISH_HALVINGS + 1):
            cand = uf + 0.5**k * step
            cr = _residual_free(inst, cand)
            cnorm = float(np.max(np.abs(cr)))
            if cnorm < rnorm:
                uf, r, rnorm = cand, cr, cnorm
                break
        else:
            return None


def _newton_polish(inst: ProblemInstance, u: np.ndarray, rtol: float):
    """``_newton_root`` on the free values of ``u``, scattered to a full field."""
    uf = _newton_root(inst, u[inst.free_index], rtol)
    return None if uf is None else _scatter(inst, uf)


# -- per-start descent -----------------------------------------------------


def _h1_norm(g: WeightedGraph, u: np.ndarray) -> float:
    """sqrt(|u|_H1^2) of a finite field: gradient form plus L2 mass."""
    return math.sqrt(max(float(u @ (g.stiffness @ u) + g.mu @ (u * u)), 0.0))


def _project_nodal(inst: ProblemInstance, u: np.ndarray):
    if not np.all(np.isfinite(u)):
        raise _Collapse
    g = inst.graph
    if (
        _h1_norm(g, positive_part(u)) < _COLLAPSE_TOL
        or _h1_norm(g, negative_part(u)) < _COLLAPSE_TOL
    ):
        raise _Collapse
    try:
        proj = project_pair(inst, u)
    except (ValueError, NonConvergence, NoBracket, OverflowError):
        raise _Collapse from None
    if not np.all(np.isfinite(proj.projected)):
        raise _Collapse
    return proj.projected, proj.degenerate


def _project_ground(inst: ProblemInstance, u: np.ndarray):
    if not np.all(np.isfinite(u)) or float(np.max(np.abs(u))) < _COLLAPSE_TOL:
        raise _Collapse
    try:
        s = project_ray(inst, u)
    except OverflowError:
        # The scaling exceeds the float range (large lam * a).
        raise _Collapse from None
    if not math.isfinite(s) or s == 0.0:
        raise _Collapse
    return s * u, False


def _sign_ok(u: np.ndarray, free: np.ndarray, nodal: bool) -> bool:
    uf = u[free]
    if nodal:
        return float(uf.max()) > _SIGN_EPS and float(uf.min()) < -_SIGN_EPS
    return float(np.max(np.abs(uf))) > _SIGN_EPS


def _run_start(inst: ProblemInstance, u0: np.ndarray, opts: SolveOptions, nodal: bool):
    """Projected descent from one initial field.

    A Newton polish is tried at tolerance, when the line search cannot
    move, every 25th iteration, and when the sup residual is at most
    1e-2 of the field's scale.  After a polish fails, the small-residual
    trigger waits until the residual has halved since that failure: a
    start drifting along a flat part of the Nehari set would otherwise
    rerun the same failing polish on every iteration.  A polish counts
    only if it keeps the sign pattern and does not raise the energy.
    Both the stopping test and the polish tolerance scale with
    ``max(1, max|u|)`` of the field they judge: descent stops at
    ``tol_residual`` times that and the polish aims at a tenth of it, so a
    field far above 1 is held to the digits a double carries, not to an
    absolute bound.

    Returns (field, converged, degenerate) or raises _Collapse when a sign
    part dies and the start must be re-randomized.
    """
    project = _project_nodal if nodal else _project_ground
    precond = 1.0 / (inst.lam_a + 1.0)
    u, degen = project(inst, inst.project(u0))

    def polished(cur: np.ndarray):
        cand = _newton_polish(inst, cur, rtol=0.1 * opts.tol_residual)
        if cand is None or not _sign_ok(cand, inst.free, nodal):
            return None
        j_cur = _energy(inst, cur)
        # Written so that a NaN energy (|u| beyond 1e154) rejects the polish.
        if not _energy(inst, cand) <= j_cur + 1e-9 * max(1.0, abs(j_cur)):
            return None
        return cand

    failed_at = math.inf  # rinf at the last failed polish in the loop
    for it in range(_MAX_OUTER_ITERS):
        r = _residual(inst, u)
        rinf = float(np.max(np.abs(r)))
        scale = max(1.0, float(np.max(np.abs(u))))
        if rinf <= opts.tol_residual * scale:
            cand = polished(u)
            return (cand if cand is not None else u), True, degen
        if (rinf <= 1e-2 * scale and rinf <= 0.5 * failed_at) or it % 25 == 24:
            cand = polished(u)
            if cand is not None:
                return cand, True, degen
            failed_at = rinf
        d = -r * precond
        slope = float(inst.graph.mu @ (r * d))
        j0 = _energy(inst, u)
        alpha, moved = _STEP_INIT, False
        while alpha > 1e-16:
            try:
                cand, cand_degen = project(inst, u + alpha * d)
            except _Collapse:
                alpha *= _SHRINK
                continue
            if _energy(inst, cand) <= j0 + _ARMIJO * alpha * slope:
                u, degen, moved = cand, cand_degen, True
                break
            alpha *= _SHRINK
        if not moved:
            cand = polished(u)
            if cand is not None:
                return cand, True, degen
            return u, False, degen
    r = _residual(inst, u)
    ok = float(np.max(np.abs(r))) <= opts.tol_residual * max(1.0, float(np.max(np.abs(u))))
    return u, ok, degen


# -- initialization ---------------------------------------------------------


def _max_coupling_signs(inst: ProblemInstance) -> np.ndarray:
    """Sign pattern cutting many edges: top eigenvector of the free Laplacian."""
    g = inst.graph
    free = np.nonzero(inst.free)[0]
    lap = np.diag(g.deg[free]) - g.weights[np.ix_(free, free)]
    _, vecs = np.linalg.eigh(lap)
    signs = np.sign(vecs[:, -1])
    signs[signs == 0] = 1.0
    if np.all(signs > 0) or np.all(signs < 0):
        signs = np.where(np.arange(len(free)) % 2 == 0, 1.0, -1.0)
    out = np.zeros(g.n)
    out[free] = signs
    return out


def _seed_taper(inst: ProblemInstance) -> np.ndarray:
    # True solutions decay like 1/sqrt(lam*a + 1) into the penalized region;
    # seeding with that profile keeps the Nehari scaling factors near 1.
    return 1.0 / np.sqrt(inst.lam_a + 1.0)


def _spike_order(inst: ProblemInstance) -> np.ndarray:
    """Free vertices sorted by the level of their ray-projected indicator.

    The scaled indicator at x lands on the Nehari manifold at level
    (mu/2) exp((deg + lam a mu)/mu); low scores mark vertices where a
    localized state is cheap, which delocalized seeds tend to miss.
    """
    g = inst.graph
    free = np.nonzero(inst.free)[0]
    score = (g.deg[free] + inst.lam_a[free] * g.mu[free]) / g.mu[free] + np.log(g.mu[free])
    # Spikes at heavily penalized vertices are never competitive and their
    # ray projection overflows; drop them.
    keep = score <= 100.0
    return free[keep][np.argsort(score[keep], kind="stable")]


def _deterministic_seeds(inst: ProblemInstance, nodal: bool) -> list[np.ndarray]:
    n = inst.graph.n
    free = np.nonzero(inst.free)[0]
    taper = _seed_taper(inst)
    spikes = _spike_order(inst)
    if not nodal:
        u = np.zeros(n)
        u[free] = 1.0
        seeds = [u * taper]
        for idx in spikes[:4]:
            spike = np.zeros(n)
            spike[idx] = 1.0
            seeds.append(spike)
        return seeds
    half = np.zeros(n)
    half[free[: len(free) // 2]] = 1.5
    half[free[len(free) // 2 :]] = -1.5
    seeds = [half * taper, 1.5 * taper * _max_coupling_signs(inst)]
    if len(spikes) >= 2:
        dipole = np.zeros(n)
        dipole[spikes[0]] = 1.0
        dipole[spikes[1]] = -1.0
        seeds.append(dipole)
    return seeds


def _random_seed_field(inst: ProblemInstance, rng: np.random.Generator, nodal: bool) -> np.ndarray:
    free = np.nonzero(inst.free)[0]
    mags = rng.uniform(0.5, 2.5, size=len(free))
    if nodal:
        signs = rng.choice([-1.0, 1.0], size=len(free))
        if np.all(signs > 0) or np.all(signs < 0):
            signs[0] = -signs[0]
        mags = mags * signs
    u = np.zeros(inst.graph.n)
    u[free] = mags
    return u * _seed_taper(inst)


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


def _solve(inst: ProblemInstance, opts: SolveOptions, nodal: bool) -> SolveReport:
    results = []  # (level, normalized field, degenerate)
    seeds = _deterministic_seeds(inst, nodal)
    for i in range(opts.starts):
        rng = np.random.default_rng([opts.seed, i])
        u0 = seeds[i] if i < len(seeds) else _random_seed_field(inst, rng, nodal)
        for _attempt in range(4):
            try:
                u, ok, degen = _run_start(inst, u0, opts, nodal)
            except _Collapse:
                u0 = _random_seed_field(inst, rng, nodal)
                continue
            if ok:
                results.append((_energy(inst, u), _normalize_sign(u), degen))
            break
    if not results:
        mode = "nodal" if nodal else "ground"
        raise NonConvergence(f"no {mode} start reached tolerance (starts={opts.starts})")

    best_level = min(level for level, _, _ in results)
    ties = [r for r in results if r[0] <= best_level + 1e-12 * max(1.0, abs(best_level))]
    _, u_best, degen = min(ties, key=lambda r: tuple(r[1]))

    r = residual(inst, u_best)
    up, um = positive_part(u_best), negative_part(u_best)
    return SolveReport(
        minimizer=u_best,
        level=energy(inst, u_best),
        residual_inf=float(np.max(np.abs(r))),
        membership_residuals=(dir_deriv(inst, u_best, up), dir_deriv(inst, u_best, um)),
        starts_converged=len(results),
        level_histogram=tuple(level for level, _, _ in results),
        sign_pattern=_sign_pattern(inst, u_best),
        degenerate_coupling=degen,
    )


def solve_ground(inst: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Least level on the Nehari manifold, best over random starts."""
    return _solve(inst, opts or SolveOptions(), nodal=False)


def solve_nodal(inst: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Least level on the sign-changing Nehari set, best over random starts."""
    if inst.mode == "dirichlet" and len(inst.omega.interior) < 2:
        raise InfeasibleWell("sign-changing solutions need at least two interior vertices")
    return _solve(inst, opts or SolveOptions(), nodal=True)


def verify(
    inst: ProblemInstance, u: np.ndarray, companion_ground: float | None = None
) -> VerificationReport:
    """Solution and membership diagnostics for an arbitrary field.

    With a companion ground level the report also carries the margin of
    the nodal level over twice the ground level.
    """
    u = inst.check_admissible(u)
    mu = inst.graph.mu
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

    def nontrivial(self):
        return [
            (u, lvl)
            for u, lvl in zip(self.points, self.levels)
            if float(np.max(np.abs(u))) > _SIGN_EPS
        ]


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
    free = inst.free_index
    d = len(free)
    if d > _ORACLE_DOF_LIMIT:
        raise DofLimitExceeded(
            f"{d} free vertices exceed the oracle budget {_ORACLE_DOF_LIMIT}"
        )
    g = inst.graph
    deg_scale = float(np.max(g.deg / g.mu))
    bound = 2.0 * math.e * max(1.0, deg_scale)
    pts = np.linspace(-bound, bound, _ORACLE_GRID + 1)

    lattice = np.stack(np.meshgrid(*([pts] * d), indexing="ij"), axis=-1).reshape(-1, d)
    res = lattice @ inst.free_stiffness.T + inst.lam_a_free * lattice - u_log_sq(lattice)
    cells = _sign_change_cells(res.reshape((_ORACLE_GRID + 1,) * d + (d,)))
    candidates = list(pts[cells] + 0.5 * (pts[1] - pts[0]))
    rng = np.random.default_rng(12345)
    candidates.extend(rng.uniform(-bound, bound, size=(200, d)))

    # Along the kernel of a singular Jacobian Newton converges only
    # linearly and the residual falls like the error squared.  So the
    # polish aims near rounding (about 1e-15 of the field's scale), and
    # copies of such a root that pass the 1e-9 test may still lie about
    # its square root apart: merge at that distance.
    roots: list[np.ndarray] = [np.zeros(d)]
    for x0 in candidates:
        uf = _newton_root(inst, x0, rtol=1e-14)
        if uf is None or float(np.max(np.abs(_residual_free(inst, uf)))) > 1e-9:
            continue
        if not any(np.max(np.abs(uf - r)) <= 1e-4 * max(1.0, np.max(np.abs(r))) for r in roots):
            roots.extend((uf, -uf))

    points, levels = [], []
    for uf in roots:
        u = _scatter(inst, uf)
        # Snap near-zero entries so sign classification is exact.
        u[np.abs(u) < 1e-12] = 0.0
        points.append(u)
        levels.append(energy(inst, u))

    nehari = [lvl for u, lvl in zip(points, levels) if _sign_ok(u, free, nodal=False)]
    nodal = [lvl for u, lvl in zip(points, levels) if _sign_ok(u, free, nodal=True)]
    return OracleResult(
        points=tuple(points),
        levels=tuple(levels),
        min_nehari_level=min(nehari) if nehari else None,
        min_nodal_level=min(nodal) if nodal else None,
    )
