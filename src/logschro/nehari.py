"""Projections onto the Nehari manifold and the sign-changing Nehari set.

The ray projection has a closed form for the logarithmic nonlinearity.
The pair projection finds the scaling factors (s, t) of the positive and
negative parts with g1 = g2 = 0.  For the logarithmic nonlinearity g1 = 0
gives log s^2 and g2 = 0 gives log t^2 in closed form as functions of the
ratio p = t / s, so the pair system is one scalar root in p.  That root's
equation is increasing and concave, so a plain Newton iteration reaches
it monotonically.  The intermediate-value bracketing box is in closed
form too, and it bounds the root.  Both projections fail typed beyond
float range: a scaling whose square is not a normal double, or a
nonzero field or sign part whose square underflows, raises ``NoBracket``;
a field without the sign parts a projection scales raises ``ValueError``.

Each public function validates its field argument once and gathers its
values on the instance's free vertex set.  ``_project`` is the one
stacked projection: the solver hands it rows of any values and gets
arrays back, the projected rows, their levels and an ``ok`` mask.  The
O(n) work is one array pass over the stack that gives each row its norms,
the ray's (``_ray_norms``) or the sign parts' (``_split_stats``: one
``sq_log_sq`` pass and the two matvecs ``S u+`` and ``S u-``), through
the trusted kernels of :mod:`logschro.energy`, which give each row the
floats of that field alone.  The O(1) rest runs once per row on that
row's floats, read with ``.tolist()``: the ray's closed form in
``_ray_scaling`` and the pair's box, ratio root and acceptance test in
``_pair_row``, each raising its own typed error.  A row fails, with
``ok`` false, when it is not finite, when its row function raises, or
when its projected field exceeds 1e150, past which its square, energy
and residual would overflow.  The public ``project_ray`` and
``project_pair`` call the row functions directly, so their errors keep
the frame that raised them.

The level of a projected field needs no energy pass: on either Nehari set
``J(w) = |w|_2^2 / 2`` exactly, since ``J(w) - |w|_2^2 / 2 = J'(w).w / 2``
vanishes there.  ``_project`` gives a pair-projected row ``s u+ + t u-``
the level ``(s^2 |u+|_2^2 + t^2 |u-|_2^2) / 2`` and a ray-projected row
``s w`` the level ``|s w|_2^2 / 2``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .energy import ProblemInstance, _dot, _energy, _matvec, _norm_h_sq, sq_log_sq
from .graphs import _json_fields

__all__ = [
    "NoBracket",
    "NonConvergence",
    "PairProjection",
    "FiberValue",
    "project_ray",
    "pair_residuals",
    "miranda_bracket",
    "fiber_energy",
    "project_pair",
]

_EPS = 2.0**-52
_MAX_STEPS = 200
# Scalings within 2^(+-e), box ends and ray roots alike, have normal squares,
# so log(s * s) is finite.
_MAX_BOX_EXP = min(sys.float_info.max_exp - 1, 1 - sys.float_info.min_exp) // 2
_LN4 = 2.0 * math.log(2.0)
_PAIR_TOL = 1e-10  # pair residuals, relative to the projected field
_MEMBERSHIP_TOL = 1e-8  # fiber formula's sign-changing Nehari membership
# Projected fields beyond this sup norm fail: below it their squares,
# energy and residual stay finite.
_FIELD_MAX = 1e150


class NoBracket(RuntimeError):
    """The Nehari scaling lies beyond float range."""


class NonConvergence(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


@dataclass(frozen=True)
class PairProjection:
    """Scaling pair placing s*u+ + t*u- on the sign-changing Nehari set."""

    s: float
    t: float
    projected: np.ndarray
    g1_residual: float
    g2_residual: float
    iterations: int
    bracket: tuple[float, float]
    degenerate: bool = False

    def to_dict(self) -> dict:
        return _json_fields(self)


@dataclass(frozen=True)
class FiberValue:
    s: float
    t: float
    value: float


def _split_stats(inst: ProblemInstance, u: np.ndarray):
    """Norms of the sign parts of each row of a stack of free values that
    the caller has validated, and the parts.

    Returns (norms, u+, u-): row i of the (rows, 7) array ``norms`` holds
    (|u+|_H^2, int u+^2 log u+^2, |u+|_2^2, the same three for u-, k) of
    row i, where k <= 0 is the edge coupling.  One fused pass: a single
    ``sq_log_sq(u)`` split by sign and the two matvecs ``S u+`` and
    ``S u-`` give every entry.  ``k = -2 u+ . (S u-)`` because the supports
    are disjoint.  Each entry is the same float, from the same operations
    in the same order, as evaluating the kernels on ``u+`` and ``u-`` of
    that row alone.
    """
    mu, mass, stiff = inst.mu, inst.mass, inst.stiffness
    # The two parts as one stack, so that each kernel below is one call.
    parts = np.empty((2,) + u.shape)
    np.maximum(u, 0.0, out=parts[0])
    np.minimum(u, 0.0, out=parts[1])
    sq = parts * parts
    s_parts = _matvec(stiff, parts)
    norms = np.empty((len(u), 7))
    # Columns 0, 3: |u+-|_H^2; 1, 4: int u+-^2 log u+-^2; 2, 5: |u+-|_2^2.
    norms[:, 0:6:3] = (_dot(parts, s_parts) + _dot(mass, sq)).T
    # A part is nonzero exactly where u has its sign.
    norms[:, 1:6:3] = _dot(mu, np.where(parts != 0.0, sq_log_sq(u), 0.0)).T
    norms[:, 2:6:3] = _dot(mu, sq).T
    norms[:, 6] = -2.0 * _dot(parts[0], s_parts[1])
    return norms, parts[0], parts[1]


def _field_norms(inst: ProblemInstance, uf: np.ndarray) -> list[float]:
    """The ``_split_stats`` row of one field's free values as floats,
    taken without warnings; ``ValueError`` when a sign part is zero,
    ``NoBracket`` when a nonzero part's square underflows."""
    if not ((uf > 0.0).any() and (uf < 0.0).any()):
        raise ValueError("pair projection needs both sign parts nontrivial")
    with np.errstate(over="ignore", invalid="ignore"):
        row = _split_stats(inst, uf[None, :])[0][0].tolist()
    if row[2] == 0.0 or row[5] == 0.0:
        raise NoBracket("the square of a sign part underflows: its scaling is beyond float range")
    return row


def project_ray(inst: ProblemInstance, w: np.ndarray) -> float:
    """Unique positive scaling placing ``s w`` on the Nehari manifold.

    Closed form: log s^2 = (|w|_H^2 - |w|_2^2 - int w^2 log w^2) / |w|_2^2.
    Raises ``NoBracket`` when s lies beyond 2^(+-510), where s^2 is not a
    normal double, or when the square of a nonzero ``w`` underflows, and
    ``ValueError`` for the zero field.
    """
    w = inst.free_values(w)[None, :]
    if not w.any():
        raise ValueError("cannot ray-project the zero field")
    with np.errstate(over="ignore", invalid="ignore"):
        return _ray_scaling(*_ray_norms(inst, w)[0].tolist())


def _ray_norms(inst: ProblemInstance, w: np.ndarray) -> np.ndarray:
    """(|w|_2^2, |w|_H^2, int w^2 log w^2) of each row of a stack, as rows."""
    mu = inst.mu
    norms = np.empty((len(w), 3))
    norms[:, 0] = _dot(mu, w * w)
    norms[:, 1] = _norm_h_sq(inst, w)
    norms[:, 2] = _dot(mu, sq_log_sq(w))
    return norms


def _ray_scaling(b: float, h: float, lg: float) -> float:
    """The ray's closed form from one row's norms (see ``project_ray``)."""
    if b == 0.0:
        raise NoBracket("the square of the field underflows: its scaling is beyond float range")
    half_log = 0.5 * (h - b - lg) / b
    # The pair box's bound: s^2 must be a normal double.  Written so that a
    # NaN fails it too.
    if not abs(half_log) <= _MAX_BOX_EXP * math.log(2.0):
        raise NoBracket(f"Nehari scaling e^{half_log:.6g} is beyond float range")
    return math.exp(half_log)


def _g_pair(norms: list[float], s: float, t: float) -> tuple[float, float]:
    a_pos, l_pos, b_pos, a_neg, l_neg, b_neg, k = norms
    ls2 = math.log(s * s)
    lt2 = math.log(t * t)
    g1 = s * s * (a_pos - l_pos - b_pos) - s * s * ls2 * b_pos - 0.5 * s * t * k
    g2 = t * t * (a_neg - l_neg - b_neg) - t * t * lt2 * b_neg - 0.5 * s * t * k
    return g1, g2


def pair_residuals(inst: ProblemInstance, u: np.ndarray, s: float, t: float) -> tuple[float, float]:
    """Closed-form values of (g1, g2) at the scaling pair (s, t).

    g1 equals the directional derivative of the energy at s*u+ + t*u-
    along s*u+; g2 the analogue for the negative part.
    """
    if s <= 0 or t <= 0:
        raise ValueError("s and t must be positive")
    return _g_pair(_field_norms(inst, inst.free_values(u)), s, t)


def miranda_bracket(inst: ProblemInstance, u: np.ndarray) -> tuple[float, float]:
    """Box [r, R]^2 whose faces carry the sign pattern bracketing a root.

    Uses that g1 is nondecreasing in t and g2 in s (the coupling is
    nonpositive, and at zero coupling neither depends on the other
    variable), so the face conditions reduce to the diagonal corner
    signs.  Both ends are powers of two with r <= 1 <= R, computed in
    closed form.
    """
    return _bracket_from_stats(_field_norms(inst, inst.free_values(u)))


def _bracket_from_stats(norms: list[float]) -> tuple[float, float]:
    """Least r = 2^-i <= 1 <= R = 2^j with both g > 0 at (r, r), g < 0 at (R, R).

    On the diagonal each g = r^2 (a - l - b - k/2 - b log r^2) is positive
    exactly when log r^2 is below its level (a - l - b - k/2) / b.
    """
    a_pos, l_pos, b_pos, a_neg, l_neg, b_neg, k = norms
    lv_pos = (a_pos - l_pos - b_pos - 0.5 * k) / b_pos
    lv_neg = (a_neg - l_neg - b_neg - 0.5 * k) / b_neg
    if not (math.isfinite(lv_pos) and math.isfinite(lv_neg)):
        raise NoBracket("sign-change level of a pair residual is not finite")
    i = max(0, math.floor(-min(lv_pos, lv_neg) / _LN4) + 1)
    j = max(0, math.floor(max(lv_pos, lv_neg) / _LN4) + 1)
    if max(i, j) > _MAX_BOX_EXP:
        raise NoBracket(f"bracketing box [2^{-i}, 2^{j}] is beyond float range")
    return 2.0**-i, 2.0**j


def fiber_energy(inst: ProblemInstance, u: np.ndarray, s: float, t: float) -> FiberValue:
    """Energy of s*u+ + t*u- via the closed fiber formula.

    Requires ``u`` to sit on the sign-changing Nehari set (both pair
    residuals below tolerance).  The returned value matches direct energy
    evaluation of the recombined field and is maximal exactly at (1, 1).
    """
    if s < 0 or t < 0:
        raise ValueError("s and t must be nonnegative")
    u = inst.free_values(u)
    norms = _field_norms(inst, u)
    a_pos, _, b_pos, a_neg, _, b_neg, k = norms
    g1, g2 = _g_pair(norms, 1.0, 1.0)
    if max(abs(g1), abs(g2)) > _MEMBERSHIP_TOL * max(a_pos, a_neg, 1.0):
        raise ValueError("field is not on the sign-changing Nehari set")

    def f(tau: float) -> float:
        if tau == 0.0:
            return -1.0
        return tau * tau - tau * tau * math.log(tau * tau) - 1.0

    value = (
        _energy(inst, u)
        + 0.5 * f(s) * b_pos
        + 0.5 * f(t) * b_neg
        + 0.25 * (s - t) ** 2 * k
    )
    return FiberValue(s=s, t=t, value=value)


def project_pair(
    inst: ProblemInstance, u: np.ndarray, initial: tuple[float, float] | None = None
) -> PairProjection:
    """Unique (s, t) with s*u+ + t*u- on the sign-changing Nehari set.

    Dividing g1 by s^2 |u+|_2^2 and g2 by t^2 |u-|_2^2 gives log s^2 and
    log t^2 as functions of the ratio p = t / s, so the pair system is one
    scalar root G(p) = 0.  G is increasing and concave, and a Newton
    iteration from a point where G < 0 (in 1 / p where G > 0) climbs to the
    root; it stops once G is within its own rounding.  The bracketing box
    runs first, and a box beyond float range raises ``NoBracket``.  The
    result is accepted when max|g| <= 1e-10 * max(s^2 |u+|_H^2,
    t^2 |u-|_H^2, 1), a test relative to the projected field and hence
    scale-invariant.  It is judged on g1 / s^2 and g2 / t^2, so a root
    whose s^2 |u+|_H^2 overflows still passes; a residual reported there
    is s^2 times the scaled one.  ``initial = (s0, t0)``, both positive
    and finite, offers the ratio t0 / s0 as a start; Newton leaves from it
    when G is nearer 0 there than at the default starts.  Zero coupling
    leaves G = 2 log p - const, whose root gives the two
    independent ray projections; the result is then flagged ``degenerate``.
    """
    if initial is not None and not all(0.0 < x < math.inf for x in initial):
        raise ValueError(f"initial scalings must be positive and finite, got {initial!r}")
    uf = inst.free_values(u)
    row = _field_norms(inst, uf)
    s, t, g1, g2, iterations, bracket = _pair_row(row, initial)
    return PairProjection(
        s=s,
        t=t,
        projected=inst.extend(s * np.maximum(uf, 0.0) + t * np.minimum(uf, 0.0)),
        g1_residual=g1,
        g2_residual=g2,
        iterations=iterations,
        bracket=bracket,
        degenerate=row[6] >= 0.0,
    )


def _project(inst: ProblemInstance, u: np.ndarray, nodal: bool):
    """Project each row of a stack of free values onto the sign-changing
    Nehari set (``nodal``) or the Nehari manifold.

    Returns (projected rows, levels, ok).  A row fails, with ``ok`` false
    and a projected row and level that mean nothing, when it is not
    finite, when its row function raises ``ValueError``, ``NoBracket`` or
    ``NonConvergence``, or when its projected row exceeds ``_FIELD_MAX``.
    """
    # A row that is not finite projects as the zero row, which fails.
    finite = np.isfinite(u).all(axis=1)
    if not finite.all():
        u = np.where(finite[:, None], u, 0.0)
    if nodal:
        norms, up, um = _split_stats(inst, u)
    else:
        norms = _ray_norms(inst, u)
    # Filled as lists: a scalar store into an array costs more.
    s, t, ok = [0.0] * len(u), [0.0] * len(u), [False] * len(u)
    for i, row in enumerate(norms.tolist()):
        try:
            if nodal:
                s[i], t[i] = _pair_row(row)[:2]
            else:
                s[i] = _ray_scaling(*row)
        except (ValueError, NoBracket, NonConvergence):
            continue
        ok[i] = True
    s, t, ok = np.array(s), np.array(t), np.array(ok, dtype=bool)
    # A row projected beyond float range overflows to inf here, and a failed
    # row of infinite norm gets a NaN level.
    with np.errstate(over="ignore", invalid="ignore"):
        if nodal:
            w = s[:, None] * up + t[:, None] * um
            level = 0.5 * (s * s * norms[:, 2] + t * t * norms[:, 5])
        else:
            w = s[:, None] * u
            level = 0.5 * _dot(inst.mu, w * w)
    # Written so that a NaN fails it too.
    ok &= np.abs(w).max(axis=1) <= _FIELD_MAX
    return w, level, ok


def _pair_row(norms: list[float], initial: tuple[float, float] | None = None):
    """The pair projection of one row's norms (see ``project_pair``).

    Returns (s, t, g1, g2, iterations, bracket).  Raises ``ValueError``
    when a sign part is zero.
    """
    a_pos, l_pos, b_pos, a_neg, l_neg, b_neg, k = norms
    if b_pos == 0.0 or b_neg == 0.0:
        raise ValueError("pair projection needs both sign parts nontrivial")
    bracket = lo, hi = _bracket_from_stats(norms)

    # g1 / (s^2 b+) = 0 and g2 / (t^2 b-) = 0 in the ratio p = t / s:
    # log s^2 = c+ + k+ p and log t^2 = c- + k- / p, consistent exactly
    # where G(p) = k+ p - k- / p + 2 log p - (c- - c+) vanishes.
    h_pos, h_neg = a_pos - l_pos - b_pos, a_neg - l_neg - b_neg
    c_pos, c_neg = h_pos / b_pos, h_neg / b_neg
    k_pos, k_neg = -0.5 * k / b_pos, -0.5 * k / b_neg
    d = c_neg - c_pos
    # Starts: 1, the ratio of the two ray roots (the root at zero
    # coupling) and the caller's ratio, each clamped to the root's range
    # [lo / hi, hi / lo]; Newton leaves from the first with the least |G|.
    # From a far start where a k+- term dominates G, each step would only
    # double or halve p.
    span = math.log(hi / lo)
    starts = [1.0, math.exp(min(max(0.5 * d, -span), span))]
    if initial is not None:
        starts.append(min(max(initial[1] / initial[0], lo / hi), hi / lo))
    g = None
    for p in starts:
        gp = k_pos * p - k_neg / p + 2.0 * math.log(p) - d
        if g is None or abs(gp) < abs(g):
            g, x = gp, p
    # G is increasing and concave, so Newton from where G < 0 climbs to the
    # root without passing it.  Where G > 0, -G(1 / q) has the same form
    # in q = 1 / p with k+- swapped and d negated.
    flip = g > 0.0
    ka, kb, dd = (k_neg, k_pos, -d) if flip else (k_pos, k_neg, d)
    if flip:
        x = 1.0 / x
    # Newton on G(x) = ka x - kb / x + 2 log x - dd.  It stops once G is
    # within its rounding band, 4 ulp of ka x + kb / x + |2 log x| + |dd|
    # + 2, which exceeds 4 ulp of G'(x) x, so a step taken while G < -band
    # moves x by at least 4 ulp.
    iterations = 0
    while True:
        lin, inv, lg = ka * x, kb / x, 2.0 * math.log(x)
        g = lin - inv + lg - dd
        if not g < -4.0 * _EPS * (lin + inv + abs(lg) + abs(dd) + 2.0):
            break
        if iterations == _MAX_STEPS:
            raise NonConvergence(f"pair projection stalled at G = {g:.3e} after {iterations} steps")
        x -= g / (ka + (inv + 2.0) / x)
        iterations += 1
    p = 1.0 / x if flip else x
    s = math.exp(0.5 * (c_pos + k_pos * p))
    t = math.exp(0.5 * (c_neg + k_neg / p))

    # g1, g2 and the scaled residuals e1 = g1 / s^2, e2 = g2 / t^2, whose
    # forms drop the factors s^2 and t^2 whose products with a+- overflow
    # near the top of the box.
    g1, g2 = _g_pair(norms, s, t)
    ss, tt = s * s, t * t
    ls2, lt2 = math.log(ss), math.log(tt)
    r, q = t / s, s / t
    e1 = h_pos - ls2 * b_pos - 0.5 * r * k
    e2 = h_neg - lt2 * b_neg - 0.5 * q * k
    # The test |g| <= 1e-10 max(s^2 a+, t^2 a-, 1), divided through by
    # s^2 for g1 and by t^2 for g2, so that it holds at roots where
    # s^2 a+ or t^2 a- overflows.  The box bounds the root, so s^2 and t^2
    # are positive normal numbers.  Written so that a NaN anywhere fails
    # the test.
    ok = (
        abs(e1) <= _PAIR_TOL * max(a_pos, r * r * a_neg, 1.0 / ss)
        and abs(e2) <= _PAIR_TOL * max(q * q * a_pos, a_neg, 1.0 / tt)
    )
    g1 = g1 if math.isfinite(g1) else ss * e1
    g2 = g2 if math.isfinite(g2) else tt * e2
    if not ok:
        raise NonConvergence(
            f"pair projection stalled at (g1, g2) = ({g1:.3e}, {g2:.3e}) "
            f"after {iterations} steps"
        )
    return s, t, g1, g2, iterations, bracket
