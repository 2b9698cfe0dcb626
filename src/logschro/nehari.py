"""Projections onto the Nehari manifold and the sign-changing Nehari set.

The ray projection has a closed form for the logarithmic nonlinearity.
The pair projection finds the scaling factors (s, t) of the positive and
negative parts with g1 = g2 = 0.  For the logarithmic nonlinearity g1 = 0
gives t in closed form as a function of s, so the pair system is one
scalar root in log s, found by a safeguarded Newton iteration inside the
intermediate-value bracketing box.  That box is in closed form too, and
only a box beyond float range raises ``NoBracket``.

Each public function validates its field argument once; the projections
then run on the sign-part statistics (``_split_stats``), which call the
trusted kernels of :mod:`logschro.energy` on the already-checked array.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .energy import ProblemInstance, _coupling_k, _energy, _norm_h_sq, sq_log_sq
from .graphs import negative_part, positive_part

__all__ = [
    "DegenerateCoupling",
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
# Box ends 2^(+-e) whose squares are normal doubles, so log(s * s) is finite.
_MAX_BOX_EXP = min(sys.float_info.max_exp - 1, 1 - sys.float_info.min_exp) // 2
_PAIR_TOL = 1e-10  # pair residuals, relative to the projected field
_MEMBERSHIP_TOL = 1e-8  # fiber formula's sign-changing Nehari membership


class DegenerateCoupling(RuntimeError):
    """The positive and negative supports share no edge (coupling is zero)."""


class NoBracket(RuntimeError):
    """No sign-change box within float range."""


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
        return {
            "s": self.s,
            "t": self.t,
            "g1_residual": self.g1_residual,
            "g2_residual": self.g2_residual,
            "iterations": self.iterations,
            "bracket": list(self.bracket),
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class FiberValue:
    s: float
    t: float
    value: float


@dataclass(frozen=True)
class _SplitStats:
    """Norms of the sign parts entering the closed-form pair residuals."""

    a_pos: float  # energy-space norm^2 of u+
    l_pos: float  # integral of u+^2 log u+^2
    b_pos: float  # L2 norm^2 of u+
    a_neg: float
    l_neg: float
    b_neg: float
    k: float  # edge coupling, <= 0

    @property
    def scale(self) -> float:
        return max(self.a_pos, self.a_neg, 1.0)


def _split_stats(inst: ProblemInstance, u: np.ndarray) -> _SplitStats:
    """Statistics of a field the caller has already validated."""
    mu = inst.graph.mu
    up, um = positive_part(u), negative_part(u)
    return _SplitStats(
        a_pos=_norm_h_sq(inst, up),
        l_pos=float(mu @ sq_log_sq(up)),
        b_pos=float(mu @ (up * up)),
        a_neg=_norm_h_sq(inst, um),
        l_neg=float(mu @ sq_log_sq(um)),
        b_neg=float(mu @ (um * um)),
        k=_coupling_k(inst, u),
    )


def _ray_scale(a: float, b: float, l: float) -> float:
    """Ray root from |w|_H^2 = a, |w|_2^2 = b > 0, int w^2 log w^2 = l."""
    return math.exp(0.5 * (a - b - l) / b)


def project_ray(inst: ProblemInstance, w: np.ndarray) -> float:
    """Unique positive scaling placing ``s w`` on the Nehari manifold.

    Closed form: log s^2 = (|w|_H^2 - |w|_2^2 - int w^2 log w^2) / |w|_2^2.
    """
    w = inst.check_admissible(w)
    mu = inst.graph.mu
    b = float(mu @ (w * w))
    if b == 0.0:
        raise ValueError("cannot ray-project the zero field")
    return _ray_scale(_norm_h_sq(inst, w), b, float(mu @ sq_log_sq(w)))


def _g_pair(stats: _SplitStats, s: float, t: float) -> tuple[float, float]:
    ls2 = math.log(s * s)
    lt2 = math.log(t * t)
    g1 = (
        s * s * (stats.a_pos - stats.l_pos - stats.b_pos)
        - s * s * ls2 * stats.b_pos
        - 0.5 * s * t * stats.k
    )
    g2 = (
        t * t * (stats.a_neg - stats.l_neg - stats.b_neg)
        - t * t * lt2 * stats.b_neg
        - 0.5 * s * t * stats.k
    )
    return g1, g2


def pair_residuals(inst: ProblemInstance, u: np.ndarray, s: float, t: float) -> tuple[float, float]:
    """Closed-form values of (g1, g2) at the scaling pair (s, t).

    g1 equals the directional derivative of the energy at s*u+ + t*u-
    along s*u+; g2 the analogue for the negative part.
    """
    if s <= 0 or t <= 0:
        raise ValueError("s and t must be positive")
    stats = _split_stats(inst, inst.check_admissible(u))
    if stats.b_pos == 0.0 or stats.b_neg == 0.0:
        raise ValueError("pair residuals need both sign parts nontrivial")
    return _g_pair(stats, s, t)


def miranda_bracket(inst: ProblemInstance, u: np.ndarray) -> tuple[float, float]:
    """Box [r, R]^2 whose faces carry the sign pattern bracketing a root.

    Uses that g1 is increasing in t and g2 in s (the coupling is negative),
    so the face conditions reduce to the diagonal corner signs.  Both ends
    are powers of two with r <= 1 <= R, computed in closed form.
    """
    stats = _split_stats(inst, inst.check_admissible(u))
    if stats.b_pos == 0.0 or stats.b_neg == 0.0:
        raise ValueError("bracket needs both sign parts nontrivial")
    if stats.k >= 0.0:
        raise DegenerateCoupling("positive and negative supports are not edge-adjacent")
    return _bracket_from_stats(stats)


def _bracket_from_stats(stats: _SplitStats) -> tuple[float, float]:
    """Least r = 2^-i <= 1 <= R = 2^j with both g > 0 at (r, r), g < 0 at (R, R).

    On the diagonal each g = r^2 (a - l - b - k/2 - b log r^2) is positive
    exactly when log r^2 is below its level (a - l - b - k/2) / b.
    """
    levels = [
        (stats.a_pos - stats.l_pos - stats.b_pos - 0.5 * stats.k) / stats.b_pos,
        (stats.a_neg - stats.l_neg - stats.b_neg - 0.5 * stats.k) / stats.b_neg,
    ]
    if not all(math.isfinite(lv) for lv in levels):
        raise NoBracket("sign-change level of a pair residual is not finite")
    ln4 = 2.0 * math.log(2.0)
    i = max(0, math.floor(-min(levels) / ln4) + 1)
    j = max(0, math.floor(max(levels) / ln4) + 1)
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
    u = inst.check_admissible(u)
    stats = _split_stats(inst, u)
    if stats.b_pos == 0.0 or stats.b_neg == 0.0:
        raise ValueError("fiber energy needs both sign parts nontrivial")
    g1, g2 = _g_pair(stats, 1.0, 1.0)
    if max(abs(g1), abs(g2)) > _MEMBERSHIP_TOL * stats.scale:
        raise ValueError("field is not on the sign-changing Nehari set")

    def f(tau: float) -> float:
        if tau == 0.0:
            return -1.0
        return tau * tau - tau * tau * math.log(tau * tau) - 1.0

    value = (
        _energy(inst, u)
        + 0.5 * f(s) * stats.b_pos
        + 0.5 * f(t) * stats.b_neg
        + 0.25 * (s - t) ** 2 * stats.k
    )
    return FiberValue(s=s, t=t, value=value)


def _t_on_g1(stats: _SplitStats, s: float) -> tuple[float, float]:
    """The t solving g1(s, t) = 0, and dt/ds.

    t is positive, and increasing in s, exactly when s is past the ray
    root of u+.
    """
    c = stats.a_pos - stats.l_pos - stats.b_pos - stats.b_pos * math.log(s * s)
    return 2.0 * s * c / stats.k, 2.0 * (c - 2.0 * stats.b_pos) / stats.k


def _reduced(stats: _SplitStats, x: float) -> tuple[float, float | None]:
    """f(x) = g2(s, t(s)) / t(s) at s = e^x, and df/dx (None where t(s) <= 0).

    Where t(s) <= 0 the value is the t -> 0+ limit -s*k/2 > 0.
    """
    s = math.exp(x)
    t, dt = _t_on_g1(stats, s)
    if t <= 0.0:
        return -0.5 * s * stats.k, None
    c = stats.a_neg - stats.l_neg - stats.b_neg - stats.b_neg * math.log(t * t)
    return t * c - 0.5 * s * stats.k, s * ((c - 2.0 * stats.b_neg) * dt - 0.5 * stats.k)


def project_pair(
    inst: ProblemInstance, u: np.ndarray, initial: tuple[float, float] | None = None
) -> PairProjection:
    """Unique (s, t) with s*u+ + t*u- on the sign-changing Nehari set.

    g1 = 0 is linear in t, so t = t(s) in closed form and the pair system
    reduces to one scalar root of f(x) = g2(s, t(s)) / t(s) in x = log s.
    The bracketing box gives f(log r) > 0 > f(log R); a Newton step is
    taken when it stays inside the current bracket and at least halves the
    previous step, otherwise the bracket is bisected.  The solve stops once
    the bracket or the step is a few ulp of x wide, or f = 0, and the
    result is accepted when max|g| <= 1e-10 * max(s^2 |u+|_H^2,
    t^2 |u-|_H^2, 1), a test relative to the projected field and hence
    scale-invariant.  ``initial[0]`` is the starting s, clamped into the
    box; t follows from s.  Zero coupling makes the system decouple into
    two independent ray projections, held to the same test; the result is
    then flagged ``degenerate``.
    """
    u = inst.check_admissible(u)
    up, um = positive_part(u), negative_part(u)
    stats = _split_stats(inst, u)
    if stats.b_pos == 0.0 or stats.b_neg == 0.0:
        raise ValueError("pair projection needs both sign parts nontrivial")

    degenerate = stats.k >= 0.0
    iterations = 0
    if degenerate:
        s = _ray_scale(stats.a_pos, stats.b_pos, stats.l_pos)
        t = _ray_scale(stats.a_neg, stats.b_neg, stats.l_neg)
        bracket = (min(s, t), max(s, t))
    else:
        bracket = lo, hi = _bracket_from_stats(stats)
        x_lo, x_hi = math.log(lo), math.log(hi)
        s0 = 1.0 if initial is None else float(initial[0])
        x = math.log(min(max(s0, lo), hi))
        f, df = _reduced(stats, x)
        prev_step = x_hi - x_lo
        while f != 0.0 and iterations < _MAX_STEPS:
            iterations += 1
            if f > 0.0:
                x_lo = x
            else:
                x_hi = x
            xtol = 4.0 * _EPS * max(1.0, abs(x))
            if x_hi - x_lo <= xtol:
                break
            step = -f / df if df else None
            if step is not None and abs(step) <= xtol:
                x += step
                break
            if step is None or not x_lo < x + step < x_hi or abs(2.0 * step) > abs(prev_step):
                step = 0.5 * (x_lo + x_hi) - x
            prev_step = step
            x += step
            f, df = _reduced(stats, x)
        s = math.exp(x)
        t = _t_on_g1(stats, s)[0]

    g1, g2 = _g_pair(stats, s, t) if t > 0.0 else (math.inf, math.inf)
    bound = _PAIR_TOL * max(s * s * stats.a_pos, t * t * stats.a_neg, 1.0)
    # Written so that a NaN anywhere fails the test.
    if not (abs(g1) <= bound and abs(g2) <= bound):
        raise NonConvergence(
            f"pair projection stalled at (g1, g2) = ({g1:.3e}, {g2:.3e}) "
            f"after {iterations} steps"
        )
    return PairProjection(
        s=s,
        t=t,
        projected=s * up + t * um,
        g1_residual=g1,
        g2_residual=g2,
        iterations=iterations,
        bracket=bracket,
        degenerate=degenerate,
    )
