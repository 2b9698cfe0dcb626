"""Projection onto the sign-changing Nehari set, step by step.

Starting from an arbitrary sign-changing field, the pair projection
finds the unique scalings (s, t) that place s*u+ + t*u- on the
sign-changing set.  g1 = 0 gives log s^2 and g2 = 0 gives log t^2 in
closed form as functions of the ratio p = t/s, so the search is one
scalar root G(p) = 0.  A closed-form bracketing box whose corners carry
the sign pattern bounds the root; G is increasing and concave, so plain
Newton from a point where G < 0 climbs to it without overshooting.  The
fiber map (s, t) -> J(s*u+ + t*u-) is maximal exactly at (1, 1) on the
projected field.  Both projections fail typed, with ``NoBracket``, when
the scaling lies beyond float range.
"""

import numpy as np

from logschro import (
    NoBracket,
    ProblemInstance,
    WeightedGraph,
    coupling_k,
    energy,
    fiber_energy,
    miranda_bracket,
    pair_residuals,
    project_pair,
    project_ray,
)

k2 = WeightedGraph(["v1", "v2"], [1.0, 1.0], [0.0, 0.0], [("v1", "v2", 1.0)])
inst = ProblemInstance.full(k2, 1.0)
u = np.array([2.0, -1.0])

print("field u =", u, " coupling K(u) =", coupling_k(inst, u))
print("residuals at (1,1):", pair_residuals(inst, u, 1.0, 1.0))
print("bracketing box:", miranda_bracket(inst, u))

proj = project_pair(inst, u)
print(f"(s, t) = ({proj.s!r}, {proj.t!r})   [exact (e/2, e)]")
print("projected field:", proj.projected, " iterations:", proj.iterations)
print("g-residuals:", proj.g1_residual, proj.g2_residual)

w = proj.projected
jw = energy(inst, w)
print(f"\nfiber values around (1,1), J(w) = {jw!r}:")
for s in (0.5, 1.0, 2.0):
    row = [fiber_energy(inst, w, s, t).value for t in (0.5, 1.0, 2.0)]
    print(f"  s={s}: " + "  ".join(f"{v:+.6f}" for v in row))

print("\nray projection is the single-signed analogue:")
print("  s for (1, 1):", project_ray(inst, np.array([1.0, 1.0])), "(already on the manifold)")
print("  s for (0, 1):", project_ray(inst, np.array([0.0, 1.0])), "(exact sqrt(e))")

p3 = WeightedGraph(["v1", "v2", "v3"], [1.0] * 3, [1.0] * 3, [("v1", "v2", 1.0), ("v2", "v3", 1.0)])
try:
    project_ray(ProblemInstance.full(p3, 5000.0), p3.field({"v1": 1.0}))
except NoBracket as exc:
    print("  lam * a = 5000:", f"NoBracket({exc})")
