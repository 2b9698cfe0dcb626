"""Brute-force enumeration of every pointwise solution on tiny instances.

With at most three free vertices, one array pass evaluates the residual
system on a dense grid, and the solver's damped Newton polishes a root
from every cell whose corners change sign.  Together with the trivial
root and the negation of every root found, this enumerates the entire
critical set of the equation.  All nontrivial roots lie on the Nehari
manifold; the least level over them is the ground level c, and the least
over sign-changing roots is the nodal level m.  This is the oracle that
pins the solver's reference numbers.

On the two-vertex graph the Jacobian at +-(1, 1) is singular, so Newton
approaches those roots only linearly along its kernel (1, -1) and the
printed copies sit about 1e-6 off; the catalog still lists each once.
"""

import numpy as np

from logschro import (
    ProblemInstance,
    SolveOptions,
    WeightedGraph,
    oracle_enumerate,
    solve_ground,
    solve_nodal,
)

k2 = WeightedGraph(["v1", "v2"], [1.0, 1.0], [0.0, 0.0], [("v1", "v2", 1.0)])
inst = ProblemInstance.full(k2, 1.0)

result = oracle_enumerate(inst)
print("critical points of the two-vertex system (deduplicated):")
for point, level in sorted(zip(result.points, result.levels), key=lambda p: p[1]):
    print(f"  u = {np.round(point, 9)}   J = {level!r}")

print()
print("minimum over the Nehari manifold:   ", result.min_nehari_level)
print("minimum over sign-changing members: ", result.min_nodal_level)

opts = SolveOptions(starts=16, seed=0)
print()
print("solver agreement:")
print("  solve_ground:", solve_ground(inst, opts).level)
print("  solve_nodal: ", solve_nodal(inst, opts).level)
