"""Least-energy ground and sign-changing states of the logarithmic
Schrodinger equation -Lap u + lam a(x) u = u log u^2 on finite weighted
graphs, with Nehari-set projections and a large-coupling convergence lab.
"""

from .energy import (
    IdentityCheck,
    IdentityReport,
    NotAdmissible,
    ProblemInstance,
    coupling_k,
    dir_deriv,
    energy,
    field_to_dict,
    identity_suite,
    load_field,
    residual,
)
from .graphs import (
    GraphValidationError,
    NormBundle,
    SubDomain,
    ValidationReport,
    WeightedGraph,
    negative_part,
    positive_part,
)
from .lab import SWEEP_CSV_HEADER, SweepRow, SweepSummary, generate_graph, parse_well, sweep, sweep_csv
from .nehari import (
    FiberValue,
    NoBracket,
    NonConvergence,
    PairProjection,
    fiber_energy,
    miranda_bracket,
    pair_residuals,
    project_pair,
    project_ray,
)
from .solver import (
    DofLimitExceeded,
    InfeasibleWell,
    OracleResult,
    SolveOptions,
    SolveReport,
    VerificationReport,
    oracle_enumerate,
    solve_ground,
    solve_nodal,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
