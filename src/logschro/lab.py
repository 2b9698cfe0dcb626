"""Fixture generators and the large-coupling convergence experiment.

The sweep solves the Dirichlet problem on the potential well once, then
tracks the full-problem nodal and ground levels over an increasing list
of coupling strengths, reporting localization metrics against the
Dirichlet limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .energy import ProblemInstance, energy
from .graphs import WeightedGraph
from .solver import InfeasibleWell, NonConvergence, SolveOptions, solve_ground, solve_nodal

__all__ = [
    "SWEEP_CSV_HEADER",
    "SweepRow",
    "SweepSummary",
    "generate_graph",
    "sweep",
    "sweep_csv",
]

SWEEP_CSV_HEADER = (
    "lambda,m_lambda,c_lambda,margin_m_minus_2c,gap_to_m_omega,"
    "potential_mass,h1_dist_to_limit,tail_mass"
)

# Final-row thresholds, as fractions of the Dirichlet reference quantities.
# Calibrated once on the 6-vertex path fixture and frozen.
GAP_FRACTION = 0.02
POTENTIAL_MASS_FRACTION = 0.05
TAIL_MASS_FRACTION = 0.01
H1_DIST_FRACTION = 0.1


@dataclass(frozen=True)
class SweepRow:
    lam: float
    m_lambda: float
    c_lambda: float
    margin_m_minus_2c: float
    gap_to_m_omega: float
    potential_mass: float
    h1_dist_to_limit: float
    tail_mass: float
    failed: bool = False

    def csv_line(self) -> str:
        if self.failed:
            return f"{self.lam!r},FAILED,,,,,,"
        return ",".join(
            repr(v)
            for v in (
                self.lam,
                self.m_lambda,
                self.c_lambda,
                self.margin_m_minus_2c,
                self.gap_to_m_omega,
                self.potential_mass,
                self.h1_dist_to_limit,
                self.tail_mass,
            )
        )


@dataclass(frozen=True)
class SweepSummary:
    m_omega: float
    c_omega: float
    u0: np.ndarray
    u0_l2_sq: float
    u0_h1_sq: float
    sup_h_lambda_norm: float
    final_thresholds_ok: bool | None
    trend_ok: bool | None

    @property
    def verdict(self) -> bool | None:
        if self.final_thresholds_ok is None or self.trend_ok is None:
            return None
        return self.final_thresholds_ok and self.trend_ok

    def to_dict(self) -> dict:
        return {
            "m_omega": self.m_omega,
            "c_omega": self.c_omega,
            "u0_l2_sq": self.u0_l2_sq,
            "u0_h1_sq": self.u0_h1_sq,
            "sup_h_lambda_norm": self.sup_h_lambda_norm,
            "final_thresholds_ok": self.final_thresholds_ok,
            "trend_ok": self.trend_ok,
            "verdict": self.verdict,
        }


# -- fixture generation -------------------------------------------------


def _topology(topology: str, n: int):
    if n < 2:
        raise ValueError("need at least two vertices")
    if topology == "path":
        ids = [f"v{i}" for i in range(1, n + 1)]
        edges = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    elif topology == "cycle":
        if n < 3:
            raise ValueError("cycle needs at least three vertices")
        ids = [f"v{i}" for i in range(1, n + 1)]
        edges = [(ids[i], ids[(i + 1) % n]) for i in range(n)]
    elif topology == "star":
        ids = ["c"] + [f"l{i}" for i in range(1, n)]
        edges = [("c", leaf) for leaf in ids[1:]]
    elif topology == "grid":
        ids = [f"v{r}-{c}" for r in range(1, n + 1) for c in range(1, n + 1)]
        edges = []
        for r in range(1, n + 1):
            for c in range(1, n + 1):
                if c < n:
                    edges.append((f"v{r}-{c}", f"v{r}-{c + 1}"))
                if r < n:
                    edges.append((f"v{r}-{c}", f"v{r + 1}-{c}"))
    else:
        raise ValueError(f"unknown topology {topology!r}")
    return ids, edges


def parse_well(spec: str, ids: list[str]) -> list[str]:
    """Well spec: a 1-based position range 'i..j' or a comma list of ids."""
    spec = spec.strip()
    if ".." in spec and "," not in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo_s = lo_s.lstrip("v")
        hi_s = hi_s.lstrip("v")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"bad well range {spec!r}") from None
        if not (1 <= lo <= hi <= len(ids)):
            raise ValueError(f"well range {spec!r} out of bounds")
        return ids[lo - 1 : hi]
    well = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not well:
        raise ValueError("empty well spec")
    unknown = [v for v in well if v not in ids]
    if unknown:
        raise ValueError(f"well references unknown vertices: {unknown}")
    return well


def generate_graph(
    topology: str,
    n: int,
    well: str,
    mu: float = 1.0,
    omega_w: float = 1.0,
    a_out: float = 1.0,
) -> dict:
    """Fixture graph with a zero-potential well and constant potential outside.

    Returns the graph JSON dict with the well-validation report embedded
    under the extra key ``"validation"`` (ignored by the loader).
    """
    if a_out <= 0:
        raise ValueError("a_out must be positive")
    if mu <= 0 or omega_w <= 0:
        raise ValueError("mu and edge weight must be positive")
    ids, edge_pairs = _topology(topology, n)
    well_ids = parse_well(well, ids)
    a = [0.0 if v in set(well_ids) else float(a_out) for v in ids]
    graph = WeightedGraph(ids, [mu] * len(ids), a, [(x, y, omega_w) for x, y in edge_pairs])
    report = graph.validate_potential()
    if not report.passes:
        raise ValueError("well is empty or disconnected for this topology")
    data = graph.to_dict()
    data["validation"] = report.to_dict()
    return data


# -- convergence sweep ----------------------------------------------------


def _h1_inner(g: WeightedGraph, u: np.ndarray, v: np.ndarray) -> float:
    return g.integrate(g.gamma(u, v)) + g.integrate(u * v)


def sweep(
    graph: WeightedGraph,
    lambdas: list[float],
    opts: SolveOptions | None = None,
) -> tuple[list[SweepRow], SweepSummary]:
    """Track full-problem levels and localization over increasing coupling.

    Solves the Dirichlet limit once, then for each coupling strength runs
    the nodal and ground solves on the full problem, flips the nodal
    minimizer to align with the limit before measuring distance, and
    records the gap, leaked potential mass, tail mass and H1 distance.
    A coupling whose solve raises ``NonConvergence`` or ``InfeasibleWell``
    becomes a failed row; any other exception propagates.
    """
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be strictly increasing")
    # Checked before any solve; written so that NaN fails it too.
    if not all(0 < lam < math.inf for lam in lambdas):
        raise ValueError("lambdas must be positive and finite")
    opts = opts or SolveOptions()

    report = graph.validate_potential()
    if not report.passes or len(report.omega.interior) < 2:
        raise ValueError("sweep needs a valid well with at least two vertices")
    omega_mask = np.zeros(graph.n, dtype=bool)
    for vid in report.omega.interior:
        omega_mask[graph.index(vid)] = True

    dir_inst = ProblemInstance.dirichlet(graph, report.omega)
    nd = solve_nodal(dir_inst, opts)
    gd = solve_ground(dir_inst, opts)
    m_omega, c_omega = nd.level, gd.level
    u0 = nd.minimizer
    u0_l2_sq = graph.integrate(u0 * u0)
    u0_h1_sq = _h1_inner(graph, u0, u0)

    rows: list[SweepRow] = []
    sup_h_norm = 0.0
    for lam in lambdas:
        inst = ProblemInstance.full(graph, lam)
        try:
            rn = solve_nodal(inst, opts)
            rg = solve_ground(inst, opts)
        except (NonConvergence, InfeasibleWell):
            rows.append(SweepRow(lam, math.nan, math.nan, math.nan, math.nan,
                                 math.nan, math.nan, math.nan, failed=True))
            continue
        u = rn.minimizer
        if _h1_inner(graph, u, u0) < 0:
            u = -u
        diff = u - u0
        sup_h_norm = max(sup_h_norm, math.sqrt(graph.norms(u, lam).h_lambda_sq))
        rows.append(
            SweepRow(
                lam=float(lam),
                m_lambda=rn.level,
                c_lambda=rg.level,
                margin_m_minus_2c=rn.level - 2.0 * rg.level,
                gap_to_m_omega=m_omega - rn.level,
                potential_mass=lam * graph.integrate(graph.potential_a * u * u),
                h1_dist_to_limit=math.sqrt(max(_h1_inner(graph, diff, diff), 0.0)),
                tail_mass=graph.integrate(np.where(omega_mask, 0.0, u * u)),
            )
        )

    good = [r for r in rows if not r.failed]
    final_ok = trend_ok = None
    if len(lambdas) > 1 and len(good) >= 2:
        first, last = good[0], good[-1]
        final_ok = (
            last.gap_to_m_omega <= GAP_FRACTION * m_omega
            and last.potential_mass <= POTENTIAL_MASS_FRACTION * m_omega
            and last.tail_mass <= TAIL_MASS_FRACTION * u0_l2_sq
            and last.h1_dist_to_limit <= H1_DIST_FRACTION * math.sqrt(u0_h1_sq)
        )
        trend_ok = (
            last.gap_to_m_omega < first.gap_to_m_omega
            and last.potential_mass < first.potential_mass
            and last.tail_mass < first.tail_mass
            and last.h1_dist_to_limit < first.h1_dist_to_limit
        )
    summary = SweepSummary(
        m_omega=m_omega,
        c_omega=c_omega,
        u0=u0,
        u0_l2_sq=u0_l2_sq,
        u0_h1_sq=u0_h1_sq,
        sup_h_lambda_norm=sup_h_norm,
        final_thresholds_ok=final_ok,
        trend_ok=trend_ok,
    )
    return rows, summary


def sweep_csv(rows: list[SweepRow]) -> str:
    return "\n".join([SWEEP_CSV_HEADER] + [r.csv_line() for r in rows]) + "\n"
