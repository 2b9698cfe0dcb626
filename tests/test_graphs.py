import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from logschro import GraphValidationError, SubDomain, WeightedGraph, generate_graph
from logschro.graphs import _json_fields

from conftest import random_field, random_graph

E = math.e


class TestLaplacian:
    def test_k2_single_edge(self, k2):
        assert np.allclose(k2.laplacian(np.array([0.0, 1.0])), [1.0, -1.0])

    def test_constant_field_vanishes(self, p6):
        u = np.full(p6.n, 3.7)
        assert np.allclose(p6.laplacian(u), 0.0)

    def test_k2_antisymmetric(self, k2):
        u = np.array([E, -E])
        assert np.allclose(k2.laplacian(u), [-2.0 * E, 2.0 * E])

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng)
        u, v = random_field(rng, g.n), random_field(rng, g.n)
        lhs = g.laplacian(2.5 * u - 0.3 * v)
        rhs = 2.5 * g.laplacian(u) - 0.3 * g.laplacian(v)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self, k2):
        with pytest.raises(ValueError):
            k2.laplacian(np.array([1.0, 2.0, 3.0]))


class TestGamma:
    def test_k2_diagonal(self, k2):
        assert np.allclose(k2.gamma(np.array([0.0, 1.0])), [0.5, 0.5])

    def test_constant_direction_vanishes(self, p6):
        rng = np.random.default_rng(0)
        u = random_field(rng, p6.n)
        assert np.allclose(p6.gamma(u, np.full(p6.n, 2.0)), 0.0)

    def test_k2_can_be_negative_pointwise(self, k2):
        got = k2.gamma(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(got, [-0.5, -0.5])

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng)
            u, v, w = (random_field(rng, g.n) for _ in range(3))
            assert np.allclose(g.gamma(u, v), g.gamma(v, u), rtol=1e-12, atol=1e-12)
            lhs = g.gamma(1.7 * u - 0.4 * w, v)
            rhs = 1.7 * g.gamma(u, v) - 0.4 * g.gamma(w, v)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_dirichlet_energy_nonnegative_zero_iff_constant(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        u = random_field(rng, g.n)
        total = g.integrate(g.gamma(u))
        # Equals half the double sum of weighted squared differences.
        diff = u[None, :] - u[:, None]
        assert total == pytest.approx(0.5 * float((g.weights * diff * diff).sum()), rel=1e-12)
        assert total >= 0.0
        assert g.integrate(g.gamma(np.full(g.n, 1.3))) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_length(self, k2):
        u = np.array([0.0, 1.0])
        assert np.allclose(k2.gradient_length(u), np.sqrt(k2.gamma(u)))


def test_integration_by_parts_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_graph(rng)
        u, phi = random_field(rng, g.n), random_field(rng, g.n)
        lhs = g.integrate(g.gamma(u, phi))
        rhs = -g.integrate(g.laplacian(u) * phi)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestIntegrate:
    def test_weighted_sum(self):
        g = WeightedGraph(["a", "b"], [1.0, 2.0], [0.0, 0.0], [("a", "b", 1.0)])
        assert g.integrate(np.array([3.0, 4.0])) == pytest.approx(11.0)

    def test_zero(self, p6):
        assert p6.integrate(np.zeros(p6.n)) == 0.0

    def test_gamma_total(self, k2):
        assert k2.integrate(k2.gamma(np.array([0.0, 1.0]))) == pytest.approx(1.0)


class TestNorms:
    def test_constant(self, k2):
        nb = k2.norms(np.array([1.0, 1.0]), 5.0)
        assert nb.h1_sq == pytest.approx(2.0)
        assert nb.h_lambda_sq == pytest.approx(2.0)
        assert nb.l2_sq == pytest.approx(2.0)
        assert nb.linf == pytest.approx(1.0)

    def test_antisymmetric(self, k2):
        nb = k2.norms(np.array([E, -E]), 1.0)
        assert nb.h1_sq == pytest.approx(6.0 * E * E, rel=1e-12)

    def test_potential_weighting(self):
        g = WeightedGraph(["v1", "v2"], [1.0, 1.0], [1.0, 0.0], [("v1", "v2", 1.0)])
        nb = g.norms(np.array([1.0, 1.0]), 3.0)
        assert nb.h_lambda_sq == pytest.approx(5.0)

    def test_h_lambda_dominates_h1(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_graph(rng)
            u = random_field(rng, g.n)
            nb = g.norms(u, float(rng.uniform(0.1, 50.0)))
            assert nb.h_lambda_sq >= nb.h1_sq - 1e-12

    def test_negative_lambda_rejected(self, k2):
        # NaN and +inf used to pass and fail later, inside integrate, as a
        # non-finite field.
        for lam in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda must be nonnegative and finite"):
                k2.norms(np.array([1.0, 1.0]), lam)

    def test_linf_embedding(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = random_graph(rng)
            u = random_field(rng, g.n)
            lam = float(rng.uniform(0.0, 20.0))
            nb = g.norms(u, lam)
            assert nb.linf <= math.sqrt(nb.h_lambda_sq / g.mu_min) + 1e-12


class TestBoundaryDistance:
    def test_path_boundary(self, p6):
        sd = p6.boundary(["v3", "v4"])
        assert set(sd.boundary) == {"v2", "v5"}
        assert set(sd.closure) == {"v2", "v3", "v4", "v5"}

    def test_full_interior_has_empty_boundary(self, p6):
        assert p6.boundary(p6.vertex_ids).boundary == ()

    def test_star_center(self):
        g = WeightedGraph.from_dict(
            {
                "vertices": [{"id": v, "mu": 1.0, "a": 0.0} for v in ["c", "l1", "l2", "l3", "l4"]],
                "edges": [{"u": "c", "v": f"l{i}", "w": 1.0} for i in range(1, 5)],
            }
        )
        assert set(g.boundary(["c"]).boundary) == {"l1", "l2", "l3", "l4"}

    def test_unknown_vertex(self, p6):
        with pytest.raises(GraphValidationError):
            p6.boundary(["nope"])

    def test_distance(self, p6):
        assert p6.distance("v1", "v6") == 5
        assert p6.distance("v4", "v4") == 0

    def test_is_connected_subsets(self, p6):
        assert p6.is_connected(["v3", "v4"])
        assert not p6.is_connected(["v2", "v5"])

    def test_empty_interior_has_empty_boundary(self, p6):
        assert p6.boundary([]) == SubDomain(interior=(), boundary=())

    def test_grid_boundary_and_distance(self):
        g = WeightedGraph.from_dict(generate_graph("grid", 4, "v2-2,v2-3"))
        assert g.boundary(["v2-2", "v2-3"]).boundary == ("v1-2", "v1-3", "v2-1", "v2-4", "v3-2", "v3-3")
        d = g.distance("v1-1", "v4-4")
        assert d == 6 and type(d) is int

    def test_is_connected_uses_the_induced_subgraph(self):
        g = WeightedGraph.from_dict(generate_graph("star", 4, "1..1"))
        assert g.is_connected(["l1", "c", "l3"]) is True
        assert g.is_connected(["l1", "l3"]) is False
        assert g.is_connected([]) is False


class TestValidatePotential:
    def test_well_fixture_passes(self, p6):
        rep = p6.validate_potential()
        assert rep.passes and rep.omega_nonempty and rep.omega_connected
        assert set(rep.omega.interior) == {"v3", "v4"}
        assert not rep.small_well_warning

    def test_empty_well_fails(self, k2):
        g = WeightedGraph(["v1", "v2"], [1.0, 1.0], [1.0, 1.0], [("v1", "v2", 1.0)])
        rep = g.validate_potential()
        assert not rep.omega_nonempty and not rep.passes

    def test_disconnected_well_fails(self):
        g = WeightedGraph(
            [f"v{i}" for i in range(1, 7)],
            [1.0] * 6,
            [1.0, 0.0, 1.0, 0.0, 1.0, 1.0],
            [(f"v{i}", f"v{i + 1}", 1.0) for i in range(1, 6)],
        )
        rep = g.validate_potential()
        assert rep.omega_nonempty and not rep.omega_connected and not rep.passes

    def test_single_vertex_well_warns(self):
        g = WeightedGraph(
            ["v1", "v2", "v3"],
            [1.0] * 3,
            [1.0, 0.0, 1.0],
            [("v1", "v2", 1.0), ("v2", "v3", 1.0)],
        )
        rep = g.validate_potential()
        assert rep.passes and rep.small_well_warning

    def test_volume_report_defaults_to_whole_graph(self, p6):
        rep = p6.validate_potential()
        assert rep.vol_d_m == pytest.approx(float(p6.mu.sum()))


class TestConstructionAndIO:
    def test_rejects_nonpositive_measure(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(["a", "b"], [0.0, 1.0], [0.0, 0.0], [("a", "b", 1.0)])

    def test_rejects_negative_potential(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(["a", "b"], [1.0, 1.0], [-0.1, 0.0], [("a", "b", 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(["a", "b"], [1.0, 1.0], [0.0, 0.0], [("a", "b", 0.0)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(["a", "b"], [1.0, 1.0], [0.0, 0.0], [("a", "b", 1.0), ("a", "a", 1.0)])

    def test_rejects_duplicate_edges_either_orientation(self):
        for x, y in (("a", "b"), ("b", "a")):
            with pytest.raises(GraphValidationError, match=f"duplicate edge '{x}'-'{y}'"):
                WeightedGraph(
                    ["a", "b"], [1.0, 1.0], [0.0, 0.0], [("a", "b", 1.0), (x, y, 2.0)]
                )

    def test_rejects_disconnected(self):
        with pytest.raises(GraphValidationError):
            WeightedGraph(
                ["a", "b", "c", "d"],
                [1.0] * 4,
                [0.0] * 4,
                [("a", "b", 1.0), ("c", "d", 1.0)],
            )

    @pytest.mark.parametrize("mu, a", [([1.0], [0.0, 0.0]), ([1.0, 1.0], [0.0])])
    def test_rejects_length_mismatch(self, mu, a):
        with pytest.raises(GraphValidationError, match="length"):
            WeightedGraph(["a", "b"], mu, a, [("a", "b", 1.0)])

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{", "invalid graph JSON"),
            ("[]", "needs 'vertices' and 'edges'"),
            ('{"vertices": []}', "needs 'vertices' and 'edges'"),
            ('{"vertices": [{"id": "a", "mu": 1.0}], "edges": []}', "malformed"),
            ('{"vertices": [{"id": "a", "mu": 1.0, "a": 0.0}], "edges": [["a", "b"]]}', "malformed"),
        ],
        ids=["not_json", "not_object", "no_edges", "vertex_without_a", "edge_as_list"],
    )
    def test_loader_rejects_malformed_json(self, text, match):
        with pytest.raises(GraphValidationError, match=match):
            WeightedGraph.from_json(text)

    def test_immutable(self, k2):
        with pytest.raises(ValueError):
            k2.mu[0] = 2.0

    def test_json_round_trip(self, p6):
        text = p6.to_json()
        again = WeightedGraph.from_json(text)
        assert again.to_json() == text
        assert again.vertex_ids == p6.vertex_ids
        assert np.array_equal(again.weights, p6.weights)

    def test_loader_rejects_duplicate_ids(self):
        data = {
            "vertices": [{"id": "a", "mu": 1.0, "a": 0.0}, {"id": "a", "mu": 1.0, "a": 0.0}],
            "edges": [],
        }
        with pytest.raises(GraphValidationError):
            WeightedGraph.from_json(json.dumps(data))

    def test_loader_rejects_unhashable_edge_endpoint(self):
        # It used to escape as a raw TypeError: unhashable type: 'list'.
        data = {
            "vertices": [{"id": "v1", "mu": 1.0, "a": 0.0}, {"id": "v2", "mu": 1.0, "a": 0.0}],
            "edges": [{"u": ["v1"], "v": "v2", "w": 1.0}],
        }
        with pytest.raises(GraphValidationError, match="unknown vertex"):
            WeightedGraph.from_dict(data)

    def test_loader_matches_edge_endpoints_as_strings(self):
        # Vertex ids are stringified, so an integer endpoint names vertex "1".
        data = {
            "vertices": [{"id": 1, "mu": 1.0, "a": 0.0}, {"id": "2", "mu": 1.0, "a": 0.0}],
            "edges": [{"u": 1, "v": 2, "w": 1.5}],
        }
        g = WeightedGraph.from_dict(data)
        assert g.vertex_ids == ("1", "2")
        assert g.weights[g.index("1"), g.index("2")] == 1.5

    def test_field_from_mapping(self, p6):
        u = p6.field({"v3": 2.0})
        assert u[p6.index("v3")] == 2.0
        assert u.sum() == 2.0


def test_json_fields_serializes_a_report_dataclass():
    @dataclass(frozen=True)
    class Report:
        name: str
        pair: tuple[float, float]
        omega: SubDomain
        field: np.ndarray
        flag: bool = False

    rep = Report("r", (1.0, 2.0), SubDomain(("a",), ("b",)), np.zeros(2))
    assert list(_json_fields(rep).items()) == [
        ("name", "r"),
        ("pair", [1.0, 2.0]),
        ("omega", {"interior": ["a"], "boundary": ["b"]}),
        ("flag", False),
    ]
    # Supplied values replace a field in place, array fields included, or
    # are appended.
    out = _json_fields(rep, field=[0.0, 0.0], name="s", extra=3)
    assert list(out) == ["name", "pair", "omega", "field", "flag", "extra"]
    assert (out["name"], out["field"], out["extra"]) == ("s", [0.0, 0.0], 3)
