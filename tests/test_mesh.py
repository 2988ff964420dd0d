"""Tests for the structured fiber mesher and reference meshes."""
import cmath
import math

import numpy as np
import pytest

from pinchlab.errors import ChartOverlapConflict, DegenerateTriangle, PointOffFiber
from pinchlab.family import (
    INF_POINT,
    ChartPoint,
    ComponentSurface,
    MetricKind,
    NodeSpec,
    build_plumbing,
    conformal_factor,
    three_cycle_family,
    two_sphere_family,
)
from pinchlab.mesh import (
    MeshParams,
    TriangleMesh,
    annulus_mesh,
    fiber_area_quadrature,
    flat_torus_mesh,
    mesh_fiber,
    unit_sphere_mesh,
)

ALL_KINDS = (MetricKind.INDUCED, MetricKind.HYPERBOLIC_MODEL, MetricKind.CYLINDER)


class TestEulerCharacteristic:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("s", [1e-4, 1e-2])
    def test_two_sphere_genus_zero(self, kind, s):
        m = mesh_fiber(two_sphere_family(), kind, s)
        assert m.V - m.E + m.F == 2

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("s", [1e-4, 1e-7])
    def test_three_cycle_genus_one(self, kind, s):
        m = mesh_fiber(three_cycle_family(), kind, s)
        assert m.V - m.E + m.F == 0

    def test_chain_of_three_genus_zero(self):
        comps = [
            ComponentSurface(id=0, marked_points=(0.0 + 0j,)),
            ComponentSurface(id=1, marked_points=(0.0 + 0j, INF_POINT)),
            ComponentSurface(id=2, marked_points=(0.0 + 0j,)),
        ]
        nodes = [
            NodeSpec(node_id=0, left=(0, 0), right=(1, 0)),
            NodeSpec(node_id=1, left=(1, 1), right=(2, 0)),
        ]
        fam = build_plumbing(comps, nodes)
        m = mesh_fiber(fam, MetricKind.INDUCED, 1e-3)
        assert m.V - m.E + m.F == 2

    def test_euler_characteristic_independent_of_params(self):
        fam = two_sphere_family()
        for params in (MeshParams(), MeshParams(rings_per_decade=12, angular_count=24)):
            m = mesh_fiber(fam, MetricKind.CYLINDER, 1e-3, params)
            assert m.V - m.E + m.F == 2


class TestMeshValidity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_every_edge_bounds_two_triangles(self, kind):
        m = mesh_fiber(two_sphere_family(), kind, 1e-4)
        counts = np.zeros(m.E, dtype=int)
        np.add.at(counts, m.tri_edge.ravel(), 1)
        assert (counts == 2).all()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_consistent_orientation(self, kind):
        # every interior edge is traversed once in each direction
        m = mesh_fiber(three_cycle_family(), kind, 1e-3)
        directed = set()
        for f in range(m.F):
            v = m.triangles[f]
            for j in range(3):
                e = (int(v[j]), int(v[(j + 1) % 3]))
                assert e not in directed
                directed.add(e)
        assert all((b, a) in directed for (a, b) in directed)

    def test_positive_areas_and_angles(self):
        m = mesh_fiber(two_sphere_family(), MetricKind.HYPERBOLIC_MODEL, 1e-5)
        assert (m.triangle_areas > 0).all()
        assert m.min_angle_deg() > 3.0

    def test_neck_vertices_log_uniform_in_angle(self):
        # all rings carry the same angular count, uniformly spaced
        m = mesh_fiber(two_sphere_family(), MetricKind.INDUCED, 1e-4)
        charts = m.vertex_charts()
        neck_angles = sorted(
            math.atan2(c.imag, c.real)
            for ch, c in charts
            if ch[0] == "neck" and abs(abs(c) - 0.01) < 1e-9
        )
        diffs = np.diff(neck_angles)
        assert np.allclose(diffs, 2 * math.pi / 16, atol=1e-12)

    def test_s_zero_rejected(self):
        with pytest.raises(PointOffFiber):
            mesh_fiber(two_sphere_family(), MetricKind.INDUCED, 0.0)

    def test_high_valence_component_rejected(self):
        comps = [
            ComponentSurface(id=0, marked_points=(0.0 + 0j, INF_POINT, 4.0 + 0j)),
            ComponentSurface(id=1, marked_points=(0.0 + 0j,)),
            ComponentSurface(id=2, marked_points=(0.0 + 0j,)),
            ComponentSurface(id=3, marked_points=(0.0 + 0j,)),
        ]
        nodes = [
            NodeSpec(node_id=j, left=(0, j), right=(j + 1, 0)) for j in range(3)
        ]
        fam = build_plumbing(comps, nodes)
        with pytest.raises(ChartOverlapConflict):
            mesh_fiber(fam, MetricKind.INDUCED, 1e-3)


class TestEdges:
    """Edge numbering and lengths on one fiber, against per-edge loops."""

    S = 1e-4

    @pytest.fixture(scope="class")
    def mesh(self):
        return mesh_fiber(two_sphere_family(), MetricKind.HYPERBOLIC_MODEL, self.S)

    @pytest.fixture(scope="class")
    def first_incidence(self, mesh):
        first = {}
        for idx, e in enumerate(mesh.tri_edge.ravel().tolist()):
            first.setdefault(e, divmod(idx, 3))
        return first

    def test_edge_is_sorted_pair_opposite_corner(self, mesh):
        for f in range(mesh.F):
            for j in range(3):
                u, v = mesh.triangles[f, (j + 1) % 3], mesh.triangles[f, (j + 2) % 3]
                assert tuple(mesh.edges[mesh.tri_edge[f, j]]) == (min(u, v), max(u, v))

    def test_edge_ids_in_order_of_first_incidence(self, mesh, first_incidence):
        assert list(first_incidence) == list(range(mesh.E))

    def test_length_from_first_triangle_chart(self, mesh, first_incidence):
        fam = two_sphere_family()
        for e, (f, j) in first_incidence.items():
            p, q = mesh.tri_coords[f, (j + 1) % 3], mesh.tri_coords[f, (j + 2) % 3]
            chord = 0.5 * (p + q)
            mid = cmath.sqrt(p * q)
            if abs(-mid - chord) < abs(mid - chord):
                mid = -mid
            if p == 0 or q == 0:
                mid = chord
            point = ChartPoint(mesh.tri_chart[f], complex(mid))
            fac = conformal_factor(fam, MetricKind.HYPERBOLIC_MODEL, point, self.S)
            assert mesh.edge_lengths[e] == pytest.approx(abs(p - q) * math.sqrt(fac),
                                                         rel=1e-14)


class TestAreaAgainstQuadrature:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("s", [1e-2, 1e-4])
    def test_two_sphere_area_within_one_percent(self, kind, s):
        m = mesh_fiber(two_sphere_family(), kind, s).refine()
        if kind is MetricKind.HYPERBOLIC_MODEL:
            m = m.refine()
        oracle = fiber_area_quadrature(two_sphere_family(), kind, s)
        assert m.total_area == pytest.approx(oracle, rel=0.01)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_three_cycle_area_within_one_percent(self, kind):
        s = 1e-3
        m = mesh_fiber(three_cycle_family(), kind, s).refine()
        if kind is MetricKind.HYPERBOLIC_MODEL:
            m = m.refine()
        oracle = fiber_area_quadrature(three_cycle_family(), kind, s)
        assert m.total_area == pytest.approx(oracle, rel=0.01)

    def test_area_converges_second_order(self):
        fam = two_sphere_family()
        oracle = fiber_area_quadrature(fam, MetricKind.INDUCED, 1e-4)
        m = mesh_fiber(fam, MetricKind.INDUCED, 1e-4)
        e0 = abs(m.total_area - oracle)
        e1 = abs(m.refine().total_area - oracle)
        assert e1 < e0 / 3.0


class TestRefine:
    def test_counts(self):
        m = mesh_fiber(two_sphere_family(), MetricKind.INDUCED, 1e-3)
        m2 = m.refine()
        assert m2.V == m.V + m.E
        assert m2.F == 4 * m.F
        assert m2.V - m2.E + m2.F == m.V - m.E + m.F

    def test_lengths_reevaluated_not_interpolated(self):
        # on the round sphere a subdivided edge is strictly shorter than
        # half the parent chord would suggest only if re-measured
        sp = unit_sphere_mesh(6, 16)
        sp2 = sp.refine()
        assert abs(sp2.total_area - 4 * math.pi) < abs(sp.total_area - 4 * math.pi)


class TestReferenceMeshes:
    def test_flat_torus(self):
        t = flat_torus_mesh(8)
        assert t.V - t.E + t.F == 0
        assert t.total_area == pytest.approx(1.0, rel=1e-12)

    def test_unit_sphere(self):
        sp = unit_sphere_mesh(12, 32)
        assert sp.V - sp.E + sp.F == 2
        assert sp.total_area == pytest.approx(4 * math.pi, rel=5e-3)

    def test_annulus_boundary_mesh(self):
        an = annulus_mesh(0.1, 1.0, n_theta=32)
        counts = np.zeros(an.E, dtype=int)
        np.add.at(counts, an.tri_edge.ravel(), 1)
        assert set(counts.tolist()) == {1, 2}
        assert an.total_area == pytest.approx(math.pi * (1 - 0.01), rel=1e-2)
