"""Tests for family construction, conformal factors, and serialization."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchlab.errors import (
    ChartOverlapConflict,
    DisconnectedGraph,
    OverlappingMarkedPoints,
    PointOffFiber,
    SchemaError,
    ZeroRadiusAtNode,
)
from pinchlab.family import (
    INF_POINT,
    ComponentSurface,
    DegenerationFamily,
    FermatAtlas,
    MetricKind,
    NodeSpec,
    _nth_roots,
    build_plumbing,
    conformal_factor,
    is_inf_point,
    neck_core_length,
    read_family_config,
    three_cycle_family,
    two_sphere_family,
    write_family_config,
)
from pinchlab.mesh import MeshParams, mesh_fiber

ALL_PLUMBING_KINDS = (
    MetricKind.INDUCED,
    MetricKind.HYPERBOLIC_MODEL,
    MetricKind.CYLINDER,
)


def neck_factor(fam, kind, r, s, branch=0):
    return conformal_factor(fam, kind, ("neck", 0, branch), complex(r, 0.0), s)


class TestGraphInvariants:
    def test_two_sphere_counts(self):
        fam = two_sphere_family()
        assert (fam.N, fam.g) == (2, 0)

    def test_three_cycle_counts(self):
        fam = three_cycle_family()
        assert (fam.N, fam.g) == (3, 1)

    def test_chain_of_four_genus_zero(self):
        comps = [
            ComponentSurface(id=i, marked_points=(0.0 + 0j, INF_POINT))
            for i in range(4)
        ]
        nodes = [
            NodeSpec(node_id=i, left=(i, 1), right=(i + 1, 0)) for i in range(3)
        ]
        fam = build_plumbing(comps, nodes)
        assert (fam.N, fam.g) == (4, 0)

    def test_disconnected_graph_rejected(self):
        comps = [
            ComponentSurface(id=i, marked_points=(0.0 + 0j, INF_POINT))
            for i in range(4)
        ]
        nodes = [
            NodeSpec(node_id=0, left=(0, 0), right=(1, 0)),
            NodeSpec(node_id=1, left=(2, 0), right=(3, 0)),
        ]
        with pytest.raises(DisconnectedGraph):
            build_plumbing(comps, nodes)

    def test_overlapping_marked_points_rejected(self):
        with pytest.raises(OverlappingMarkedPoints):
            ComponentSurface(id=0, marked_points=(0.0 + 0j, 1.0 + 0j))

    def test_shared_marked_point_rejected(self):
        comps = [
            ComponentSurface(id=i, marked_points=(0.0 + 0j,)) for i in range(3)
        ]
        nodes = [
            NodeSpec(node_id=0, left=(0, 0), right=(1, 0)),
            NodeSpec(node_id=1, left=(1, 0), right=(2, 0)),
        ]
        with pytest.raises(OverlappingMarkedPoints):
            build_plumbing(comps, nodes)


def _reference_walk(family):
    """The mesher's walk before the family owned it: the marked-point
    check, then the path or cycle order (kept verbatim as the oracle)."""
    for comp in family.components:
        node_mps = []
        for node in family.nodes:
            for cid, mp in (node.left, node.right):
                if cid == comp.id:
                    node_mps.append(comp.marked_points[mp])
        for p in node_mps:
            if not (p == 0 or is_inf_point(p)):
                raise ChartOverlapConflict("node marked points must be 0 or infinity")
        if len(node_mps) == 2 and not ((node_mps[0] == 0) ^ (node_mps[1] == 0)):
            raise ChartOverlapConflict("two-node components need 0 and infinity")
    adj = {c.id: [] for c in family.components}
    for node in family.nodes:
        (lc, _), (rc, _) = node.left, node.right
        adj[lc].append((node, 0, rc))
        adj[rc].append((node, 1, lc))
    degrees = {cid: len(items) for cid, items in adj.items()}
    if any(d > 2 for d in degrees.values()):
        raise ChartOverlapConflict("at most two nodes per component")
    ends = [cid for cid, d in degrees.items() if d == 1]
    is_cycle = not ends
    start = min(ends) if ends else family.components[0].id
    order = []
    comp_order = [start]
    cid = start
    prev_node = None
    while True:
        nxt = [item for item in adj[cid] if item[0] is not prev_node]
        if not nxt:
            break
        node, branch, other = nxt[0]
        order.append((node, branch))
        if other == comp_order[0] and is_cycle:
            break
        comp_order.append(other)
        cid = other
        prev_node = node
    return comp_order, order, is_cycle


def _chain_of_three():
    comps = [
        ComponentSurface(id=0, marked_points=(0.0 + 0j,)),
        ComponentSurface(id=1, marked_points=(0.0 + 0j, INF_POINT)),
        ComponentSurface(id=2, marked_points=(0.0 + 0j,)),
    ]
    nodes = [
        NodeSpec(node_id=0, left=(0, 0), right=(1, 0)),
        NodeSpec(node_id=1, left=(1, 1), right=(2, 0)),
    ]
    return build_plumbing(comps, nodes)


def _chain_of_four():
    comps = [ComponentSurface(id=i, marked_points=(0.0 + 0j, INF_POINT)) for i in range(4)]
    nodes = [NodeSpec(node_id=i, left=(i, 1), right=(i + 1, 0)) for i in range(3)]
    return build_plumbing(comps, nodes)


def _reversed(family):
    return build_plumbing(family.components, family.nodes[::-1])


INF = INF_POINT
#: (node id, branch, component id, marked point) of every branch
DUAL_GRAPHS = {
    "two-sphere": (two_sphere_family, [(0, 0, 0, 0j), (0, 1, 1, 0j)]),
    "three-cycle": (three_cycle_family, [(0, 0, 0, INF), (0, 1, 1, 0j), (1, 0, 1, INF),
                                         (1, 1, 2, 0j), (2, 0, 2, INF), (2, 1, 0, 0j)]),
    "chain-of-three": (_chain_of_three, [(0, 0, 0, 0j), (0, 1, 1, 0j),
                                         (1, 0, 1, INF), (1, 1, 2, 0j)]),
}


CAP, NECK = "cap", "neck"
#: (chart, component id) of every chart, component by component, in node
#: order and with the nodes reversed
CHART_TABLES = {
    "two-sphere": [[((CAP, 0), 0), ((NECK, 0, 0), 0), ((CAP, 1), 1), ((NECK, 0, 1), 1)]] * 2,
    "three-cycle": [
        [((NECK, 0, 0), 0), ((NECK, 2, 1), 0), ((NECK, 0, 1), 1), ((NECK, 1, 0), 1),
         ((NECK, 1, 1), 2), ((NECK, 2, 0), 2)],
        [((NECK, 2, 1), 0), ((NECK, 0, 0), 0), ((NECK, 1, 0), 1), ((NECK, 0, 1), 1),
         ((NECK, 2, 0), 2), ((NECK, 1, 1), 2)],
    ],
    "chain-of-three": [
        [((CAP, 0), 0), ((NECK, 0, 0), 0), ((NECK, 0, 1), 1), ((NECK, 1, 0), 1),
         ((CAP, 2), 2), ((NECK, 1, 1), 2)],
        [((CAP, 0), 0), ((NECK, 0, 0), 0), ((NECK, 1, 0), 1), ((NECK, 0, 1), 1),
         ((CAP, 2), 2), ((NECK, 1, 1), 2)],
    ],
}


class TestDualGraph:
    @pytest.mark.parametrize("reverse", [False, True], ids=["node-order", "reversed"])
    @pytest.mark.parametrize("name", list(DUAL_GRAPHS))
    def test_charts_table(self, name, reverse):
        fam = DUAL_GRAPHS[name][0]()
        if reverse:
            fam = _reversed(fam)
        assert list(fam.charts().items()) == CHART_TABLES[name][reverse]

    @pytest.mark.parametrize("reverse", [False, True], ids=["node-order", "reversed"])
    @pytest.mark.parametrize("name", list(DUAL_GRAPHS))
    def test_charts_are_the_meshed_charts(self, name, reverse):
        fam = DUAL_GRAPHS[name][0]()
        if reverse:
            fam = _reversed(fam)
        for kind in ALL_PLUMBING_KINDS:
            assert set(fam.charts()) == set(mesh_fiber(fam, kind, 1e-3).charts)

    @pytest.mark.parametrize("reverse", [False, True], ids=["node-order", "reversed"])
    @pytest.mark.parametrize("name", list(DUAL_GRAPHS))
    def test_walk_matches_reference(self, name, reverse):
        fam = DUAL_GRAPHS[name][0]()
        if reverse:
            fam = _reversed(fam)
        comp_order, order, is_cycle = fam.walk()
        ref_comps, ref_order, ref_cycle = _reference_walk(fam)
        assert (comp_order, is_cycle) == (ref_comps, ref_cycle)
        assert [(n.node_id, b) for n, b in order] == [(n.node_id, b) for n, b in ref_order]
        assert all(n is m for (n, _), (m, _) in zip(order, ref_order))

    @pytest.mark.parametrize("reverse", [False, True], ids=["node-order", "reversed"])
    @pytest.mark.parametrize("name", list(DUAL_GRAPHS))
    def test_branches(self, name, reverse):
        make, expected = DUAL_GRAPHS[name]
        fam = make()
        if reverse:
            fam = _reversed(fam)
            expected = sorted(expected, key=lambda e: -e[0])  # stable: branch 0 first
        got = [(n.node_id, b, c, p) for n, b, c, p in fam.branches()]
        assert got == expected
        for comp in fam.components:
            mine = [(n.node_id, b, c, p) for n, b, c, p in fam.branches(comp.id)]
            assert mine == [e for e in expected if e[2] == comp.id]
            assert fam.node_degree(comp.id) == len(fam.branches(comp.id))

    @pytest.mark.parametrize("reverse", [False, True], ids=["node-order", "reversed"])
    @pytest.mark.parametrize("name", list(DUAL_GRAPHS))
    def test_branch_is_node_side(self, name, reverse):
        fam = DUAL_GRAPHS[name][0]()
        if reverse:
            fam = _reversed(fam)
        for node in fam.nodes:
            for b, (cid, mp) in enumerate((node.left, node.right)):
                assert fam.branch(node.node_id, b) == (
                    cid, fam.component(cid).marked_points[mp])

    @pytest.mark.parametrize("reverse", [False, True], ids=["node-order", "reversed"])
    @pytest.mark.parametrize("make,counts", [
        (two_sphere_family, (2, 0)), (three_cycle_family, (3, 1)),
        (_chain_of_three, (3, 0)), (_chain_of_four, (4, 0)),
    ], ids=["two-sphere", "three-cycle", "chain-of-three", "chain-of-four"])
    def test_counts_derived_from_graph(self, make, counts, reverse):
        fam = _reversed(make()) if reverse else make()
        assert (fam.N, fam.g) == counts

    def test_graph_and_scale_are_the_only_fields(self):
        names = [f.name for f in dataclasses.fields(DegenerationFamily)]
        assert names == ["components", "nodes", "scale"]

    def test_duplicate_node_ids_rejected(self):
        comps = [ComponentSurface(id=i, marked_points=(0.0 + 0j, INF_POINT)) for i in range(2)]
        nodes = [NodeSpec(node_id=0, left=(0, 0), right=(1, 1)),
                 NodeSpec(node_id=0, left=(0, 1), right=(1, 0))]
        with pytest.raises(ValueError, match="duplicate node ids"):
            build_plumbing(comps, nodes)

    def test_three_node_component_rejected(self):
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
            _reference_walk(fam)
        with pytest.raises(ChartOverlapConflict, match="component 0"):
            fam.walk()

    def test_node_at_marked_point_one_rejected(self):
        comps = [
            ComponentSurface(id=0, marked_points=(1.0 + 0j,)),
            ComponentSurface(id=1, marked_points=(0.0 + 0j,)),
        ]
        fam = build_plumbing(comps, [NodeSpec(node_id=0, left=(0, 0), right=(1, 0))])
        with pytest.raises(ChartOverlapConflict):
            _reference_walk(fam)
        with pytest.raises(ChartOverlapConflict, match=r"component 0 .*\(1\+0j\)"):
            fam.walk()

    def test_two_nodes_at_one_marked_point_rejected(self):
        # only a family built without build_plumbing can share a marked point
        comps = (
            ComponentSurface(id=0, marked_points=(0.0 + 0j,)),
            ComponentSurface(id=1, marked_points=(0.0 + 0j, INF_POINT)),
        )
        nodes = (NodeSpec(node_id=0, left=(0, 0), right=(1, 0)),
                 NodeSpec(node_id=1, left=(0, 0), right=(1, 1)))
        fam = DegenerationFamily(components=comps, nodes=nodes)
        with pytest.raises(ChartOverlapConflict):
            _reference_walk(fam)
        with pytest.raises(ChartOverlapConflict, match="component 0"):
            fam.walk()


class TestConformalFactor:
    @pytest.mark.parametrize("kind", ALL_PLUMBING_KINDS)
    def test_continuity_across_regions(self, kind):
        fam = two_sphere_family()
        s = 1e-4
        seams = [1.0, 0.5, math.sqrt(s), s / 0.5, s / 0.999999]
        for r0 in seams:
            lo = neck_factor(fam, kind, r0 * (1 - 1e-9), s)
            hi = neck_factor(fam, kind, min(r0 * (1 + 1e-9), 1.0), s)
            assert lo == pytest.approx(hi, rel=1e-5)

    @pytest.mark.parametrize("kind", ALL_PLUMBING_KINDS)
    def test_cap_seam_matches_neck_chart(self, kind):
        # cap coordinate is 1/x; |d(1/x)/dx| = 1 on the seam circle
        fam = two_sphere_family()
        s = 1e-6
        fn = neck_factor(fam, kind, 1.0, s)
        fc = conformal_factor(fam, kind, ("cap", 0), 1.0 + 0j, s)
        assert fn == pytest.approx(fc, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_PLUMBING_KINDS)
    def test_branch_change_is_isometric(self, kind):
        # factor_0(x) |dx|^2 = factor_1(y) |dy|^2 under y = s/x
        fam = two_sphere_family()
        s = 1e-5
        for r in (0.9, 0.5, 0.01, math.sqrt(s), s / 0.3):
            x = complex(r, 0.0)
            y = s / x
            f0 = neck_factor(fam, kind, r, s, branch=0)
            f1 = conformal_factor(
                fam, kind, ("neck", 0, 1), y, s
            ) * (abs(s) / abs(x) ** 2) ** 2
            assert f0 == pytest.approx(f1, rel=1e-12)

    def test_induced_factor_values(self):
        # 1 + |s|^2/r^4 deep in the neck, 2 at the core circle
        fam = two_sphere_family()
        s = 1e-4
        assert neck_factor(fam, MetricKind.INDUCED, 0.3, s) == pytest.approx(
            1.0 + s * s / 0.3 ** 4
        )
        assert neck_factor(fam, MetricKind.INDUCED, math.sqrt(s), s) == pytest.approx(2.0)

    def test_cylinder_factor_value(self):
        fam = two_sphere_family()
        assert neck_factor(fam, MetricKind.CYLINDER, 0.2, 1e-4) == pytest.approx(25.0)

    def test_hyperbolic_factor_symmetric_at_core(self):
        fam = two_sphere_family()
        s = 1e-6
        r = math.sqrt(s)
        expected = 1.0 / (r * math.log(1.0 / r)) ** 2
        assert neck_factor(fam, MetricKind.HYPERBOLIC_MODEL, r, s) == pytest.approx(expected)

    def test_scale_multiplies_factor(self):
        fam = two_sphere_family()
        fam8 = two_sphere_family(scale=8.0)
        for kind in ALL_PLUMBING_KINDS:
            f1 = neck_factor(fam, kind, 0.3, 1e-4)
            f8 = neck_factor(fam8, kind, 0.3, 1e-4)
            assert f8 == pytest.approx(8.0 * f1, rel=1e-14)

    def test_off_fiber_points_rejected(self):
        fam = two_sphere_family()
        with pytest.raises(PointOffFiber):
            neck_factor(fam, MetricKind.INDUCED, 1.5, 1e-4)
        with pytest.raises(PointOffFiber):
            neck_factor(fam, MetricKind.INDUCED, 1e-5, 1e-4)
        with pytest.raises(ZeroRadiusAtNode):
            neck_factor(fam, MetricKind.INDUCED, 0.0, 0.0)

    @pytest.mark.parametrize("kind", ALL_PLUMBING_KINDS)
    def test_array_matches_scalar_calls(self, kind):
        # |x| from |s| to 1 spans the far blend (|s|/r >= 1/2), the pure
        # neck and the near blend (r >= 1/2) on both branches, and the cap
        fam = two_sphere_family()
        s = 1e-4
        r = np.concatenate([np.geomspace(s, 1.0, 57), [0.5, 2 * s, 1.0]])
        z = r * np.exp(1j * np.linspace(0.0, 6.0, r.size))
        assert ((r >= 0.5).any() and (s / r >= 0.5).any()
                and ((r < 0.5) & (s / r < 0.5)).any())
        for chart in (("neck", 0, 0), ("neck", 0, 1), ("cap", 0)):
            arr = conformal_factor(fam, kind, chart, z, s)
            one = [conformal_factor(fam, kind, chart, complex(c), s)
                   for c in z]
            assert arr.shape == z.shape
            np.testing.assert_allclose(arr, one, rtol=4e-15, atol=0.0)

    @pytest.mark.parametrize("kind,chart,r,s,good,exc", [
        (MetricKind.INDUCED, ("neck", 0, 0), 0.0, 0.0, [0.9, 0.3], ZeroRadiusAtNode),
        (MetricKind.CYLINDER, ("neck", 0, 1), 1.5, 1e-4, [0.9, 0.3], PointOffFiber),
        (MetricKind.INDUCED, ("cap", 1), 1.5, 1e-4, [0.9, 0.0], PointOffFiber),
        (MetricKind.INDUCED, ("neck", 0, 0), 1e-5, 1e-4, [0.9, 3e-4], PointOffFiber),
        # hyperbolic neck at |x| = 1 (log(1/r) or log(r/|s|) not positive)
        (MetricKind.HYPERBOLIC_MODEL, ("neck", 0, 0), 0.6, 0.6, [0.9, 1.0], PointOffFiber),
        (MetricKind.HYPERBOLIC_MODEL, ("neck", 0, 0), 1.0 - 2.0 ** -53, 1.0, [1.0],
         PointOffFiber),
    ])
    def test_one_off_range_element_raises_like_scalar(self, kind, chart, r, s, good, exc):
        fam = two_sphere_family()
        for x in good:
            conformal_factor(fam, kind, chart, complex(x), s)
        with pytest.raises(exc):
            conformal_factor(fam, kind, chart, complex(r), s)
        z = np.array(good[:1] + [r] + good[1:], dtype=complex)
        with pytest.raises(exc):
            conformal_factor(fam, kind, chart, z, s)

    @settings(max_examples=60, deadline=None)
    @given(
        logr=st.floats(min_value=-9.0, max_value=0.0),
        logs=st.floats(min_value=-10.0, max_value=-2.0),
        kind=st.sampled_from(ALL_PLUMBING_KINDS),
    )
    def test_factor_positive_and_finite(self, logr, logs, kind):
        fam = two_sphere_family()
        s = 10.0 ** logs
        r = max(10.0 ** logr, s)
        v = neck_factor(fam, kind, r, s)
        assert math.isfinite(v) and v > 0.0


class TestNeckCoreLength:
    def test_closed_forms(self):
        fam = two_sphere_family()
        s = 1e-4
        assert neck_core_length(fam, MetricKind.INDUCED, s) == pytest.approx(
            2 * math.pi * math.sqrt(2 * s)
        )
        assert neck_core_length(fam, MetricKind.HYPERBOLIC_MODEL, s) == pytest.approx(
            4 * math.pi / math.log(1 / s)
        )
        assert neck_core_length(fam, MetricKind.CYLINDER, s) == pytest.approx(2 * math.pi)

    def test_core_length_matches_factor_quadrature(self):
        # circumference = 2*pi*r*sqrt(factor at the core)
        fam = two_sphere_family()
        s = 1e-6
        r = math.sqrt(s)
        for kind in ALL_PLUMBING_KINDS:
            f = neck_factor(fam, kind, r, s)
            assert 2 * math.pi * r * math.sqrt(f) == pytest.approx(
                neck_core_length(fam, kind, s), rel=1e-10
            )

    def test_scale_enters_as_square_root(self):
        fam = two_sphere_family(scale=4.0)
        assert neck_core_length(fam, MetricKind.CYLINDER, 1e-3) == pytest.approx(
            4 * math.pi
        )


class TestFermatAtlas:
    @pytest.mark.parametrize("d,g", [(1, 0), (2, 0), (3, 1), (4, 3), (5, 6)])
    def test_genus_from_lifted_euler_characteristic(self, d, g):
        atlas = FermatAtlas(d, 0.3 if d > 1 else 0.0)
        assert atlas.genus() == g

    def test_branch_points_solve_defining_equation(self):
        atlas = FermatAtlas(4, 0.3)
        assert len(atlas.branch_points) == 4
        for xb in atlas.branch_points:
            assert abs(xb ** 4 + 0.3) < 1e-14

    def test_singular_fiber_splits_into_lines(self):
        atlas = FermatAtlas(4, 0.0)
        assert atlas.component_count == 4
        assert FermatAtlas(4, 0.3).component_count == 1

    def test_chart_overlap_consistency(self):
        # sum over sheets of factor * |d a/d a2|^2 matches across the seam
        atlas = FermatAtlas(4, 0.3)
        for a in (1.0 + 0j, 0.6 + 0.8j, -1j):
            f1 = atlas.sheet_factors(1, a).sum(axis=0)
            a2 = 1.0 / a
            f2 = atlas.sheet_factors(2, a2).sum(axis=0) * abs(1.0 / a ** 2) ** 2
            assert f1 == pytest.approx(f2, rel=1e-10)

    def test_branch_chart_matches_chart1(self):
        atlas = FermatAtlas(4, 0.3)
        xb = atlas.branch_points[0]
        x_of_y, factor = atlas.branch_chart(xb)
        y = 0.21 + 0.05j
        x = x_of_y(y)
        assert abs(x ** 4 + y ** 4 + 0.3) < 1e-12
        # factor in y-coords vs chart1 factor of the same sheet: dy/dx = -(x/y)^3
        d = 4
        db = -((x / y) ** (d - 1))
        from pinchlab.family import _fs_factor

        f_chart1 = _fs_factor(x, y, 1.0 + 0j, db)
        f_y = factor(y)
        assert f_y == pytest.approx(f_chart1 * abs(db) ** (-2), rel=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_nth_roots_match_one_exponential_per_root(self, d):
        # the principal root times the roots of unity against d complex
        # exponentials of the shifted angles
        rng = np.random.default_rng(d)
        w = np.concatenate([rng.standard_normal(500) + 1j * rng.standard_normal(500),
                            [1.0, -1.0, 1j, -1j, -0.3, 2.5 + 0j]])
        ks = np.arange(d)[:, None]
        expect = np.abs(w) ** (1.0 / d) * np.exp(1j * (np.angle(w) / d + 2.0 * math.pi * ks / d))
        got = _nth_roots(w, d)
        assert got.shape == (d,) + w.shape
        assert (np.abs(got - expect) <= 1e-14 * np.abs(expect)).all()
        assert np.allclose(got ** d, w, rtol=1e-13, atol=0.0)
        assert np.array_equal(got[0], expect[0])  # the principal root itself
        assert _nth_roots(2.0 - 1j, d).shape == (d,)


#: A config of the removed Fermat family kind, as the old writer wrote it.
FERMAT_CONFIG = """[family]
schema = pinchlab-family-v1
kind = fermat
components = 0:0.0|inf ; 1:0.0|inf ; 2:0.0|inf ; 3:0.0|inf
nodes = 
metric = induced
scale = 1.0
d = 4
"""


class TestConfigRoundTrip:
    def test_round_trip_two_sphere(self, tmp_path):
        fam = two_sphere_family(scale=8.0)
        path = str(tmp_path / "fam.cfg")
        write_family_config(fam, path, metric=MetricKind.CYLINDER)
        fam2, metric = read_family_config(path)
        assert metric is MetricKind.CYLINDER
        assert (fam2.N, fam2.g, fam2.scale) == (fam.N, fam.g, 8.0)
        assert [n.left for n in fam2.nodes] == [n.left for n in fam.nodes]

    def test_round_trip_keeps_radii(self, tmp_path):
        comps = [ComponentSurface(id=0, marked_points=(0.0 + 0j,), radius=0.5),
                 ComponentSurface(id=1, marked_points=(0.0 + 0j,), radius=1.0)]
        fam = build_plumbing(comps, [NodeSpec(node_id=0, left=(0, 0), right=(1, 0))])
        path = str(tmp_path / "fam.cfg")
        write_family_config(fam, path)
        fam2, _ = read_family_config(path)
        assert [c.radius for c in fam2.components] == [0.5, 1.0]
        area = [mesh_fiber(f, MetricKind.INDUCED, 1e-4, MeshParams()).total_area
                for f in (fam, fam2)]
        assert area[0] == area[1]

    @pytest.mark.parametrize("kind_line", ["kind = plumbing\n", ""], ids=["plumbing", "no-kind"])
    def test_v1_file_without_radius_reads(self, tmp_path, kind_line):
        path = tmp_path / "old.cfg"
        path.write_text("[family]\nschema = pinchlab-family-v1\n" + kind_line
                        + "components = 0:0.0 ; 1:0.0\nnodes = 0:0.0-1.0\n"
                        "metric = cylinder\nscale = 2.0\n", encoding="utf-8")
        fam, metric = read_family_config(str(path))
        assert [c.radius for c in fam.components] == [0.5, 0.5]
        assert (fam.N, fam.g, fam.scale, metric) == (2, 0, 2.0, MetricKind.CYLINDER)

    def test_fermat_kind_rejected(self, tmp_path):
        path = tmp_path / "fermat.cfg"
        path.write_text(FERMAT_CONFIG, encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(str(path))):
            read_family_config(str(path))

    @pytest.mark.parametrize("schema_line", ["schema = not-a-schema\n", ""],
                             ids=["wrong", "missing"])
    def test_bad_schema_rejected(self, tmp_path, schema_line):
        path = tmp_path / "bad-schema.cfg"
        path.write_text("[family]\n" + schema_line + "components = 0:0.0 ; 1:0.0\n"
                        "nodes = 0:0.0-1.0\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(str(path)) + ".*schema"):
            read_family_config(str(path))

    @pytest.mark.parametrize("metric", ["fubini-study", "no-such-metric"])
    def test_bad_metric_rejected(self, tmp_path, metric):
        path = tmp_path / "bad-metric.cfg"
        path.write_text("[family]\nschema = pinchlab-family-v1\ncomponents = 0:0.0 ; 1:0.0\n"
                        f"nodes = 0:0.0-1.0\nmetric = {metric}\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(str(path)) + f".*{metric}"):
            read_family_config(str(path))

    def test_round_trip_three_cycle(self, tmp_path):
        fam = three_cycle_family()
        path = str(tmp_path / "fam.cfg")
        write_family_config(fam, path)
        fam2, _ = read_family_config(path)
        assert (fam2.N, fam2.g) == (3, 1)
        pts = fam2.components[0].marked_points
        assert pts[0] == 0.0 and math.isinf(pts[1].real)
