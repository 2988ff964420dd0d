"""Tests for family construction, conformal factors, and serialization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchlab.errors import (
    DisconnectedGraph,
    OverlappingMarkedPoints,
    PointOffFiber,
    ZeroRadiusAtNode,
)
from pinchlab.family import (
    INF_POINT,
    ChartPoint,
    ComponentSurface,
    MetricKind,
    NodeSpec,
    build_plumbing,
    conformal_factor,
    fermat_fiber_charts,
    neck_core_length,
    read_family_config,
    three_cycle_family,
    two_sphere_family,
    write_family_config,
)

ALL_PLUMBING_KINDS = (
    MetricKind.INDUCED,
    MetricKind.HYPERBOLIC_MODEL,
    MetricKind.CYLINDER,
)


def neck_factor(fam, kind, r, s, branch=0):
    return conformal_factor(fam, kind, ChartPoint(("neck", 0, branch), complex(r, 0.0)), s)


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
        fc = conformal_factor(fam, kind, ChartPoint(("cap", 0), 1.0 + 0j), s)
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
                fam, kind, ChartPoint(("neck", 0, 1), y), s
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
            arr = conformal_factor(fam, kind, ChartPoint(chart, z), s)
            one = [conformal_factor(fam, kind, ChartPoint(chart, complex(c)), s)
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
            conformal_factor(fam, kind, ChartPoint(chart, complex(x)), s)
        with pytest.raises(exc):
            conformal_factor(fam, kind, ChartPoint(chart, complex(r)), s)
        z = np.array(good[:1] + [r] + good[1:], dtype=complex)
        with pytest.raises(exc):
            conformal_factor(fam, kind, ChartPoint(chart, z), s)

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
        atlas = fermat_fiber_charts(d, 0.3 if d > 1 else 0.0)
        assert atlas.genus() == g

    def test_branch_points_solve_defining_equation(self):
        atlas = fermat_fiber_charts(4, 0.3)
        assert len(atlas.branch_points) == 4
        for xb in atlas.branch_points:
            assert abs(xb ** 4 + 0.3) < 1e-14

    def test_singular_fiber_splits_into_lines(self):
        atlas = fermat_fiber_charts(4, 0.0)
        assert atlas.component_count == 4
        assert fermat_fiber_charts(4, 0.3).component_count == 1

    def test_chart_overlap_consistency(self):
        # sum over sheets of factor * |d a/d a2|^2 matches across the seam
        atlas = fermat_fiber_charts(4, 0.3)
        for a in (1.0 + 0j, 0.6 + 0.8j, -1j):
            f1 = atlas.sheet_factors(1, a).sum(axis=0)
            a2 = 1.0 / a
            f2 = atlas.sheet_factors(2, a2).sum(axis=0) * abs(1.0 / a ** 2) ** 2
            assert f1 == pytest.approx(f2, rel=1e-10)

    def test_branch_chart_matches_chart1(self):
        atlas = fermat_fiber_charts(4, 0.3)
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


class TestConfigRoundTrip:
    def test_round_trip_two_sphere(self, tmp_path):
        fam = two_sphere_family(scale=8.0)
        path = str(tmp_path / "fam.cfg")
        write_family_config(fam, path, metric=MetricKind.CYLINDER)
        fam2, metric = read_family_config(path)
        assert metric is MetricKind.CYLINDER
        assert (fam2.N, fam2.g, fam2.scale) == (fam.N, fam.g, 8.0)
        assert [n.left for n in fam2.nodes] == [n.left for n in fam.nodes]

    def test_round_trip_three_cycle(self, tmp_path):
        fam = three_cycle_family()
        path = str(tmp_path / "fam.cfg")
        write_family_config(fam, path)
        fam2, _ = read_family_config(path)
        assert (fam2.N, fam2.g) == (3, 1)
        pts = fam2.components[0].marked_points
        assert pts[0] == 0.0 and math.isinf(pts[1].real)
