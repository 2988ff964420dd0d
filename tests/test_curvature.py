"""Tests for Gauss curvature, curvature blow-up, and Gauss-Bonnet checks."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchlab import curvature as cv
from pinchlab.curvature import (
    CurvatureField,
    DefectReport,
    GaussBonnetReport,
    curvature_samples,
    factor_curvature,
    fermat_gauss_bonnet,
    gauss_bonnet,
    gauss_curvature,
    min_curvature_sweep,
    nodal_defect,
)
from pinchlab.errors import NotConverged, StencilOutOfChart
from pinchlab.family import (
    ChartPoint,
    ComponentSurface,
    DegenerationFamily,
    FermatAtlas,
    MetricKind,
    _fs_density,
    three_cycle_family,
    two_sphere_family,
)
from pinchlab.mesh import MeshParams, mesh_fiber


class TestFactorCurvature:
    def test_flat_factor_is_flat(self):
        assert factor_curvature(lambda z: 1.0, 0.3 + 0.2j, 1e-3) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_stereographic_sphere_unit_curvature(self):
        # symbolic oracle: K = 1 everywhere for 4/(1+|z|^2)^2
        for z in (0.0j, 0.4 + 0.1j, -0.8 + 0.5j):
            k = factor_curvature(lambda w: 4.0 / (1 + abs(w) ** 2) ** 2, z, 1e-3)
            assert k == pytest.approx(1.0, rel=1e-4)

    def test_cylinder_factor_is_flat(self):
        # u = -log|x| is harmonic away from the origin
        fam = two_sphere_family()
        k = gauss_curvature(
            fam, MetricKind.CYLINDER, ChartPoint(("neck", 0, 0), 0.1 + 0.05j), 1e-4
        )
        assert k == pytest.approx(0.0, abs=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.floats(min_value=-1.0, max_value=1.0),
        x=st.floats(min_value=-0.5, max_value=0.5),
        y=st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_gaussian_factor_closed_form(self, c, x, y):
        # factor e^{2c|z|^2}: Lap u = 4c, so K = -4c e^{-2c|z|^2}
        z = complex(x, y)
        k = factor_curvature(lambda w: math.exp(2 * c * abs(w) ** 2), z, 1e-3)
        assert k == pytest.approx(
            -4.0 * c * math.exp(-2 * c * abs(z) ** 2), rel=1e-5, abs=1e-7
        )


class TestGaussCurvature:
    def test_cap_round_sphere(self):
        # component spheres have radius 1/2, hence K = 4
        fam = two_sphere_family()
        k = gauss_curvature(fam, MetricKind.INDUCED, ChartPoint(("cap", 0), 0.3 + 0.2j), 1e-4)
        assert k == pytest.approx(4.0, rel=1e-6)

    def test_scale_divides_curvature(self):
        fam = two_sphere_family(scale=4.0)
        k = gauss_curvature(fam, MetricKind.INDUCED, ChartPoint(("cap", 0), 0.3j), 1e-4)
        assert k == pytest.approx(1.0, rel=1e-6)

    def test_hyperbolic_model_neck_minus_one(self):
        fam = two_sphere_family()
        for r in (0.01, 0.05, 0.2):
            k = gauss_curvature(
                fam, MetricKind.HYPERBOLIC_MODEL, ChartPoint(("neck", 0, 0), complex(r)), 1e-8
            )
            assert k == pytest.approx(-1.0, rel=1e-4)

    def test_hyperbolic_model_constant_in_s(self):
        fam = two_sphere_family()
        ks = [
            gauss_curvature(
                fam, MetricKind.HYPERBOLIC_MODEL, ChartPoint(("neck", 0, 0), 0.05 + 0j), s
            )
            for s in (1e-6, 1e-9, 1e-12)
        ]
        assert np.allclose(ks, -1.0, rtol=1e-4)

    def test_induced_neck_core_blowup(self):
        # at |x| = sqrt(s) the induced factor is 2 and Lap u = 2/s
        fam = two_sphere_family()
        s = 1e-4
        k = gauss_curvature(
            fam, MetricKind.INDUCED, ChartPoint(("neck", 0, 0), complex(math.sqrt(s))), s
        )
        assert k == pytest.approx(-1.0 / s, rel=1e-6)

    def test_stencil_out_of_chart(self):
        fam = two_sphere_family()
        with pytest.raises(StencilOutOfChart):
            gauss_curvature(fam, MetricKind.INDUCED, ChartPoint(("neck", 0, 0), 1e-4 + 0j), 1e-4)
        with pytest.raises(StencilOutOfChart):
            gauss_curvature(fam, MetricKind.INDUCED, ChartPoint(("cap", 0), 1.0 + 0j), 1e-4)


@pytest.fixture(scope="module")
def report():
    fam = two_sphere_family()
    return min_curvature_sweep(
        fam, MetricKind.INDUCED, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    )


class TestMinCurvatureSweep:
    def test_magnitude_grows_tenfold(self, report):
        assert report.min_values[-1] < 10.0 * report.min_values[0]
        assert (report.min_values < 0).all()

    def test_component_interiors_bounded_above(self, report):
        # cap curvature stays at the round-sphere value for every s
        assert report.component_max.max() <= 4.0 + 1e-6

    def test_minimum_on_neck(self, report):
        for s, pt in zip(report.s_grid, report.min_points):
            assert pt.chart[0] == "neck"
            assert s <= abs(pt.coord) <= 1.0

    def test_exponent_reported(self, report):
        assert math.isfinite(report.fitted_exponent)

    def test_hyperbolic_floor_constant(self):
        fam = two_sphere_family()
        rep = min_curvature_sweep(fam, MetricKind.HYPERBOLIC_MODEL, [1e-6, 1e-8])
        assert np.isfinite(rep.min_values).all()


class TestCurvatureField:
    def test_finite_on_fiber_samples(self):
        fam = two_sphere_family()
        s = 1e-4
        mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
        field = curvature_samples(fam, MetricKind.INDUCED, s, mesh)
        assert isinstance(field, CurvatureField)
        assert len(field.values) == mesh.F
        assert np.isfinite(field.values).all()


class TestGaussBonnet:
    def test_two_sphere_fiber(self):
        fam = two_sphere_family()
        s = 1e-3
        mesh = mesh_fiber(
            fam, MetricKind.INDUCED, s,
            MeshParams(rings_per_decade=96, angular_count=64),
        )
        rep = gauss_bonnet(mesh, curvature_samples(fam, MetricKind.INDUCED, s, mesh))
        assert rep.expected == pytest.approx(4.0 * math.pi)
        assert abs(rep.deviation) < 0.01 * 4.0 * math.pi

    def test_three_cycle_fiber(self):
        fam = three_cycle_family()
        s = 1e-3
        mesh = mesh_fiber(
            fam, MetricKind.INDUCED, s,
            MeshParams(rings_per_decade=96, angular_count=64),
        )
        rep = gauss_bonnet(mesh, curvature_samples(fam, MetricKind.INDUCED, s, mesh))
        assert rep.expected == 0.0
        assert abs(rep.total) < 0.05 * 4.0 * math.pi

    def test_field_mesh_mismatch(self):
        fam = two_sphere_family()
        s = 1e-3
        mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
        field = curvature_samples(fam, MetricKind.INDUCED, s, mesh)
        field.values = field.values[:-1]
        with pytest.raises(ValueError):
            gauss_bonnet(mesh, field)


class TestFermatGaussBonnet:
    def test_conic_genus_zero(self):
        rep = fermat_gauss_bonnet(2, 0.1)
        assert rep.expected == pytest.approx(4.0 * math.pi)
        assert abs(rep.deviation) < 1e-3

    def test_cubic_genus_one(self):
        rep = fermat_gauss_bonnet(3, 0.1)
        assert rep.expected == 0.0
        assert abs(rep.total) < 1e-3

    def test_quartic_genus_three(self):
        rep = fermat_gauss_bonnet(4, 0.1)
        assert rep.expected == pytest.approx(-8.0 * math.pi)
        assert abs(rep.deviation) < 0.02 * 8.0 * math.pi

    def test_quintic_genus_six(self):
        rep = fermat_gauss_bonnet(5, 0.01)
        assert rep.expected == pytest.approx(-20.0 * math.pi)
        assert abs(rep.deviation) < 0.02 * 20.0 * math.pi

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            fermat_gauss_bonnet(1, 0.1)

    def test_branch_point_on_the_grid(self, monkeypatch):
        # s = -1/16 puts a branch point at a = 0.5 with 0.5^4 + s == 0 in
        # floating point, so there the chart-1 sheets meet at b = 0 and the
        # branch chart reaches x = 0 exactly (at y = 0.5).  Every integrand
        # is also evaluated there; the zero weight must skip the kernel,
        # with no 0/0 warning
        seen = []

        def quad(fn, center, breaks, rel_tol, n_theta0):
            seen.append(fn(np.array([[0.5 + 0j]]))[0, 0])
            return polar_quad(fn, center, breaks, rel_tol, n_theta0=n_theta0)

        polar_quad = cv._polar_quad
        monkeypatch.setattr(cv, "_polar_quad", quad)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = fermat_gauss_bonnet(4, -1.0 / 16.0)
        # chart 1, chart 2 (unramified), then the four branch charts
        assert len(seen) == 6 and seen[0] == 0.0 and seen[2:] == [0.0] * 4
        assert np.isfinite(seen[1])
        assert abs(rep.deviation) < 0.02 * 8.0 * math.pi


def _stencil_bound(factor_fn, z, h):
    """The fourth-order stencil's density D_h at step h and a bound on its
    largest error over the points z.  D_h - D_{h/2} = (15/16) C h^4 +
    O(h^6), so twice the largest difference bounds the truncation error
    (pointwise the estimate fails where C changes sign); the rounding of
    log(factor), taken as 64 ulps, enters each stencil with weight
    128/(12 h^2), five times over between D_h and D_{h/2}."""
    def dens(step):
        return factor_curvature(factor_fn, z, step) * factor_fn(z)

    d_h = dens(h)
    rounding = 5.0 * 128.0 * 64.0 * np.finfo(float).eps / (12.0 * h * h)
    return d_h, 2.0 * np.abs(d_h - dens(0.5 * h)).max() + rounding


class TestFermatDensity:
    """The closed-form curvature density against the stencil oracle."""

    @staticmethod
    def _disk(rng, r_lo, r_hi, n=2000):
        return rng.uniform(r_lo, r_hi, n) * np.exp(2j * math.pi * rng.uniform(size=n))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_chart1(self, d):
        atlas = FermatAtlas(d=d, s=0.1)
        a = self._disk(np.random.default_rng(d), 0.65, 0.85)
        stencil, bound = _stencil_bound(
            lambda z: atlas.sheet_factors(1, z).prod(axis=0), a, 5e-3)
        assert np.abs(atlas.sheet_density(1, a) - stencil).max() <= bound

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_chart2(self, d):
        atlas = FermatAtlas(d=d, s=0.1)
        a2 = self._disk(np.random.default_rng(d), 0.0, 1.0 / 0.85)
        stencil, bound = _stencil_bound(
            lambda z: atlas.sheet_factors(2, z).prod(axis=0), a2, 5e-3)
        assert np.abs(atlas.sheet_density(2, a2) - stencil).max() <= bound

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_branch_chart(self, d):
        atlas = FermatAtlas(d=d, s=0.1)
        x_of_y, factor = atlas.branch_chart(atlas.branch_points[0])
        y = self._disk(np.random.default_rng(d), 0.0, 0.25)
        stencil, bound = _stencil_bound(factor, y, 4e-3)
        assert np.abs(_fs_density(y, x_of_y(y), 1.0, d) - stencil).max() <= bound

    def test_round_sphere_line(self):
        # a line (d = 1) is a round sphere: K = 4 everywhere, so K F = 4F
        atlas = FermatAtlas(d=1, s=0.3)
        a = self._disk(np.random.default_rng(0), 0.0, 2.0)
        assert np.allclose(atlas.sheet_density(1, a),
                           4.0 * atlas.sheet_factors(1, a)[0], rtol=1e-13, atol=0.0)


def _single_sphere_family() -> DegenerationFamily:
    return DegenerationFamily(
        components=(ComponentSurface(id=0, marked_points=()),),
        nodes=(), N=1, g=0, kind="plumbing",
    )


class TestNodalDefect:
    def test_two_sphere_defect(self):
        rep = nodal_defect(two_sphere_family(), [0.2, 0.1, 0.05, 0.02])
        assert isinstance(rep, DefectReport)
        assert rep.limit == pytest.approx(8.0 * math.pi, rel=0.02)
        assert rep.target_nodal == pytest.approx(8.0 * math.pi)
        assert rep.target_smooth == pytest.approx(4.0 * math.pi)
        # node defect 2 pi * 2 delta with delta = 1
        assert rep.defect == pytest.approx(4.0 * math.pi, rel=0.02)

    def test_three_cycle_defect(self):
        rep = nodal_defect(three_cycle_family(), [0.2, 0.1, 0.05, 0.02])
        assert rep.limit == pytest.approx(12.0 * math.pi, rel=0.02)
        assert rep.target_smooth == 0.0
        assert rep.defect == pytest.approx(12.0 * math.pi, rel=0.02)

    def test_single_sphere_no_defect(self):
        rep = nodal_defect(_single_sphere_family(), [0.2, 0.1])
        assert rep.limit == pytest.approx(4.0 * math.pi, rel=1e-6)
        assert rep.defect == pytest.approx(0.0, abs=1e-6)

    def test_epsilon_stable(self):
        rep = nodal_defect(two_sphere_family(), [0.3, 0.2, 0.1, 0.05])
        tail = np.abs(np.diff(rep.values[-2:]))
        assert tail.max() < 5e-3 * abs(rep.limit)

    def test_bad_grid_rejected(self):
        fam = two_sphere_family()
        with pytest.raises(ValueError):
            nodal_defect(fam, [0.1])
        with pytest.raises(ValueError):
            nodal_defect(fam, [0.6, 0.1])

    def test_not_converged(self, monkeypatch):
        def fake_radial(family, kind, chart, r_lo, r_hi):
            return 1.0 + r_lo  # keeps moving with the ball radius

        monkeypatch.setattr(cv, "_radial_total", fake_radial)
        with pytest.raises(NotConverged):
            nodal_defect(two_sphere_family(), [0.2, 0.1, 0.05])


class TestReports:
    def test_against_genus(self):
        rep = GaussBonnetReport.against_genus(4.0 * math.pi, 0)
        assert rep.deviation == pytest.approx(0.0)
        rep = GaussBonnetReport.against_genus(0.1, 1)
        assert rep.expected == 0.0 and rep.deviation == pytest.approx(0.1)
