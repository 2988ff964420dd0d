"""Tests for logarithmic cut-offs and certified eigenvalue upper bounds."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchlab.errors import EpsilonOutOfRange, RankDeficientTestSet
from pinchlab.family import MetricKind, three_cycle_family, two_sphere_family
from pinchlab.laplace import assemble, solve_smallest
from pinchlab.mesh import annulus_mesh, mesh_fiber
from pinchlab.rayleigh import (
    CutoffSpec,
    build_cutoffs,
    cutoff_epsilon,
    dirichlet_energy,
    log_ramp,
    rayleigh_upper_bound,
)


@pytest.fixture(scope="module")
def two_sphere_setup():
    fam = two_sphere_family()
    s = 1e-8
    mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
    pb = assemble(mesh)
    return fam, s, mesh, pb


class TestEpsilon:
    def test_formula_and_clamp(self):
        assert cutoff_epsilon(1e-16) == pytest.approx(2e-2)
        assert cutoff_epsilon(1e-4) == 0.25  # clamped to the neck chart

    def test_zero_s_rejected(self):
        with pytest.raises(EpsilonOutOfRange):
            cutoff_epsilon(0.0)

    def test_overlapping_supports_rejected(self):
        # eps^2 < |s| would let ramps from both branches overlap
        with pytest.raises(EpsilonOutOfRange):
            cutoff_epsilon(0.1)

    def test_spec_range_validated(self):
        with pytest.raises(EpsilonOutOfRange):
            CutoffSpec(epsilon=0.3, component=0, nodes=(0,))


class TestLogRamp:
    def test_endpoints(self):
        eps = 1e-4
        assert log_ramp(eps, eps) == 0.0
        assert log_ramp(math.sqrt(eps), eps) == 1.0
        assert log_ramp(eps / 2, eps) == 0.0
        assert log_ramp(0.5, eps) == 1.0

    def test_midpoint_value(self):
        eps = 1e-4
        r = eps ** 0.75  # three quarters of the log way
        assert log_ramp(r, eps) == pytest.approx(0.5)

    @settings(max_examples=50, deadline=None)
    @given(logr=st.floats(min_value=-6.0, max_value=0.0))
    def test_monotone_in_range(self, logr):
        eps = 1e-4
        r = 10.0 ** logr
        v = log_ramp(r, eps)
        assert 0.0 <= v <= 1.0
        assert log_ramp(r * 1.1, eps) >= v

    def test_flat_annulus_ramp_energy(self):
        # closed form: int (2/(r log eps^-1))^2 * 2 pi r dr over [eps, sqrt(eps)]
        eps = 1e-4
        mesh = annulus_mesh(eps, 1.0, n_theta=64, rings_per_decade=16)
        pb = assemble(mesh)
        vec = np.array([log_ramp(abs(c), eps) for _, c in mesh.vertex_charts()])
        energy = dirichlet_energy(pb, vec)
        assert energy == pytest.approx(4.0 * math.pi / math.log(1.0 / eps), rel=0.01)


class TestBuildCutoffs:
    def test_disjoint_supports(self, two_sphere_setup):
        fam, s, mesh, pb = two_sphere_setup
        ts = build_cutoffs(mesh, fam, s)
        prod = ts.vectors[:, 0] * ts.vectors[:, 1]
        assert np.array_equal(prod, np.zeros(mesh.V))
        gram = ts.vectors.T @ (pb.mass[:, None] * ts.vectors)
        assert gram[0, 1] == 0.0

    def test_values_in_unit_interval(self, two_sphere_setup):
        fam, s, mesh, _ = two_sphere_setup
        ts = build_cutoffs(mesh, fam, s)
        raw = ts.vectors * np.sqrt(ts.plateau_areas)[None, :]
        assert raw.min() >= 0.0
        assert raw.max() <= 1.0 + 1e-12

    def test_one_on_component_interior(self, two_sphere_setup):
        fam, s, mesh, _ = two_sphere_setup
        ts = build_cutoffs(mesh, fam, s)
        raw = ts.vectors * np.sqrt(ts.plateau_areas)[None, :]
        for v, (chart, coord) in enumerate(mesh.vertex_charts()):
            if chart[0] == "cap":
                assert raw[v, chart[1]] == 1.0
            else:
                r = abs(coord)
                if r >= math.sqrt(ts.epsilon):
                    branch_comp = (fam.nodes[0].left if chart[2] == 0
                                   else fam.nodes[0].right)[0]
                    assert raw[v, branch_comp] == 1.0

    @pytest.mark.parametrize("make_family", [two_sphere_family, three_cycle_family])
    def test_matches_per_vertex_loop(self, make_family):
        # the scalar ramp, vertex by vertex: the arrays must give the same
        # bits, since the plateau test compares with 1.0 exactly
        def ramp(r, eps):
            if r <= eps:
                return 0.0
            if r * r >= eps:
                return 1.0
            return 2.0 * math.log(r / eps) / math.log(1.0 / eps)

        fam = make_family()
        s = 1e-10
        mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
        eps = cutoff_epsilon(s)
        col = {c.id: i for i, c in enumerate(fam.components)}
        phi = np.zeros((mesh.V, len(col)))
        for v, (chart, coord) in enumerate(mesh.vertex_charts()):
            if chart[0] == "cap":
                phi[v, col[chart[1]]] = 1.0
                continue
            node = fam.node(chart[1])
            own, other = (node.left, node.right) if chart[2] == 0 else (node.right, node.left)
            phi[v, col[own[0]]] += ramp(abs(coord), eps)
            phi[v, col[other[0]]] += ramp(abs(s) / abs(coord), eps)
        assert ((phi > 0.0) & (phi < 1.0)).any()  # the ramp is on the mesh
        mass = mesh.lumped_vertex_mass()
        areas = np.empty(len(col))
        for i in range(len(col)):
            areas[i] = float(mass[phi[:, i] == 1.0].sum())
            phi[:, i] /= math.sqrt(areas[i])
        ts = build_cutoffs(mesh, fam, s)
        assert np.array_equal(ts.plateau_areas, areas)
        assert np.array_equal(ts.vectors, phi)

    def test_normalized_mass_near_one_at_small_s(self):
        fam = two_sphere_family()
        s = 1e-16
        mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
        pb = assemble(mesh)
        ts = build_cutoffs(mesh, fam, s)
        norms = (ts.vectors * pb.mass[:, None] * ts.vectors).sum(axis=0)
        assert np.abs(norms - 1.0).max() < 0.05


class TestRayleighUpperBound:
    def test_bounds_dominate_computed_eigenvalues(self, two_sphere_setup):
        fam, s, mesh, pb = two_sphere_setup
        ts = build_cutoffs(mesh, fam, s)
        spec = solve_smallest(pb, 3, s=s)
        bounds = rayleigh_upper_bound(pb, ts)
        assert bounds[0] >= spec.eigenvalues[1]

    def test_three_cycle_bounds_valid(self):
        fam = three_cycle_family()
        s = 1e-6
        mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
        pb = assemble(mesh)
        ts = build_cutoffs(mesh, fam, s)
        spec = solve_smallest(pb, 4, s=s)
        bounds = rayleigh_upper_bound(pb, ts)
        assert len(bounds) == 2
        assert (bounds >= spec.eigenvalues[1:3] - 1e-14).all()

    def test_exact_eigenvectors_saturate(self, two_sphere_setup):
        _, s, _, pb = two_sphere_setup
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        ref = float(np.median(pb.stiffness.diagonal() / pb.mass))
        vals, vecs = spla.eigsh(
            pb.stiffness, k=3, M=sp.diags(pb.mass).tocsc(),
            sigma=-1e-6 * ref, which="LM",
        )
        order = np.argsort(vals)
        bounds = rayleigh_upper_bound(pb, vecs[:, order])
        assert np.allclose(bounds, np.maximum(vals[order], 0.0)[1:], rtol=1e-8, atol=1e-12)

    def test_rank_deficient_rejected(self, two_sphere_setup):
        _, s, _, pb = two_sphere_setup
        v = np.random.default_rng(0).standard_normal(pb.dimension)
        with pytest.raises(RankDeficientTestSet):
            rayleigh_upper_bound(pb, np.column_stack([v, v]))

    def test_inverse_log_exponent(self):
        # bounds follow K/log(1/|s|) once eps leaves the clamp: fit the
        # power of 1/log on a deep grid
        fam = two_sphere_family()
        bs, ss = [], []
        for s in (1e-10, 1e-12, 1e-14, 1e-16, 1e-18, 1e-20):
            mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
            pb = assemble(mesh)
            ts = build_cutoffs(mesh, fam, s)
            bs.append(rayleigh_upper_bound(pb, ts)[0])
            ss.append(s)
        x = np.log(np.log(1.0 / np.array(ss)))
        slope = np.polyfit(x, np.log(np.array(bs)), 1)[0]
        assert -slope == pytest.approx(1.0, abs=0.2)

    @settings(max_examples=8, deadline=None)
    @given(logs=st.floats(min_value=-9.0, max_value=-4.5))
    def test_validity_property(self, logs):
        fam = two_sphere_family()
        s = 10.0 ** logs
        mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
        pb = assemble(mesh)
        ts = build_cutoffs(mesh, fam, s)
        spec = solve_smallest(pb, 2, s=s)
        assert rayleigh_upper_bound(pb, ts)[0] >= spec.eigenvalues[1]
