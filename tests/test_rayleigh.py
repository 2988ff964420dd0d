"""Tests for logarithmic cut-offs and certified eigenvalue upper bounds."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchlab.errors import EpsilonOutOfRange, RankDeficientTestSet
from pinchlab.family import (
    INF_POINT,
    ComponentSurface,
    MetricKind,
    NodeSpec,
    build_plumbing,
    three_cycle_family,
    two_sphere_family,
)
from pinchlab.laplace import assemble, solve_smallest
from pinchlab.mesh import annulus_mesh, mesh_fiber
from pinchlab.rayleigh import (
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


def _vertex_charts(mesh):
    """One (chart, coordinate) pair per vertex."""
    charts, ids, coords = mesh.vertex_chart_index()
    return [(charts[i], z) for i, z in zip(ids.tolist(), coords.tolist())]


def _chain_of_three(ids=(0, 1, 2)):
    """Components a - b - c, joined at 0 on the ends and at 0 and infinity
    on the middle one (the chain of ``tests/test_mesh.py``)."""
    a, b, c = ids
    comps = [ComponentSurface(id=a, marked_points=(0.0 + 0j,)),
             ComponentSurface(id=b, marked_points=(0.0 + 0j, INF_POINT)),
             ComponentSurface(id=c, marked_points=(0.0 + 0j,))]
    nodes = [NodeSpec(node_id=0, left=(a, 0), right=(b, 0)),
             NodeSpec(node_id=1, left=(b, 1), right=(c, 0))]
    return build_plumbing(comps, nodes)


def _per_vertex_cutoffs(mesh, fam, s):
    """Cut-offs vertex by vertex with the scalar ramp, both branches of
    every neck ramped; returns the normalized vectors and plateau areas."""
    def ramp(r, eps):
        if r <= eps:
            return 0.0
        if r * r >= eps:
            return 1.0
        return 2.0 * math.log(r / eps) / math.log(1.0 / eps)

    eps = cutoff_epsilon(s)
    col = {c.id: i for i, c in enumerate(fam.components)}
    phi = np.zeros((mesh.V, len(col)))
    for v, (chart, coord) in enumerate(_vertex_charts(mesh)):
        if chart[0] == "cap":
            phi[v, col[chart[1]]] = 1.0
            continue
        node = fam.node(chart[1])
        own, other = (node.left, node.right) if chart[2] == 0 else (node.right, node.left)
        phi[v, col[own[0]]] += ramp(abs(coord), eps)
        phi[v, col[other[0]]] += ramp(abs(s) / abs(coord), eps)
    mass = mesh.lumped_vertex_mass()
    areas = np.empty(len(col))
    for i in range(len(col)):
        areas[i] = float(mass[phi[:, i] == 1.0].sum())
        phi[:, i] /= math.sqrt(areas[i])
    return phi, areas


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
        vec = np.array([log_ramp(abs(c), eps) for _, c in _vertex_charts(mesh)])
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
        # a plateau entry is the raw 1.0 divided by the square root of its
        # component's plateau mass, bit for bit
        fam, s, mesh, _ = two_sphere_setup
        chain = _chain_of_three()
        for fam, mesh in ((fam, mesh), (chain, mesh_fiber(chain, MetricKind.INDUCED, s))):
            ts = build_cutoffs(mesh, fam, s)
            col = {c.id: i for i, c in enumerate(fam.components)}
            seen = set()
            for v, (chart, coord) in enumerate(_vertex_charts(mesh)):
                if chart[0] == "cap":
                    c = col[chart[1]]
                elif abs(coord) >= math.sqrt(ts.epsilon):
                    c = col[fam.branch(chart[1], chart[2])[0]]
                else:
                    continue
                assert ts.vectors[v, c] == 1.0 / np.sqrt(ts.plateau_areas[c]), (v, chart)
                seen.add(c)
            assert seen == set(col.values())

    @pytest.mark.parametrize("make_family", [two_sphere_family, three_cycle_family])
    def test_matches_per_vertex_loop(self, make_family):
        # the arrays must give the same bits, since the plateau test
        # compares bits
        fam = make_family()
        s = 1e-10
        mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
        phi, areas = _per_vertex_cutoffs(mesh, fam, s)
        assert ((phi > 0.0) & (phi < 1.0)).any()  # the ramp is on the mesh
        ts = build_cutoffs(mesh, fam, s)
        assert np.array_equal(ts.plateau_areas, areas)
        assert np.array_equal(ts.vectors, phi)

    @pytest.mark.parametrize("kind", [MetricKind.INDUCED, MetricKind.CYLINDER])
    @pytest.mark.parametrize("make_family", [two_sphere_family, three_cycle_family])
    @pytest.mark.parametrize("s", [1e-3, 1e-8, 1e-16])
    def test_other_branch_ramp_adds_nothing(self, make_family, kind, s):
        # the reference also adds each neck's other-branch ramp
        # log_ramp(|s|/|x|, eps); build_cutoffs leaves it out, bit for bit
        fam = make_family()
        mesh = mesh_fiber(fam, kind, s)
        phi, areas = _per_vertex_cutoffs(mesh, fam, s)
        ts = build_cutoffs(mesh, fam, s)
        assert np.array_equal(ts.plateau_areas, areas)
        assert np.array_equal(ts.vectors, phi)

    def test_chain_of_three_plateaus_on_their_components(self):
        # components 0 - 1 - 2 with ids unlike their column order; each
        # neck branch's plateau belongs to the component on that branch
        fam = _chain_of_three(ids=(7, 3, 5))
        column = {("cap", 7): 0, ("neck", 0, 0): 0, ("neck", 0, 1): 1,
                  ("neck", 1, 0): 1, ("cap", 5): 2, ("neck", 1, 1): 2}
        s = 1e-10
        mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
        ts = build_cutoffs(mesh, fam, s)
        raw = ts.vectors * np.sqrt(ts.plateau_areas)[None, :]
        seen = set()
        for v, (chart, coord) in enumerate(_vertex_charts(mesh)):
            if chart[0] == "cap" or abs(coord) ** 2 >= ts.epsilon:
                expect = [float(c == column[chart]) for c in range(3)]
                assert raw[v] == pytest.approx(expect, abs=1e-12), (v, chart)
                seen.add(chart)
        assert seen == set(column)
        assert (ts.plateau_areas > 0).all()

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
