"""Tests for the structured fiber mesher and reference meshes."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from pinchlab import mesh as mesh_module
from pinchlab.curvature import curvature_samples
from pinchlab.errors import ChartOverlapConflict, DegenerateTriangle, PointOffFiber
from pinchlab.family import (
    INF_POINT,
    ComponentSurface,
    MetricKind,
    NodeSpec,
    build_plumbing,
    conformal_factor,
    three_cycle_family,
    two_sphere_family,
)
from pinchlab.laplace import assemble
from pinchlab.mesh import (
    MeshParams,
    RoundSphereFactor,
    TriangleMesh,
    annulus_mesh,
    disjoint_union,
    flat_torus_mesh,
    mesh_fiber,
    unit_sphere_mesh,
)
from pinchlab.verify import CURVATURE_PARAMS, DEFAULT_GRID, SWEEP_PARAMS, TORSION_GRID

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
        charts, ids, coords = m.vertex_chart_index()
        neck_angles = sorted(
            math.atan2(c.imag, c.real)
            for i, c in zip(ids.tolist(), coords.tolist())
            if charts[i][0] == "neck" and abs(abs(c) - 0.01) < 1e-9
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
            chart = mesh.charts[mesh.tri_chart[f]]
            fac = conformal_factor(fam, MetricKind.HYPERBOLIC_MODEL, chart, complex(mid),
                                   self.S)
            assert mesh.edge_lengths[e] == pytest.approx(abs(p - q) * math.sqrt(fac),
                                                         rel=1e-14)


def chart_area_quadrature(family, kind, s) -> list[tuple[int, float]]:
    """(component id, area) of every chart region by 1-D radial
    quadrature, independent of any mesh and of ``family.charts()``.

    All supported factors are rotation invariant, so the area of each
    chart region is 2*pi * integral of factor(r) * r dr; regions are the
    per-branch neck half-annuli sqrt|s| <= |x| <= 1 (on the branch's
    component) and the caps.
    """
    areas = []
    root = math.sqrt(abs(s))

    for node in family.nodes:
        for branch, (cid, _) in enumerate((node.left, node.right)):
            def f(r: float, b=branch, nid=node.node_id) -> float:
                return conformal_factor(family, kind, ("neck", nid, b), complex(r, 0.0), s) * r

            # integrate in log r for graded accuracy
            val, _ = quad(lambda u, g=f: g(math.exp(u)) * math.exp(u),
                          math.log(root), 0.0, limit=200)
            areas.append((cid, 2.0 * math.pi * val))

    for comp in family.components:
        if family.node_degree(comp.id) == 1:
            def f(r: float, cid=comp.id) -> float:
                return conformal_factor(family, kind, ("cap", cid), complex(r, 0.0), s) * r

            val, _ = quad(f, 0.0, 1.0, limit=200)
            areas.append((comp.id, 2.0 * math.pi * val))
    return areas


def fiber_area_quadrature(family, kind, s) -> float:
    """Fiber area by 1-D radial quadrature (sum of chart_area_quadrature)."""
    return sum(area for _, area in chart_area_quadrature(family, kind, s))


def _two_sphere_half_and_one():
    comps = [ComponentSurface(id=0, marked_points=(0.0 + 0j,), radius=0.5),
             ComponentSurface(id=1, marked_points=(0.0 + 0j,), radius=1.0)]
    return build_plumbing(comps, [NodeSpec(node_id=0, left=(0, 0), right=(1, 0))])


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

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("make", [two_sphere_family, three_cycle_family,
                                      _two_sphere_half_and_one],
                             ids=["two-sphere", "three-cycle", "two-sphere-0.5-1.0"])
    def test_component_areas_within_one_percent(self, make, kind):
        # the component areas A_i: mesh triangles grouped by component
        # through the chart table and family.charts()
        fam, s = make(), 1e-3
        m = mesh_fiber(fam, kind, s).refine()
        if kind is MetricKind.HYPERBOLIC_MODEL:
            m = m.refine()
        component = fam.charts()
        chart_area = np.bincount(m.tri_chart, weights=m.triangle_areas,
                                 minlength=len(m.charts))
        mesh_area = dict.fromkeys((c.id for c in fam.components), 0.0)
        for chart, area in zip(m.charts, chart_area):
            mesh_area[component[chart]] += area
        oracle = dict.fromkeys(mesh_area, 0.0)
        for cid, area in chart_area_quadrature(fam, kind, s):
            oracle[cid] += area
        for cid, area in oracle.items():
            assert mesh_area[cid] == pytest.approx(area, rel=0.01), cid
        if make is _two_sphere_half_and_one:
            # the caps differ by 2 pi (1 - 1/4) = 4.7
            assert mesh_area[1] - mesh_area[0] > math.pi

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

    def test_chart_table_fixed_at_construction(self):
        m = mesh_fiber(three_cycle_family(), MetricKind.INDUCED, 1e-3)
        # one read-only int64 index per triangle into the distinct charts,
        # which are listed in order of first use
        assert m.tri_chart.dtype == np.int64 and m.tri_chart.shape == (m.F,)
        assert not m.tri_chart.flags.writeable
        used, first = np.unique(m.tri_chart, return_index=True)
        assert used.tolist() == list(range(len(m.charts)))
        assert (np.diff(first) > 0).all()
        assert len(set(m.charts)) == len(m.charts)
        fine = m.refine()
        assert fine.charts == m.charts
        assert np.array_equal(fine.tri_chart, np.repeat(m.tri_chart, 4))

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


# ---------------------------------------------------------------------------
# array mesher against the sequential one
# ---------------------------------------------------------------------------

def _neck_radii_loop(metric, chart, abs_s, rpd, max_dlnf=0.8):
    """The sequential neck march, one metric call per ring (reference)."""
    u_end = 0.5 * math.log(1.0 / abs_s)
    du_max = math.log(10.0) / rpd
    halvings = 0.5 ** np.arange(15)
    us = [0.0]
    u = 0.0
    while u < u_end - 1e-12:
        du = min(du_max, u_end - u) * halvings
        tried = du[du > 1e-4 * du_max]
        f = metric(chart, np.exp(-(u + np.concatenate([[0.0], tried]))) + 0j)
        ok = np.abs(np.log(f[1:] / f[0])) <= max_dlnf
        u += tried[np.argmax(ok)] if ok.any() else du[tried.size]
        us.append(u)
    us[-1] = u_end
    if len(us) < 5:
        us = list(np.linspace(0.0, u_end, 5))
    return np.exp(-np.asarray(us))


class _LoopStack:
    """The ring stack built ring by ring, band by band and fan by fan
    (reference for ``mesh._ring_stack``)."""

    def __init__(self, n_theta):
        self.n = n_theta
        self.ring_start, self.ring_radius = [], []
        self.next_vertex = 0
        self.tris, self.coords, self.tri_chart = [], [], []
        self.charts = {}  # chart -> index, in order of first use

    def add_ring(self, radius):
        self.ring_start.append(self.next_vertex)
        self.ring_radius.append(radius)
        self.next_vertex += self.n
        return len(self.ring_start) - 1

    def _ring(self, ring):
        j = np.arange(self.n)
        start = self.ring_start[ring]
        ang = 2.0 * np.pi * np.arange(self.n + 1) / self.n
        p = self.ring_radius[ring] * np.exp(1j * ang)
        return start + j, start + (j + 1) % self.n, p[:-1], p[1:]

    def _add_one(self, chart, tris, coords):
        self.tris.append(np.stack(tris, axis=-1).reshape(-1, 3))
        self.coords.append(np.stack(coords, axis=-1).reshape(-1, 3))
        index = self.charts.setdefault(chart, len(self.charts))
        self.tri_chart.append(np.full(self.n * len(tris) // 3, index, dtype=np.int64))

    def add_bands(self, bands):
        for chart, lower, upper in bands:
            a, an, pa, pan = self._ring(lower)
            b, bn, pb, pbn = self._ring(upper)
            self._add_one(chart, [a, an, b, an, bn, b], [pa, pan, pb, pan, pbn, pb])

    def add_fan(self, chart, ring, bottom):
        center = self.next_vertex
        self.next_vertex += 1
        v, vn, p, pn = self._ring(ring)
        c, zero = np.full(self.n, center), np.zeros(self.n, dtype=complex)
        if bottom:
            self._add_one(chart, [c, vn, v], [zero, pn, p])
        else:
            self._add_one(chart, [c, v, vn], [zero, p, pn])
        return center

    def build(self, metric, closed, genus):
        return TriangleMesh(self.next_vertex, np.concatenate(self.tris), list(self.charts),
                            np.concatenate(self.tri_chart), np.concatenate(self.coords),
                            metric, closed, genus)


def _latitude_radii_loop(J):
    lat = 0.5 * math.pi * np.arange(1, J + 1) / J
    return np.tan(0.5 * lat)


def _cap_radii_loop(comp, scale):
    arc = 0.5 * math.pi * comp.radius * math.sqrt(scale)
    return _latitude_radii_loop(max(3, math.ceil(arc / mesh_module.CAP_RING_SPACING)))


def _mesh_fiber_loop(family, kind, s, params=MeshParams()):
    """The fiber walk with ring indices kept by hand: every segment
    reuses the last ring, a cycle opens on the ring |x| = 1 and closes
    with one band back onto it (reference for ``mesh.mesh_fiber``)."""
    if s == 0:
        raise PointOffFiber("mesh_fiber requires s != 0; fibers at s = 0 are nodal")
    if abs(s) >= 0.25:
        raise PointOffFiber("plumbing fibers are meshed for |s| < 1/4")
    comp_order, node_order, is_cycle = family.walk()
    stack = _LoopStack(params.angular_count)
    metric = mesh_module.FiberMetric(family, kind, s)
    rings, bands = [], []  # bands: (chart, lower ring, upper ring)

    def extend(chart, radii, reuse_first):
        start = len(rings) - 1 if reuse_first else None
        for r in (radii if not reuse_first else radii[1:]):
            rings.append(stack.add_ring(r))
        base = start if start is not None else len(rings) - len(radii)
        for k in range(base, len(rings) - 1):
            bands.append((chart, rings[k], rings[k + 1]))

    first_comp = family.component(comp_order[0])
    if not is_cycle:
        extend(("cap", first_comp.id), list(_cap_radii_loop(first_comp, family.scale)), False)
    for i, (node, branch) in enumerate(node_order):
        near = ("neck", node.node_id, branch)
        far = ("neck", node.node_id, 1 - branch)
        neck_near = _neck_radii_loop(metric, near, abs(s), params.rings_per_decade)
        neck_far = _neck_radii_loop(metric, far, abs(s), params.rings_per_decade)
        if is_cycle and i == 0:
            extend(near, [1.0], reuse_first=False)
        extend(near, list(neck_near), reuse_first=True)
        if is_cycle and i == len(node_order) - 1:
            extend(far, list(neck_far[::-1])[:-1], reuse_first=True)
            bands.append((far, rings[-1], rings[0]))
        else:
            extend(far, list(neck_far[::-1]), reuse_first=True)
    if not is_cycle:
        last_comp = family.component(comp_order[-1])
        cap_r = _cap_radii_loop(last_comp, family.scale)
        extend(("cap", last_comp.id), list(cap_r[::-1]), reuse_first=True)
    stack.add_bands(bands)
    if not is_cycle:
        stack.add_fan(("cap", first_comp.id), rings[0], bottom=True)
        stack.add_fan(("cap", last_comp.id), rings[-1], bottom=False)
    return stack.build(metric, closed=True, genus=family.g)


def _unit_sphere_loop(J=10, n_theta=24, radius=1.0):
    stack = _LoopStack(n_theta)
    radii = _latitude_radii_loop(J)
    rings = [stack.add_ring(r) for r in radii]          # north cap, out to equator
    rings2 = [stack.add_ring(r) for r in radii[-2::-1]]  # south cap, equator inward
    seq = rings + rings2
    stack.add_bands([(("capN",) if k < J - 1 else ("capS",), seq[k], seq[k + 1])
                     for k in range(len(seq) - 1)])
    stack.add_fan(("capN",), rings[0], bottom=True)
    stack.add_fan(("capS",), seq[-1], bottom=False)
    return stack.build(RoundSphereFactor(radius), closed=True, genus=0)


def _annulus_loop(r_inner, r_outer=1.0, n_theta=24, rings_per_decade=12):
    decades = math.log10(r_outer / r_inner)
    K = max(4, math.ceil(rings_per_decade * decades))
    radii = np.exp(np.linspace(math.log(r_inner), math.log(r_outer), K + 1))
    stack = _LoopStack(n_theta)
    rings = [stack.add_ring(r) for r in radii]
    stack.add_bands([(("plane",), rings[k], rings[k + 1]) for k in range(len(rings) - 1)])
    return stack.build(mesh_module.ConstantFactor(1.0), closed=False, genus=None)


_REFERENCE = {mesh_fiber: _mesh_fiber_loop, unit_sphere_mesh: _unit_sphere_loop,
              annulus_mesh: _annulus_loop}


def _build(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return exc


def _reference(fn, *args):
    return _build(_REFERENCE[fn], *args)


def _orbit_first(mesh):
    """Per edge of a ring stack with a band, the least edge id in its orbit
    under the ring shift (vertex k * n + j to k * n + (j + 1) % n on every
    ring, fan centers fixed); None for a mesh measured edge by edge: no
    layout, fewer than three positions, no band, or a cycle of fewer than
    three rings."""
    if mesh.rings is None:
        return None
    n, R, fans, cycle = mesh.rings
    if n < 3 or (R if cycle else R - 1) < 1 or (cycle and R < 3):
        return None
    # an orbit is (ring of each end, the angular step between them); a fan
    # center counts as ring R + its index and step 0
    (ku, ju), (kv, jv) = np.divmod(mesh.edges[:, 0], n), np.divmod(mesh.edges[:, 1], n)
    step = (jv - ju) % n
    step = np.where(ku == kv, np.minimum(step, n - step), step)  # (k, n - 1)-(k, 0) too
    spoke = kv >= R
    kv[spoke], step[spoke] = R + mesh.edges[spoke, 1] - n * R, 0
    _, orbit = np.unique((ku * (R + fans) + kv) * n + step, return_inverse=True)
    first = np.full(orbit.max() + 1, mesh.E)
    np.minimum.at(first, orbit, np.arange(mesh.E))
    return first[orbit]


def _heron(tri_lengths):
    a, b, c = tri_lengths[:, 0], tri_lengths[:, 1], tri_lengths[:, 2]
    sp = 0.5 * (a + b + c)
    return np.sqrt(np.maximum(sp * (sp - a) * (sp - b) * (sp - c), 0.0))


def _orbit_lengths(got, per_edge):
    """The per-edge lengths of an oracle as ``got`` holds them: on a ring
    stack each orbit takes the length of its first edge."""
    first = _orbit_first(got)
    return per_edge if first is None else per_edge[first]


def _assert_bytes(got, expect, name):
    assert got.dtype == expect.dtype and got.shape == expect.shape, name
    assert got.tobytes() == expect.tobytes(), name


def _assert_same_mesh(got, expect):
    if isinstance(expect, Exception):
        assert (type(got), str(got)) == (type(expect), str(expect))
        return
    assert not isinstance(got, Exception), got
    assert got.V == expect.V
    assert got.charts == expect.charts
    for name in ("triangles", "tri_chart", "tri_coords"):
        _assert_bytes(getattr(got, name), getattr(expect, name), name)
    lengths = _orbit_lengths(got, expect.edge_lengths)
    _assert_bytes(got.edge_lengths, lengths, "edge_lengths")
    _assert_bytes(got.triangle_areas, _heron(lengths[got.tri_edge]), "triangle_areas")


ORACLE_FAMILIES = {
    "two-sphere": two_sphere_family,
    "two-sphere-x4": lambda: two_sphere_family(4.0),
    "three-cycle": three_cycle_family,
}
# 0.3 is off the meshed range: both sides must raise the same error
ORACLE_GRID = np.concatenate([DEFAULT_GRID, TORSION_GRID, [1e-30, 1e-60, 0.2, 1e-3, 0.3]])
ORACLE_PARAMS = {"sweep": SWEEP_PARAMS, "default": MeshParams()}


class TestArrayMesherMatchesLoop:
    """Byte-equal meshes (or the same error) from the run-wise neck march,
    the segment walk and the in-place ring stack as from the sequential
    reference: rings, bands and fans one at a time.  The reference has no
    layout and measures every edge; the ring stack measures one edge per
    ring orbit, so each orbit's lengths are the reference's at the
    orbit's first edge, and the areas Heron's formula on them."""

    @pytest.mark.parametrize("params", ORACLE_PARAMS)
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("name", ORACLE_FAMILIES)
    def test_fiber_matrix(self, name, kind, params):
        fam = ORACLE_FAMILIES[name]()
        for s in ORACLE_GRID:
            args = (fam, kind, float(s), ORACLE_PARAMS[params])
            _assert_same_mesh(_build(mesh_fiber, *args), _reference(mesh_fiber, *args))

    @pytest.mark.parametrize("family", [two_sphere_family, three_cycle_family])
    def test_curvature_params(self, family):
        args = (family(), MetricKind.INDUCED, 1e-3, CURVATURE_PARAMS)
        _assert_same_mesh(mesh_fiber(*args), _reference(mesh_fiber, *args))

    @pytest.mark.parametrize("fn,args", [
        (unit_sphere_mesh, (16, 40)),
        (unit_sphere_mesh, (12, 32)),
        (unit_sphere_mesh, (1, 16)),  # no bands: two fans on the equator
        (annulus_mesh, (0.1, 1.0, 32)),
        (annulus_mesh, (1e-4,)),
        (unit_sphere_mesh, (10, 24)),
        (annulus_mesh, (1e-4, 1.0, 64, 16)),
    ])
    def test_reference_meshes(self, fn, args):
        _assert_same_mesh(fn(*args), _reference(fn, *args))


class TestNeckMarchWork:
    """Metric calls per mesh: one per run of neck rings, one per ladder
    step, one per chart for the edge lengths, so the count does not grow
    with the depth.  The budgets were measured with the run-wise march;
    the per-ring march made 164 and 484 calls on the induced two-sphere
    at s = 1e-10 and 1e-30, and 486 and 1446 on the three-cycle."""

    BUDGETS = {
        ("two-sphere", MetricKind.INDUCED): 6,
        ("two-sphere", MetricKind.HYPERBOLIC_MODEL): 22,
        ("three-cycle", MetricKind.INDUCED): 12,
        ("three-cycle", MetricKind.HYPERBOLIC_MODEL): 60,
    }

    @pytest.mark.parametrize("s", [1e-10, 1e-30])
    @pytest.mark.parametrize("name,kind", BUDGETS, ids=lambda v: getattr(v, "value", v))
    def test_conformal_factor_calls(self, monkeypatch, name, kind, s):
        calls = []

        def counted(*args):
            calls.append(None)
            return conformal_factor(*args)

        monkeypatch.setattr(mesh_module, "conformal_factor", counted)
        mesh_fiber(ORACLE_FAMILIES[name](), kind, s, SWEEP_PARAMS)
        assert len(calls) <= self.BUDGETS[name, kind]


# ---------------------------------------------------------------------------
# edge table and lengths against the np.unique construction
# ---------------------------------------------------------------------------

class _UniqueEdgeMesh(TriangleMesh):
    """The mesh with the edge table from np.unique and the lengths from
    whole-array gathers (the previous construction, kept as the oracle)."""

    def _build_edges(self):
        tri = self.triangles
        u, v = tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        _, first, inverse = np.unique(lo * self.V + hi, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.E = order.size
        self.tri_edge = rank[inverse].reshape(self.F, 3)
        self._edge_first = first[order]
        self.edges = np.stack([lo[self._edge_first], hi[self._edge_first]], axis=1)

    def _compute_lengths(self):
        midpoint = getattr(self.metric, "edge_midpoint", None)
        f, j = np.divmod(self._edge_first, 3)
        p = self.tri_coords[f, (j + 1) % 3]
        q = self.tri_coords[f, (j + 2) % 3]
        fac = np.empty(self.E)
        for c, chart in enumerate(self.charts):
            on = self.tri_chart[f] == c
            mid = midpoint(chart, p[on], q[on]) if midpoint else 0.5 * (p[on] + q[on])
            fac[on] = self.metric(chart, mid)
        bad = ~((fac > 0.0) & np.isfinite(fac))
        if bad.any():
            e = int(np.flatnonzero(bad)[0])
            raise DegenerateTriangle(f"non-positive conformal factor {fac[e]} at edge {e}")
        lengths = np.abs(p - q) * np.sqrt(fac)
        self.edge_lengths = lengths
        tl = lengths[self.tri_edge]
        a, b, c = tl[:, 0], tl[:, 1], tl[:, 2]
        sp = 0.5 * (a + b + c)
        self._tri_lengths = tl
        self.triangle_areas = np.sqrt(np.maximum(sp * (sp - a) * (sp - b) * (sp - c), 0.0))


def _mesh_args(mesh):
    return (mesh.V, mesh.triangles, mesh.charts, mesh.tri_chart, mesh.tri_coords,
            mesh.metric, mesh.closed, mesh.genus)


def _assert_same_edges(got):
    expect = _UniqueEdgeMesh(*_mesh_args(got))
    assert got.E == expect.E
    for name in ("tri_edge", "edges", "_edge_first"):
        _assert_bytes(getattr(got, name), getattr(expect, name), name)
    lengths = _orbit_lengths(got, expect.edge_lengths)
    _assert_bytes(got.edge_lengths, lengths, "edge_lengths")
    _assert_bytes(got.triangle_areas, _heron(lengths[got.tri_edge]), "triangle_areas")
    if lengths is expect.edge_lengths:
        _assert_bytes(got.triangle_areas, expect.triangle_areas, "triangle_areas")


EDGE_PARAMS = {"sweep": SWEEP_PARAMS, "curvature": CURVATURE_PARAMS}


def _plane_cycle(R):
    """A flat ring stack of R rings of 5 vertices, closed into a cycle."""
    return mesh_module._ring_stack(5, [(("plane",), np.linspace(1.0, 2.0, R + 1))],
                                   mesh_module.ConstantFactor(1.0), closed=True,
                                   genus=1, cycle=True)


class TestEdgeTableMatchesUnique:
    """Byte-equal edge tables from the closed form of a ring stack and the
    stable sort as from np.unique, and byte-equal lengths and areas from
    the per-chart gathers as from whole-array gathers: per edge on a mesh
    without a layout, at the first edge of each ring orbit, tiled over the
    orbit, on a ring stack."""

    @pytest.mark.parametrize("params", EDGE_PARAMS)
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("make_family", [two_sphere_family, three_cycle_family])
    def test_fiber_matrix(self, make_family, kind, params):
        for s in (1e-3, 1e-9):
            _assert_same_edges(mesh_fiber(make_family(), kind, s, EDGE_PARAMS[params]))

    @pytest.mark.parametrize("make_family", [two_sphere_family, three_cycle_family])
    def test_refine(self, make_family):
        m = mesh_fiber(make_family(), MetricKind.HYPERBOLIC_MODEL, 1e-6, SWEEP_PARAMS)
        fine = m.refine()
        _assert_same_edges(fine)
        assert fine.triangles.tobytes() == _UniqueEdgeMesh(*_mesh_args(m)).refine().triangles.tobytes()

    def test_disjoint_union(self):
        parts = [mesh_fiber(two_sphere_family(), MetricKind.INDUCED, 1e-4),
                 mesh_fiber(three_cycle_family(), MetricKind.CYLINDER, 1e-4),
                 flat_torus_mesh(8)]
        _assert_same_edges(disjoint_union(parts))

    @pytest.mark.parametrize("fn,args", [
        (annulus_mesh, (0.1, 1.0, 32)),
        (annulus_mesh, (1e-4,)),
        (flat_torus_mesh, (8,)),
        (unit_sphere_mesh, (12, 32)),
        (unit_sphere_mesh, (1, 16)),
    ])
    def test_reference_meshes(self, fn, args):
        _assert_same_edges(fn(*args))
        _assert_same_edges(fn(*args).refine())

    @pytest.mark.parametrize("fn,args", [
        (unit_sphere_mesh, (2, 3)),
        (unit_sphere_mesh, (3, 4)),
        (annulus_mesh, (0.5, 1.0, 3)),
        (_plane_cycle, (3,)),
        (_plane_cycle, (4,)),
        (mesh_fiber, (three_cycle_family(), MetricKind.INDUCED, 1e-5, SWEEP_PARAMS)),
    ])
    def test_ring_stack_tables_without_a_sort(self, monkeypatch, fn, args):
        # the closed form covers every ring stack with a band: the sort of
        # the edge keys never runs on one
        def no_sort(self):
            raise AssertionError("edge keys sorted on a ring stack")

        monkeypatch.setattr(TriangleMesh, "_sorted_first", no_sort)
        _assert_same_edges(fn(*args))

    def test_two_ring_cycle_is_rejected(self):
        # both bands join rings 0 and 1, so each radial edge has four
        # triangles; the sorted table sees it
        with pytest.raises(DegenerateTriangle, match="boundary edge"):
            _plane_cycle(2)

    @staticmethod
    def _assert_names_the_same_edge(layout):
        # bad on the north fan's spokes and on the first south bands: the
        # lowest bad edge is in the second chart, not in the first
        sphere = RoundSphereFactor()

        def factor(chart, coord):
            r = np.abs(coord)
            bad = r < 0.04 if chart == ("capN",) else r > 0.9
            return np.where(bad, -sphere(chart, coord), sphere(chart, coord))

        mesh = unit_sphere_mesh(12, 32)
        args = list(_mesh_args(mesh))
        args[5] = factor
        with pytest.raises(DegenerateTriangle) as got:
            TriangleMesh(*args, rings=mesh.rings if layout else None)
        with pytest.raises(DegenerateTriangle) as expect:
            _UniqueEdgeMesh(*args)
        assert str(got.value) == str(expect.value)

    def test_failing_factor_names_the_same_edge(self):
        self._assert_names_the_same_edge(layout=False)

    def test_failing_factor_names_the_same_edge_by_orbit(self):
        # only orbit representatives are measured: the first bad one is
        # the lowest bad edge
        self._assert_names_the_same_edge(layout=True)


class TestRingOrbitInvariants:
    """On a fiber the metric is radial in every chart, so the ring shift
    maps the mesh onto itself: lengths, areas and curvature samples are
    exactly constant on each ring orbit, and the lumped mass and the
    diagonal of K, sums of orbit-constant terms in orbit-dependent order,
    lie within 1e-15 relative of each ring's position-0 value (3e-15 to
    1e-14 when every edge was measured on its own)."""

    @staticmethod
    def _triangle_orbits(mesh, values):
        # one row per band triangle type, then per fan
        n, R, fans, cycle = mesh.rings
        B = R if cycle else R - 1
        bands = values[:2 * n * B].reshape(B, n, 2).transpose(0, 2, 1).reshape(2 * B, n)
        return np.concatenate([bands, values[2 * n * B:].reshape(fans, n)])

    @pytest.mark.parametrize("params", EDGE_PARAMS)
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("make_family", [two_sphere_family, three_cycle_family])
    def test_constant_on_ring_orbits(self, make_family, kind, params):
        fam, s = make_family(), 1e-3
        mesh = mesh_fiber(fam, kind, s, EDGE_PARAMS[params])
        assert (mesh.edge_lengths == mesh.edge_lengths[_orbit_first(mesh)]).all()
        for values in (mesh.triangle_areas, curvature_samples(fam, kind, s, mesh)):
            orbits = self._triangle_orbits(mesh, values)
            assert (orbits == orbits[:, :1]).all()
        n, R = mesh.rings.n, mesh.rings.rings
        for values in (mesh.lumped_vertex_mass(), assemble(mesh).stiffness.diagonal()):
            rings = values[:n * R].reshape(R, n)
            assert (np.abs(rings - rings[:, :1]) <= 1e-15 * rings[:, :1]).all()


class TestMeshBuildMemory:
    def test_traced_peak_within_1_15_mesh_sizes(self):
        # the densest mesh of the curvature rows; at the np.unique edge
        # table with the ring-stack blocks held the ratio was 2.3, with
        # the sorted edge table and per-edge lengths 1.30, and measuring
        # one edge and triangle per ring orbit 1.08 (bound: that plus 0.07)
        args = (three_cycle_family(), MetricKind.INDUCED, 1e-3, CURVATURE_PARAMS)
        tracemalloc.start()
        try:
            mesh = mesh_fiber(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in vars(mesh).values() if isinstance(a, np.ndarray))
        assert peak <= 1.15 * held, (peak, held)
