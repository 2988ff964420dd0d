"""Intrinsic triangulations of fibers with log-graded neck refinement.

Every supported plumbing fiber (components carrying at most two nodes, so
the dual graph is a path or a cycle) is globally a chain or cycle of
annular charts capped by polar disks.  The mesher exploits this: it builds
one structured stack of concentric rings, log-uniform in |x| on necks and
latitude-uniform on caps, with rings shared at chart seams.  Edge lengths
are intrinsic: chart chord length times the square root of the conformal
factor at the chord's log-polar midpoint.  Edges are numbered and
measured with array operations: the metric is called once per chart, on
all the edges whose first incident triangle lies in that chart.

Also provides the flat-torus, round-sphere and flat-annulus reference
meshes used to pin down conventions, and an independent quadrature for
fiber areas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import ChartOverlapConflict, DegenerateTriangle, PointOffFiber
from .family import (
    ChartPoint,
    ComponentSurface,
    DegenerationFamily,
    MetricKind,
    conformal_factor,
    is_inf_point,
)


@dataclass(frozen=True)
class MeshParams:
    """Resolution knobs for the structured fiber mesher."""

    rings_per_decade: int = 8
    angular_count: int = 16

    def __post_init__(self) -> None:
        if self.rings_per_decade < 8:
            raise ValueError("rings_per_decade must be >= 8")
        if self.angular_count < 16:
            raise ValueError("angular_count must be >= 16")


def _circular_midpoint(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Midpoints along the log-polar arcs (geometric mean of the coords).

    Keeps edge midpoints of concentric-ring meshes at the geometric-mean
    radius instead of letting chords sag toward the origin, which matters
    for factors with steep radial gradients.  Falls back to the chord
    midpoint where an endpoint sits at the origin.
    """
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    chord = 0.5 * (p + q)
    m = np.sqrt(p * q)
    m = np.where(np.abs(m - chord) <= np.abs(-m - chord), m, -m)
    return np.where((p == 0) | (q == 0), chord, m)


class FiberMetric:
    """Conformal factor of one fiber as a picklable chart callable.

    Like every metric callable here it takes one chart and a scalar or
    an array of coordinates in it.
    """

    def __init__(self, family: DegenerationFamily, kind: MetricKind, s: complex):
        self.family = family
        self.kind = kind
        self.s = s

    def __call__(self, chart: tuple, coord):
        return conformal_factor(self.family, self.kind, ChartPoint(chart, coord), self.s)

    @staticmethod
    def edge_midpoint(chart: tuple, p, q):
        return _circular_midpoint(p, q)


class ConstantFactor:
    """Spatially constant conformal factor (flat tori, plane annuli)."""

    def __init__(self, value: float = 1.0):
        self.value = value

    def __call__(self, chart: tuple, coord):
        return np.full(np.shape(coord), float(self.value))


class RoundSphereFactor:
    """Stereographic factor of a round sphere of the given radius."""

    def __init__(self, radius: float = 1.0):
        self.radius = radius

    def __call__(self, chart: tuple, coord):
        coord = np.asarray(coord, dtype=complex)
        r2 = coord.real * coord.real + coord.imag * coord.imag
        return 4.0 * self.radius ** 2 / (1.0 + r2) ** 2

    edge_midpoint = staticmethod(FiberMetric.edge_midpoint)


class TriangleMesh:
    """Immutable triangulated surface with intrinsic metric lengths.

    Geometry lives per triangle: ``tri_chart[f]`` names the chart and
    ``tri_coords[f]`` holds the three vertex coordinates there, so charts
    may disagree about a shared vertex (seams, wraparound) without any
    global embedding.  Edges are numbered in order of first incidence
    (triangle f, then corner j; edge j of a triangle is opposite vertex
    j).  Each edge gets one canonical intrinsic length, evaluated in the
    chart of its first incident triangle, with one metric call per chart.
    """

    def __init__(
        self,
        vertex_count: int,
        triangles: np.ndarray,
        tri_chart: Sequence[tuple],
        tri_coords: np.ndarray,
        metric: Callable[[tuple, np.ndarray], np.ndarray],
        closed: bool = True,
        genus: int | None = None,
    ):
        self.V = int(vertex_count)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.tri_chart = tuple(tri_chart)
        self.tri_coords = np.asarray(tri_coords, dtype=complex)
        self.metric = metric
        self.closed = closed
        self.genus = genus
        self.F = self.triangles.shape[0]
        if self.tri_coords.shape != (self.F, 3):
            raise ValueError("tri_coords must have shape (F, 3)")
        self._build_edges()
        self._compute_lengths()
        self._validate()

    # --- construction ----------------------------------------------------

    def _build_edges(self) -> None:
        tri = self.triangles
        u, v = tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # np.unique returns each key's first position in (f, j) order;
        # ranking those positions numbers the edges by first incidence
        _, first, inverse = np.unique(lo * self.V + hi, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.E = order.size
        self.tri_edge = rank[inverse].reshape(self.F, 3)
        self._edge_first = first[order]  # flat (f, j) index f * 3 + j
        self.edges = np.stack([lo[self._edge_first], hi[self._edge_first]], axis=1)

    def chart_index(self) -> tuple[list[tuple], np.ndarray]:
        """Distinct charts in order of first use, and each triangle's index."""
        charts = list(dict.fromkeys(self.tri_chart))
        index = {c: i for i, c in enumerate(charts)}
        ids = np.fromiter(map(index.__getitem__, self.tri_chart), dtype=np.int64,
                          count=self.F)
        return charts, ids

    def _compute_lengths(self) -> None:
        midpoint = getattr(self.metric, "edge_midpoint", None)
        f, j = np.divmod(self._edge_first, 3)
        p = self.tri_coords[f, (j + 1) % 3]
        q = self.tri_coords[f, (j + 2) % 3]
        fac = np.empty(self.E)
        charts, ids = self.chart_index()
        for c, chart in enumerate(charts):
            on = ids[f] == c
            mid = midpoint(chart, p[on], q[on]) if midpoint else 0.5 * (p[on] + q[on])
            fac[on] = self.metric(chart, mid)
        bad = ~((fac > 0.0) & np.isfinite(fac))
        if bad.any():
            e = int(np.flatnonzero(bad)[0])
            raise DegenerateTriangle(
                f"non-positive conformal factor {fac[e]} at edge {e}"
            )
        lengths = np.abs(p - q) * np.sqrt(fac)
        self.edge_lengths = lengths
        tl = lengths[self.tri_edge]  # (F, 3), edge j opposite vertex j
        a, b, c = tl[:, 0], tl[:, 1], tl[:, 2]
        sp = 0.5 * (a + b + c)
        h2 = sp * (sp - a) * (sp - b) * (sp - c)
        self._tri_lengths = tl
        self.triangle_areas = np.sqrt(np.maximum(h2, 0.0))

    def _validate(self) -> None:
        tl = self._tri_lengths
        a, b, c = tl[:, 0], tl[:, 1], tl[:, 2]
        bad = ~((a + b > c) & (b + c > a) & (c + a > b))
        if bad.any():
            f = int(np.flatnonzero(bad)[0])
            raise DegenerateTriangle(
                f"triangle {f} violates the strict triangle inequality: "
                f"lengths {tl[f].tolist()} in chart {self.tri_chart[f]}"
            )
        if not (self.triangle_areas > 0.0).all():
            raise DegenerateTriangle("zero-area triangle")
        counts = np.zeros(self.E, dtype=np.int64)
        np.add.at(counts, self.tri_edge.ravel(), 1)
        if self.closed:
            if not (counts == 2).all():
                raise DegenerateTriangle("closed mesh has a boundary edge")
            if self.genus is not None:
                chi = self.V - self.E + self.F
                if chi != 2 - 2 * self.genus:
                    raise DegenerateTriangle(
                        f"Euler characteristic {chi} != {2 - 2 * self.genus}"
                    )
        elif not ((counts == 1) | (counts == 2)).all():
            raise DegenerateTriangle("edge bounded by more than two triangles")

    # --- derived quantities ----------------------------------------------

    @property
    def total_area(self) -> float:
        return float(self.triangle_areas.sum())

    def triangle_lengths(self) -> np.ndarray:
        """Per-triangle intrinsic edge lengths, edge j opposite vertex j."""
        return self._tri_lengths

    def min_angle_deg(self) -> float:
        """Smallest intrinsic corner angle, via the law of cosines."""
        tl = self._tri_lengths
        worst = 180.0
        for j in range(3):
            opp = tl[:, j]
            l1 = tl[:, (j + 1) % 3]
            l2 = tl[:, (j + 2) % 3]
            cosang = (l1 ** 2 + l2 ** 2 - opp ** 2) / (2.0 * l1 * l2)
            ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
            worst = min(worst, float(ang.min()))
        return worst

    def vertex_chart_index(self) -> tuple[list[tuple], np.ndarray, np.ndarray]:
        """Distinct charts, each vertex's index into them and its coordinate
        there, deterministically the first incidence in triangle order."""
        verts, first = np.unique(self.triangles.ravel(), return_index=True)
        if verts.size != self.V:
            raise DegenerateTriangle("isolated vertex")
        charts, ids = self.chart_index()
        return charts, ids[first // 3], self.tri_coords.ravel()[first]

    def vertex_charts(self) -> list[tuple[tuple, complex]]:
        """One (chart, coordinate) pair per vertex (see vertex_chart_index)."""
        charts, ids, coords = self.vertex_chart_index()
        return list(zip(map(charts.__getitem__, ids.tolist()), coords.tolist()))

    def lumped_vertex_mass(self) -> np.ndarray:
        """One third of incident triangle areas per vertex."""
        mass = np.zeros(self.V)
        share = np.repeat(self.triangle_areas / 3.0, 3)
        np.add.at(mass, self.triangles.ravel(), share)
        return mass

    # --- refinement --------------------------------------------------------

    def refine(self) -> "TriangleMesh":
        """Uniform 1-to-4 midpoint subdivision.

        New vertices at edge midpoints (one per edge, shared across
        charts); lengths are re-evaluated from the metric.
        """
        midpoint = getattr(self.metric, "edge_midpoint", None)
        p = self.tri_coords
        q = np.empty_like(p)  # q[:, j]: midpoint of the edge opposite vertex j
        charts, ids = self.chart_index()
        for c, chart in enumerate(charts):
            on = ids == c
            for j in range(3):
                a, b = p[on, (j + 1) % 3], p[on, (j + 2) % 3]
                q[on, j] = midpoint(chart, a, b) if midpoint else 0.5 * (a + b)

        def children(corner: np.ndarray, mid: np.ndarray) -> np.ndarray:
            # triangle f becomes 4f .. 4f+3: the three corners, then the middle
            kids = [np.stack([corner[:, k], mid[:, (k + 2) % 3], mid[:, (k + 1) % 3]], axis=1)
                    for k in range(3)]
            return np.stack(kids + [mid], axis=1).reshape(-1, 3)

        tris = children(self.triangles, self.V + self.tri_edge)
        coords = children(p, q)
        charts = [c for c in self.tri_chart for _ in range(4)]
        return TriangleMesh(
            vertex_count=self.V + self.E,
            triangles=tris,
            tri_chart=charts,
            tri_coords=coords,
            metric=self.metric,
            closed=self.closed,
            genus=self.genus,
        )


# ---------------------------------------------------------------------------
# structured ring-stack builder
# ---------------------------------------------------------------------------

class _RingStack:
    """Stack of concentric rings with shared seams, fans, or cycle closure."""

    def __init__(self, n_theta: int):
        self.n = n_theta
        self.ring_start: list[int] = []
        self.ring_radius: list[float] = []
        self.next_vertex = 0
        self.tris: list[np.ndarray] = []  # (n or 2n, 3) blocks
        self.coords: list[np.ndarray] = []
        self.charts: list[tuple] = []

    def add_ring(self, radius: float) -> int:
        self.ring_start.append(self.next_vertex)
        self.ring_radius.append(radius)
        self.next_vertex += self.n
        return len(self.ring_start) - 1

    def _ring(self, ring: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vertex ids and coordinates of positions j and j + 1 on a ring."""
        j = np.arange(self.n)
        start = self.ring_start[ring]
        ang = 2.0 * np.pi * np.arange(self.n + 1) / self.n
        p = self.ring_radius[ring] * np.exp(1j * ang)
        return start + j, start + (j + 1) % self.n, p[:-1], p[1:]

    def _add(self, chart: tuple, tris: list, coords: list) -> None:
        # triangles of position j are consecutive: (j, first), (j, second), ...
        self.tris.append(np.stack(tris, axis=-1).reshape(-1, 3))
        self.coords.append(np.stack(coords, axis=-1).reshape(-1, 3))
        self.charts.extend([chart] * (self.n * len(tris) // 3))

    def add_band(self, chart: tuple, lower: int, upper: int) -> None:
        a, an, pa, pan = self._ring(lower)
        b, bn, pb, pbn = self._ring(upper)
        self._add(chart, [a, an, b, an, bn, b], [pa, pan, pb, pan, pbn, pb])

    def add_fan(self, chart: tuple, ring: int, bottom: bool) -> int:
        center = self.next_vertex
        self.next_vertex += 1
        v, vn, p, pn = self._ring(ring)
        c, zero = np.full(self.n, center), np.zeros(self.n, dtype=complex)
        if bottom:
            self._add(chart, [c, vn, v], [zero, pn, p])
        else:
            self._add(chart, [c, v, vn], [zero, p, pn])
        return center

    def build(self, metric, closed: bool, genus: int | None) -> TriangleMesh:
        return TriangleMesh(
            vertex_count=self.next_vertex,
            triangles=np.concatenate(self.tris),
            tri_chart=self.charts,
            tri_coords=np.concatenate(self.coords),
            metric=metric,
            closed=closed,
            genus=genus,
        )


#: Target arc length between latitude rings on a cap.
CAP_RING_SPACING = 0.12


def _cap_radii(comp: ComponentSurface, scale: float) -> np.ndarray:
    """Latitude-uniform cap rings: radius tan of half the colatitude."""
    arc = 0.5 * math.pi * comp.radius * math.sqrt(scale)
    J = max(3, math.ceil(arc / CAP_RING_SPACING))
    lat = 0.5 * math.pi * np.arange(1, J + 1) / J
    return np.tan(0.5 * lat)


def _neck_radii(
    metric: Callable[[tuple, np.ndarray], np.ndarray],
    chart: tuple,
    abs_s: float,
    rpd: int,
    max_dlnf: float = 0.8,
) -> np.ndarray:
    """Radii from the seam |x| = 1 down to the core sqrt|s|.

    Log-uniform at ``rings_per_decade``, locally refined so the conformal
    factor changes by at most a fixed log amount between adjacent rings
    (the blend zones are not self-similar and need denser rings than the
    pure neck).  Each step tries du, du/2, ... in one metric call and
    takes the first that keeps the change within ``max_dlnf``, or the
    first one below 1e-4 of the full step.
    """
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


def _walk_dual_graph(family: DegenerationFamily):
    """Order components and nodes along the path or cycle dual graph."""
    adj: dict[int, list[tuple]] = {c.id: [] for c in family.components}
    for node in family.nodes:
        (lc, _), (rc, _) = node.left, node.right
        adj[lc].append((node, 0, rc))
        adj[rc].append((node, 1, lc))
    degrees = {cid: len(items) for cid, items in adj.items()}
    if any(d > 2 for d in degrees.values()):
        raise ChartOverlapConflict(
            "structured mesher supports components with at most two nodes"
        )
    ends = [cid for cid, d in degrees.items() if d == 1]
    is_cycle = not ends
    start = min(ends) if ends else family.components[0].id
    order: list[tuple] = []  # (node, branch facing the current component)
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


def _check_marked_points(family: DegenerationFamily) -> None:
    for comp in family.components:
        node_mps = []
        for node in family.nodes:
            for cid, mp in (node.left, node.right):
                if cid == comp.id:
                    node_mps.append(comp.marked_points[mp])
        for p in node_mps:
            if not (p == 0 or is_inf_point(p)):
                raise ChartOverlapConflict(
                    f"component {comp.id}: node marked points must be 0 or "
                    f"infinity for the structured mesher"
                )
        if len(node_mps) == 2 and not (
            (node_mps[0] == 0) ^ (node_mps[1] == 0)
        ):
            raise ChartOverlapConflict(
                f"component {comp.id}: two-node components need marked "
                f"points at both 0 and infinity"
            )


def mesh_fiber(
    family: DegenerationFamily,
    kind: MetricKind,
    s: complex,
    params: MeshParams = MeshParams(),
) -> TriangleMesh:
    """Triangulate the fiber X_s with log-graded necks.

    Neck vertices are uniform in (log|x|, arg x); caps are uniform in
    geodesic latitude; every ring carries ``angular_count`` vertices and
    seam rings are shared between adjacent charts.
    """
    if s == 0:
        raise PointOffFiber("mesh_fiber requires s != 0; fibers at s = 0 are nodal")
    if abs(s) >= 0.25:
        raise PointOffFiber("plumbing fibers are meshed for |s| < 1/4")
    _check_marked_points(family)
    comp_order, node_order, is_cycle = _walk_dual_graph(family)

    abs_s = abs(s)
    stack = _RingStack(params.angular_count)
    metric = FiberMetric(family, kind, s)

    rings: list[int] = []
    bands: list[tuple[tuple, int, int]] = []  # (chart, lower ring, upper ring)

    def extend(chart: tuple, radii: Sequence[float], reuse_first: bool) -> None:
        start = len(rings) - 1 if reuse_first else None
        for r in (radii if not reuse_first else radii[1:]):
            rings.append(stack.add_ring(r))
        base = start if start is not None else len(rings) - len(radii)
        for k in range(base, len(rings) - 1):
            bands.append((chart, rings[k], rings[k + 1]))

    first_comp = family.component(comp_order[0])
    if not is_cycle:
        # opening cap: rings from near the pole out to the seam |x| = 1
        cap_r = _cap_radii(first_comp, family.scale)
        extend(("cap", first_comp.id), list(cap_r), reuse_first=False)

    for i, (node, branch) in enumerate(node_order):
        near = ("neck", node.node_id, branch)
        far = ("neck", node.node_id, 1 - branch)
        neck_near = _neck_radii(metric, near, abs_s, params.rings_per_decade)
        neck_far = _neck_radii(metric, far, abs_s, params.rings_per_decade)
        if is_cycle and i == 0:
            extend(near, [1.0], reuse_first=False)
        extend(near, list(neck_near), reuse_first=True)          # 1 -> sqrt|s|
        if is_cycle and i == len(node_order) - 1:
            # close the cycle back onto the very first ring
            tail = list(neck_far[::-1])[:-1]
            extend(far, tail, reuse_first=True)
            bands.append((far, rings[-1], rings[0]))
        else:
            extend(far, list(neck_far[::-1]), reuse_first=True)  # sqrt|s| -> 1

    if not is_cycle:
        # closing cap: rings from the seam |x| = 1 back toward the pole
        last_comp = family.component(comp_order[-1])
        cap_r = _cap_radii(last_comp, family.scale)
        extend(("cap", last_comp.id), list(cap_r[::-1]), reuse_first=True)

    for chart, lo, hi in bands:
        stack.add_band(chart, lo, hi)
    if not is_cycle:
        stack.add_fan(("cap", first_comp.id), rings[0], bottom=True)
        stack.add_fan(("cap", last_comp.id), rings[-1], bottom=False)

    return stack.build(metric, closed=True, genus=family.g)


# ---------------------------------------------------------------------------
# reference meshes
# ---------------------------------------------------------------------------

def flat_torus_mesh(n: int = 16, area: float = 1.0) -> TriangleMesh:
    """Unit-square flat torus, n x n grid, each square split in two.

    Wraparound needs no special casing because coordinates are stored per
    triangle in a local planar chart.
    """
    side = math.sqrt(area)
    h = side / n
    V = n * n

    def vid(i: int, j: int) -> int:
        return (i % n) * n + (j % n)

    tris, coords, charts = [], [], []
    for i in range(n):
        for j in range(n):
            p00 = complex(i * h, j * h)
            p10, p01, p11 = p00 + h, p00 + 1j * h, p00 + h + 1j * h
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            coords.append((p00, p10, p11))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
            coords.append((p00, p11, p01))
            charts.extend([("plane",), ("plane",)])
    return TriangleMesh(
        vertex_count=V,
        triangles=np.array(tris, dtype=np.int64),
        tri_chart=charts,
        tri_coords=np.array(coords, dtype=complex),
        metric=ConstantFactor(1.0),
        closed=True,
        genus=1,
    )


def unit_sphere_mesh(J: int = 10, n_theta: int = 24, radius: float = 1.0) -> TriangleMesh:
    """Round sphere as two latitude-uniform caps joined at the equator."""
    stack = _RingStack(n_theta)
    lat = 0.5 * math.pi * np.arange(1, J + 1) / J
    radii = np.tan(0.5 * lat)
    rings = [stack.add_ring(r) for r in radii]          # north cap, out to equator
    rings2 = [stack.add_ring(r) for r in radii[-2::-1]]  # south cap, equator inward
    seq = rings + rings2
    for k in range(len(seq) - 1):
        chart = ("capN",) if k < J - 1 else ("capS",)
        stack.add_band(chart, seq[k], seq[k + 1])
    stack.add_fan(("capN",), rings[0], bottom=True)
    stack.add_fan(("capS",), seq[-1], bottom=False)
    return stack.build(RoundSphereFactor(radius), closed=True, genus=0)


def annulus_mesh(
    r_inner: float,
    r_outer: float = 1.0,
    n_theta: int = 24,
    rings_per_decade: int = 12,
    metric: Callable[[tuple, np.ndarray], np.ndarray] | None = None,
) -> TriangleMesh:
    """Log-polar mesh of the annulus r_inner <= |x| <= r_outer (boundary mesh)."""
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    decades = math.log10(r_outer / r_inner)
    K = max(4, math.ceil(rings_per_decade * decades))
    radii = np.exp(np.linspace(math.log(r_inner), math.log(r_outer), K + 1))
    stack = _RingStack(n_theta)
    rings = [stack.add_ring(r) for r in radii]
    for k in range(len(rings) - 1):
        stack.add_band(("plane",), rings[k], rings[k + 1])
    return stack.build(metric or ConstantFactor(1.0), closed=False, genus=None)


class _UnionMetric:
    """Dispatch a union mesh's factor to the part named by the chart."""

    def __init__(self, metrics: Sequence[Callable[[tuple, np.ndarray], np.ndarray]]):
        self.metrics = list(metrics)

    def __call__(self, chart: tuple, coord):
        return self.metrics[chart[0]](chart[1:], coord)

    def edge_midpoint(self, chart: tuple, p, q):
        inner = getattr(self.metrics[chart[0]], "edge_midpoint", None)
        if inner is None:
            return 0.5 * (p + q)
        return inner(chart[1:], p, q)


def disjoint_union(meshes: Sequence[TriangleMesh]) -> TriangleMesh:
    """Disjoint union of meshes (models nodal fibers at s = 0)."""
    tris, coords, charts = [], [], []
    offset = 0
    for i, m in enumerate(meshes):
        tris.append(m.triangles + offset)
        coords.append(m.tri_coords)
        charts.extend((i,) + ch for ch in m.tri_chart)
        offset += m.V
    return TriangleMesh(
        vertex_count=offset,
        triangles=np.vstack(tris),
        tri_chart=charts,
        tri_coords=np.vstack(coords),
        metric=_UnionMetric([m.metric for m in meshes]),
        closed=all(m.closed for m in meshes),
        genus=None,
    )


# ---------------------------------------------------------------------------
# independent area quadrature
# ---------------------------------------------------------------------------

def fiber_area_quadrature(
    family: DegenerationFamily, kind: MetricKind, s: complex
) -> float:
    """Fiber area by 1-D radial quadrature, independent of any mesh.

    All supported factors are rotation invariant, so the area of each
    chart region is 2*pi * integral of factor(r) * r dr; regions are the
    per-branch neck half-annuli sqrt|s| <= |x| <= 1 and the caps.
    """
    total = 0.0
    abs_s = abs(s)
    root = math.sqrt(abs_s)

    for node in family.nodes:
        for branch in (0, 1):
            def f(r: float, b=branch, nid=node.node_id) -> float:
                pt = ChartPoint(("neck", nid, b), complex(r, 0.0))
                return conformal_factor(family, kind, pt, s) * r

            lo = math.log(root)
            # integrate in log r for graded accuracy
            val, _ = quad(lambda u, g=f: g(math.exp(u)) * math.exp(u),
                          lo, 0.0, limit=200)
            total += 2.0 * math.pi * val

    for comp in family.components:
        if family.node_degree(comp.id) == 1:
            def f(r: float, cid=comp.id) -> float:
                pt = ChartPoint(("cap", cid), complex(r, 0.0))
                return conformal_factor(family, kind, pt, s) * r

            val, _ = quad(f, 0.0, 1.0, limit=200)
            total += 2.0 * math.pi * val
    return total
