"""Intrinsic triangulations of fibers with log-graded neck refinement.

The dual graph of every supported plumbing fiber is a path or a cycle,
and the family orders it (``DegenerationFamily.walk``), so the fiber is
globally a chain or cycle of annular charts capped by polar disks.  The
mesher follows that walk with one list of (chart, radii) segments of
concentric rings: the two halves of each neck, log-uniform in |x|,
between two latitude-uniform caps on a path.  Each segment starts on the
ring where the previous one ends, and on a cycle the last ring is the
first.  Neck rings are placed in runs, one metric call per run of full
log steps, with a halving ladder only where the factor changes too fast
(``_neck_radii``).  ``_ring_stack`` writes every band and end fan in
place into preallocated arrays.  Edge lengths are intrinsic: chart chord
length times the square root of the conformal factor at the chord's
log-polar midpoint.  A mesh keeps a chart table: the distinct charts,
and one int64 index into them per triangle.  Edges are numbered in order
of first incidence.  On a ring stack the layout fixes where each edge
first occurs, so the table is index arithmetic; other meshes sort their
keys min * V + max once (stable).  Edges are measured per chart: one
metric call per chart, on the edges whose first incident triangle lies
in that chart.

Also provides the flat-torus, round-sphere and flat-annulus reference
meshes used to pin down conventions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateTriangle, PointOffFiber
from .family import (
    ComponentSurface,
    DegenerationFamily,
    MetricKind,
    conformal_factor,
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
        return conformal_factor(self.family, self.kind, chart, coord, self.s)

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


class RingLayout(NamedTuple):
    """Vertex layout of a ``_ring_stack`` mesh: ``rings`` rings of ``n``
    vertices, vertex k * n + j at angle 2 pi j / n on ring k, then
    ``fans`` fan centers, of ring 0 and of ring rings - 1 in that order;
    on a ``cycle`` ring rings - 1 also joins ring 0."""

    n: int
    rings: int
    fans: int
    cycle: bool


class TriangleMesh:
    """Immutable triangulated surface with intrinsic metric lengths.

    Geometry lives per triangle: ``charts[tri_chart[f]]`` is its chart
    (``charts`` in order of first use, ``tri_chart`` read-only int64) and
    ``tri_coords[f]`` holds the three vertex coordinates there, so charts
    may disagree about a shared vertex (seams, wraparound) without any
    global embedding.  Edges are numbered in order of first incidence
    (triangle f, then corner j; edge j of a triangle is opposite vertex
    j): from ``rings``, the triangle order of ``_ring_stack``, by index
    arithmetic, and otherwise from one stable sort of the edge keys.  Each
    edge gets one canonical intrinsic length, evaluated in the chart of
    its first incident triangle, with one metric call per chart.
    """

    def __init__(
        self,
        vertex_count: int,
        triangles: np.ndarray,
        charts: Sequence[tuple],
        tri_chart: np.ndarray,
        tri_coords: np.ndarray,
        metric: Callable[[tuple, np.ndarray], np.ndarray],
        closed: bool = True,
        genus: int | None = None,
        rings: RingLayout | None = None,
    ):
        self.V = int(vertex_count)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.charts = tuple(charts)
        self.tri_chart = np.asarray(tri_chart, dtype=np.int64).view()
        self.tri_chart.flags.writeable = False  # the view only, not the caller's array
        self.tri_coords = np.asarray(tri_coords, dtype=complex)
        self.metric = metric
        self.closed = closed
        self.genus = genus
        self.rings = rings
        self.F = self.triangles.shape[0]
        if self.tri_coords.shape != (self.F, 3):
            raise ValueError("tri_coords must have shape (F, 3)")
        if self.tri_chart.shape != (self.F,):
            raise ValueError("tri_chart must have shape (F,)")
        self._build_edges()
        self._compute_lengths()
        self._validate()

    # --- construction ----------------------------------------------------

    def _build_edges(self) -> None:
        # first[p]: the flat (f, j) index f * 3 + j of the first incidence
        # of the edge at flat position p; an edge is new where first[p] == p
        first = self._ring_first() if self.rings else None
        if first is None:
            first = self._sorted_first()
        new = first == np.arange(first.size)
        self._edge_first = np.flatnonzero(new)
        self.E = self._edge_first.size
        rank = np.cumsum(new)
        rank -= 1
        self.tri_edge = rank[first].reshape(self.F, 3)
        del first, rank
        f, j = np.divmod(self._edge_first, 3)
        u, v = self.triangles[f, (j + 1) % 3], self.triangles[f, (j + 2) % 3]
        self.edges = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)

    def _sorted_first(self) -> np.ndarray:
        tri, V = self.triangles, self.V
        keys = np.empty((self.F, 3), dtype=np.int64)  # min * V + max per edge
        for j in range(3):
            u, v = tri[:, (j + 1) % 3], tri[:, (j + 2) % 3]
            np.multiply(np.minimum(u, v), V, out=keys[:, j])
            keys[:, j] += np.maximum(u, v)
        keys = keys.ravel()
        # a stable sort keeps each key's first (f, j) position at the head
        # of its run
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        head = np.empty(keys.size, dtype=bool)
        head[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        del keys
        first = np.empty_like(order)
        first[order] = order[head][np.cumsum(head) - 1]  # the head of each run
        return first

    def _ring_first(self) -> np.ndarray | None:
        """``first`` by index arithmetic, for the triangle order that
        ``_ring_stack`` writes for the ``rings`` layout.  None where the
        layout has no band, fewer than three positions, or a cycle of fewer
        than three rings: edges may then repeat between bands."""
        n, R, fans, cycle = self.rings
        B = R if cycle else R - 1
        if n < 3 or B < 1 or (cycle and R < 3):
            return None
        first = np.arange(3 * self.F)
        # (band, position j, triangle type, edge): type 0 has edges
        # (diagonal, radial j, lower ring at j), type 1 (upper ring at j,
        # diagonal, radial j + 1)
        band = first[:6 * n * B].reshape(B, n, 2, 3)
        band[:, :, 1, 1] = band[:, :, 0, 0]
        band[:, 1:, 0, 1] = band[:, :-1, 1, 2]
        band[:, -1, 1, 2] = band[:, 0, 0, 1]
        band[1:, :, 0, 2] = band[:-1, :, 1, 0]  # the band below's upper ring
        if cycle:
            band[-1, :, 1, 0] = band[0, :, 0, 2]
        # (fan, position j, edge): edge 0 on the ring, spoke j opposite the
        # corner at j + 1 and spoke j + 1 opposite the corner at j
        ring_edges = (band[0, :, 0, 2], band[-1, :, 1, 0])
        for fan, ring_edge, (spoke, next_spoke) in zip(
                first[6 * n * B:].reshape(fans, n, 3), ring_edges, ((1, 2), (2, 1))):
            fan[:, 0] = ring_edge
            fan[1:, spoke] = fan[:-1, next_spoke]
            fan[-1, next_spoke] = fan[0, spoke]
        return first

    def _compute_lengths(self) -> None:
        midpoint = getattr(self.metric, "edge_midpoint", None)
        edge_chart = self.tri_chart[self._edge_first // 3]
        fac, lengths = np.empty(self.E), np.empty(self.E)
        for c, chart in enumerate(self.charts):
            on = np.flatnonzero(edge_chart == c)
            f, j = np.divmod(self._edge_first[on], 3)
            p, q = self.tri_coords[f, (j + 1) % 3], self.tri_coords[f, (j + 2) % 3]
            mid = midpoint(chart, p, q) if midpoint else 0.5 * (p + q)
            fac[on] = self.metric(chart, mid)
            lengths[on] = np.abs(p - q)
        del edge_chart
        bad = ~((fac > 0.0) & np.isfinite(fac))
        if bad.any():
            e = int(np.flatnonzero(bad)[0])
            raise DegenerateTriangle(
                f"non-positive conformal factor {fac[e]} at edge {e}"
            )
        lengths *= np.sqrt(fac, out=fac)
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
                f"lengths {tl[f].tolist()} in chart {self.charts[self.tri_chart[f]]}"
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

    def vertex_chart_index(self) -> tuple[tuple[tuple, ...], np.ndarray, np.ndarray]:
        """The chart table, each vertex's index into it and its coordinate
        there, deterministically the first incidence in triangle order."""
        verts, first = np.unique(self.triangles.ravel(), return_index=True)
        if verts.size != self.V:
            raise DegenerateTriangle("isolated vertex")
        return self.charts, self.tri_chart[first // 3], self.tri_coords.ravel()[first]

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
        for c, chart in enumerate(self.charts):
            on = self.tri_chart == c
            for j in range(3):
                a, b = p[on, (j + 1) % 3], p[on, (j + 2) % 3]
                q[on, j] = midpoint(chart, a, b) if midpoint else 0.5 * (a + b)

        def children(corner: np.ndarray, mid: np.ndarray) -> np.ndarray:
            # triangle f becomes 4f .. 4f+3: the three corners, then the middle
            kids = [np.stack([corner[:, k], mid[:, (k + 2) % 3], mid[:, (k + 1) % 3]], axis=1)
                    for k in range(3)]
            return np.stack(kids + [mid], axis=1).reshape(-1, 3)

        tris = children(self.triangles, self.V + self.tri_edge)
        return TriangleMesh(
            vertex_count=self.V + self.E,
            triangles=tris,
            charts=self.charts,
            tri_chart=np.repeat(self.tri_chart, 4),
            tri_coords=children(p, q),
            metric=self.metric,
            closed=self.closed,
            genus=self.genus,
        )


# ---------------------------------------------------------------------------
# structured ring-stack builder
# ---------------------------------------------------------------------------

def _ring_stack(
    n: int,
    segments: Sequence[tuple[tuple, np.ndarray]],
    metric: Callable[[tuple, np.ndarray], np.ndarray],
    closed: bool,
    genus: int | None,
    cycle: bool = False,
) -> TriangleMesh:
    """Mesh of concentric rings of n vertices, from (chart, radii) segments.

    Each segment starts on the ring where the previous one ends, at the
    previous radius; two triangles per position join consecutive rings in
    the segment's chart.  In a cycle the last ring is the first; a closed
    stack that is not a cycle gets one fan per end.  Ring k holds vertex
    k * n + j at angle 2 pi j / n, and the fan centers follow.  Triangles
    go band by band, then fan by fan, position j's consecutive; the
    mesh records that layout as its ``RingLayout``.
    """
    radius = np.concatenate([segments[0][1][:1]] + [r[1:] for _, r in segments])
    if cycle:
        radius = radius[:-1]
    charts: dict[tuple, int] = {}  # chart -> index, in segment order
    band_chart = np.repeat([charts.setdefault(c, len(charts)) for c, _ in segments],
                           [len(r) - 1 for _, r in segments])
    R, B = radius.size, band_chart.size
    # (chart, ring, shifts of corners 1 and 2) per fan; its center is corner 0
    fans = [] if cycle or not closed else [
        (segments[0][0], 0, (1, 0)), (segments[-1][0], R - 1, (0, 1))]
    F = n * (2 * B + len(fans))
    tris, coords = np.empty((F, 3), dtype=np.int64), np.empty((F, 3), dtype=complex)
    tri_chart = np.empty(F, dtype=np.int64)
    j, unit = np.arange(n), np.exp(1j * (2.0 * np.pi * np.arange(n + 1) / n))

    def corner(ids, at, ring, shift):
        # position j + shift on each of the rings, one row per ring
        np.add(n * ring[:, None], (j + shift) % n, out=ids)
        np.multiply(radius[ring, None], unit[shift:n + shift], out=at)

    lower, upper = np.arange(B), np.arange(1, B + 1) % R
    bands = slice(0, 2 * n * B)
    ids, at = tris[bands].reshape(B, n, 2, 3), coords[bands].reshape(B, n, 2, 3)
    for t, corners in enumerate((((lower, 0), (lower, 1), (upper, 0)),
                                 ((lower, 1), (upper, 1), (upper, 0)))):
        for i, (ring, shift) in enumerate(corners):
            corner(ids[:, :, t, i], at[:, :, t, i], ring, shift)
    tri_chart[bands].reshape(B, 2 * n)[:] = band_chart[:, None]
    for f, (chart, ring, shifts) in enumerate(fans):
        rows = slice(n * (2 * B + f), n * (2 * B + f + 1))
        tris[rows, 0], coords[rows, 0] = n * R + f, 0.0
        for i, shift in enumerate(shifts, 1):
            corner(tris[rows, i][None], coords[rows, i][None], np.array([ring]), shift)
        tri_chart[rows] = charts.setdefault(chart, len(charts))
    return TriangleMesh(n * R + len(fans), tris, list(charts), tri_chart, coords, metric,
                        closed=closed, genus=genus, rings=RingLayout(n, R, len(fans), cycle))


#: Target arc length between latitude rings on a cap.
CAP_RING_SPACING = 0.12


def _cap_radii(comp: ComponentSurface, scale: float) -> np.ndarray:
    """Latitude-uniform cap rings: radius tan of half the colatitude."""
    arc = 0.5 * math.pi * comp.radius * math.sqrt(scale)
    return _latitude_radii(max(3, math.ceil(arc / CAP_RING_SPACING)))


def _latitude_radii(J: int) -> np.ndarray:
    """J rings uniform in colatitude out to the equator: tan of half of it."""
    return np.tan(0.25 * math.pi * np.arange(1, J + 1) / J)


#: Largest change of the log conformal factor between adjacent neck rings.
MAX_DLNF = 0.8


def _neck_radii(
    metric: Callable[[tuple, np.ndarray], np.ndarray],
    chart: tuple,
    abs_s: float,
    rpd: int,
) -> np.ndarray:
    """Radii from the seam |x| = 1 down to the core sqrt|s|.

    Log-uniform at ``rings_per_decade``, locally refined so the conformal
    factor changes by at most a fixed log amount between adjacent rings
    (the blend zones are not self-similar and need denser rings than the
    pure neck).  The march goes in runs.  A run sums the full steps du
    that fit before the core, one after another, calls the metric once
    on all their rings and takes the leading steps that keep the change
    within ``MAX_DLNF``.  At the first failed step, and at the core, one
    step of the halving ladder follows: it tries du, du/2, ... in one
    metric call and takes the first that keeps the change within
    ``MAX_DLNF``, or the first one below 1e-4 of the full step.  The
    radii are bit for bit those of a march of ladder steps alone.
    """
    u_end = 0.5 * math.log(1.0 / abs_s)
    du_max = math.log(10.0) / rpd
    halvings = 0.5 ** np.arange(15)
    us = [0.0]
    u = 0.0
    while u < u_end - 1e-12:
        # u and the full steps that fit before the core, summed in turn
        run = np.full(int((u_end - u) / du_max) + 2, du_max)
        run[0] = u
        run = np.cumsum(run)
        run = run[:np.count_nonzero(u_end - run >= du_max) + 1]
        if run.size > 1:
            f = metric(chart, np.exp(-run) + 0j)
            ok = np.abs(np.log(f[1:] / f[:-1])) <= MAX_DLNF
            taken = run.size - 1 if ok.all() else int(np.argmin(ok))
            us.extend(run[1:taken + 1])
            u = run[taken]
            if taken == run.size - 1:
                continue
        du = min(du_max, u_end - u) * halvings
        tried = du[du > 1e-4 * du_max]
        f = metric(chart, np.exp(-(u + np.concatenate([[0.0], tried]))) + 0j)
        ok = np.abs(np.log(f[1:] / f[0])) <= MAX_DLNF
        u += tried[np.argmax(ok)] if ok.any() else du[tried.size]
        us.append(u)
    us[-1] = u_end
    if len(us) < 5:
        us = list(np.linspace(0.0, u_end, 5))
    return np.exp(-np.asarray(us))


def mesh_fiber(
    family: DegenerationFamily,
    kind: MetricKind,
    s: complex,
    params: MeshParams = MeshParams(),
) -> TriangleMesh:
    """Triangulate the fiber X_s with log-graded necks.

    Neck vertices are uniform in (log|x|, arg x); caps are uniform in
    geodesic latitude; every ring carries ``angular_count`` vertices.
    Per node of ``family.walk()`` the near branch runs from the seam to
    the core and the far branch back, between two caps on a path.
    """
    if s == 0:
        raise PointOffFiber("mesh_fiber requires s != 0; fibers at s = 0 are nodal")
    if abs(s) >= 0.25:
        raise PointOffFiber("plumbing fibers are meshed for |s| < 1/4")
    comp_order, node_order, is_cycle = family.walk()
    metric = FiberMetric(family, kind, s)
    rpd = params.rings_per_decade
    segments = []
    for node, branch in node_order:
        near, far = ("neck", node.node_id, branch), ("neck", node.node_id, 1 - branch)
        segments.append((near, _neck_radii(metric, near, abs(s), rpd)))       # 1 -> sqrt|s|
        segments.append((far, _neck_radii(metric, far, abs(s), rpd)[::-1]))  # sqrt|s| -> 1
    if not is_cycle:
        # the caps run from near the pole out to the seam |x| = 1 and back
        first, last = family.component(comp_order[0]), family.component(comp_order[-1])
        segments.insert(0, (("cap", first.id), _cap_radii(first, family.scale)))
        segments.append((("cap", last.id), _cap_radii(last, family.scale)[::-1]))
    return _ring_stack(params.angular_count, segments, metric, closed=True,
                       genus=family.g, cycle=is_cycle)


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

    tris, coords = [], []
    for i in range(n):
        for j in range(n):
            p00 = complex(i * h, j * h)
            p10, p01, p11 = p00 + h, p00 + 1j * h, p00 + h + 1j * h
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            coords.append((p00, p10, p11))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
            coords.append((p00, p11, p01))
    return TriangleMesh(
        vertex_count=V,
        triangles=np.array(tris, dtype=np.int64),
        charts=[("plane",)],
        tri_chart=np.zeros(len(tris), dtype=np.int64),
        tri_coords=np.array(coords, dtype=complex),
        metric=ConstantFactor(1.0),
        closed=True,
        genus=1,
    )


def unit_sphere_mesh(J: int = 10, n_theta: int = 24, radius: float = 1.0) -> TriangleMesh:
    """Round sphere as two latitude-uniform caps joined at the equator."""
    radii = _latitude_radii(J)
    return _ring_stack(n_theta, [(("capN",), radii), (("capS",), radii[::-1])],
                       RoundSphereFactor(radius), closed=True, genus=0)


def annulus_mesh(
    r_inner: float,
    r_outer: float = 1.0,
    n_theta: int = 24,
    rings_per_decade: int = 12,
) -> TriangleMesh:
    """Log-polar mesh of the annulus r_inner <= |x| <= r_outer (boundary mesh)."""
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    decades = math.log10(r_outer / r_inner)
    K = max(4, math.ceil(rings_per_decade * decades))
    radii = np.exp(np.linspace(math.log(r_inner), math.log(r_outer), K + 1))
    return _ring_stack(n_theta, [(("plane",), radii)], ConstantFactor(1.0),
                       closed=False, genus=None)


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
    tris, charts, tri_chart = [], [], []
    offset = 0
    for i, m in enumerate(meshes):
        tris.append(m.triangles + offset)
        tri_chart.append(m.tri_chart + len(charts))
        charts.extend((i,) + ch for ch in m.charts)
        offset += m.V
    return TriangleMesh(
        vertex_count=offset,
        triangles=np.vstack(tris),
        charts=charts,
        tri_chart=np.concatenate(tri_chart),
        tri_coords=np.vstack([m.tri_coords for m in meshes]),
        metric=_UnionMetric([m.metric for m in meshes]),
        closed=all(m.closed for m in meshes),
        genus=None,
    )
