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
and one int64 index into them per triangle.  The metric is radial in
every fiber chart, so a ring stack is invariant under the ring shift
j -> j + 1.  ``RingOrbits``, its one orbit map, numbers its edges by
orbit, n consecutive ids each, and measures it once per orbit: one edge
and one triangle per orbit get the length, the area, the checks (and,
in ``curvature``, the curvature sample), and every member takes its
orbit's values.  Other meshes sort their keys min * V + max once
(stable), number edges in order of first incidence and measure each.
Either way the metric is called once per chart.

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


#: Per corner of a band's two triangles and of each fan's triangle, the
#: shift of the edge opposite it: at position j it is member (j + shift) % n
#: of its orbit.
_BAND_SHIFTS = np.array([[0, 0, 0], [0, 0, 1]])
_FAN_SHIFTS = np.array([[0, 0, 1], [0, 1, 0]])


class RingOrbits:
    """The orbits of a ring stack's triangles and edges under the ring
    shift j -> j + 1, which maps the layout onto itself, and, under a
    radial metric, each triangle and edge onto one of the same lengths.

    A triangle orbit is one triangle type of a band, or a fan; its
    representative (``tri_rep``) is its position-0 member.  An edge orbit
    is a row of n ids, member j at row * n + j: the ring edges
    (k n + j, k n + j + 1) of each ring k, then per band from lower ring
    L to upper ring U the diagonals (L_{j+1}, U_j) and the radial edges
    (L_j, U_j), then the spokes (center, ring vertex j) of each fan.  It
    is measured at its first corner f * 3 + c in triangle order
    (``edge_corner``): ring 0 at band 0, triangle 0, corner 2; ring k > 0
    at band k - 1, triangle 1, corner 0; a diagonal or radial edge at its
    band's triangle 0, corner 0 or 1; a spoke at its fan's corner 1.
    ``tri_edge_orbits`` holds the edge orbit at each corner of each
    triangle orbit.
    """

    def __init__(self, layout: RingLayout):
        n, R, fans, cycle = self.layout = layout
        B = self.bands = R if cycle else R - 1
        self.F = n * (2 * B + fans)
        band, diag = np.arange(B), R + 2 * np.arange(B)
        spokes = R + 2 * B + np.arange(fans)
        self.tri_edge_orbits = np.concatenate([
            np.stack([diag, diag + 1, band, (band + 1) % R, diag, diag + 1], 1).reshape(-1, 3),
            np.stack([np.array([0, R - 1])[:fans], spokes, spokes], axis=1)])
        self.tri_rep = np.concatenate([(2 * n * band[:, None] + [0, 1]).ravel(),
                                       n * (2 * B + np.arange(fans))])
        t = 3 * self.tri_rep
        self.edge_corner = np.concatenate([t[:1] + 2, t[1:2 * R - 1:2],
                                           (t[:2 * B:2, None] + [0, 1]).ravel(), t[2 * B:] + 1])

    def _positions(self, a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """A per-triangle array (n = the layout's n) or a per-triangle-orbit
        array (n = 1) as its bands, (B, n, 2, ...), and its fans, (fans, n, ...)."""
        rest, cut = a.shape[1:], 2 * n * self.bands
        return a[:cut].reshape(self.bands, n, 2, *rest), a[cut:].reshape(-1, n, *rest)

    def tri_edge(self) -> np.ndarray:
        """The edge id at every corner, (F, 3)."""
        n, fans = self.layout.n, self.layout.fans
        j, out = np.arange(n), np.empty((self.F, 3), dtype=np.int64)
        rows = self._positions(n * self.tri_edge_orbits, 1)
        member = (j[:, None, None] + _BAND_SHIFTS) % n, (j[:, None] + _FAN_SHIFTS[:fans, None]) % n
        for part, row, m in zip(self._positions(out, n), rows, member):
            np.add(row, m, out=part)
        return out

    def edges(self) -> np.ndarray:
        """The vertex pair (min, max) of every edge, (E, 2)."""
        n, R, fans, cycle = self.layout
        B, j = self.bands, np.arange(n)
        out = np.empty((R + 2 * B + fans, n, 2), dtype=np.int64)
        np.add(n * np.arange(R)[:, None, None], np.sort([j, (j + 1) % n], axis=0).T, out=out[:R])
        # per band (L, U): the diagonals (L_{j+1}, U_j), then the radial edges (L_j, U_j)
        bands = out[R:R + 2 * B].reshape(B, 2, n, 2)
        np.add(n * np.arange(B)[:, None, None], [(j + 1) % n, j], out=bands[..., 0])
        np.add(n * (np.arange(1, B + 1) % R)[:, None, None], j, out=bands[..., 1])
        if cycle:  # the last band's upper ring is ring 0
            bands[-1] = bands[-1, ..., ::-1].copy()
        spokes = out[R + 2 * B:]
        np.add(n * np.array([0, R - 1])[:fans, None], j, out=spokes[..., 0])
        spokes[..., 1] = n * R + np.arange(fans)[:, None]
        return out.reshape(-1, 2)

    def tile_edges(self, values: np.ndarray) -> np.ndarray:
        """Per edge, the value of its orbit."""
        return np.repeat(values, self.layout.n)

    def tile_triangles(self, values: np.ndarray) -> np.ndarray:
        """Per triangle, the row of its orbit."""
        out = np.empty((self.F,) + values.shape[1:], dtype=values.dtype)
        for part, per in zip(self._positions(out, self.layout.n), self._positions(values, 1)):
            part[:] = per
        return out

    @classmethod
    def of(cls, layout: RingLayout | None) -> "RingOrbits | None":
        """The orbits of a layout, or None where it has no band, fewer than
        three positions, or is a cycle of fewer than three rings: edges may
        then repeat between bands."""
        if layout is None:
            return None
        n, R, fans, cycle = layout
        if n < 3 or (R if cycle else R - 1) < 1 or (cycle and R < 3):
            return None
        return cls(layout)


class _Singletons:
    """Every triangle and every edge its own orbit (no ring layout), each
    edge measured at ``edge_corner``, the flat corner of its first
    incidence."""

    def __init__(self, tri_edge: np.ndarray, edge_corner: np.ndarray):
        self.tri_rep, self.edge_corner = np.arange(len(tri_edge)), edge_corner
        self.tri_edge_orbits = tri_edge

    @staticmethod
    def tile_edges(values: np.ndarray) -> np.ndarray:
        return values

    tile_triangles = tile_edges


class TriangleMesh:
    """Immutable triangulated surface with intrinsic metric lengths.

    Geometry lives per triangle: ``charts[tri_chart[f]]`` is its chart
    (``charts`` in order of first use, ``tri_chart`` read-only int64) and
    ``tri_coords[f]`` holds the three vertex coordinates there, so charts
    may disagree about a shared vertex (seams, wraparound) without any
    global embedding.  Edge j of a triangle is opposite vertex j.
    ``orbits`` holds the mesh's rotation orbits: a ``RingOrbits`` from
    ``rings``, the layout of ``_ring_stack``, which numbers the edges by
    orbit; otherwise every triangle and edge is its own orbit, and one
    stable sort of the edge keys numbers the edges in order of first
    incidence (triangle f, then corner j).  Each edge orbit's
    representative gets one intrinsic length, in the chart of its
    triangle, with one metric call per chart; the representatives of the
    triangle orbits get Heron's area and the validity checks, and every
    member takes its orbit's values.
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
        self.orbits = RingOrbits.of(self.rings)
        if self.orbits is not None:
            self.tri_edge, self.edges = self.orbits.tri_edge(), self.orbits.edges()
        else:
            # first[p]: the flat (f, j) index f * 3 + j of the first
            # incidence of the edge at flat position p; an edge is new where
            # first[p] == p
            first = self._sorted_first()
            new = first == np.arange(first.size)
            edge_first = np.flatnonzero(new)
            rank = np.cumsum(new)
            rank -= 1
            self.tri_edge = rank[first].reshape(self.F, 3)
            del first, rank
            self.orbits = _Singletons(self.tri_edge, edge_first)
            f, j = np.divmod(edge_first, 3)
            self.edges = np.sort(self.triangles[f[:, None], (j[:, None] + [1, 2]) % 3], axis=1)
        self.E = len(self.edges)

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

    def _compute_lengths(self) -> None:
        """Measure the orbit representatives, check them, tile the orbits."""
        orbits, midpoint = self.orbits, getattr(self.metric, "edge_midpoint", None)
        f, j = np.divmod(orbits.edge_corner, 3)
        edge_chart = self.tri_chart[f]
        fac, lengths = np.empty(f.size), np.empty(f.size)
        for c, chart in enumerate(self.charts):
            on = np.flatnonzero(edge_chart == c)
            p, q = self.tri_coords[f[on], (j[on] + 1) % 3], self.tri_coords[f[on], (j[on] + 2) % 3]
            mid = midpoint(chart, p, q) if midpoint else 0.5 * (p + q)
            fac[on] = self.metric(chart, mid)
            lengths[on] = np.abs(p - q)
        bad = ~((fac > 0.0) & np.isfinite(fac))
        if bad.any():
            e = int(np.flatnonzero(bad)[0])
            u, v = sorted(self.triangles[f[e], [(j[e] + 1) % 3, (j[e] + 2) % 3]].tolist())
            raise DegenerateTriangle(
                f"non-positive conformal factor {fac[e]} at edge ({u}, {v}) "
                f"in chart {self.charts[edge_chart[e]]}"
            )
        del f, j, edge_chart
        lengths *= np.sqrt(fac, out=fac)
        tl = lengths[orbits.tri_edge_orbits]  # (orbits, 3), edge j opposite vertex j
        a, b, c = tl[:, 0], tl[:, 1], tl[:, 2]
        sp = 0.5 * (a + b + c)
        h2 = sp * (sp - a) * (sp - b) * (sp - c)
        areas = np.sqrt(np.maximum(h2, 0.0))
        bad = ~((a + b > c) & (b + c > a) & (c + a > b))
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            f = int(orbits.tri_rep[t])
            raise DegenerateTriangle(
                f"triangle {f} violates the strict triangle inequality: "
                f"lengths {tl[t].tolist()} in chart {self.charts[self.tri_chart[f]]}"
            )
        if not (areas > 0.0).all():
            raise DegenerateTriangle("zero-area triangle")
        self.edge_lengths = orbits.tile_edges(lengths)
        self._tri_lengths = orbits.tile_triangles(tl)
        self.triangle_areas = orbits.tile_triangles(areas)

    def _validate(self) -> None:
        # per edge orbit: each corner of a triangle orbit meets each member once
        orbits = self.orbits
        counts = np.bincount(orbits.tri_edge_orbits.ravel(), minlength=len(orbits.edge_corner))
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
        """Smallest intrinsic corner angle, via the law of cosines, on one
        triangle per orbit."""
        tl = self._tri_lengths[self.orbits.tri_rep]
        l1, l2 = tl[:, [1, 2, 0]], tl[:, [2, 0, 1]]
        cosang = (l1 ** 2 + l2 ** 2 - tl ** 2) / (2.0 * l1 * l2)
        return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))).min())

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

        New vertices at edge midpoints (vertex V + e on edge e, shared
        across charts); lengths are re-evaluated from the metric.  No
        verify row refines; it stays for refinement convergence, whose
        meshes have no layout and take the generic path.
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
    """Disjoint union of meshes, the nodal model at s = 0.  No verify row
    builds one; it stays as the generic path's input for the nodal limit."""
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
