"""Degenerating families of Riemann surfaces and their fiber metrics.

Two constructions are supported:

* plumbing families: round-sphere components joined at nodes through the
  local model ``x*y = s``, with the gluing annulus normalized to
  ``{|s| <= |x| <= 1}`` on each branch;
* Fermat plane curves ``x^d + y^d + s*z^d = 0`` with the induced
  Fubini-Study metric, exposed as a chart atlas.

The module evaluates the conformal factor (the coefficient of ``|dx|^2``)
of every supported metric kind on every fiber chart, and serializes family
descriptions to a plain-text config file.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    DisconnectedGraph,
    OverlappingMarkedPoints,
    PointOffFiber,
    UnresolvedChartOverlap,
    ZeroRadiusAtNode,
)

#: Marked point "at infinity" in a component's coordinate.
INF_POINT = complex(math.inf, 0.0)


def is_inf_point(p: complex) -> bool:
    return math.isinf(p.real) or math.isinf(p.imag)


class MetricKind(str, Enum):
    """Supported fiber metrics (as conformal factors on charts)."""

    INDUCED = "induced"
    HYPERBOLIC_MODEL = "hyperbolic"
    CYLINDER = "cylinder"
    FUBINI_STUDY_INDUCED = "fubini-study"


@dataclass(frozen=True)
class ComponentSurface:
    """One irreducible component: a round sphere with marked points.

    ``marked_points`` are given in the component's own coordinate; the
    conventional placements used by the structured mesher are 0 and
    ``INF_POINT``.  Node attachment points and puncture points both live
    here.
    """

    id: int
    marked_points: tuple[complex, ...]
    radius: float = 0.5
    chart_radius: float = 1.0

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("component radius must be positive")
        if not 0 < self.chart_radius <= 1:
            raise ValueError("chart_radius must lie in (0, 1]")
        self._check_separation()

    def _check_separation(self) -> None:
        pts = self.marked_points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                p, q = pts[i], pts[j]
                if is_inf_point(p) and is_inf_point(q):
                    raise OverlappingMarkedPoints(
                        f"component {self.id}: two marked points at infinity"
                    )
                if is_inf_point(p) or is_inf_point(q):
                    continue  # separated from any finite point
                if abs(p - q) < 3.0 * self.chart_radius:
                    raise OverlappingMarkedPoints(
                        f"component {self.id}: marked points {p} and {q} "
                        f"closer than 3 x chart radius"
                    )


@dataclass(frozen=True)
class NodeSpec:
    """A node joining two components at marked points.

    ``left``/``right`` are ``(component id, marked point index)`` pairs.
    Branch coordinates are normalized so the gluing annulus is exactly
    ``{|s| <= |x| <= 1}`` on each branch.
    """

    node_id: int
    left: tuple[int, int]
    right: tuple[int, int]
    chart_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.chart_scale <= 0:
            raise ValueError("chart_scale must be positive")
        if self.left == self.right:
            raise ValueError("node cannot attach a marked point to itself")


@dataclass(frozen=True)
class DegenerationFamily:
    """A degenerating family over the parameter disk.

    ``kind`` is ``"plumbing"`` or ``"fermat"``; Fermat families carry the
    degree ``d``.  ``scale`` multiplies the conformal factor of every
    metric kind (global metric scale, default 1).
    """

    components: tuple[ComponentSurface, ...]
    nodes: tuple[NodeSpec, ...]
    N: int
    g: int
    kind: str = "plumbing"
    d: int = 0
    scale: float = 1.0

    def component(self, cid: int) -> ComponentSurface:
        for c in self.components:
            if c.id == cid:
                return c
        raise KeyError(f"no component with id {cid}")

    def node(self, nid: int) -> NodeSpec:
        for n in self.nodes:
            if n.node_id == nid:
                return n
        raise KeyError(f"no node with id {nid}")

    def node_degree(self, cid: int) -> int:
        return sum(
            (n.left[0] == cid) + (n.right[0] == cid) for n in self.nodes
        )

    def with_scale(self, scale: float) -> "DegenerationFamily":
        return DegenerationFamily(
            components=self.components,
            nodes=self.nodes,
            N=self.N,
            g=self.g,
            kind=self.kind,
            d=self.d,
            scale=scale,
        )


def build_plumbing(
    components: Sequence[ComponentSurface],
    nodes: Sequence[NodeSpec],
    scale: float = 1.0,
) -> DegenerationFamily:
    """Validate the dual graph and compute N and the arithmetic genus.

    Sphere components contribute genus 0, so g equals the first Betti
    number of the dual graph (edges - vertices + 1 for a connected graph).
    """
    comps = tuple(components)
    nds = tuple(nodes)
    ids = [c.id for c in comps]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate component ids")
    if len(comps) < 2:
        raise ValueError("plumbing families need at least two components")

    used: set[tuple[int, int]] = set()
    for n in nds:
        for cid, mp in (n.left, n.right):
            comp = next((c for c in comps if c.id == cid), None)
            if comp is None:
                raise ValueError(f"node {n.node_id} references unknown component {cid}")
            if not 0 <= mp < len(comp.marked_points):
                raise ValueError(f"node {n.node_id} references missing marked point")
            if (cid, mp) in used:
                raise OverlappingMarkedPoints(
                    f"marked point {mp} of component {cid} used by two nodes"
                )
            used.add((cid, mp))

    # connectivity of the dual graph
    adj: dict[int, set[int]] = {c.id: set() for c in comps}
    for n in nds:
        adj[n.left[0]].add(n.right[0])
        adj[n.right[0]].add(n.left[0])
    seen = {comps[0].id}
    stack = [comps[0].id]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(comps):
        raise DisconnectedGraph(
            f"dual graph not connected: reached {len(seen)} of {len(comps)} components"
        )

    b1 = len(nds) - len(comps) + 1
    return DegenerationFamily(
        components=comps, nodes=nds, N=len(comps), g=b1, kind="plumbing",
        scale=scale,
    )


# ---------------------------------------------------------------------------
# chart points and conformal factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartPoint:
    """A point, or an array of points, in one fiber chart.

    ``chart`` is ``("neck", node_id, branch)`` with branch 0 = left,
    1 = right (coordinate on that branch, admissible ``|s| <= |x| <= 1``),
    or ``("cap", component_id)`` (coordinate centered at the point
    antipodal to the component's single node chart, ``|x| <= 1``).
    ``coord`` is a complex scalar or an ndarray of coordinates.
    """

    chart: tuple
    coord: complex | np.ndarray


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep of t clipped to [0, 1].

    The third-order zero at t = 0 dominates the second-order divergence
    of the hyperbolic neck factor at |x| = 1, keeping the blended factor
    continuous across the cap seam.
    """
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 - t * (15.0 - 6.0 * t))


_LN2 = math.log(2.0)


def _sphere_factor(r: np.ndarray, radius: float) -> np.ndarray:
    """Round sphere of the given radius in a stereographic chart."""
    return 4.0 * radius * radius / (1.0 + r * r) ** 2


def _neck_factor(kind: MetricKind, r: np.ndarray, abs_s: float) -> np.ndarray:
    """Pure neck conformal factor at branch radii r."""
    if kind is MetricKind.INDUCED:
        return 1.0 + (abs_s * abs_s) / r ** 4
    if kind is MetricKind.CYLINDER:
        return 1.0 / (r * r)
    if kind is MetricKind.HYPERBOLIC_MODEL:
        # comparison model written in whichever branch coordinate is local;
        # the two expressions agree on the core circle |x| = sqrt|s|
        m = np.log(1.0 / r)
        if abs_s > 0.0:
            m = np.minimum(m, np.log(r / abs_s))
        if (m <= 0.0).any():
            raise PointOffFiber("hyperbolic neck factor undefined at |x| = 1")
        return 1.0 / (r * m) ** 2
    raise ValueError(f"metric kind {kind} has no neck factor")


def conformal_factor(
    family: DegenerationFamily,
    kind: MetricKind,
    point: ChartPoint,
    s: complex,
) -> float | np.ndarray:
    """Coefficient of |dx|^2 at the chart point(s) on the fiber X_s.

    Every plumbing factor depends on |x| only within a chart, so an array
    of coordinates is evaluated region by region (cap, near blend, pure
    neck, far blend), each formula on its own points only.  A scalar
    coordinate gives a float, an array one an array of its shape.
    """
    if family.kind == "fermat":
        raise ValueError("use FermatAtlas for Fermat families")
    if kind is MetricKind.FUBINI_STUDY_INDUCED:
        raise ValueError("Fubini-Study factor applies to Fermat families only")
    abs_s = abs(s)
    r = np.abs(np.asarray(point.coord, dtype=complex))
    tag = point.chart[0]
    if tag == "cap":
        bad = r > 1.0 + 1e-12
        if bad.any():
            raise PointOffFiber(f"cap coordinate |x| = {r[bad].flat[0]} > 1")
        value = _sphere_factor(r, family.component(point.chart[1]).radius)
    elif tag == "neck":
        value = _neck_chart_factor(family, kind, point.chart, r, abs_s)
    else:
        raise PointOffFiber(f"unknown chart {point.chart}")
    value = family.scale * value
    return float(value) if value.ndim == 0 else value


def _neck_chart_factor(family: DegenerationFamily, kind: MetricKind,
                       chart: tuple, r: np.ndarray, abs_s: float) -> np.ndarray:
    """Factor at radii r of a neck chart: near blend, pure neck, far blend."""
    _, nid, branch = chart
    node = family.node(nid)
    if (r == 0.0).any():
        raise ZeroRadiusAtNode(f"node {nid}: factor requested at |x| = 0")
    bad = r > 1.0 + 1e-12
    if bad.any():
        raise PointOffFiber(f"neck coordinate |x| = {r[bad].flat[0]} > 1")
    bad = r < abs_s * (1.0 - 1e-12)
    if abs_s > 0.0 and bad.any():
        raise PointOffFiber(f"neck coordinate |x| = {r[bad].flat[0]} < |s| = {abs_s}")

    near_cid = (node.left if branch == 0 else node.right)[0]
    far_cid = (node.right if branch == 0 else node.left)[0]
    ry = abs_s / r
    near = r >= 0.5
    far = ~near & (ry >= 0.5)
    pure = ~near & ~far
    value = np.empty_like(r)
    value[near] = _blend(kind, r[near], abs_s, family.component(near_cid).radius)
    # far side: factor in the other branch coordinate, pulled back by
    # y = s/x:  |dy/dx|^2 = |s|^2/|x|^4
    value[far] = _blend(kind, ry[far], abs_s, family.component(far_cid).radius) \
        * (abs_s / r[far] ** 2) ** 2
    value[pure] = _neck_factor(kind, r[pure], abs_s)
    return value


def _blend(kind: MetricKind, r: np.ndarray, abs_s: float, comp_radius: float) -> np.ndarray:
    """Geometric blend of neck and sphere factors for 1/2 <= r <= 1.

    Interpolates log-factors, not factors: this keeps d(log factor) /
    d(log r) uniformly bounded on the blend zone even for the hyperbolic
    model (whose factor diverges at r = 1), which is what lets meshes of
    moderate angular resolution satisfy the triangle inequality.  The
    neck factor is evaluated only where the blend weight is positive.
    """
    value = _sphere_factor(r, comp_radius)
    w = _smoothstep(np.log(1.0 / r) / _LN2)
    on = w > 0.0
    w = w[on]
    neck = _neck_factor(kind, r[on], abs_s)
    value[on] = np.exp(w * np.log(neck) + (1.0 - w) * np.log(value[on]))
    return value


def neck_core_length(
    family: DegenerationFamily, kind: MetricKind, s: complex
) -> float:
    """Length of the core circle |x| = sqrt|s| of a neck, in closed form.

    Induced: factor is 2 at the core, circumference 2*pi*sqrt|s|.
    Hyperbolic model: 2*pi*r/(r*log(1/r)) at r = sqrt|s|.
    Cylinder: girth independent of s.
    """
    abs_s = abs(s)
    if abs_s == 0.0:
        raise ValueError("neck core undefined at s = 0")
    root = math.sqrt(family.scale)
    if kind is MetricKind.INDUCED:
        return root * 2.0 * math.pi * math.sqrt(2.0 * abs_s)
    if kind is MetricKind.HYPERBOLIC_MODEL:
        return root * 4.0 * math.pi / math.log(1.0 / abs_s)
    if kind is MetricKind.CYLINDER:
        return root * 2.0 * math.pi
    raise ValueError(f"no neck core length for metric kind {kind}")


# ---------------------------------------------------------------------------
# Fermat plane curves x^d + y^d + s z^d = 0
# ---------------------------------------------------------------------------

def _nth_roots(w, d: int) -> np.ndarray:
    """All d-th roots of w; shape (d,) + w.shape."""
    w = np.asarray(w, dtype=complex)
    if d == 1:
        return w[None, ...]
    rad = np.abs(w) ** (1.0 / d)
    base = np.angle(w) / d
    ks = np.arange(d).reshape((d,) + (1,) * w.ndim)
    return rad * np.exp(1j * (base + 2.0 * math.pi * ks / d))


def _fs_factor(a, b, da, db):
    """Fubini-Study factor induced on a curve in P^2.

    The curve is parametrized in an affine chart as zeta -> (a, b) with
    derivatives (da, db); returns the coefficient of |d zeta|^2.  All
    arguments broadcast.
    """
    q = 1.0 + np.abs(a) ** 2 + np.abs(b) ** 2
    num = q * (np.abs(da) ** 2 + np.abs(db) ** 2) \
        - np.abs(np.conj(a) * da + np.conj(b) * db) ** 2
    return num / (q * q)


def _fs_density(u, v, c: complex, d: int):
    """Curvature density K F = -(1/2) Lap log F of the Fubini-Study factor
    F on the sheet u -> (u, v(u)) of v^d + c u^d = const, in closed form
    (derived in `curvature.fermat_gauss_bonnet`); arguments broadcast."""
    t = (u / v) ** (d - 2)
    dv = -c * t * (u / v)
    ddv = -(d - 1) * (c * t + dv * dv) / v
    q = 1.0 + np.abs(u) ** 2 + np.abs(v) ** 2
    n = 1.0 + np.abs(dv) ** 2 + np.abs(u * dv - v) ** 2
    return 4.0 * n / (q * q) - 2.0 * q * np.abs(ddv) ** 2 / (n * n)


@dataclass
class FermatAtlas:
    """Chart atlas of one Fermat fiber with FS conformal factors.

    Charts (for s != 0, smooth fiber):

    * chart 1: base coordinate ``a = x/z`` on ``|a| <= 1``, d sheets
      ``b = (-a^d - s)^{1/d}`` (projection from (0:1:0));
    * chart 2: base coordinate ``a2 = z/x`` on ``|a2| <= 1``, d sheets
      ``b2 = (-1 - s a2^d)^{1/d}`` (unramified for |s| < 1);
    * one branch chart per ramification point ``x_b`` (``x_b^d = -s``),
      parametrized by the sheet coordinate ``y`` itself.

    At s = 0 the atlas degenerates into d projective lines.
    """

    d: int
    s: complex

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("degree must be >= 1")
        if abs(self.s) >= 1.0:
            raise UnresolvedChartOverlap(
                "branch points leave the primary chart for |s| >= 1"
            )

    # --- discrete invariants -------------------------------------------

    @property
    def branch_points(self) -> np.ndarray:
        """Ramification points of the x-projection (solutions of x^d = -s)."""
        if self.d < 2 or self.s == 0:
            return np.zeros(0, dtype=complex)
        return _nth_roots(-self.s, self.d)

    def genus(self) -> int:
        """(d-1)(d-2)/2 for a smooth plane curve of degree d; 0 at s = 0
        (d lines) and for d < 2."""
        if self.s == 0 or self.d < 2:
            return 0
        return (self.d - 1) * (self.d - 2) // 2

    @property
    def component_count(self) -> int:
        """Number of irreducible components (d lines at s = 0, else 1)."""
        return self.d if self.s == 0 else 1

    # --- chart evaluations ---------------------------------------------

    def sheet_factors(self, chart: int, a) -> np.ndarray:
        """FS factor of every sheet over the base coordinate(s) a of chart
        1 (``a = x/z``) or chart 2 (``a = z/x``); shape (d,) + a.shape."""
        a = np.asarray(a, dtype=complex)
        c, b = self._sheets(chart, a)
        return _fs_factor(a, b, 1.0, -c * ((a / b) ** (self.d - 1)))

    def sheet_density(self, chart: int, a) -> np.ndarray:
        """Sum over sheets of the curvature density `_fs_density` over the
        base coordinate(s) a of chart 1 or chart 2, one sheet at a time."""
        a = np.asarray(a, dtype=complex)
        c, roots = self._sheets(chart, a)
        out = np.zeros(a.shape)
        for b in roots:
            out += _fs_density(a, b, c, self.d)
        return out

    def _sheets(self, chart: int, a: np.ndarray):
        """(c, b): the sheets b of b^d + c a^d = const over chart 1 or 2."""
        d, s = self.d, self.s
        if chart == 1:
            return 1.0, _nth_roots(-(a ** d) - s, d)
        return s, _nth_roots(-1.0 - s * a ** d, d)

    def branch_chart(self, x_b: complex):
        """Local parametrization by the sheet coordinate y near x_b.

        Returns ``(x_of_y, factor)``, both taking the local coordinate y
        (scalar or array); x(y) is the root of
        x^d = -s - y^d nearest to x_b (exact for |y| well inside the
        separation radius).
        """
        d = self.d

        def x_of_y(y):
            roots = _nth_roots(-self.s - np.asarray(y) ** d, d)
            nearest = np.argmin(np.abs(roots - x_b), axis=0)
            return np.take_along_axis(roots, nearest[None, ...], axis=0)[0]

        def factor(y):
            x = x_of_y(y)
            return _fs_factor(x, y, -((y / x) ** (d - 1)), 1.0)

        return x_of_y, factor


def fermat_fiber_charts(d: int, s: complex) -> FermatAtlas:
    """Chart atlas of the Fermat fiber x^d + y^d + s z^d = 0."""
    return FermatAtlas(d=d, s=s)


def fermat_family(d: int, s_dummy: float = 0.0) -> DegenerationFamily:
    """Family wrapper for the Fermat curve (N and g of the fibers).

    The s = 0 fiber is a union of d lines meeting pairwise, so its dual
    graph is the complete graph K_d; the smooth-fiber genus is
    (d-1)(d-2)/2 which equals the first Betti number of K_d.
    """
    comps = tuple(
        ComponentSurface(id=i, marked_points=(0.0 + 0j, INF_POINT))
        for i in range(d)
    )
    g = (d - 1) * (d - 2) // 2
    return DegenerationFamily(
        components=comps, nodes=(), N=d, g=g, kind="fermat", d=d,
    )


# ---------------------------------------------------------------------------
# presets and plain-text config
# ---------------------------------------------------------------------------

def two_sphere_family(scale: float = 1.0) -> DegenerationFamily:
    """Two spheres joined at one node (N = 2, g = 0)."""
    c0 = ComponentSurface(id=0, marked_points=(0.0 + 0j,))
    c1 = ComponentSurface(id=1, marked_points=(0.0 + 0j,))
    node = NodeSpec(node_id=0, left=(0, 0), right=(1, 0))
    return build_plumbing([c0, c1], [node], scale=scale)


def three_cycle_family(scale: float = 1.0) -> DegenerationFamily:
    """Three spheres in a cycle of three nodes (N = 3, g = 1)."""
    comps = [
        ComponentSurface(id=i, marked_points=(0.0 + 0j, INF_POINT))
        for i in range(3)
    ]
    nodes = [
        NodeSpec(node_id=i, left=(i, 1), right=((i + 1) % 3, 0))
        for i in range(3)
    ]
    return build_plumbing(comps, nodes, scale=scale)


FAMILY_PRESETS = {
    "two-sphere": two_sphere_family,
    "three-cycle": three_cycle_family,
}

CONFIG_SCHEMA = "pinchlab-family-v1"


def _format_point(p: complex) -> str:
    if is_inf_point(p):
        return "inf"
    if p.imag == 0:
        return repr(p.real)
    return f"{p.real!r}{p.imag:+}j"


def _parse_point(text: str) -> complex:
    text = text.strip()
    if text == "inf":
        return INF_POINT
    return complex(text)


def write_family_config(family: DegenerationFamily, path: str,
                        metric: MetricKind | None = None) -> None:
    """Serialize a family to a plain-text config file."""
    cp = configparser.ConfigParser()
    comp_lines = []
    for c in family.components:
        pts = "|".join(_format_point(p) for p in c.marked_points)
        comp_lines.append(f"{c.id}:{pts}")
    node_lines = [
        f"{n.node_id}:{n.left[0]}.{n.left[1]}-{n.right[0]}.{n.right[1]}"
        for n in family.nodes
    ]
    cp["family"] = {
        "schema": CONFIG_SCHEMA,
        "kind": family.kind,
        "components": " ; ".join(comp_lines),
        "nodes": " ; ".join(node_lines),
        "metric": (metric or MetricKind.INDUCED).value,
        "scale": repr(family.scale),
        "d": str(family.d),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cp.write(fh)


def read_family_config(path: str) -> tuple[DegenerationFamily, MetricKind]:
    """Read a family (and its default metric) from a config file."""
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    sec = cp["family"]
    kind = sec.get("kind", "plumbing")
    scale = float(sec.get("scale", "1.0"))
    metric = MetricKind(sec.get("metric", "induced"))
    if kind == "fermat":
        fam = fermat_family(int(sec["d"]))
        if scale != 1.0:
            fam = fam.with_scale(scale)
        return fam, metric
    comps = []
    for chunk in sec["components"].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        cid, pts = chunk.split(":")
        points = tuple(_parse_point(p) for p in pts.split("|"))
        comps.append(ComponentSurface(id=int(cid), marked_points=points))
    nodes = []
    for chunk in sec.get("nodes", "").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        nid, rest = chunk.split(":")
        left, right = rest.split("-")
        lc, lm = left.split(".")
        rc, rm = right.split(".")
        nodes.append(NodeSpec(node_id=int(nid),
                              left=(int(lc), int(lm)),
                              right=(int(rc), int(rm))))
    return build_plumbing(comps, nodes, scale=scale), metric


def resolve_family(name_or_path: str, scale: float = 1.0
                   ) -> tuple[DegenerationFamily, MetricKind | None]:
    """Resolve a preset name or config file path to a family."""
    if name_or_path in FAMILY_PRESETS:
        return FAMILY_PRESETS[name_or_path](scale=scale), None
    fam, metric = read_family_config(name_or_path)
    if scale != 1.0:
        fam = fam.with_scale(scale)
    return fam, metric
