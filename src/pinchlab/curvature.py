"""Gauss curvature of the conformal metrics and Gauss-Bonnet checks.

On the plumbing charts, K = -e^{-2u} Lap u comes from the analytic
conformal factor by fourth-order central differences of u = (1/2) log
factor (mesh-based curvature converges too slowly in the blow-up regime);
on the Fermat charts the density is in closed form, with the stencil as
its test oracle.  The module provides the blow-up sweep over the
fiber's charts (``DegenerationFamily.charts``), per-triangle samples
(one array, one stencil call per chart of the mesh's chart table) and
their Gauss-Bonnet total, the Fermat chart-quadrature total, and the
nodal-fiber curvature defect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, StencilOutOfChart
from .family import (
    DegenerationFamily,
    FermatAtlas,
    MetricKind,
    _fs_density,
    conformal_factor,
)
from .mesh import TriangleMesh
from .periods import _gl_panels, _polar_quad, _smooth_bump


# ---------------------------------------------------------------------------
# pointwise curvature
# ---------------------------------------------------------------------------

def factor_curvature(factor_fn, z, h):
    """K = -e^{-2u} Lap u for the factor e^{2u} = factor_fn(z).

    Fourth-order central differences with step h in both coordinate
    directions.  ``z`` and ``h`` may be arrays (they broadcast);
    ``factor_fn`` is called once per stencil offset with the shifted
    points.
    """
    f0 = factor_fn(z)
    u0 = 0.5 * np.log(f0)

    def u(dz):
        return 0.5 * np.log(factor_fn(z + dz))

    lap = 0.0
    for step in (h, 1j * h):
        lap += (
            -u(2 * step) + 16.0 * u(step) - 30.0 * u0
            + 16.0 * u(-step) - u(-2 * step)
        ) / (12.0 * h * h)
    return -lap / f0


#: Finite-difference step relative to |x| (to max(|x|, 0.1) on caps).
STEP_SCALE = 2e-3

#: Relative tolerance of the chart quadratures in fermat_gauss_bonnet.
FERMAT_REL_TOL = 1e-4


def _chart_step(chart: tuple, coord, s: complex) -> np.ndarray:
    """Largest admissible FD step at each coordinate, scaled to |x|."""
    r = np.abs(coord)
    if chart[0] == "cap":
        h = np.minimum(STEP_SCALE * np.maximum(r, 0.1), (1.0 - r) / 2.5)
    else:
        abs_s = abs(s)
        h = np.minimum(np.minimum(STEP_SCALE * r, (1.0 - r) / 2.5), 0.4 * r)
        if abs_s > 0.0:
            h = np.minimum(h, (r - abs_s) / 2.5)
    bad = ~((h > 0.0) & np.isfinite(h))
    if bad.any():
        raise StencilOutOfChart(
            f"no room for a central stencil at |x| = {np.asarray(r)[bad].flat[0]} "
            f"in chart {chart}"
        )
    return h


def gauss_curvature(
    family: DegenerationFamily,
    kind: MetricKind,
    chart: tuple,
    coord,
    s: complex,
):
    """Gauss curvature of the metric at the coordinate(s) ``coord`` (a
    scalar or an array) of one chart of the fiber X_s."""
    h = _chart_step(chart, coord, s)

    def factor(z):
        return conformal_factor(family, kind, chart, z, s)

    return factor_curvature(factor, coord, h)


def curvature_samples(
    family: DegenerationFamily,
    kind: MetricKind,
    s: complex,
    mesh: TriangleMesh,
) -> np.ndarray:
    """Curvature at the chart centroid of every mesh triangle, as an array.

    Every plumbing factor depends on the chart radius only, and on a ring
    stack the n triangles of a band's type, or of a fan, are one rotation
    orbit in one chart.  So the stencil runs once per orbit, at the
    centroid radius of its position-0 triangle, as one array per chart.
    On a mesh without a ``RingLayout`` it runs once per triangle.
    """
    radius = np.abs(mesh.tri_coords.mean(axis=1))
    rep = np.arange(mesh.F)  # the triangle whose stencil each one takes
    if mesh.rings:
        n, R, fans, cycle = mesh.rings
        bands = 2 * n * (R if cycle else R - 1)
        for orbits in (rep[:bands].reshape(-1, n, 2), rep[bands:].reshape(fans, n)):
            orbits[:] = orbits[:, :1]
    own = rep == np.arange(mesh.F)
    values = np.empty(mesh.F)
    for c, chart in enumerate(mesh.charts):
        on = np.flatnonzero(own & (mesh.tri_chart == c))
        values[on] = gauss_curvature(family, kind, chart, radius[on] + 0j, s)
    return values[rep]


# ---------------------------------------------------------------------------
# curvature blow-up sweep
# ---------------------------------------------------------------------------

@dataclass
class MinCurvatureReport:
    """Minimum-curvature series over a geometric s-grid."""

    s_grid: np.ndarray
    min_values: np.ndarray
    min_points: list[tuple[tuple, complex]]  # (chart, coordinate) per s
    component_max: np.ndarray  # max K over component samples, per s
    fitted_exponent: float  # slope of log(-min K) vs log(1/s); reported only


def min_curvature_sweep(
    family: DegenerationFamily,
    kind: MetricKind,
    s_grid,
) -> MinCurvatureReport:
    """Minimum of K over neck sample grids (16 radii per decade) plus 40
    radii on each cap, per s, on every chart of ``family.charts()``.

    The divergence exponent is fitted (least squares on log(-min K)
    against log(1/s)) and reported without being asserted.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    charts = list(family.charts())
    cap_radii = np.linspace(0.0, 0.95, 40) + 0j
    mins, argmins, comp_max = [], [], []
    for s in s_grid:
        best, best_pt, top = math.inf, None, -math.inf
        n = max(8, int(16 * math.log10(1.0 / s)))
        neck_radii = np.exp(np.linspace(math.log(s) + 1e-3, -1e-3, n)) + 0j
        for chart in charts:
            z = neck_radii if chart[0] == "neck" else cap_radii
            k = gauss_curvature(family, kind, chart, z, s)
            i = int(np.argmin(k))
            if chart[0] == "cap":
                top = max(top, float(k.max()))
            if k[i] < best:
                best, best_pt = float(k[i]), (chart, complex(z[i]))
        mins.append(best)
        argmins.append(best_pt)
        comp_max.append(top)
    mins = np.array(mins)
    mags = -mins
    if (mags > 0).all() and len(s_grid) >= 2:
        x = np.log(1.0 / s_grid)
        exponent = float(np.polyfit(x, np.log(mags), 1)[0])
    else:
        exponent = math.nan
    return MinCurvatureReport(
        s_grid=s_grid, min_values=mins, min_points=argmins,
        component_max=np.array(comp_max), fitted_exponent=exponent,
    )


# ---------------------------------------------------------------------------
# Gauss-Bonnet
# ---------------------------------------------------------------------------

@dataclass
class GaussBonnetReport:
    """Total curvature against the topological value 2 pi chi."""

    total: float
    expected: float
    deviation: float

    @classmethod
    def against_genus(cls, total: float, genus: int) -> "GaussBonnetReport":
        expected = 2.0 * math.pi * (2 - 2 * genus)
        return cls(total=total, expected=expected,
                   deviation=total - expected)


def gauss_bonnet(mesh: TriangleMesh, values: np.ndarray) -> GaussBonnetReport:
    """Midpoint quadrature of K over the mesh: sum of K(centroid) * area,
    with ``values`` one curvature per triangle (``curvature_samples``)."""
    if len(values) != mesh.F:
        raise ValueError("curvature samples do not match the mesh triangles")
    total = float(values @ mesh.triangle_areas)
    return GaussBonnetReport.against_genus(total, mesh.genus or 0)


# ---------------------------------------------------------------------------
# Gauss-Bonnet for Fermat fibers (chart quadrature)
# ---------------------------------------------------------------------------

#: Branch-patch bump radii in the a-plane of fermat_gauss_bonnet.
BRANCH_R0, BRANCH_R1 = 0.025, 0.05


def _masked(weight, density):
    """weight * density, the density evaluated only on the points `on`
    of weight above 1e-13 (density(on)), so never at a branch point
    (v = 0), where every weight vanishes."""
    on = weight > 1e-13
    out = np.zeros(weight.shape)
    out[on] = weight[on] * density(on)
    return out


def _branch_patch(atlas: FermatAtlas, xb: complex):
    """(integrand, radial breaks) of the patch around the branch point xb
    in its sheet coordinate y, where the sheet sum is single-valued."""
    d = atlas.d
    x_of_y, _ = atlas.branch_chart(xb)

    def fb(y):
        x = x_of_y(y)
        mb = _smooth_bump(np.abs(x - xb), BRANCH_R0, BRANCH_R1)
        return _masked(mb, lambda on: _fs_density(y[on], x[on], 1.0, d))

    rho = (1.25 * BRANCH_R1 * d * abs(xb) ** (d - 1)) ** (1.0 / d)
    rho0 = (0.5 * BRANCH_R0 * d * abs(xb) ** (d - 1)) ** (1.0 / d)
    return fb, [0.0, rho0, rho]


def fermat_gauss_bonnet(d: int, s: complex) -> GaussBonnetReport:
    """Total curvature of the Fubini-Study metric on the Fermat fiber.

    Integrates K dv = -(1/2) Lap(log factor) dA, summed over sheets,
    through a smooth partition of unity: the base chart a = x/z away
    from the branch points, the chart at infinity a2 = z/x past |a| =
    0.85, and one sheet-coordinate patch around each ramification point
    (where the sheet sum has a conical kink in a).

    The density is exact.  A sheet zeta -> (A, B) in an affine chart of
    P^2 has factor F = dd^c log q, q = 1+|A|^2+|B|^2, and by the Lagrange
    identity F = n/q^2 with n = |A'|^2+|B'|^2+|W|^2, W = AB'-BA', a sum of
    |holomorphic|^2.  So, with Lap = 4 dd^c and W' = AB''-BA'',
    -(1/2) Lap log F = 4F - 2 [n (|A''|^2+|B''|^2+|W'|^2)
    - |conj(A')A''+conj(B')B''+conj(W)W'|^2] / n^2.  Each chart is a graph
    A = u, B = v(u) of v^d + c u^d = const: c = 1 in chart 1, c = s in
    chart 2, and c = 1 in a branch chart with x and y swapped.  There
    A'' = 0, W' = u v'', and the Lagrange identity for (1, u) and (v', W)
    turns the bracket into q |v''|^2: the density is 4F - 2 q |v''|^2/n^2
    (`family._fs_density`), with v'' = -(d-1)(c u^(d-2) + v^(d-2) v'^2)
    / v^(d-1) from differentiating v^(d-1) v' = -c u^(d-1).

    The quadratures are folded onto the symmetries of the integrands.
    For zeta^d = 1, u -> zeta u keeps u^d, so it maps the sheets of v^d =
    const - c u^d onto themselves and scales v' by zeta^-1 and v'' by
    zeta^-2: q, n and |v''|, hence the sheet-summed density, are
    invariant, and so are the masks, which depend on |a| and on the
    distance to the set of branch points x_b^d = -s.  Charts 1 and 2 are
    therefore integrated on one sector of angle 2 pi/d.  When s is real,
    conjugation maps that set and the sheets onto themselves too, and the
    real density is conjugation-invariant, which halves the sector.  The
    branch patches are rotations of one another: x(y) -> zeta x(y) takes
    the patch of x_b to that of zeta x_b, v -> zeta v leaves the density
    invariant by the same count, and |x - x_b| is unchanged, so one patch
    is integrated and counted d times.
    """
    if d < 2:
        raise ValueError("chart quadrature needs degree >= 2")
    atlas = FermatAtlas(d=d, s=s)
    branch_pts = atlas.branch_points
    if branch_pts.size and np.abs(branch_pts).max() > 0.75:
        raise ValueError("branch points too close to the chart seam; use smaller |s|")
    R0, R1 = BRANCH_R0, BRANCH_R1
    SPLIT0, SPLIT1 = 0.85, 0.95  # chart-1 / chart-2 transition in |a|
    mirror = complex(s).imag == 0.0
    fold = d * (2 if mirror else 1)
    n_theta0 = -(-64 // fold) * fold  # the least multiple of the fold >= 64

    def bump_sum(a):
        # a bump is exactly 0 from R1 on, so only the nodes of the band
        # |xb| - R1 < |a| < |xb| + R1 (the panel rb - R1 <= |a| <= rb + R1)
        # can meet one, and only there are the bumps evaluated
        radii = np.abs(branch_pts)
        r = np.abs(a)
        band = (r > radii.min() - R1) & (r < radii.max() + R1)
        near = a[band]
        out = np.zeros(a.shape)
        sub = np.zeros(near.shape)
        for xb in branch_pts:
            sub += _smooth_bump(np.abs(near - xb), R0, R1)
        out[band] = sub
        return out

    # chart 1: mask away the branch patches and the chart seam
    def f1(a):
        m1 = (1.0 - bump_sum(a)) * _smooth_bump(np.abs(a), SPLIT0, SPLIT1)
        return _masked(m1, lambda on: atlas.sheet_density(1, a[on]))

    rb = abs(s) ** (1.0 / d)  # radius of the branch-point circle
    if rb - R1 <= 0.0:
        raise ValueError("branch points too close to a = 0 for the patch radii")
    total = _polar_quad(
        f1, 0.0 + 0.0j,
        [0.0, 0.5 * (rb - R1), rb - R1, rb + R1, SPLIT0, SPLIT1],
        FERMAT_REL_TOL, n_theta0=n_theta0, sectors=d, mirror=mirror,
    ).real

    # chart 2: the transition weight in the coordinate at infinity
    def f2(a2):
        r = np.abs(a2)
        m2 = 1.0 - _smooth_bump(np.where(r > 1e-12, 1.0 / np.maximum(r, 1e-12),
                                         math.inf), SPLIT0, SPLIT1)
        return _masked(m2, lambda on: atlas.sheet_density(2, a2[on]))

    total += _polar_quad(
        f2, 0.0 + 0.0j, [0.0, 0.6, 1.0 / SPLIT1, 1.0 / SPLIT0],
        FERMAT_REL_TOL, n_theta0=n_theta0, sectors=d, mirror=mirror,
    ).real

    # the d branch patches, in the sheet coordinate y: one, d times
    fb, breaks = _branch_patch(atlas, branch_pts[0])
    total += d * _polar_quad(fb, 0.0 + 0.0j, breaks, FERMAT_REL_TOL, n_theta0=64).real

    return GaussBonnetReport.against_genus(total, atlas.genus())


# ---------------------------------------------------------------------------
# nodal curvature defect
# ---------------------------------------------------------------------------

@dataclass
class DefectReport:
    """Curvature integral of the nodal fiber outside shrinking node balls."""

    values: np.ndarray  # one per ball radius, largest radius first
    limit: float
    target_smooth: float  # 2 pi chi(X_s)
    target_nodal: float  # 2 pi (chi of the normalization + sum (N_q - 1))
    defect: float  # limit - target_smooth = 2 pi * 2 * sum delta_p


def _panel_totals(family: DegenerationFamily, kind: MetricKind,
                  chart: tuple, panels) -> list[float]:
    """Integral of K dv over each radial panel (a, b) of one chart of the
    nodal fiber (the factor there depends on |x| only), from one stencil
    call and one factor call on the nodes of all panels."""
    nodes = [_gl_panels(a, b, 4) for a, b in panels]
    r = np.concatenate([pts for pts, _ in nodes])
    k = gauss_curvature(family, kind, chart, r + 0j, 0.0)
    f = conformal_factor(family, kind, chart, r + 0j, 0.0)
    dens = np.concatenate([w for _, w in nodes]) * k * f * 2.0 * math.pi * r
    cuts = np.cumsum([pts.size for pts, _ in nodes])[:-1]
    return [float(part.sum()) for part in np.split(dens, cuts)]


def nodal_defect(
    family: DegenerationFamily,
    eps_grid,
) -> DefectReport:
    """Limit of the induced curvature integral of X_0 minus eps-balls at
    the nodes.

    Compared against 2 pi chi(X_s) and against the normalization value
    2 pi (chi(X_0~) + sum_q (N_q - 1)) with N_q = 1 at nodal branches;
    the difference is the node defect 2 pi * 2 * sum delta_p.  A cap is
    integrated over [0, 1/2] and [1/2, 1], a neck branch over [eps, 1/2]
    for every eps and over [1/2, 1], and each total is summed per eps in
    component order.
    """
    eps_grid = np.asarray(sorted(eps_grid, reverse=True), dtype=float)
    if eps_grid.size < 2 or eps_grid.min() <= 0 or eps_grid.max() >= 0.5:
        raise ValueError("need at least two ball radii in (0, 1/2)")
    kind = MetricKind.INDUCED
    terms = []  # per chart, its total at every eps
    for comp in family.components:
        branches = family.branches(comp.id)
        if len(branches) < 2:
            # one stereographic cap per hemisphere free of nodes (two
            # on a smooth sphere); none on a two-node component
            inner, outer = _panel_totals(family, kind, ("cap", comp.id),
                                         [(0.0, 0.5), (0.5, 1.0)])
            terms.append([(2 - len(branches)) * (inner + outer)] * eps_grid.size)
        for node, branch, *_ in branches:
            *inner, outer = _panel_totals(family, kind, ("neck", node.node_id, branch),
                                          [(eps, 0.5) for eps in eps_grid] + [(0.5, 1.0)])
            terms.append([part + outer for part in inner])
    values = np.array([sum(at_eps) for at_eps in zip(*terms)])
    if abs(values[-1] - values[-2]) > 5e-3 * max(abs(values[-1]), 1e-12):
        raise NotConverged(
            "curvature integral still moving on the last two ball radii"
        )
    limit = float(values[-1])
    chi_smooth = 2 - 2 * family.g
    chi_normalization = 2 * family.N  # disjoint spheres
    target_nodal = 2.0 * math.pi * chi_normalization  # all N_q = 1
    target_smooth = 2.0 * math.pi * chi_smooth
    return DefectReport(
        values=values, limit=limit,
        target_smooth=target_smooth, target_nodal=target_nodal,
        defect=limit - target_smooth,
    )
