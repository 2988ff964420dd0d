"""Period Gram matrices of logarithmic differentials on degenerating fibers.

Differentials live on genus-0 components as explicit rational one-forms;
the Gram pairing sqrt(-1) * integral of omega_i wedge conj(omega_j)
decomposes into node-annulus integrals (which carry the log(1/|t|)
divergence, coefficient KAPPA per unit |residue|^2) and t-independent
component-interior integrals.  Determinant growth in loglog(1/|t|) and
the eigenvalue-product/period-determinant identity are checked on top.

The node annuli are paired in closed form (plumbing_gram).  The
component interiors are one Hermitian block per component
(component_pairing): the pairs that share a puncture set share one set
of doubling polar quadratures, integrands with a leading axis that
_polar_quad evaluates in chunks of radii.  The annulus quadrature
annulus_log_integral is kept as the closed form's test oracle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AGMNotConverged,
    GridMismatch,
    GridTooShort,
    IllConditionedFit,
    QuadratureNotConverged,
)
from .family import DegenerationFamily, INF_POINT, _smoothstep, is_inf_point

#: Annulus log prefactor: sqrt(-1) * Int_{|t|<=|x|<=1} dx wedge dxbar / |x|^2
#: = KAPPA * log(1/|t|).  Direct polar computation and the quadrature
#: oracle agree on 4*pi (= 2*pi per unit of log|t|^{-2}).
KAPPA = 4.0 * math.pi

#: Node chart disks kept out of component-interior regions have this
#: radius; annulus integrals run in the rescaled coordinate x/RHO.
RHO = 0.5

#: Quadratic-vanishing radius of the puncture weight.
RHO_0 = 0.25


# ---------------------------------------------------------------------------
# rational one-forms on genus-0 components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalForm:
    """f(z) dz with simple poles; an implicit pole at infinity carries
    residue minus the sum of the finite ones."""

    poles: tuple[tuple[complex, complex], ...]  # (location, residue)

    def eval(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(z, dtype=complex))
        for loc, res in self.poles:
            out += res / (np.asarray(z, dtype=complex) - loc)
        return out

    def residue_at_infinity(self) -> complex:
        return -sum(res for _, res in self.poles)

    def residue_at(self, p: complex) -> complex:
        if is_inf_point(p):
            return self.residue_at_infinity()
        return sum(res for loc, res in self.poles if loc == p)

    def taylor_alpha_at_zero(self, degree: int) -> np.ndarray:
        """Coefficients of alpha(x) = x f(x) around x = 0.

        alpha(0) is the residue at 0; higher terms come from the other
        finite poles: x/(x - z_j) = -sum_m (x/z_j)^m.
        """
        c = np.zeros(degree + 1, dtype=complex)
        for loc, res in self.poles:
            if loc == 0:
                c[0] += res
            else:
                for m in range(1, degree + 1):
                    c[m] -= res / loc ** m
        return c

    def taylor_alpha_at_infinity(self, degree: int) -> np.ndarray:
        """Coefficients of alpha(x) = x f_loc(x) in the coordinate x = 1/z.

        alpha(x) = -f(1/x)/x = -sum_j r_j / (1 - z_j x); the constant term
        is the residue at infinity.
        """
        c = np.zeros(degree + 1, dtype=complex)
        for loc, res in self.poles:
            for m in range(degree + 1):
                c[m] -= res * loc ** m
        return c


ZERO_FORM = RationalForm(poles=())


@dataclass(frozen=True)
class PlumbingDifferential:
    """A meromorphic differential on the nodal fiber: one rational form
    per component, plus the punctures where (twisted case) extra simple
    poles are allowed."""

    forms: dict[int, RationalForm]
    punctures: tuple[tuple[int, complex], ...] = ()  # (component, location)
    label: str = ""

    def form(self, cid: int) -> RationalForm:
        return self.forms.get(cid, ZERO_FORM)


def _node_marked_point(family: DegenerationFamily, node, branch: int) -> tuple[int, complex]:
    cid, mp = node.left if branch == 0 else node.right
    return cid, family.component(cid).marked_points[mp]


def node_residue(family: DegenerationFamily, diff: PlumbingDifferential,
                 node, branch: int) -> complex:
    """Residue of the differential at the given node branch, in the branch
    coordinate (which vanishes at the node)."""
    cid, p = _node_marked_point(family, node, branch)
    return diff.form(cid).residue_at(p)


def node_taylor(family: DegenerationFamily, diff: PlumbingDifferential,
                node, branch: int, degree: int = 12) -> np.ndarray:
    """Taylor coefficients of alpha = x * f(x) in the branch coordinate."""
    cid, p = _node_marked_point(family, node, branch)
    form = diff.form(cid)
    if is_inf_point(p):
        return form.taylor_alpha_at_infinity(degree)
    if p != 0:
        raise ValueError("node marked points must be 0 or infinity")
    return form.taylor_alpha_at_zero(degree)


def validate_residues(family: DegenerationFamily,
                      diff: PlumbingDifferential) -> None:
    """Residue theorem per component; opposite residues across each node."""
    for comp in family.components:
        form = diff.form(comp.id)
        total = sum(res for _, res in form.poles) + form.residue_at_infinity()
        if abs(total) > 1e-12:
            raise ValueError(f"residues on component {comp.id} sum to {total}")
    for node in family.nodes:
        r0 = node_residue(family, diff, node, 0)
        r1 = node_residue(family, diff, node, 1)
        if abs(r0 + r1) > 1e-12:
            raise ValueError(
                f"node {node.node_id}: branch residues {r0}, {r1} not opposite"
            )


# ---------------------------------------------------------------------------
# annulus quadrature (the closed form's test oracle)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_panels(a: float, b: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return pts, wts


def annulus_log_integral(
    t: complex,
    taylor_i: np.ndarray,
    taylor_j: np.ndarray,
    rel_tol: float = 1e-6,
) -> complex:
    """sqrt(-1) * Int_{|t|<=|x|<=1} alpha_i(x, t/x) conj(alpha_j) dx^dxbar/|x|^2.

    Tensor quadrature in (log r, theta): trapezoid in theta (exact for
    trigonometric polynomials once fine enough), composite Gauss-Legendre
    in log r, both doubled until the value is stable to rel_tol.
    """
    if not 0 < abs(t) < 1:
        raise ValueError("need 0 < |t| < 1")
    ci = np.asarray(taylor_i, dtype=complex)
    cj = np.asarray(taylor_j, dtype=complex)
    u0 = math.log(abs(t))
    terms_i = [(m, n, ci[m, n]) for m, n in zip(*np.nonzero(ci))]
    terms_j = [(m, n, cj[m, n]) for m, n in zip(*np.nonzero(cj))]
    if not terms_i or not terms_j:
        return 0.0 + 0.0j
    max_deg = max(m + n for terms in (terms_i, terms_j) for m, n, _ in terms)

    def alpha(terms, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        max_m = max(m for m, _, _ in terms)
        max_n = max(n for _, n, _ in terms)
        xp = [np.ones_like(x)]
        for _ in range(max_m):
            xp.append(xp[-1] * x)
        yp = [np.ones_like(y)]
        for _ in range(max_n):
            yp.append(yp[-1] * y)
        out = np.zeros_like(x)
        for m, n, c in terms:
            out += c * xp[m] * yp[n]
        return out

    prev = None
    # trapezoid is exact once n_theta exceeds the top angular frequency
    n_theta = 32
    while n_theta <= 2 * max_deg:
        n_theta *= 2
    n_panels = max(4, int(math.ceil(abs(u0))))
    for _ in range(8):
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        u, wu = _gl_panels(u0, 0.0, n_panels)
        x = np.exp(u[:, None] + 1j * theta[None, :])
        y = t / x
        ai = alpha(terms_i, x, y)
        aj = alpha(terms_j, x, y)
        prod = ai * np.conj(aj)
        dtheta = 2.0 * math.pi / n_theta
        value = 2.0 * complex(((prod.sum(axis=1) * dtheta) * wu).sum())
        # tolerance scale: the L1 mass, robust to exact angular cancellation
        mass = 2.0 * float(((np.abs(prod).sum(axis=1) * dtheta) * wu).sum())
        if prev is not None and abs(value - prev) <= rel_tol * max(mass, 1e-30):
            return value
        prev = value
        n_panels *= 2
    raise QuadratureNotConverged("annulus quadrature did not stabilize")


# ---------------------------------------------------------------------------
# elliptic (Legendre) oracle family
# ---------------------------------------------------------------------------

def _agm(a: complex, b: complex, tol: float = 1e-15) -> complex:
    """Arithmetic-geometric mean with the principal (right half plane)
    square-root branch choice."""
    for _ in range(80):
        if abs(a - b) <= tol * abs(a):
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), cmath.sqrt(a * b)
        if (b / a).real < 0:
            b = -b
    raise AGMNotConverged(f"AGM stalled at {a}, {b}")


def elliptic_period_gram(t: complex) -> float:
    """1x1 untwisted Gram (i/2) Int omega ^ conj(omega) for the Legendre
    curve y^2 = x(x-1)(x-t) with omega = dx/y.

    Equal to Im(tau) |Omega_a|^2 = 16 K(k) K(k') with k^2 = t, via the
    arithmetic-geometric mean: K(k) = pi / (2 agm(1, k')).
    """
    if not 0 < abs(t) < 0.5:
        raise ValueError("need 0 < |t| < 1/2")
    k = cmath.sqrt(t)
    kp = cmath.sqrt(1.0 - t)
    K = math.pi / (2.0 * _agm(1.0, kp))
    Kp = math.pi / (2.0 * _agm(1.0, k))
    value = 16.0 * K * Kp
    return float(abs(value))


# ---------------------------------------------------------------------------
# canonical differentials on plumbing families
# ---------------------------------------------------------------------------

def _component_puncture(family: DegenerationFamily, cid: int) -> complex:
    """A puncture location away from all node charts: the cap center for
    one-node components, z = -1 on the seam circle for two-node ones."""
    if family.node_degree(cid) == 1:
        node_pts = _node_points(family, cid)
        return INF_POINT if 0 in node_pts else 0.0 + 0j
    return -1.0 + 0j


def _node_points(family: DegenerationFamily, cid: int) -> list[complex]:
    pts = []
    for node in family.nodes:
        for cid2, mp in (node.left, node.right):
            if cid2 == cid:
                pts.append(family.component(cid2).marked_points[mp])
    return pts


def _form_with_residues(assignments: list[tuple[complex, complex]]) -> RationalForm:
    """Rational form with prescribed simple poles (locations may include
    infinity; residues must sum to zero)."""
    finite = [(loc, res) for loc, res in assignments if not is_inf_point(loc)]
    inf_res = sum(res for loc, res in assignments if is_inf_point(loc))
    total = sum(res for _, res in finite) + inf_res
    if abs(total) > 1e-12:
        raise ValueError("residues must sum to zero on a component")
    # the implicit infinity residue is minus the finite sum, which equals
    # inf_res exactly when total == 0
    return RationalForm(poles=tuple(finite))


def canonical_basis(family: DegenerationFamily) -> tuple[
    list[PlumbingDifferential], list[PlumbingDifferential]
]:
    """(twisted basis of size g + N - 1, untwisted basis of size g).

    Untwisted: one holomorphic differential per independent dual-graph
    cycle (f = dz/z around the cycle).  Twisted: those plus one
    differential per component i >= 1 with simple poles at punctures on
    component 0 and component i, routed along a spanning tree.
    """
    from .mesh import _walk_dual_graph  # ordering of the path/cycle

    comp_order, walk, is_cycle = _walk_dual_graph(family)
    node_order = [node for node, _branch in walk]
    untwisted: list[PlumbingDifferential] = []
    if is_cycle:
        forms = {}
        for comp in family.components:
            # residue +1 at the 0-side node, -1 at the infinity-side node
            forms[comp.id] = _form_with_residues([(0.0 + 0j, 1.0 + 0j), (INF_POINT, -1.0 + 0j)])
        cyc = PlumbingDifferential(forms=forms, punctures=(), label="cycle")
        validate_residues(family, cyc)
        untwisted.append(cyc)

    twisted: list[PlumbingDifferential] = list(untwisted)
    c0 = comp_order[0]
    p0 = _component_puncture(family, c0)
    # spanning tree = the walk minus (for cycles) the closing node
    tree = node_order[:-1] if is_cycle else node_order
    for i in range(1, len(comp_order)):
        ci = comp_order[i]
        pi = _component_puncture(family, ci)
        forms: dict[int, RationalForm] = {}
        # component 0: puncture pole +1, exit-node pole -1
        path_nodes = tree[:i]
        exit_pt = _entry_exit_point(family, c0, path_nodes[0])
        forms[c0] = _form_with_residues([(p0, 1.0 + 0j), (exit_pt, -1.0 + 0j)])
        # intermediate components: enter +1, exit -1
        for j in range(1, i):
            cj = comp_order[j]
            enter = _entry_exit_point(family, cj, path_nodes[j - 1])
            leave = _entry_exit_point(family, cj, path_nodes[j])
            forms[cj] = _form_with_residues([(enter, 1.0 + 0j), (leave, -1.0 + 0j)])
        # final component: enter +1, puncture pole -1
        enter = _entry_exit_point(family, ci, path_nodes[i - 1])
        forms[ci] = _form_with_residues([(enter, 1.0 + 0j), (pi, -1.0 + 0j)])
        diff = PlumbingDifferential(
            forms=forms,
            punctures=((c0, p0), (ci, pi)),
            label=f"twisted-{i}",
        )
        validate_residues(family, diff)
        twisted.append(diff)
    return twisted, untwisted


def _entry_exit_point(family: DegenerationFamily, cid: int, node) -> complex:
    for cid2, mp in (node.left, node.right):
        if cid2 == cid:
            return family.component(cid2).marked_points[mp]
    raise ValueError(f"node {node.node_id} does not touch component {cid}")


def residue_free_differential(family: DegenerationFamily) -> PlumbingDifferential:
    """A twisted differential with zero residue at every node: two
    opposite-residue poles at punctures on the same component (the first
    component of the family)."""
    cid = family.components[0].id
    pts = _node_points(family, cid)
    if family.node_degree(cid) == 1:
        # away from the node chart (|z| <= 1/2 resp. |z| >= 2) on both sides
        locs = (1.2j, -1.2j) if 0 in pts else (1.2j, -1.2j)
    else:
        locs = (-1.0 + 0j, 1.0 + 0j)
    form = _form_with_residues([(locs[0], 1.0 + 0j), (locs[1], -1.0 + 0j)])
    diff = PlumbingDifferential(
        forms={cid: form},
        punctures=((cid, locs[0]), (cid, locs[1])),
        label="residue-free",
    )
    validate_residues(family, diff)
    return diff


# ---------------------------------------------------------------------------
# component-interior integrals
# ---------------------------------------------------------------------------

def _smooth_bump(r: np.ndarray, r_half: float, r_full: float) -> np.ndarray:
    """1 below r_half, 0 from r_full on, quintic smoothstep between; the
    smoothstep is evaluated only where r < r_full."""
    out = np.zeros(np.shape(r))
    near = r < r_full
    out[near] = _smoothstep((r_full - r[near]) / (r_full - r_half))
    return out


#: Most quadrature nodes (radii x angles) that _polar_quad evaluates at
#: once: a panel set's radii are taken in chunks of this many nodes, so
#: integrands with leading axes hold no larger temporaries than one panel.
_CHUNK_NODES = 1 << 14


def _polar_quad(fn, center: complex, breaks: list[float], rel_tol: float,
                n_theta0: int = 32, max_iter: int = 7):
    """Integral of fn over the disk/annulus around center with the given
    radial panel breakpoints; doubling tensor quadrature.

    fn maps an (radii, angles) array of points to values of that shape,
    or of that shape behind leading axes, one entry per integrand; the
    result is a complex, or an array of the leading shape.  Each entry is
    frozen at the first level whose change from the level before is
    within rel_tol of the entry's L1 mass, exactly as if it were
    integrated alone.
    """
    prev, result, done = np.inf, 0j, np.False_
    n_theta = n_theta0
    split = 1
    for _ in range(max_iter):
        phase = np.exp(1j * (2.0 * math.pi * np.arange(n_theta) / n_theta))
        dtheta = 2.0 * math.pi / n_theta
        rows = max(1, _CHUNK_NODES // n_theta)
        total = 0.0 + 0.0j
        total_abs = 0.0  # L1 mass: tolerance scale robust to cancellation
        for a, b in zip(breaks, breaks[1:]):
            r, wr = _gl_panels(a, b, 2 * split)
            points = (center + r[lo:lo + rows, None] * phase for lo in range(0, len(r), rows))
            sums = [(v.sum(axis=-1), np.abs(v).sum(axis=-1)) for v in map(fn, points)]
            row_sum, row_abs = (np.concatenate(s, axis=-1) * dtheta * (wr * r) for s in zip(*sums))
            total = total + row_sum.sum(axis=-1)
            total_abs = total_abs + row_abs.sum(axis=-1)
        bound = rel_tol * np.maximum(total_abs, 1e-12)
        diff = np.abs(total - prev)
        ok = diff <= bound
        result = np.where(ok & ~done, total, result)
        done = done | ok
        if done.all():
            return result if result.ndim else complex(result)
        prev = total
        n_theta *= 2
        split *= 2
    worst = np.unravel_index(np.argmax(np.where(done, -np.inf, diff / bound)), diff.shape)
    entry = f" of entry {tuple(map(int, worst))}" if diff.ndim else ""
    raise QuadratureNotConverged(
        f"polar quadrature around {complex(center):.6g} on radial breaks "
        f"[{', '.join(f'{float(b):.6g}' for b in breaks)}] did not stabilize "
        f"in {max_iter} levels (n_theta {n_theta0} to {n_theta // 2}): the last "
        f"change{entry} was {diff[worst]:.3e} against rel_tol*L1 = {bound[worst]:.3e}"
    )


#: Outer radius of the puncture weight transition; the weight is exactly
#: 1 at (local) distance >= RHO_1 from every puncture, in particular on
#: the node charts.
RHO_1 = 0.5


def _puncture_distance(z: np.ndarray, p: complex) -> np.ndarray:
    """Distance to the puncture in its local coordinate (1/z at infinity)."""
    if is_inf_point(p):
        return 1.0 / np.abs(z)
    return np.abs(z - p)


def _weight_profile(r: np.ndarray) -> np.ndarray:
    """Smooth weight: (r/RHO_1)^(2*eta(r)) with eta = 1 below RHO_0 and 0
    above RHO_1 (quintic transition), so the profile vanishes
    quadratically at the puncture and is exactly 1 beyond RHO_1."""
    r = np.maximum(r, 1e-300)
    eta = _smooth_bump(r, RHO_0, RHO_1)
    return np.exp(2.0 * eta * np.log(r / RHO_1))


def _puncture_weight(z: np.ndarray, punctures: list[complex]) -> np.ndarray:
    """Product of the puncture profiles, each evaluated only within RHO_1
    of its puncture (beyond, it is exactly 1)."""
    w = np.ones(z.shape)
    for p in punctures:
        r = _puncture_distance(z, p)
        near = r < RHO_1
        w[near] = w[near] * _weight_profile(r[near])
    return w


def component_pairing(
    family: DegenerationFamily,
    diffs: list[PlumbingDifferential],
    cid: int,
    rel_tol: float = 1e-6,
) -> np.ndarray:
    """Hermitian (n, n) block of sqrt(-1) Int_{component region}
    omega_i ^ conj(omega_j) * weight over the n differentials.

    The region is the component minus its node chart disks of radius RHO;
    the weight vanishes quadratically at the punctures of the pair
    (flat bundle metric away from them, exactly 1 near all nodes).  Each
    puncture gets a polar quadrature patch in its own local coordinate; a
    smooth partition of unity splits the region so every piece is
    resolved by doubling tensor quadrature.

    The pairs i <= j are grouped by their puncture set on cid, which fixes
    the weight and the partition.  Each group runs one set of patch and
    remainder quadratures with one entry per pair, evaluating every
    distinct form once per node; each entry stops at the level where it
    would alone.  Forms absent on cid give zero rows, and the diagonal
    keeps the real part.
    """
    n = len(diffs)
    forms = [d.form(cid) for d in diffs]
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, j in zip(*np.triu_indices(n)):
        if forms[i].poles and forms[j].poles:
            puncs = tuple(p for c, p in set(diffs[i].punctures) | set(diffs[j].punctures)
                          if c == cid)
            groups.setdefault(puncs, []).append((i, j))
    block = np.zeros((n, n), dtype=complex)
    for puncs, pairs in groups.items():
        rows, cols = np.array(pairs).T
        block[rows, cols] = _group_pairing(family, cid, [forms[i] for i in rows],
                                           [forms[j] for j in cols], puncs, rel_tol)
    upper = np.triu(block, 1)
    return upper + upper.conj().T + np.diag(block.diagonal().real)


def _group_pairing(family: DegenerationFamily, cid: int, left: list[RationalForm],
                   right: list[RationalForm], puncs: tuple[complex, ...],
                   rel_tol: float) -> np.ndarray:
    """component_pairing of the pairs (left[k], right[k]), which share the
    punctures puncs on component cid."""
    uniq = list(dict.fromkeys(left + right))
    fi = [uniq.index(f) for f in left]
    fj = [uniq.index(f) for f in right]
    node_pts = _node_points(family, cid)

    def density(z: np.ndarray) -> np.ndarray:
        f = np.stack([form.eval(z) for form in uniq])
        vals = (2.0 * f)[fi]
        vals *= np.conj(f)[fj]
        vals *= _puncture_weight(z, puncs)
        return vals

    # bump radius per puncture (in its local coordinate), chosen so the
    # patch stays inside the region and clear of the other punctures
    bump_r = {p: 0.3 if is_inf_point(p) else 0.5 for p in puncs}

    def bump(z: np.ndarray, p: complex) -> np.ndarray:
        rb = bump_r[p]
        return _smooth_bump(_puncture_distance(z, p), 0.5 * rb, rb)

    def piece(z: np.ndarray, k: int) -> np.ndarray:
        # smooth partition: bump_k * prod_{j<k} (1 - bump_j); k = len ->
        # the remainder prod_j (1 - bump_j)
        vals = density(z)
        for j in range(min(k, len(puncs))):
            vals = vals * (1.0 - bump(z, puncs[j]))
        if k < len(puncs):
            vals = vals * bump(z, puncs[k])
        return vals

    def in_xi(k: int):
        # piece k in the chart xi = 1/z
        return lambda xi: piece(1.0 / xi, k) / np.abs(xi) ** 4

    total = 0.0 + 0.0j
    for k, p in enumerate(puncs):
        breaks = [0.0, RHO_0, bump_r[p]]
        if is_inf_point(p):
            total = total + _polar_quad(in_xi(k), 0.0 + 0j, breaks, rel_tol)
        else:
            total = total + _polar_quad(lambda z, k=k: piece(z, k), p, breaks, rel_tol)

    k_rem = len(puncs)
    if family.node_degree(cid) != 1:
        remainder, breaks = (lambda z: piece(z, k_rem)), [RHO, 1.0, 1.0 / RHO]
    elif 0 in node_pts:
        # region |z| >= RHO: integrate in the xi = 1/z chart
        remainder, breaks = in_xi(k_rem), [0.0, 1.0, 1.0 / RHO]
    else:
        # node at infinity: region is the disk |z| <= 1/RHO
        remainder, breaks = (lambda z: piece(z, k_rem)), [0.0, 1.0, 1.0 / RHO]
    return total + _polar_quad(remainder, 0.0 + 0j, breaks, rel_tol)


# ---------------------------------------------------------------------------
# period Grams over a parameter grid
# ---------------------------------------------------------------------------

@dataclass
class PeriodGram:
    """Hermitian Gram matrices over a |t| grid."""

    t_grid: np.ndarray
    matrices: list[np.ndarray]
    twisted: bool
    labels: list[str] = field(default_factory=list)

    def determinants(self) -> np.ndarray:
        if not self.matrices or self.matrices[0].shape[0] == 0:
            return np.ones(len(self.t_grid))
        return np.array([float(np.linalg.det(m).real) for m in self.matrices])

    def check_positive_definite(self) -> float:
        """Smallest eigenvalue across the grid (must be positive)."""
        worst = math.inf
        for m in self.matrices:
            if m.shape[0] == 0:
                continue
            worst = min(worst, float(np.linalg.eigvalsh(m).min()))
        return worst


def plumbing_gram(
    family: DegenerationFamily,
    t_grid: np.ndarray,
    diffs: list[PlumbingDifferential],
    twisted: bool,
    rel_tol: float = 1e-6,
    degree: int = 24,
) -> PeriodGram:
    """Gram over the grid: node annuli in closed form plus t-independent
    component interiors, one component_pairing block per component
    (doubling quadrature to rel_tol).

    An annulus rescaled to branch disks of radius RHO has parameter
    T = t/RHO^2 and data alpha = sum g_m x^m - sum_{m>=1} h_m (T/x)^m,
    with g and h the node_taylor data of the left and right branch to
    ``degree`` (h enters with a minus sign because dy/y = -dx/x; its
    constant term, minus g_0, is dropped).  The angular integral removes
    the cross terms, leaving 4 pi [g_0 conj(g'_0) log(1/|T|) + sum_{m>=1}
    (g_m conj(g'_m) + h_m conj(h'_m)) (1 - |T|^2m)/(2m)]: finite for all
    0 < |T| < 1, unlike the per-frequency form with |T|^-2m.
    """
    t_hat = np.abs(np.asarray(t_grid, dtype=complex)) / RHO ** 2
    bad = np.asarray(t_grid)[~((t_hat > 0) & (t_hat < 1))]
    if bad.size:
        raise ValueError(f"|t| = {abs(bad[0])} outside the plumbing range")
    n = len(diffs)
    base = sum(component_pairing(family, diffs, comp.id, rel_tol)
               for comp in family.components)

    # taylor[b, q, i]: branch b of node q for diffs[i]; h_0 is not in alpha
    scale = RHO ** np.arange(degree + 1)
    taylor = np.zeros((2, len(family.nodes), n, degree + 1), dtype=complex)
    for b, q, i in np.ndindex(taylor.shape[:3]):
        taylor[b, q, i] = scale * node_taylor(family, diffs[i], family.nodes[q], b, degree)
    taylor[1, :, :, 0] = 0.0

    log_t = np.log(t_hat)[:, None]
    m = np.arange(1, degree + 1)
    radial = np.hstack([-log_t, -np.expm1(2 * m * log_t) / (2 * m)])
    G = base + KAPPA * np.einsum("bqim,bqjm,tm->tij", taylor, taylor.conj(), radial)
    mats = list(0.5 * (G + G.conj().transpose(0, 2, 1)))
    return PeriodGram(
        t_grid=np.asarray(t_grid, dtype=complex),
        matrices=mats,
        twisted=twisted,
        labels=[d.label for d in diffs],
    )


def plumbing_twisted_gram(family: DegenerationFamily, t_grid: np.ndarray,
                          rel_tol: float = 1e-6) -> PeriodGram:
    twisted, _ = canonical_basis(family)
    return plumbing_gram(family, t_grid, twisted, twisted=True, rel_tol=rel_tol)


def plumbing_untwisted_gram(family: DegenerationFamily, t_grid: np.ndarray,
                            rel_tol: float = 1e-6) -> PeriodGram:
    _, untwisted = canonical_basis(family)
    return plumbing_gram(family, t_grid, untwisted, twisted=False, rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# fits and the key identity
# ---------------------------------------------------------------------------

@dataclass
class LogAsymptoticFit:
    """Per-entry linear fits G_ij(t) = a_ij log(1/|t|) + b_ij."""

    a: np.ndarray
    b: np.ndarray
    residual: float  # max relative deviation of the model from the data


def fit_log_asymptotics(gram: PeriodGram) -> LogAsymptoticFit:
    L = np.log(1.0 / np.abs(np.asarray(gram.t_grid, dtype=complex)))
    X = np.column_stack([L, np.ones_like(L)])
    n = gram.matrices[0].shape[0]
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    worst = 0.0
    data = np.stack(gram.matrices)  # (T, n, n)
    scale = np.abs(data).max()
    for i in range(n):
        for j in range(n):
            y = data[:, i, j]
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            a[i, j], b[i, j] = coef
            model = X @ coef
            worst = max(worst, float(np.abs(model - y).max() / scale))
    a = 0.5 * (a + a.conj().T)
    b = 0.5 * (b + b.conj().T)
    return LogAsymptoticFit(a=a, b=b, residual=worst)


def det_growth_fit(t_grid, dets: np.ndarray) -> tuple[float, int, float]:
    """Least-squares slope of log det against loglog(1/|t|): (slope,
    nearest integer, deviation from it)."""
    t_abs = np.abs(np.asarray(t_grid, dtype=complex))
    dets = np.asarray(dets, dtype=float)
    if len(t_abs) < 8 or (np.log10(t_abs.max() / t_abs.min())) < 4 - 1e-9:
        raise GridTooShort("need >= 8 points spanning >= 4 decades of |t|")
    if (dets <= 0).any():
        raise IllConditionedFit("determinants must be positive for the log fit")
    x = np.log(np.log(1.0 / t_abs))
    X = np.column_stack([x, np.ones_like(x)])
    if np.linalg.matrix_rank(X) < 2:
        raise IllConditionedFit("degenerate loglog design matrix")
    coef, *_ = np.linalg.lstsq(X, np.log(dets), rcond=None)
    slope = float(coef[0])
    nearest = int(round(slope))
    return slope, nearest, abs(slope - nearest)


@dataclass
class IdentityCheck:
    """Bounded-ratio verdict for the eigenvalue-product identity."""

    s_grid: np.ndarray
    ratio: np.ndarray
    max_over_min: float
    trend_per_decade: float
    verdict: str  # PASS / FAIL


def key_identity_check(
    spectra: list,
    twisted: PeriodGram,
    untwisted: PeriodGram,
    n_small: int,
) -> IdentityCheck:
    """R(s) = prod of the n_small degenerating eigenvalues times
    det(twisted)/det(untwisted); PASS when R is bounded (max/min < 2 on
    the final half) with no trend above 10% per decade."""
    s_grid = np.array([abs(complex(sp.s)) for sp in spectra])
    t_abs = np.abs(np.asarray(twisted.t_grid, dtype=complex))
    if len(spectra) != len(twisted.matrices) or not np.allclose(s_grid, t_abs):
        raise GridMismatch("spectra and twisted gram use different grids")
    if len(untwisted.t_grid) and len(untwisted.matrices) != len(twisted.matrices):
        raise GridMismatch("twisted and untwisted grids differ")
    det_t = twisted.determinants()
    det_u = untwisted.determinants()
    ratio = np.empty(len(spectra))
    for i, sp in enumerate(spectra):
        zeros = int(sp.numerically_zero().sum())
        small = sp.eigenvalues[zeros:zeros + n_small]
        ratio[i] = float(np.prod(small)) * det_t[i] / det_u[i]
    half = len(ratio) // 2
    r = ratio[half:]
    s = s_grid[half:]
    max_over_min = float(r.max() / r.min())
    X = np.column_stack([np.log10(1.0 / s), np.ones_like(s)])
    coef, *_ = np.linalg.lstsq(X, np.log(r), rcond=None)
    trend = float(coef[0])
    ok = max_over_min < 2.0 and abs(trend) < math.log(1.1)
    return IdentityCheck(
        s_grid=s_grid,
        ratio=ratio,
        max_over_min=max_over_min,
        trend_per_decade=trend,
        verdict="PASS" if ok else "FAIL",
    )
