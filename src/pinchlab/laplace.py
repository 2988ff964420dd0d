"""Cotangent FEM for the fiber Laplacian and its weighted variant.

Assembles the intrinsic Dirichlet form from per-triangle edge lengths
(law of cosines, no embedding needed), a lumped mass matrix, and solves
the generalized pencil for the smallest eigenvalues by shift-invert
Lanczos at a spectrum-scaled shift from a deterministic start vector,
checked by residuals and an inertia count.  The definite shift-invert
operator is a banded Cholesky factor in Cuthill-McKee (breadth-first)
order: a fiber is a stack of rings of one size, so its band is one ring
wide on a path of components and three on a cycle, at any depth.  The
indefinite inertia count is a symmetric-mode LU.

Reported eigenvalues follow the Hodge-Kodaira convention: half the
Hodge-de Rham (geometer's) Laplacian on functions.  The flat-torus and
round-sphere meshes pin the convention down in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import NoConvergence, NonFiniteEntry
from .mesh import TriangleMesh


@dataclass
class SpectralProblem:
    """Generalized symmetric pencil K u = lambda M u with diagonal M."""

    stiffness: sp.csr_matrix
    mass: np.ndarray  # diagonal entries
    dimension: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.stiffness.data).all():
            raise NonFiniteEntry("stiffness contains non-finite entries")
        if not np.isfinite(self.mass).all():
            raise NonFiniteEntry("mass contains non-finite entries")
        if not (self.mass > 0).all():
            raise NonFiniteEntry("mass must be strictly positive")


@dataclass
class Spectrum:
    """Smallest eigenvalues of one fiber, ascending, Hodge-Kodaira units."""

    eigenvalues: np.ndarray
    residual_norms: np.ndarray
    dimension: int  # eigenvalues of the whole pencil, computed or not
    s: complex
    zero_threshold: float = 0.0
    solver_path: str = "eigsh"  # the solve_smallest rung that produced it
    shift: float = 0.0  # sigma of the shift-invert operator
    opinv_solves: int = 0  # applications of (K - sigma M)^-1, all rungs
    factor_bandwidth: int = 0  # half-bandwidth of that factor

    def __post_init__(self) -> None:
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if not (np.diff(self.eigenvalues) >= -1e-12).all():
            raise ValueError("eigenvalues must be ascending")
        if len(self.eigenvalues) > self.dimension:
            raise ValueError("more eigenvalues than the pencil dimension")

    @property
    def k(self) -> int:
        """Number of computed eigenvalues."""
        return len(self.eigenvalues)

    def numerically_zero(self) -> np.ndarray:
        return self.eigenvalues < self.zero_threshold


def _cotan_halves(lengths: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Half-cotangent weight per triangle corner (corner j faces edge j)."""
    a2 = lengths ** 2
    cot = np.empty_like(lengths)
    for j in range(3):
        opp = a2[:, j]
        adj = a2[:, (j + 1) % 3] + a2[:, (j + 2) % 3]
        cot[:, j] = (adj - opp) / (8.0 * areas)
    return cot  # already includes the factor 1/2


def assemble(mesh: TriangleMesh) -> SpectralProblem:
    """Cotangent stiffness and lumped mass from intrinsic lengths.

    The edge between vertices (j+1, j+2) of a triangle receives half the
    cotangent of the angle at vertex j; the Hodge-Kodaira convention then
    halves the whole form.  Mass lumps one third of each incident area.
    This is ``assemble_weighted`` with the neutral weight, bit for bit.
    """
    return _assemble(mesh, np.ones(mesh.F), np.zeros(mesh.F))


# ---------------------------------------------------------------------------
# weighted problem (line-bundle scalar model)
# ---------------------------------------------------------------------------

@dataclass
class WeightField:
    """Per-triangle weight w = exp(-phi) plus its curvature density.

    ``curvature_density`` is (1/4) * (chart Laplacian of phi) per
    triangle; ``chart_areas`` are Euclidean triangle areas in the chart,
    so density * chart area is a chart-independent curvature mass.  The
    potential vanishes on pure neck triangles (flat there) and is
    strictly subharmonic on component interiors.
    """

    weights: np.ndarray
    curvature_density: np.ndarray
    chart_areas: np.ndarray

    def __post_init__(self) -> None:
        if not (self.weights > 0).all():
            raise NonFiniteEntry("weights must be positive")
        if (self.curvature_density < 0).any():
            raise NonFiniteEntry("curvature density must be >= 0")


def _chart_areas(mesh: TriangleMesh) -> np.ndarray:
    p = mesh.tri_coords
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    return 0.5 * np.abs(u.real * v.imag - u.imag * v.real)


def component_bundle_weight(mesh: TriangleMesh) -> WeightField:
    """Weight modeling a metric that is flat near nodes and strictly
    subharmonic on component interiors.

    Per local chart the potential is ``log((1+rho^2)/(5/4))`` on the
    component side (cap charts, and neck charts at branch radius
    rho >= 1/2), continuous across seams, and identically zero on the
    pure neck; its quarter-Laplacian ``1/(1+rho^2)^2`` is the curvature
    density.
    """
    cent = mesh.tri_coords.mean(axis=1)
    rho = np.abs(cent)
    is_cap = np.fromiter(
        (ch[0] == "cap" for ch in mesh.tri_chart), dtype=bool, count=mesh.F
    )
    interior = is_cap | (rho >= 0.5)
    phi = np.where(interior, np.log((1.0 + rho ** 2) / 1.25), 0.0)
    density = np.where(interior, 1.0 / (1.0 + rho ** 2) ** 2, 0.0)
    return WeightField(
        weights=np.exp(-phi),
        curvature_density=density,
        chart_areas=_chart_areas(mesh),
    )


def assemble_weighted(mesh: TriangleMesh, weight: WeightField) -> SpectralProblem:
    """Weighted Dirichlet form plus the curvature zeroth-order term.

    stiffness = (1/2) * sum_T w_T * (cotan form of T)
              + diag of the lumped curvature masses w_T * c_T * A_T^chart;
    mass = w-weighted lumped intrinsic areas.  With the neutral weight
    this reproduces ``assemble`` exactly; with a strictly subharmonic
    potential the zero mode is lifted uniformly.  Both share one body,
    so neither public function calls the other.
    """
    curv_mass = weight.weights * weight.curvature_density * weight.chart_areas
    return _assemble(mesh, weight.weights, curv_mass)


def _assemble(mesh: TriangleMesh, weights: np.ndarray,
              curv_mass: np.ndarray) -> SpectralProblem:
    """Pencil of the per-triangle weights and curvature masses."""
    cot = _cotan_halves(mesh.triangle_lengths(), mesh.triangle_areas) * weights[:, None]
    tri = mesh.triangles
    rows, cols, vals = [], [], []
    for j in range(3):
        u = tri[:, (j + 1) % 3]
        v = tri[:, (j + 2) % 3]
        w = cot[:, j]
        rows += [u, v, u, v]
        cols += [u, v, v, u]
        vals += [w, w, -w, -w]
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.V, mesh.V),
    ).tocsr()
    K *= 0.5  # Hodge-Kodaira = half Hodge-de Rham

    diag = np.zeros(mesh.V)
    np.add.at(diag, tri.ravel(), np.repeat(curv_mass / 3.0, 3))
    K = (K + sp.diags(diag)).tocsr()

    mass = np.zeros(mesh.V)
    share = np.repeat(weights * mesh.triangle_areas / 3.0, 3)
    np.add.at(mass, tri.ravel(), share)
    return SpectralProblem(stiffness=K, mass=mass, dimension=mesh.V)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

# guard bands tried, in order, after the plain k-pair solve
_GUARD_BANDS = (2, 4, 8)
_SOLVER_ERRORS = (spla.ArpackNoConvergence, RuntimeError, np.linalg.LinAlgError)


def solve_smallest(
    problem: SpectralProblem,
    k: int,
    tol: float = 1e-9,
    s: complex = 0.0,
    seed: int = 0,
) -> Spectrum:
    """k smallest eigenpairs of K u = lambda M u.

    Shift-invert Lanczos (ARPACK ``eigsh``) at sigma = -0.01 * 2 pi / sum(M),
    a hundredth of the Weyl spacing of the Hodge-Kodaira spectrum below
    zero: the shift sits at the scale of the wanted eigenvalues whatever
    the mesh resolution, and sigma * sum(M) is invariant under scaling the
    metric.  K - sigma M is positive definite; it is factored once, as a
    banded Cholesky in Cuthill-McKee order, and every rung applies that
    factor.  The Lanczos basis holds ``max(3 k // 2 + 1, 40)``
    vectors (at most the dimension): 40 resolves the exactly degenerate
    pairs of small k, and 1.5 k takes fewer solves, less time and less
    memory than 2 k at k = 150.  A rung passes if every residual
    ||K u - lambda M u|| / ||u||_M of its k lowest pairs is at most
    ``tol`` (absolute), and a Sylvester inertia count of K - mu M, with mu
    just below the top computed cluster, equals the number of pairs found
    below mu (so no copy of a multiple eigenvalue was skipped).  The rungs:

    1. ``eigsh``: exactly k pairs from a seeded start vector;
    2. ``eigsh+g`` for g = 2, 4, 8 (k + g capped at dimension - 1): k + g
       pairs from the next seeded start vector, truncated to the k lowest,
       so that the window edge moves away from a cluster it may cut.

    An ARPACK exception and a failed check both move on to the next rung;
    ``Spectrum.solver_path`` names the rung that passed, ``shift`` the
    shift, ``opinv_solves`` the applications of the factor over all rungs
    and ``factor_bandwidth`` its half-bandwidth.  If none passes,
    ``NoConvergence`` names the dimension, k, seed, the rungs tried and
    what failed on the last one; a K - sigma M that is not definite
    raises ``LinAlgError`` before any rung.

    Eigenvalues below ``zero_threshold = 1e-10 * 2 pi / sum(M)``, the
    Weyl spacing's scale like the shift, are numerically zero.
    """
    if not 0 < k < problem.dimension:
        raise ValueError("need 0 < k < dimension")
    n = problem.dimension
    K = problem.stiffness
    M = sp.diags(problem.mass).tocsr()
    total_mass = float(problem.mass.sum())
    zero_threshold = 2e-10 * math.pi / total_mass
    sigma = -0.02 * math.pi / total_mass
    rng = np.random.default_rng(seed)
    factor, solves = None, 0

    def apply_inverse(x):
        nonlocal solves
        solves += 1
        return factor(x)

    opinv = spla.LinearOperator((n, n), matvec=apply_inverse, dtype=float)
    rungs = [("eigsh", k, 5000)] + [
        (f"eigsh+{k_try - k}", k_try, 20000)
        for k_try in sorted({min(k + g, n - 1) for g in _GUARD_BANDS} - {k})
    ]
    for path, k_try, maxiter in rungs:
        if factor is None:
            factor, bandwidth = _band_cholesky(K, problem.mass, sigma)
        try:
            vals, vecs = spla.eigsh(
                K, k=k_try, M=M, sigma=sigma, which="LM", OPinv=opinv,
                ncv=min(max(3 * k_try // 2 + 1, 40), n),
                v0=rng.standard_normal(n), tol=0.0, maxiter=maxiter,
            )
        except _SOLVER_ERRORS as exc:
            outcome = f"{type(exc).__name__}: {exc}"
            continue
        order = np.argsort(vals)[:k]
        vals, vecs = vals[order], vecs[:, order]
        residuals = _residuals(K, problem.mass, vals, vecs)
        bad = ~(residuals <= tol)  # a NaN residual fails too
        outcome = f"max residual {residuals.max():.3e}"
        if bad.any():
            outcome += f", {int(bad.sum())} of {k} pairs above tol {tol}"
            continue
        # accurate pairs can still skip one copy of a multiple eigenvalue.
        # mu lies below the top computed cluster by far more than solver
        # noise; the zero threshold keeps +-1e-13 zero modes one cluster.
        # The shift-invert factor is freed first, so that two factors are
        # never held at once; a later rung factors it again
        factor = None
        mu = vals[-1] - (1e-8 * abs(vals[-1]) + zero_threshold)
        below = _count_below(K, problem.mass, mu)
        found = int((vals < mu).sum())
        if below != found:
            outcome += f", Sylvester count {below} below {mu:.9g}, {found} found"
            continue
        return Spectrum(
            eigenvalues=np.maximum(vals, 0.0),  # clamp -0.0-size zero modes
            residual_norms=residuals,
            dimension=n,
            s=s,
            zero_threshold=zero_threshold,
            solver_path=path,
            shift=sigma,
            opinv_solves=solves,
            factor_bandwidth=bandwidth,
        )
    raise NoConvergence(
        f"laplace.solve_smallest(V={n}, k={k}, seed={seed}, tol={tol}): "
        f"no rung passed (tried {', '.join(p for p, _, _ in rungs)}); "
        f"last rung {path}: {outcome}"
    )


def _band_order(A) -> np.ndarray:
    """Breadth-first order of each connected component of A's graph from
    a pseudo-peripheral vertex, the level structure of Cuthill and McKee
    (1969): the last vertex reached from the last vertex reached from any
    vertex lies at one end of the component (George and Liu, 1979).  On a
    fiber that end is a pole; scipy's ``reverse_cuthill_mckee`` starts at
    a lowest-degree vertex instead, which may sit mid-neck and double the
    band.
    """
    count, labels = connected_components(A, directed=False)
    parts = []
    for c in range(count):
        vertex = int(np.argmax(labels == c))
        for _ in range(2):
            vertex = int(breadth_first_order(A, vertex, directed=False,
                                             return_predecessors=False)[-1])
        parts.append(breadth_first_order(A, vertex, directed=False,
                                         return_predecessors=False))
    return np.concatenate(parts)


def _band_cholesky(K, mass, shift: float):
    """Cholesky factor of the definite K - shift M, as a solve and its
    half-bandwidth b.

    With the rows in ``_band_order``, LAPACK's ``dpbtrf`` factors the
    upper band in O(V b^2) and ``dpbtrs`` applies it in O(V b).  A
    non-positive pivot raises ``LinAlgError`` naming V, b, the shift and
    the pivot.
    """
    n = K.shape[0]
    A = (K - sp.diags(shift * mass)).tocsr()
    perm = _band_order(A)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(n, dtype=perm.dtype)
    coo = A.tocoo()
    rows, cols = rank[coo.row], rank[coo.col]
    upper = rows <= cols
    rows, cols = rows[upper], cols[upper]
    b = int((cols - rows).max())
    band = np.zeros((b + 1, n), order="F")
    band[b + rows - cols, cols] = coo.data[upper]
    chol, info = dpbtrf(band, lower=0, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"laplace.solve_smallest(V={n}): band Cholesky (half-bandwidth {b}) "
            f"of K - sigma M at sigma = {shift:.6g} failed at pivot {info} of {n}: "
            "not positive definite"
        )

    def solve(x):
        return dpbtrs(chol, x[perm], lower=0, overwrite_b=1)[0][rank]

    return solve, b


def _count_below(K, mass, mu: float) -> int | None:
    """Number of eigenvalues of K u = lambda M u below mu.

    Sylvester's law of inertia: factor P (K - mu M) P^T = L D L^T, a
    SuperLU with a symmetric fill-reducing permutation and diagonal pivots
    only, and count the negative pivots.  Returns None if SuperLU had to
    pivot off the diagonal (an exactly zero pivot), where the count does
    not hold.
    """
    lu = spla.splu(
        (K - sp.diags(mu * mass)).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int((lu.U.diagonal() < 0).sum())


def _residuals(K, mass, vals, vecs) -> np.ndarray:
    out = np.empty(vals.shape[0])
    for i in range(vals.shape[0]):
        u = vecs[:, i]
        r = K @ u - vals[i] * (mass * u)
        out[i] = np.linalg.norm(r) / math.sqrt(float(u @ (mass * u)))
    return out
