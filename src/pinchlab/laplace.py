"""Cotangent FEM for the fiber Laplacian and its weighted variant.

Assembles the intrinsic Dirichlet form from per-triangle edge lengths
(law of cosines, no embedding needed), a lumped mass matrix, and solves
the generalized pencil for the smallest eigenvalues by shift-invert with
a deterministic start vector, checked by residuals and an inertia count.

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

from .errors import NoConvergence, NonFiniteEntry
from .family import DegenerationFamily, MetricKind
from .mesh import TriangleMesh

HODGE_KODAIRA = "HodgeKodaira"
HODGE_DE_RHAM = "HodgeDeRham"


@dataclass
class SpectralProblem:
    """Generalized symmetric pencil K u = lambda M u with diagonal M."""

    stiffness: sp.csr_matrix
    mass: np.ndarray  # diagonal entries
    dimension: int
    convention_tag: str = HODGE_KODAIRA

    def __post_init__(self) -> None:
        if not np.isfinite(self.stiffness.data).all():
            raise NonFiniteEntry("stiffness contains non-finite entries")
        if not np.isfinite(self.mass).all():
            raise NonFiniteEntry("mass contains non-finite entries")
        if not (self.mass > 0).all():
            raise NonFiniteEntry("mass must be strictly positive")

    def reference_scale(self) -> float:
        """Crude magnitude of the upper spectrum (for shifts/thresholds)."""
        diag = self.stiffness.diagonal()
        return float(np.median(diag / self.mass))


@dataclass
class Spectrum:
    """Smallest eigenvalues of one fiber, ascending, Hodge-Kodaira units."""

    eigenvalues: np.ndarray
    residual_norms: np.ndarray
    k: int
    s: complex
    zero_threshold: float = 0.0
    solver_path: str = "eigsh"  # the solve_smallest rung that produced it

    def __post_init__(self) -> None:
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if not (np.diff(self.eigenvalues) >= -1e-12).all():
            raise ValueError("eigenvalues must be ascending")

    def numerically_zero(self) -> np.ndarray:
        return self.eigenvalues < self.zero_threshold

    def first_nonzero(self) -> float:
        above = self.eigenvalues[~self.numerically_zero()]
        if above.size == 0:
            raise ValueError("no nonzero eigenvalue in the computed window")
        return float(above[0])


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


def neutral_weight(mesh: TriangleMesh) -> WeightField:
    return WeightField(
        weights=np.ones(mesh.F),
        curvature_density=np.zeros(mesh.F),
        chart_areas=_chart_areas(mesh),
    )


def _chart_areas(mesh: TriangleMesh) -> np.ndarray:
    p = mesh.tri_coords
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    return 0.5 * np.abs(u.real * v.imag - u.imag * v.real)


def component_bundle_weight(mesh: TriangleMesh, beta: float = 1.0) -> WeightField:
    """Weight modeling a metric that is flat near nodes and strictly
    subharmonic on component interiors.

    Per local chart the potential is ``beta * log((1+rho^2)/(5/4))`` on
    the component side (cap charts, and neck charts at branch radius
    rho >= 1/2), continuous across seams, and identically zero on the
    pure neck; its quarter-Laplacian ``beta/(1+rho^2)^2`` is the
    curvature density.
    """
    cent = mesh.tri_coords.mean(axis=1)
    rho = np.abs(cent)
    is_cap = np.fromiter(
        (ch[0] == "cap" for ch in mesh.tri_chart), dtype=bool, count=mesh.F
    )
    interior = is_cap | (rho >= 0.5)
    phi = np.where(
        interior, beta * np.log((1.0 + rho ** 2) / 1.25), 0.0
    )
    density = np.where(interior, beta / (1.0 + rho ** 2) ** 2, 0.0)
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
    return SpectralProblem(
        stiffness=K, mass=mass, dimension=mesh.V, convention_tag=HODGE_KODAIRA
    )


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

    Tries a ladder of solvers and returns the first result that passes
    two checks on its k lowest pairs: every residual
    ||K u - lambda M u|| / ||u||_M is at most ``tol`` (absolute), and a
    Sylvester inertia count of K - mu M, with mu just below the top
    computed cluster, equals the number of pairs found below mu (so no
    copy of a multiple eigenvalue was skipped).  The rungs are

    1. ``eigsh``: shift-invert Lanczos (ARPACK) for exactly k pairs
       around a slightly negative shift, from a seeded start vector;
    2. ``eigsh+g`` for g = 2, 4, 8 (k + g capped at dimension - 1): the
       same for k + g pairs from the next seeded start vector, truncated
       to the k lowest.  When the window edge cuts an eigenvalue cluster
       the k-th Ritz pair can stall above the gate, or a copy inside the
       window can be skipped; the guard band moves the edge away;
    3. ``lobpcg``: blocked preconditioned iteration for k + 2 pairs.

    An ARPACK exception and a failed check both move on to the next
    rung; ``Spectrum.solver_path`` names the rung that passed.  If none
    does, ``NoConvergence`` names the dimension, k, seed, the rungs
    tried and what failed on the last one.
    """
    if not 0 < k < problem.dimension:
        raise ValueError("need 0 < k < dimension")
    n = problem.dimension
    K = problem.stiffness
    M = sp.diags(problem.mass).tocsr()
    ref = problem.reference_scale()
    zero_threshold = 1e-10 * ref
    rng = np.random.default_rng(seed)

    def shift_invert(k_try: int, maxiter: int):
        return spla.eigsh(
            K, k=k_try, M=M, sigma=-1e-6 * ref, which="LM",
            v0=rng.standard_normal(n), tol=0.0, maxiter=maxiter,
        )

    rungs = [("eigsh", lambda: shift_invert(k, 5000))]
    for k_try in sorted({min(k + g, n - 1) for g in _GUARD_BANDS} - {k}):
        rungs.append(
            (f"eigsh+{k_try - k}", lambda k_try=k_try: shift_invert(k_try, 20000))
        )
    rungs.append(("lobpcg", lambda: _lobpcg_fallback(K, problem.mass, k, rng)))

    for path, run in rungs:
        try:
            vals, vecs = run()
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
        # noise; the zero threshold keeps +-1e-13 zero modes one cluster
        mu = vals[-1] - (1e-8 * abs(vals[-1]) + zero_threshold)
        below = _count_below(K, problem.mass, mu)
        found = int((vals < mu).sum())
        if below != found:
            outcome += f", Sylvester count {below} below {mu:.9g}, {found} found"
            continue
        return Spectrum(
            eigenvalues=np.maximum(vals, 0.0),  # clamp -0.0-size zero modes
            residual_norms=residuals,
            k=k,
            s=s,
            zero_threshold=zero_threshold,
            solver_path=path,
        )
    raise NoConvergence(
        f"laplace.solve_smallest(V={n}, k={k}, seed={seed}, tol={tol}): "
        f"no rung passed (tried {', '.join(p for p, _ in rungs)}); "
        f"last rung {path}: {outcome}"
    )


def _count_below(K, mass, mu: float) -> int | None:
    """Number of eigenvalues of K u = lambda M u below mu.

    Sylvester's law of inertia: factor P (K - mu M) P^T = L D L^T with a
    symmetric fill-reducing permutation and diagonal pivots only, and
    count the negative pivots.  Returns None if SuperLU had to pivot off
    the diagonal (an exactly zero pivot), where the count does not hold.
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


def _lobpcg_fallback(K, mass, k, rng):
    """k lowest pairs by LOBPCG with two extra block vectors.

    No vector is deflated: the constant (zero) mode is found like any
    other.  The Jacobi preconditioner is the stiffness diagonal plus a
    tiny mass-scaled shift that keeps it invertible.
    """
    n = K.shape[0]
    M = sp.diags(mass).tocsr()
    X = rng.standard_normal((n, k + 2))
    diag = K.diagonal() + 1e-12 * float(np.median(mass))
    prec = spla.LinearOperator(
        (n, n),
        matvec=lambda x: x.reshape(-1) / diag,
        matmat=lambda X: X / diag[:, None],
    )
    vals, vecs = spla.lobpcg(
        K, X, B=M, M=prec, tol=1e-10, maxiter=2000, largest=False,
    )
    order = np.argsort(vals)[:k]
    return vals[order], vecs[:, order]


def metric_comparison_bound(spectrum: Spectrum, pointwise_min_ratio: float) -> float:
    """Certified lower bound for the comparison metric's first nonzero
    eigenvalue: monotonicity of the Rayleigh quotient under pointwise
    conformal-factor domination gives lambda'_1 >= min(g/g') * lambda_1.
    """
    if pointwise_min_ratio <= 0:
        raise ValueError("pointwise ratio must be positive")
    return pointwise_min_ratio * spectrum.first_nonzero()


def pointwise_factor_ratio(
    mesh: TriangleMesh,
    family: DegenerationFamily,
    kind_num: MetricKind,
    kind_den: MetricKind,
    s: complex,
) -> float:
    """min over mesh vertices of factor(kind_num) / factor(kind_den)."""
    from .family import ChartPoint, conformal_factor

    charts, ids, coords = mesh.vertex_chart_index()
    points = [ChartPoint(charts[c], coords[ids == c]) for c in np.unique(ids)]
    return min(float(np.min(conformal_factor(family, kind_num, pt, s)
                            / conformal_factor(family, kind_den, pt, s))) for pt in points)


def dump_matrix(problem: SpectralProblem, path: str) -> None:
    """Coordinate-format text dump: '# rows cols nnz' then 'i j value'."""
    coo = problem.stiffness.tocoo()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz} stiffness\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {v:.17g}\n")
        fh.write(f"# {problem.dimension} mass diagonal\n")
        for i, v in enumerate(problem.mass):
            fh.write(f"{i} {i} {v:.17g}\n")
