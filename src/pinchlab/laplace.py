"""Cotangent FEM for the fiber Laplacian and its weighted variant.

Assembles the intrinsic Dirichlet form from per-triangle edge lengths
(law of cosines, no embedding needed), a lumped mass matrix, and solves
the generalized pencil for the smallest eigenvalues by shift-invert
Lanczos at a spectrum-scaled shift from seeded start and restart vectors,
checked by residuals and an inertia count.  ARPACK's B-product is the
mass diagonal times the vector.

The solve makes no call into numpy's BLAS.  numpy and scipy each load
their own OpenBLAS, and ARPACK runs on scipy's; a threaded numpy call
(OpenBLAS threads ``ddot`` above 10 000 entries) leaves numpy's worker
spinning, and it takes a core from the ARPACK solves that follow.  So
the residuals are sparse products and ``einsum`` sums over blocks of
columns.

A pencil assembled on a ring stack (every fiber, the round sphere, the
annulus) carries the mesh's ``RingLayout``.  Its K and M commute with the
ring shift, so the unitary FFT along the rings splits them into n // 2 + 1
ring-Fourier blocks, each tridiagonal over the rings (one corner entry on
a cycle).  There the definite shift-invert operator is one Hermitian band
of all blocks, half-bandwidth 1 on a path and 2 on a cycle, factored by
``zpbtrf`` and applied as FFT, band solve, inverse FFT; the indefinite
inertia count is a Sturm (LDL^H) count per block.  Any other pencil, or a
layout its entries do not confirm, takes the generic operator: one
SuperLU in symmetric mode with diagonal pivots (``_sym_lu``), whose
solve applies the inverse at the shift and whose negative pivots give
the inertia count.

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
from scipy.linalg.lapack import dpttrf, zpbtrf, zpbtrs, zpttrs

from .errors import NoConvergence, NonFiniteEntry
from .mesh import RingLayout, TriangleMesh


@dataclass
class SpectralProblem:
    """Generalized symmetric pencil K u = lambda M u with diagonal M.

    ``rings`` is the ``RingLayout`` of the mesh it was assembled on, or
    None; ``solve_smallest`` uses it only where the entries confirm it.
    """

    stiffness: sp.csr_matrix
    mass: np.ndarray  # diagonal entries
    rings: RingLayout | None = None

    def __post_init__(self) -> None:
        if self.mass.shape != (self.dimension,):
            raise ValueError(
                f"laplace.SpectralProblem: mass of shape {self.mass.shape} "
                f"for a {self.stiffness.shape[0]}x{self.stiffness.shape[1]} stiffness")
        if not np.isfinite(self.stiffness.data).all():
            raise NonFiniteEntry("stiffness contains non-finite entries")
        if not np.isfinite(self.mass).all():
            raise NonFiniteEntry("mass contains non-finite entries")
        if not (self.mass > 0).all():
            raise NonFiniteEntry("mass must be strictly positive")

    @property
    def dimension(self) -> int:
        """Order of the pencil: the rows of the stiffness."""
        return self.stiffness.shape[0]


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
    operator: str = ""  # "ring blocks n=.. R=.. path|cycle" or "symmetric LU"

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
    is_cap = np.array([ch[0] == "cap" for ch in mesh.charts], dtype=bool)[mesh.tri_chart]
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
    return SpectralProblem(stiffness=K, mass=mass, rings=mesh.rings)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

#: Largest residual ||K u - lambda M u|| / ||u||_M a returned pair may have.
RESIDUAL_TOL = 1e-9

# guard bands tried, in order, after the plain k-pair solve
_GUARD_BANDS = (2, 4, 8)
_SOLVER_ERRORS = (spla.ArpackNoConvergence, RuntimeError, np.linalg.LinAlgError)


def solve_smallest(
    problem: SpectralProblem,
    k: int,
    s: complex = 0.0,
    seed: int = 0,
) -> Spectrum:
    """k smallest eigenpairs of K u = lambda M u.

    Shift-invert Lanczos (ARPACK ``eigsh``, B-product ``mass * x``) at
    sigma = -0.01 * 2 pi / sum(M), a hundredth of the Weyl spacing of the
    Hodge-Kodaira spectrum below zero: the shift sits at the scale of the
    wanted eigenvalues whatever the mesh resolution, and sigma * sum(M) is
    invariant under scaling the metric.  K - sigma M is positive definite;
    it is factored once, before the first rung, by ring-Fourier blocks
    where ``problem.rings`` holds and by ``_sym_lu`` otherwise, and every
    rung applies that factor.  The Lanczos basis holds
    ``max(3 k // 2 + 1, 40)`` vectors (at most the dimension): 40 resolves
    the exactly degenerate pairs of small k, and 1.5 k takes fewer solves,
    less time and less memory than 2 k at k = 150.  A rung passes if every residual
    ||K u - lambda M u|| / ||u||_M of its k lowest pairs is at most
    ``RESIDUAL_TOL`` (absolute), and a Sylvester inertia count of K - mu M,
    with mu just below the top computed cluster, equals the number of pairs
    found below mu (so no copy of a multiple eigenvalue was skipped).  The
    rungs:

    1. ``eigsh``: exactly k pairs from a seeded start vector;
    2. ``eigsh+g`` for g = 2, 4, 8 (k + g capped at dimension - 1): k + g
       pairs from the next seeded start vector, truncated to the k lowest,
       so that the window edge moves away from a cluster it may cut.

    The random vectors ARPACK asks for on a restart come from a generator
    spawned from ``seed`` as well, so a rerun gives the same bits.  The
    residual check calls no numpy BLAS (see the module docstring).

    An ARPACK exception and a failed check both move on to the next rung;
    ``Spectrum.solver_path`` names the rung that passed, ``shift`` the
    shift, ``opinv_solves`` the applications of the factor over all rungs,
    and ``operator`` the operator (ring blocks with n, R and path or
    cycle, or "symmetric LU").  If none passes, ``NoConvergence`` names
    the dimension, k, seed, the rungs tried and what failed on the last
    one; a K - sigma M that is not definite raises ``LinAlgError``, naming
    V, sigma and the failed factor, before any rung.

    Eigenvalues below ``zero_threshold = 1e-10 * 2 pi / sum(M)``, the
    Weyl spacing's scale like the shift, are numerically zero.
    """
    if not 0 < k < problem.dimension:
        raise ValueError("need 0 < k < dimension")
    n = problem.dimension
    K = problem.stiffness
    # M x is the mass diagonal times x: the same numbers a csr product gives
    M = spla.LinearOperator((n, n), matvec=lambda x: problem.mass * np.ravel(x), dtype=float)
    total_mass = float(problem.mass.sum())
    zero_threshold = 2e-10 * math.pi / total_mass
    sigma = -0.02 * math.pi / total_mass
    rng = np.random.default_rng(seed)
    restarts = rng.spawn(1)[0]  # ARPACK's fresh vectors; the v0 stream is unchanged
    blocks = _ring_blocks(problem)
    if blocks is not None:
        operator, factor = blocks.label, blocks.factor(sigma)
    else:
        operator, lu = "symmetric LU", _sym_lu(K, problem.mass, sigma)
        if lu is None or lu[1]:
            what = "pivoted off the diagonal" if lu is None else f"{lu[1]} of {n} pivots negative"
            raise np.linalg.LinAlgError(
                f"laplace.solve_smallest(V={n}): symmetric LU of K - sigma M at "
                f"sigma = {sigma:.6g}: {what}, not positive definite"
            )
        factor = lu[0].solve
    solves = 0

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
        try:
            vals, vecs = spla.eigsh(
                K, k=k_try, M=M, sigma=sigma, which="LM", OPinv=opinv,
                ncv=min(max(3 * k_try // 2 + 1, 40), n),
                v0=rng.standard_normal(n), tol=0.0, maxiter=maxiter, rng=restarts,
            )
        except _SOLVER_ERRORS as exc:
            outcome = f"{type(exc).__name__}: {exc}"
            continue
        order = np.argsort(vals)[:k]
        vals, vecs = vals[order], vecs[:, order]
        residuals = _residuals(K, problem.mass, vals, vecs)
        bad = ~(residuals <= RESIDUAL_TOL)  # a NaN residual fails too
        outcome = f"max residual {residuals.max():.3e}"
        if bad.any():
            outcome += f", {int(bad.sum())} of {k} pairs above tol {RESIDUAL_TOL}"
            continue
        # accurate pairs can still skip one copy of a multiple eigenvalue.
        # mu lies below the top computed cluster by far more than solver
        # noise; the zero threshold keeps +-1e-13 zero modes one cluster
        mu = vals[-1] - (1e-8 * abs(vals[-1]) + zero_threshold)
        if blocks is not None:
            below = blocks.count_below(mu)
        else:
            at_mu = _sym_lu(K, problem.mass, mu)
            below = None if at_mu is None else at_mu[1]
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
            operator=operator,
        )
    raise NoConvergence(
        f"laplace.solve_smallest(V={n}, k={k}, seed={seed}, tol={RESIDUAL_TOL}): "
        f"no rung passed (tried {', '.join(p for p, _, _ in rungs)}); "
        f"last rung {path}: {outcome}"
    )


def _sym_lu(K, mass, shift: float):
    """SuperLU of K - shift M and its number of negative pivots, or None
    if SuperLU had to pivot off the diagonal (an exactly zero pivot).

    A symmetric fill-reducing permutation and diagonal pivots only give
    P (K - shift M) P^T = L D L^T with D the diagonal of U, so by
    Sylvester's law of inertia the negative pivots count the eigenvalues
    of K u = lambda M u below the shift; at a shift below the spectrum
    there are none, and the factor's ``solve`` applies the inverse.
    """
    lu = spla.splu(
        (K - sp.diags(shift * mass)).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return lu, int((lu.U.diagonal() < 0).sum())


def _residuals(K, mass, vals, vecs) -> np.ndarray:
    """||K u - lambda M u|| / ||u||_M per pair, 16 columns at a time so
    that the temporaries stay small.  One sparse product per block and
    ``einsum`` sums: no numpy BLAS call (see the module docstring)."""
    out = np.empty(vals.shape[0])
    for j in range(0, vals.shape[0], 16):
        u = vecs[:, j:j + 16]
        mu = mass[:, None] * u
        norm2 = np.einsum("ij,ij->j", u, mu)
        mu *= vals[None, j:j + 16]
        r = K @ u
        r -= mu
        out[j:j + 16] = np.sqrt(np.einsum("ij,ij->j", r, r) / norm2)
    return out


# ---------------------------------------------------------------------------
# ring-Fourier blocks
# ---------------------------------------------------------------------------

#: Largest deviation of a pencil entry from the average of its ring orbit
#: for which a ring-stack pencil is solved by blocks: relative to the
#: largest stiffness entry for K, to the ring's average for M.
RING_ORBIT_TOL = 1e-12


@dataclass
class _RingBlocks:
    """A ring-stack pencil in the ring-Fourier basis.

    K and M commute with the ring shift j -> j + 1, so the unitary
    ``rfft`` (``norm="ortho"``) along every ring splits K - mu M into
    blocks m = 0 .. n // 2, each Hermitian tridiagonal over the rings
    (with one corner entry on a cycle); the fan centers join block 0 at
    the two ends of the path.  Block m stands for m and n - m, so it
    counts twice unless m = 0 or 2 m = n.
    """

    layout: RingLayout
    diag: np.ndarray  # (blocks, R) K_m[k, k], real
    link: np.ndarray  # (blocks, R) K_m[k, k + 1 mod R]; 0 past the last ring of a path
    ring_mass: np.ndarray  # (R,)
    fan_diag: np.ndarray  # (fans,)
    fan_link: np.ndarray  # (fans,) sqrt(n) K[center, ring vertex]
    fan_mass: np.ndarray  # (fans,)

    @property
    def label(self) -> str:
        n, R, _, cycle = self.layout
        return f"ring blocks n={n} R={R} {'cycle' if cycle else 'path'}"

    def _weights(self) -> np.ndarray:
        w = np.full(self.diag.shape[0], 2)
        w[0] = 1
        if self.layout.n % 2 == 0:
            w[-1] = 1
        return w

    def _slots(self):
        """Ring and fan positions within a block, the block size and the
        half-bandwidth: on a path the rings in order between the fans, on a
        cycle folded as 0, R - 1, 1, R - 2, ... so that ring R - 1 sits
        beside ring 0 and every coupling within two positions."""
        _, R, F, cycle = self.layout
        k = np.arange(R)
        if cycle:
            return np.where(k <= (R - 1) // 2, 2 * k, 2 * (R - 1 - k) + 1), k[:0], R, 2
        return k + F // 2, np.array([0, R + 1])[:F], R + F, 1

    def factor(self, shift: float):
        """Cholesky factor of the definite K - shift M over all blocks, as a
        solve: one Hermitian band of every block (``label`` names its
        half-bandwidth, 1 on a path, 2 on a cycle), ``zpbtrf`` once, then
        ``rfft`` -> ``zpbtrs`` -> ``irfft`` per application.  Block m > 0
        has no fan centers; their positions hold an identity row."""
        n, R, F, cycle = self.layout
        ring, fan, S, b = self._slots()
        nb, nR = self.diag.shape[0], n * R
        ab = np.zeros((b + 1, nb, S), dtype=complex)  # ab[b + i - j, m, j] = A_m[i, j], i <= j
        ab[b][:, ring] = self.diag - shift * self.ring_mass
        ab[b][:, fan] = 1.0
        ab[b][0, fan] = self.fan_diag - shift * self.fan_mass
        k = np.arange(R if cycle else R - 1)
        i, j = ring[k], ring[(k + 1) % R]
        up = i < j
        ab[b + i[up] - j[up], :, j[up]] = self.link[:, k[up]].T
        ab[b + j[~up] - i[~up], :, i[~up]] = self.link[:, k[~up]].conj().T
        if F:
            ab[b - 1, 0, ring[0]] = self.fan_link[0]
            ab[b - 1, 0, fan[1]] = self.fan_link[1]
        chol, info = zpbtrf(ab.reshape(b + 1, nb * S), lower=0, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"laplace.solve_smallest(V={nR + F}): {self.label}: Cholesky of "
                f"K - sigma M at sigma = {shift:.6g} failed at pivot {info} of "
                f"{nb * S}: not positive definite"
            )

        def solve(x):
            x = np.ravel(x)
            z = np.zeros((nb, S), dtype=complex)
            z[:, ring] = np.fft.rfft(x[:nR].reshape(R, n), axis=1, norm="ortho").T
            z[0, fan] = x[nR:]
            y = zpbtrs(chol, z.reshape(-1), lower=0, overwrite_b=1)[0].reshape(nb, S)
            out = np.empty(nR + F)
            out[:nR] = np.fft.irfft(y[:, ring].T, n, axis=1, norm="ortho").reshape(-1)
            out[nR:] = y[0, fan].real
            return out

        return solve

    def count_below(self, mu: float) -> int | None:
        """Number of eigenvalues below mu, as ``_sym_lu`` counts: Sylvester's
        law over the blocks of A = K - mu M.  A block of a path is a
        tridiagonal, with the fan centers of block 0 at its two ends, whose
        LDL^H pivots depend on |off-diagonal| only.  On a cycle, rings
        1 .. R - 1 form such a path T, and ring 0 adds the sign of its
        Schur complement A_m[0, 0] - u^H T^-1 u (Haynsworth's inertia
        formula).  None at an exactly zero pivot."""
        _, R, F, cycle = self.layout
        nb = self.diag.shape[0]
        a = self.diag - mu * self.ring_mass
        if not cycle:
            ring, fan, S, _ = self._slots()
            d, e = np.ones((nb, S)), np.zeros((nb, S))  # e[:, i] joins positions i, i + 1
            d[:, ring] = a
            d[0, fan] = self.fan_diag - mu * self.fan_mass
            e[:, ring[:-1]] = np.abs(self.link[:, :-1])
            if F:
                e[0, fan[0]], e[0, ring[-1]] = np.abs(self.fan_link)
            d = _ldl_pivots(d.reshape(-1), e.reshape(-1)[:-1])
            if d is None:
                return None
            negative = (d.reshape(nb, S) < 0).sum(axis=1)
        else:
            e = np.zeros((nb, R - 1))
            e[:, :-1] = np.abs(self.link[:, 1:-1])
            d = _ldl_pivots(a[:, 1:].reshape(-1), e.reshape(-1)[:-1])
            if d is None:
                return None
            d = d.reshape(nb, R - 1)
            u = np.zeros((nb, R - 1), dtype=complex)  # K_m[k, 0] over T
            u[:, 0] = self.link[:, 0].conj()
            u[:, -1] += self.link[:, -1]
            sub = np.zeros((nb, R - 1), dtype=complex)  # L[k + 1, k] = K_m[k + 1, k] / d_k
            sub[:, :-1] = self.link[:, 1:-1].conj() / d[:, :-1]
            y = zpttrs(d.reshape(-1), sub.reshape(-1)[:-1], u.reshape(-1, 1), lower=1)[0]
            schur = a[:, 0] - np.einsum("mk,mk->m", u.conj(), y.reshape(nb, R - 1)).real
            if not (np.isfinite(schur) & (schur != 0)).all():
                return None
            negative = (d < 0).sum(axis=1) + (schur < 0)
        return int(self._weights() @ negative)


def _ldl_pivots(d: np.ndarray, e: np.ndarray) -> np.ndarray | None:
    """Pivots of the LDL^T factorization, without pivoting, of the real
    symmetric tridiagonal with diagonal d and off-diagonal e, or None at a
    pivot that is zero or not finite.

    ``dpttrf`` runs the recurrence d_i -= e_{i-1}^2 / d_{i-1} up to the
    first pivot that is not positive; the march goes on past it, one call
    per negative pivot, with that step's own arithmetic."""
    d, e = d.copy(), e.copy()
    start = 0
    while start < d.size - 1:
        d[start:], e[start:], info = dpttrf(d[start:], e[start:])
        if info == 0:
            break
        i = start + info - 1
        if not d[i] < 0:
            return None
        if i == d.size - 1:
            break
        step = e[i]
        e[i] = step / d[i]
        d[i + 1] -= e[i] * step
        start = i + 1
    if not (np.isfinite(d).all() and (d != 0).all()):
        return None
    return d


def _ring_blocks(problem: SpectralProblem) -> _RingBlocks | None:
    """The ring-Fourier blocks of a pencil assembled on a ring stack, or
    None for a pencil with no ``RingLayout`` or whose entries do not
    confirm it.

    Each entry of K between ring k and ring l (l = k - 1, k, k + 1, mod R
    on a cycle) at offset d = j' - j (mod n) joins an orbit of n entries
    under the ring shift; the blocks are K_m[k, l] = sum over d of the
    orbit average times e^(2 pi i d m / n), an unnormalized ``ifft`` over
    d.  A fan center's n links to its ring carry the coupling sqrt(n)
    times their average, to block 0 only.  Every entry must lie within
    ``RING_ORBIT_TOL`` of its orbit's average (an absent entry counting as
    zero), M's entries of their
    ring's average, and every coupling must fit the layout; otherwise
    the pencil takes the generic symmetric LU."""
    layout = problem.rings
    if layout is None:
        return None
    n, R, F, cycle = layout
    nR, V = n * R, problem.dimension
    if V != nR + F or F not in (0, 2) or (cycle and (F or R < 3)):
        return None
    K = problem.stiffness.tocsr()
    rows = np.repeat(np.arange(V), np.diff(K.indptr))
    cols, vals = K.indices, K.data
    tol = RING_ORBIT_TOL * np.abs(vals).max()

    on = (rows < nR) & (cols < nR)
    (k, j), (l, jj), v = np.divmod(rows[on], n), np.divmod(cols[on], n), vals[on]
    t = (l - k + 1) % R if cycle else l - k + 1  # 0, 1, 2: ring below, same, above
    if not ((t >= 0) & (t <= 2)).all():
        return None
    key = (3 * k + t) * n + (jj - j) % n
    count = np.bincount(key, minlength=3 * nR)
    avg = np.bincount(key, v, minlength=3 * nR) / n
    # an orbit with missing entries holds exact zeros that sparse sums dropped
    if not (((count == n) | (np.abs(avg) <= tol)).all() and (np.abs(v - avg[key]) <= tol).all()):
        return None
    blocks = np.fft.ifft(avg.reshape(R, 3, n)[:, 1:], axis=2, norm="forward")[..., :n // 2 + 1]

    fan_diag, fan_link = np.zeros(F), np.zeros(F)
    for f in range(F):
        center, ring = nR + f, (0, R - 1)[f]
        touch = (rows == center) | (cols == center)
        partner, v = rows[touch] + cols[touch] - center, vals[touch]
        fan_diag[f] = v[partner == center].sum()
        partner, v = partner[partner != center], v[partner != center]
        if not ((partner // n == ring).all()
                and (np.bincount(partner % n, minlength=n) == 2).all()
                and (np.abs(v - v.mean()) <= tol).all()):
            return None
        fan_link[f] = math.sqrt(n) * v.mean()

    mass = problem.mass[:nR].reshape(R, n)
    ring_mass = mass.mean(axis=1)
    if not (np.abs(mass - ring_mass[:, None]) <= RING_ORBIT_TOL * ring_mass[:, None]).all():
        return None
    return _RingBlocks(layout, blocks[:, 0].real.T.copy(), blocks[:, 1].T.copy(), ring_mass,
                       fan_diag, fan_link, problem.mass[nR:].copy())
