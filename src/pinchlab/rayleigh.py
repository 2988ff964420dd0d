"""Logarithmic cut-off test functions and certified eigenvalue upper bounds.

One test function per component: 1 on the component interior, a
logarithmic ramp between radius eps and sqrt(eps) on each adjacent neck,
0 past the ramp.  Projecting the discrete pencil onto their span and
deflating the constant gives, by the mini-max principle, certified upper
bounds for the N-1 degenerating eigenvalues; the ramp energy scales like
1/log(1/eps), which drives the inverse-log eigenvalue law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EpsilonOutOfRange, RankDeficientTestSet
from .family import DegenerationFamily
from .laplace import SpectralProblem
from .mesh import TriangleMesh


def cutoff_epsilon(s: complex) -> float:
    """eps(s) = 2|s|^(1/8), clamped to 1/4 to stay inside the neck chart
    (the paper's 2|s|^(1/(8 nu)) on a reduced fiber, nu = 1).  The ramp
    supports of adjacent components must stay disjoint, which needs
    eps^2 >= |s|."""
    if s == 0:
        raise EpsilonOutOfRange("cut-offs need a smooth fiber (s != 0)")
    eps = min(2.0 * abs(s) ** 0.125, 0.25)
    if eps ** 2 < abs(s):
        raise EpsilonOutOfRange(
            f"eps^2 = {eps ** 2:.3g} < |s| = {abs(s):.3g}: ramp supports overlap"
        )
    return eps


def log_ramp(r, eps: float):
    """(2/log(1/eps)) * log(r/eps) between eps and sqrt(eps); 0 below, 1
    above.  Takes a scalar (returns a float) or an array of r."""
    r = np.asarray(r, dtype=float)
    out = np.where(r <= eps, 0.0, 1.0)
    ramp = (r > eps) & (r * r < eps)
    # math.log, not np.log: numpy's SIMD log can differ in the last bit
    out[ramp] = [2.0 * math.log(q) / math.log(1.0 / eps) for q in (r[ramp] / eps).tolist()]
    return out if out.ndim else float(out)


@dataclass
class TestFunctionSet:
    """One normalized vertex vector per component, disjoint supports."""

    vectors: np.ndarray  # (V, N), columns in the order of family.components
    epsilon: float
    plateau_areas: np.ndarray  # discrete mass where the raw cut-off is 1


def build_cutoffs(mesh: TriangleMesh, family: DegenerationFamily,
                  s: complex) -> TestFunctionSet:
    """Per component: 1 on the interior, the log ramp in eps <= r <= sqrt(eps)
    on each adjacent neck branch, 0 past it; normalized by the square root
    of the component's plateau mass.  Each chart's component comes from
    ``family.charts()``."""
    eps = cutoff_epsilon(s)
    col = {c.id: i for i, c in enumerate(family.components)}
    component = family.charts()
    phi = np.zeros((mesh.V, len(col)))
    charts, ids, coords = mesh.vertex_chart_index()
    radius = np.hypot(coords.real, coords.imag)  # abs(complex)'s bits, unlike np.abs
    for c, chart in enumerate(charts):
        on = ids == c
        # a cap is plateau; a neck chart covers |x| >= sqrt|s| only, where
        # the other branch's ramp log_ramp(|s|/|x|, eps) is 0 since
        # eps >= sqrt|s|
        phi[on, col[component[chart]]] = 1.0 if chart[0] == "cap" else log_ramp(radius[on], eps)
    mass = mesh.lumped_vertex_mass()
    areas = np.array([mass[phi[:, i] == 1.0].sum() for i in range(len(col))])
    for cid, area in zip(col, areas):
        if area <= 0:
            raise EpsilonOutOfRange(f"component {cid} has no plateau vertices at eps={eps:.3g}")
    phi /= np.sqrt(areas)
    return TestFunctionSet(vectors=phi, epsilon=eps, plateau_areas=areas)


def dirichlet_energy(problem: SpectralProblem, vec: np.ndarray) -> float:
    """Integral of |d vec|^2 (the stiffness stores half of it)."""
    return 2.0 * float(vec @ (problem.stiffness @ vec))


def rayleigh_upper_bound(problem: SpectralProblem, testset) -> np.ndarray:
    """Certified upper bounds for the N-1 degenerating eigenvalues.

    Eigenvalues of the N x N projected pencil dominate the corresponding
    discrete eigenvalues by mini-max; the smallest (the near-constant
    direction) is deflated.
    """
    phi = testset.vectors if isinstance(testset, TestFunctionSet) else np.asarray(testset)
    if phi.ndim != 2 or phi.shape[0] != problem.dimension:
        raise ValueError("test vectors must be columns of length dimension")
    A = phi.T @ (problem.stiffness @ phi)
    B = phi.T @ (problem.mass[:, None] * phi)
    B = 0.5 * (B + B.T)
    eigB = np.linalg.eigvalsh(B)
    if eigB.min() <= 1e-12 * max(eigB.max(), 1e-300):
        raise RankDeficientTestSet("test vectors are numerically dependent")
    mu = scipy.linalg.eigh(0.5 * (A + A.T), B, eigvals_only=True)
    return np.maximum(mu, 0.0)[1:]
