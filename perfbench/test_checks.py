"""Each benchmark check passes on exact data and fails on a perturbed copy.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.special

import checks
import tracing


@pytest.fixture
def pencil():
    n = 40
    rng = np.random.default_rng(3)
    K = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    K = K + sp.diags(np.r_[-1.0, np.zeros(n - 2), -1.0])  # Neumann ends: one zero mode
    mass = rng.uniform(0.5, 1.5, n)
    vals, vecs = scipy.linalg.eigh(K.toarray(), np.diag(mass))
    return K, mass, vals[:6], vecs[:, :6]


def test_pair_residuals(pencil):
    K, mass, vals, vecs = pencil
    assert checks.check_pairs("p", K, mass, vals, vecs) == []
    bumped = vals.copy()
    bumped[3] *= 1.0 + 1e-6
    assert checks.check_pairs("p", K, mass, bumped, vecs)
    nan = vecs.copy()
    nan[0, 2] = np.nan
    assert checks.check_pairs("p", K, mass, vals, nan)


def test_zero_modes(pencil):
    vals = np.maximum(pencil[2], 0.0)
    assert checks.check_zero_modes("scalar", vals, 1) == []
    assert checks.check_zero_modes("weighted", vals, 0)
    assert checks.check_zero_modes("weighted", vals[1:], 0) == []
    doubled = np.r_[0.0, vals]
    assert checks.check_zero_modes("scalar", doubled, 1)


def test_rayleigh_bound():
    vals = np.array([0.0, 0.5, 0.7, 3.0])
    assert checks.check_rayleigh("r", [0.6, 0.9], vals) == []
    assert checks.check_rayleigh("r", [0.5], vals) == []
    assert checks.check_rayleigh("r", [0.4], vals)
    assert checks.check_rayleigh("r", [0.6, 0.69], vals)


def test_log_power_exponent_and_product_spread():
    s = np.logspace(-2.0, -10.0, 12)
    L = np.log(1.0 / s)
    assert checks.log_power_exponent(s, 3.0 / L) == pytest.approx(1.0, abs=1e-12)
    assert checks.check_within("p", checks.log_power_exponent(s, 3.0 / L ** 1.3),
                               1.0, 0.15)
    # only the deepest half counts
    lam = 3.0 / L
    lam[:6] *= 5.0
    assert checks.log_power_exponent(s, lam) == pytest.approx(1.0, abs=1e-12)

    lam1, lam2 = 2.0 / L, 0.5 / L
    assert checks.product_spread(s, lam1, lam2) == pytest.approx(1.0)
    lam2[-1] *= 2.0
    assert checks.check_below("spread", checks.product_spread(s, lam1, lam2), 1.5)


def test_torsion_sum_tail_and_variation():
    vals = np.array([0.0, 0.05, 1.5, 3.0, 30.0])
    tau = float(scipy.special.exp1(vals[1:]).sum())
    assert checks.check_torsion("t", tau, vals, 1) == []
    assert checks.check_torsion("t", tau * (1.0 + 1e-8), vals, 1)
    assert checks.check_torsion("t", tau, vals, 0)  # E1(0) is infinite
    assert checks.certified_tail(1000, vals) < 1e-2
    assert checks.check_below("tail", checks.certified_tail(1000, vals[:4]), 1e-2)
    assert checks.check_below("var", checks.relative_variation([1.35, 1.36]), 0.1) == []
    assert checks.check_below("var", checks.relative_variation([1.35, 1.6]), 0.1)


def test_hermitian_positive_definite():
    a = np.array([[2.0, 0.5j, 0.0], [-0.5j, 1.0, 0.1], [0.0, 0.1, 3.0]])
    assert checks.check_hermitian_pd("g", [a]) == []
    skew = a.copy()
    skew[0, 1] += 1e-3
    assert checks.check_hermitian_pd("g", [skew])
    indefinite = a - 1.5 * np.eye(3)
    assert checks.check_hermitian_pd("g", [a, indefinite])


def test_residues_and_taylor_data():
    poles = ((0.0 + 0j, 1.0 + 0j), (2.0 + 1.0j, -0.4 + 0j))  # residue 0.6 - 1 at infinity
    assert checks.residue(poles, 0.0) == 1.0
    assert checks.residue(poles, None) == pytest.approx(-0.6)

    def f(z):
        return sum(res / (z - loc) for loc, res in poles)

    n, r = 64, 0.3
    x = r * np.exp(2j * math.pi * np.arange(n) / n)
    for point, alpha in ((0.0, x * f(x)), (None, -f(1.0 / x) / x)):
        fft = np.fft.fft(alpha) / n / r ** np.arange(n)
        taylor = checks.alpha_taylor(poles, point, 8)
        np.testing.assert_allclose(taylor, fft[:9], rtol=1e-9, atol=1e-10)
        assert taylor[0] == pytest.approx(checks.residue(poles, point))

    res = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]])
    a = checks.log_coefficient(res)
    assert a[0, 0] == pytest.approx(12.0 * math.pi)
    assert a[0, 1] == pytest.approx(0.0)
    off = res.copy()
    off[1, 1] = 0.01
    assert checks.check_matrix_close("a", a, checks.log_coefficient(off), 1e-6 * 12 * math.pi)


def _annulus_quadrature(g, h, t, n_r=400, n_theta=64):
    """Int_{|t|<=|x|<=1} alpha(x, t/x) conj(alpha'(...)) dx^dxbar/|x|^2 for
    one node, alpha = sum g_m x^m + sum_{n>=1} h_n y^n, in (log r, theta)."""
    u, w = np.polynomial.legendre.leggauss(n_r)
    u0 = math.log(abs(t))
    u = 0.5 * u0 * (1.0 - u)
    w = 0.5 * abs(u0) * w
    x = np.exp(u[:, None] + 2j * math.pi * np.arange(n_theta)[None, :] / n_theta)
    y = t / x
    alpha = [np.polyval(gi[::-1], x) + np.polyval(np.r_[hi[:0:-1], 0.0], y)
             for gi, hi in zip(g, h)]
    out = np.empty((len(g), len(g)), dtype=complex)
    for i in range(len(g)):
        for j in range(len(g)):
            ring = (alpha[i] * alpha[j].conj()).mean(axis=1) * 2.0 * math.pi
            out[i, j] = 2.0 * (ring * w).sum()
    return out


def test_annulus_difference_matches_quadrature():
    g = np.array([[1.0, 0.3, -0.2j, 0.05], [0.5j, 0.0, 0.4, 0.1]])
    h = np.array([[0.0, 0.2, 0.1, 0.0], [0.0, -0.3j, 0.0, 0.2]])
    t, t2 = 2e-2, 3e-1
    expect = _annulus_quadrature(g, h, t) - _annulus_quadrature(g, h, t2)
    closed = checks.annulus_difference(g[:, None, :], h[:, None, :], t, t2)
    assert checks.check_matrix_close("dG", closed, expect, 1e-10 * np.abs(expect).max()) == []
    wrong = checks.annulus_difference(g[:, None, :], h[:, None, :], t, 1.01 * t2)
    assert checks.check_matrix_close("dG", wrong, expect, 1e-6 * np.abs(expect).max())


def test_totals_within_tolerance():
    target, tol = -8.0 * math.pi, 0.02 * 8.0 * math.pi
    assert checks.check_within("quartic", -7.9999 * math.pi, target, tol) == []
    assert checks.check_within("quartic", -7.5 * math.pi, target, tol)
    assert checks.check_within("quartic", math.nan, target, tol)
    assert checks.check_at_least("growth", 1.0e4, 10.0) == []
    assert checks.check_at_least("growth", 9.0, 10.0)


def test_captured_pairs_must_reproduce_the_returned_eigenvalues(pencil):
    K, mass, vals, vecs = pencil
    order = np.arange(len(vals))[::-1]  # eigsh may return them in any order

    class Spectrum:
        eigenvalues = np.maximum(vals[:4], 0.0)

    got_vals, got_vecs = tracing.returned_pairs((vals[order], vecs[:, order]), Spectrum, 4)
    assert np.array_equal(got_vals, Spectrum.eigenvalues)
    assert np.array_equal(got_vecs, vecs[:, :4])
    stale = vals.copy()
    stale[2] += 1e-12
    assert tracing.returned_pairs((stale, vecs), Spectrum, 4) is None
    assert tracing.returned_pairs(None, Spectrum, 4) is None


def test_residuals_in_blocks_match_one_block(pencil):
    K, mass, vals, vecs = pencil
    whole = checks.pencil_residuals(K, mass, vals, vecs, block=len(vals))
    assert np.allclose(checks.pencil_residuals(K, mass, vals, vecs, block=4), whole,
                       rtol=0.0, atol=1e-15)


def test_recorder_hands_each_solve_to_the_hook_and_keeps_no_reference(pencil):
    K, mass, vals, vecs = pencil
    seen = []

    class Spectrum:
        eigenvalues = np.maximum(vals[:4], 0.0)

    def hook(m, problem, spectrum, pairs):
        seen.append((m, problem, pairs is not None))
        return "kept"

    def solve(problem, k):  # calls eigsh through the recorder, as the library does
        rec.call("laplace.eigsh", lambda: (vals, vecs), (), {})
        return Spectrum

    rec = tracing.Recorder(False, on_solve=hook)
    rec.call("mesh.mesh_fiber", lambda: "mesh", (), {})
    assert rec.call("laplace.solve_smallest", solve, ("pencil", 4), {}) is Spectrum
    assert seen == [("mesh", "pencil", True)] and rec.solves == ["kept"]
    assert rec._mesh is None and rec._raw is None and rec.check_s > 0.0
