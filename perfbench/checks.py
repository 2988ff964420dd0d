"""Correctness checks on the workloads' outputs.

Each check recomputes what it checks from the returned data, or tests a
property the method must have; none compares against stored numbers.
Every function returns a list of problems, empty when the check passes.
Only numpy and scipy are used here, so the checks can be tested apart
from the library.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.special

FOUR_PI = 4.0 * math.pi


def pencil_residuals(stiffness, mass, vals, vecs, block=16) -> np.ndarray:
    """||K u - lambda M u|| / ||u||_M per pair (M diagonal, given as a
    vector), ``block`` columns at a time so that the temporaries stay
    small next to the pairs themselves."""
    out = np.empty(len(vals))
    for j in range(0, len(vals), block):
        u, lam = vecs[:, j:j + block], vals[j:j + block]
        mu = mass[:, None] * u
        r = stiffness @ u - mu * lam[None, :]
        out[j:j + block] = np.linalg.norm(r, axis=0) / np.sqrt(np.einsum("ij,ij->j", u, mu))
    return out


def check_pairs(label, stiffness, mass, vals, vecs, tol=1e-9) -> list[str]:
    return check_residuals(label, pencil_residuals(stiffness, mass, vals, vecs), tol)


def check_residuals(label, res, tol=1e-9) -> list[str]:
    bad = ~(res <= tol)
    if bad.any():
        return [f"{label}: {int(bad.sum())} of {len(res)} residuals above {tol} "
                f"(max {np.nanmax(res):.3e})"]
    return []


def zero_mode_count(vals) -> int:
    """Eigenvalues at most 1e-9 of the top of the window count as zero."""
    vals = np.asarray(vals, dtype=float)
    return int((vals <= 1e-9 * vals[-1]).sum())


def check_zero_modes(label, vals, expected) -> list[str]:
    found = zero_mode_count(vals)
    if found != expected:
        return [f"{label}: {found} numerically zero eigenvalues, expected {expected}"]
    return []


def check_rayleigh(label, bounds, vals) -> list[str]:
    """Min-max: the j-th bound of the N-1 cut-off test functions is at
    least lambda_j for j = 1..N-1."""
    bounds = np.asarray(bounds, dtype=float)
    lam = np.asarray(vals, dtype=float)[1:1 + len(bounds)]
    low = bounds < lam - (1e-14 + 1e-12 * np.abs(lam))
    if low.any():
        return [f"{label}: Rayleigh bound {bounds[low]} below lambda {lam[low]}"]
    return []


def log_power_exponent(s, lam) -> float:
    """p in lambda ~ C (log 1/s)^(-p), least squares over the deepest half
    of the grid (the window the paper's law is stated on)."""
    s, lam = _deepest_half(s, lam)
    x = np.log(np.log(1.0 / s))
    slope = np.polyfit(x, np.log(lam), 1)[0]
    return float(-slope)


def product_spread(s, lam1, lam2) -> float:
    """max/min of lambda_1 lambda_2 log^2(1/s) over the deepest half."""
    s, prod = _deepest_half(s, np.asarray(lam1) * np.asarray(lam2))
    c = prod * np.log(1.0 / s) ** 2
    return float(c.max() / c.min())


def _deepest_half(s, values):
    s = np.asarray(s, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(-s)
    n = max(2, math.ceil(0.5 * len(s)))
    return s[order][-n:], values[order][-n:]


def check_within(label, measured, target, tol) -> list[str]:
    if not abs(measured - target) <= tol:
        return [f"{label}: {measured!r} is not within {tol:.3g} of {target!r}"]
    return []


def check_below(label, measured, cap) -> list[str]:
    if not measured < cap:
        return [f"{label}: {measured!r} is not below {cap!r}"]
    return []


def check_at_least(label, measured, floor) -> list[str]:
    if not measured >= floor:
        return [f"{label}: {measured!r} is below {floor!r}"]
    return []


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------

def check_torsion(label, tau, vals, h0) -> list[str]:
    """log tau over [1, inf) is the sum of E1 over the positive eigenvalues."""
    expect = float(scipy.special.exp1(np.asarray(vals[h0:], dtype=float)).sum())
    if not (math.isfinite(expect) and abs(tau - expect) <= 1e-10 * abs(expect)):
        return [f"{label}: partial torsion {tau!r} != sum E1 = {expect!r}"]
    return []


def certified_tail(dimension, vals) -> float:
    """Bound on the unseen part of sum E1: the pencil has ``dimension``
    eigenvalues, every unseen one is at least lambda_k, and
    E1(x) <= exp(-x)/x."""
    lam_k = float(vals[-1])
    return (dimension - len(vals)) * math.exp(-lam_k) / lam_k


def relative_variation(series) -> float:
    series = np.asarray(series, dtype=float)
    return float((series.max() - series.min()) / abs(series.mean()))


# ---------------------------------------------------------------------------
# period Grams
# ---------------------------------------------------------------------------

def check_hermitian_pd(label, matrices) -> list[str]:
    problems = []
    for i, g in enumerate(matrices):
        if np.abs(g - g.conj().T).max() > 1e-12 * np.abs(g).max():
            problems.append(f"{label}[{i}]: not Hermitian")
        elif not np.linalg.eigvalsh(g).min() > 0:
            problems.append(f"{label}[{i}]: not positive-definite")
    return problems


def residue(poles, point) -> complex:
    """Residue at ``point`` of sum res/(z - loc) dz; None means infinity,
    where the residue is minus the finite sum."""
    if point is None:
        return -sum(res for _, res in poles)
    return sum(res for loc, res in poles if loc == point)


def alpha_taylor(poles, point, degree) -> np.ndarray:
    """Coefficients of alpha(x) = x f(x) in the local coordinate x at
    ``point`` (0, or None for infinity, where x = 1/z)."""
    c = np.zeros(degree + 1, dtype=complex)
    m = np.arange(degree + 1)
    for loc, res in poles:
        if point is None:
            # alpha(x) = -f(1/x)/x = -sum_j res_j / (1 - loc_j x)
            c -= res * complex(loc) ** m
        elif loc == point:
            c[0] += res
        else:
            c[1:] -= res / complex(loc) ** m[1:]
    return c


def log_coefficient(node_residues) -> np.ndarray:
    """a_ij = 4 pi sum over nodes of Res_i conj(Res_j); ``node_residues``
    is (n differentials, n nodes)."""
    r = np.asarray(node_residues, dtype=complex)
    return FOUR_PI * (r @ r.conj().T)


def annulus_difference(g, h, t, t2) -> np.ndarray:
    """Closed form of G(t) - G(t2) from the node annuli:
    4 pi [g0 conj(g0') log(|t2|/|t|)
          + sum_{m>=1} (g_m conj(g'_m) + h_m conj(h'_m)) (|t2|^2m - |t|^2m)/(2m)],
    summed over nodes.  g, h: (n differentials, n nodes, degree + 1)
    Taylor data of the two branches, in the annulus' own scaling."""
    g = np.asarray(g, dtype=complex)
    h = np.asarray(h, dtype=complex)
    m = np.arange(1, g.shape[2])
    a, b = abs(t), abs(t2)
    w = (b ** (2 * m) - a ** (2 * m)) / (2 * m)
    out = math.log(b / a) * np.einsum("iq,jq->ij", g[:, :, 0], g[:, :, 0].conj())
    out = out + np.einsum("iqm,jqm,m->ij", g[:, :, 1:], g[:, :, 1:].conj(), w)
    out = out + np.einsum("iqm,jqm,m->ij", h[:, :, 1:], h[:, :, 1:].conj(), w)
    return FOUR_PI * out


def check_matrix_close(label, got, expect, tol) -> list[str]:
    err = float(np.abs(np.asarray(got) - np.asarray(expect)).max())
    if not err <= tol:
        return [f"{label}: max deviation {err:.3e} exceeds {tol:.3e}"]
    return []
