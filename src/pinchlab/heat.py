"""Heat traces and large-time partial torsions from computed spectra.

The large-time torsion window [1, infinity) only needs the small end of
the spectrum: log tau = sum of E1(lambda_i) over positive eigenvalues,
with E1 the exponential integral.  As an eigenvalue degenerates,
E1(lambda) = -log(lambda) - gamma + O(lambda), so the torsion diverges
like the log of the product of the vanishing eigenvalues; the extraction
check adds that product back and watches the sum settle.

Truncation tails use the empirical square-root growth of the computed
spectrum: lambda_k >= B * sqrt(k - n0) for k past the n0 small indices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSpectrum
from .laplace import Spectrum

#: Euler-Mascheroni constant, 20 digits.
EULER_GAMMA = 0.57721566490153286061


def exp_integral_e1(lam: float) -> float:
    """E1(lam) = integral_1^inf exp(-lam*t) dt/t.

    Power series below 1, modified-Lentz continued fraction above;
    both branches agree to ~1e-15 at the splice.
    """
    if lam < 0:
        raise ValueError("E1 requires a nonnegative argument")
    if lam == 0:
        return math.inf
    if lam < 1.0:
        total = -EULER_GAMMA - math.log(lam)
        term = 1.0
        for k in range(1, 200):
            term *= -lam / k
            contrib = -term / k
            total += contrib
            if abs(contrib) < 1e-18 * max(abs(total), 1e-30):
                break
        return total
    # continued fraction E1(x) = e^{-x} / (x + 1/(1 + 1/(x + 2/(1 + ...))))
    tiny = 1e-300
    b = lam + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -i * i * 1.0
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise InsufficientSpectrum("continued fraction for E1 did not converge")
    return h * math.exp(-lam)


@dataclass
class HeatTraceReport:
    """Truncated heat traces over a time grid with tail bounds."""

    t_grid: np.ndarray
    values: np.ndarray
    tail_bounds: np.ndarray
    a0: float  # Area / 4pi
    a1: float

    def __post_init__(self) -> None:
        if not (np.diff(self.values) <= 1e-15).all():
            raise ValueError("heat trace must be decreasing in t")


def _small_count(spectrum: Spectrum) -> int:
    """Indices treated as 'small': zero modes plus degenerating eigenvalues
    well below the bulk of the computed window."""
    ev = spectrum.eigenvalues
    bulk = ev[-1]
    return int((ev < max(spectrum.zero_threshold, 0.05 * bulk)).sum())


def spectral_growth_rate(spectrum: Spectrum, n0: int | None = None) -> tuple[float, int]:
    """Largest B with lambda_k >= B*sqrt(k - n0) on the computed window."""
    ev = spectrum.eigenvalues
    if n0 is None:
        n0 = _small_count(spectrum)
    if len(ev) <= n0 + 2:
        raise InsufficientSpectrum("not enough eigenvalues past the small block")
    k = np.arange(1, len(ev) + 1)
    mask = k > n0
    B = float((ev[mask] / np.sqrt(k[mask] - n0)).min())
    if B <= 0:
        raise InsufficientSpectrum("no positive growth rate in computed window")
    return B, n0


def _sqrt_exp_tail(a: float, j0: float) -> float:
    """Upper bound for sum_{x >= j0} exp(-a*sqrt(x)) (x integer steps).

    Sums the first terms numerically and bounds the rest by the integral
    int_J^inf exp(-a*sqrt(x)) dx = 2(a*sqrt(J)+1) exp(-a*sqrt(J))/a^2.
    """
    total = 0.0
    x = j0
    for _ in range(2000):
        term = math.exp(-a * math.sqrt(x))
        total += term
        x += 1.0
        if term < 1e-18 * max(total, 1e-30):
            return total
    return total + 2.0 * (a * math.sqrt(x) + 1.0) * math.exp(-a * math.sqrt(x)) / a ** 2


def heat_trace(spectrum: Spectrum, t: float, M: int | None = None) -> tuple[float, float]:
    """Truncated heat trace at time t with a closed-form tail bound."""
    if t <= 0:
        raise ValueError("time must be positive")
    ev = spectrum.eigenvalues
    if M is None:
        M = len(ev)
    if M > len(ev):
        raise InsufficientSpectrum(f"requested M={M} > computed {len(ev)}")
    value = float(np.exp(-ev[:M] * t).sum())
    B, n0 = spectral_growth_rate(spectrum)
    tail = _sqrt_exp_tail(t * B, M + 1 - n0)
    return value, tail


def heat_trace_report(
    spectrum: Spectrum, t_grid: np.ndarray, area: float, M: int | None = None
) -> HeatTraceReport:
    """Traces over a time grid plus fitted small-time coefficients.

    In Hodge-Kodaira units exp(-lambda*t) equals the geometer's kernel at
    time t/2, so the leading short-time behavior is a0/(t/2) with
    a0 = area/4pi; a1 is the fitted constant correction.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    pairs = [heat_trace(spectrum, t, M) for t in t_grid]
    values = np.array([p[0] for p in pairs])
    tails = np.array([p[1] for p in pairs])
    a0 = area / (4.0 * math.pi)
    a1 = float(np.mean(values - 2.0 * a0 / t_grid))
    return HeatTraceReport(t_grid=t_grid, values=values, tail_bounds=tails, a0=a0, a1=a1)


def partial_torsion_large_time(
    spectrum: Spectrum, h0: int | None = None, tail_tol: float = 1e-2
) -> tuple[float, float]:
    """log tau over the time window [1, infinity).

    Sums E1 over the positive computed eigenvalues (the h0 kernel modes
    are excluded); the unseen remainder is bounded via the fitted
    square-root growth and E1(x) <= exp(-x)/x.
    """
    ev = spectrum.eigenvalues
    if h0 is None:
        h0 = int(spectrum.numerically_zero().sum())
    positive = ev[h0:]
    if positive.size == 0:
        return 0.0, 0.0
    if positive[0] <= 0:
        raise InsufficientSpectrum("kernel dimension h0 does not match spectrum")
    value = float(sum(exp_integral_e1(l) for l in positive))
    B, n0 = spectral_growth_rate(spectrum)
    # E1(B sqrt(j)) <= exp(-B sqrt(j)) / (B sqrt(j)) <= exp(-B sqrt(j)) / B
    j0 = len(ev) + 1 - n0
    tail = _sqrt_exp_tail(B, j0) / max(B * math.sqrt(j0), 1.0)
    if tail > tail_tol:
        raise InsufficientSpectrum(
            f"torsion tail bound {tail:.3e} exceeds tolerance {tail_tol}"
        )
    return value, tail


@dataclass
class ExtractionCheck:
    """Drift diagnostic of the small-eigenvalue extraction."""

    s_grid: np.ndarray
    series: np.ndarray
    variation: float  # relative variation over the final half


def small_ev_extraction_check(
    torsion_values: np.ndarray,
    spectra: list[Spectrum],
    n_small: int,
) -> ExtractionCheck:
    """Series log tau(s) + sum of logs of the n_small degenerating
    eigenvalues; its variation over the final half of the sweep measures
    convergence of the compensated torsion."""
    s_grid = np.array([sp.s if isinstance(sp.s, float) else abs(sp.s) for sp in spectra])
    series = np.empty(len(spectra))
    for i, sp in enumerate(spectra):
        zeros = int(sp.numerically_zero().sum())
        small = sp.eigenvalues[zeros:zeros + n_small]
        if (small <= 0).any():
            raise InsufficientSpectrum("degenerating eigenvalue not resolved")
        series[i] = torsion_values[i] + float(np.log(small).sum())
    half = series[len(series) // 2:]
    denom = max(abs(float(np.mean(half))), 1e-30)
    variation = float((half.max() - half.min()) / denom)
    return ExtractionCheck(s_grid=s_grid, series=series, variation=variation)
