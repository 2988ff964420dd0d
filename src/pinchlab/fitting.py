"""Asymptotic regression for eigenvalue sweeps.

Inverse-log laws (value ~ c/log(1/|s|)), power-of-log exponents
(value ~ C (log 1/|s|)^{-p}), loglog slopes for determinant growth, and
the product law for the N-1 degenerating eigenvalues.  All fits use the
final portion of the grid (default: the deepest half in log s), where
the o(1) corrections are smallest; geometric grids make the points
equi-informative in log s, so no weighting is applied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooShort, IllConditionedFit, UnstableFit

#: Fraction of the grid (deepest s) used as the fit window.
DEFAULT_WINDOW_FRACTION = 0.5

#: Minimal decade span of a sweep grid.
MIN_DECADES = 4.0


@dataclass
class SweepSeries:
    """One positive sweep value per grid parameter s.

    Pairs are stored sorted by decreasing s, so any input ordering
    produces the same series.
    """

    s: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if s.shape != v.shape or s.ndim != 1:
            raise ValueError("s and values must be 1-d arrays of equal length")
        order = np.argsort(-s)
        self.s, self.values = s[order], v[order]
        if (self.s <= 0).any() or (np.diff(self.s) >= 0).any():
            raise ValueError("grid must be positive with distinct entries")
        if (self.values <= 0).any():
            raise ValueError("sweep values must be positive")
        if math.log10(self.s[0] / self.s[-1]) < MIN_DECADES:
            raise GridTooShort(
                f"grid spans {math.log10(self.s[0] / self.s[-1]):.2f} decades; "
                f"need >= {MIN_DECADES}"
            )

    def window(self, fraction: float = DEFAULT_WINDOW_FRACTION):
        """The deepest `fraction` of the grid (smallest s)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("window fraction must lie in (0, 1]")
        n = max(2, int(math.ceil(fraction * len(self.s))))
        return self.s[-n:], self.values[-n:]


@dataclass
class FitResult:
    """Fitted asymptotic constants with window diagnostics.

    `model` is one of InverseLog, PowerOfLog, LogLogSlope, ProductLaw;
    unused constants stay NaN.
    """

    model: str
    c: float = math.nan
    p: float = math.nan
    slope: float = math.nan
    residual: float = math.nan
    verdict: str = ""
    window: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model not in ("InverseLog", "PowerOfLog", "LogLogSlope", "ProductLaw"):
            raise ValueError(f"unknown fit model {self.model}")


def _window_diag(s_w: np.ndarray, fraction: float) -> dict:
    return {
        "fraction": fraction,
        "points": int(len(s_w)),
        "s_max": float(s_w[0]),
        "s_min": float(s_w[-1]),
    }


def fit_inverse_log(
    series: SweepSeries, window_fraction: float = DEFAULT_WINDOW_FRACTION
) -> FitResult:
    """c such that value ~ c / log(1/|s|).

    c is the mean of value * log(1/|s|) over the fit window; the residual
    is the maximal relative deviation from c there.  If the window spread
    of value * log(1/|s|) exceeds 50% the inverse-log model does not hold
    and the fit is rejected.
    """
    s_w, v_w = series.window(window_fraction)
    cvals = v_w * np.log(1.0 / s_w)
    c = float(cvals.mean())
    spread = float(cvals.max() / cvals.min()) - 1.0
    if spread > 0.5:
        raise UnstableFit(
            f"value * log(1/s) varies by {100 * spread:.0f}% over the fit window"
        )
    residual = float(np.abs(cvals / c - 1.0).max())
    return FitResult(
        model="InverseLog", c=c, residual=residual,
        window=_window_diag(s_w, window_fraction),
    )


def _log_log_regression(s_w: np.ndarray, v_w: np.ndarray):
    """Least squares of log(value) against log(log(1/|s|))."""
    x = np.log(np.log(1.0 / s_w))
    if len(x) < 2 or float(x.max() - x.min()) <= 0:
        raise IllConditionedFit("fit window has no loglog spread")
    design = np.column_stack([x, np.ones_like(x)])
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise IllConditionedFit("loglog design matrix is numerically singular")
    coef, _, _, _ = np.linalg.lstsq(design, np.log(v_w), rcond=None)
    fitted = design @ coef
    residual = float(np.abs(np.expm1(np.log(v_w) - fitted)).max())
    return float(coef[0]), float(math.exp(coef[1])), residual


def fit_power_of_log(
    series: SweepSeries, window_fraction: float = DEFAULT_WINDOW_FRACTION
) -> FitResult:
    """p in value ~ C * (log 1/|s|)^(-p), by least squares on the window."""
    s_w, v_w = series.window(window_fraction)
    slope, amp, residual = _log_log_regression(s_w, v_w)
    return FitResult(
        model="PowerOfLog", p=-slope, c=amp, residual=residual,
        window=_window_diag(s_w, window_fraction),
    )


def fit_loglog_slope(
    series: SweepSeries, window_fraction: float = DEFAULT_WINDOW_FRACTION
) -> FitResult:
    """Slope of log(value) against log(log(1/|s|)) (growth exponent)."""
    s_w, v_w = series.window(window_fraction)
    slope, amp, residual = _log_log_regression(s_w, v_w)
    return FitResult(
        model="LogLogSlope", slope=slope, c=amp, residual=residual,
        window=_window_diag(s_w, window_fraction),
    )


def product_law_check(
    s_grid,
    eigenvalues,
    window_fraction: float = DEFAULT_WINDOW_FRACTION,
) -> FitResult:
    """Constant in prod_k lambda_k(s) ~ c / (log 1/|s|)^(N-1).

    `eigenvalues` holds the N-1 degenerating eigenvalues per grid point
    (rows follow s_grid).  PASS when the compensated product
    prod lambda_k * (log 1/|s|)^(N-1) has max/min < 1.5 over the window.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    lam = np.atleast_2d(np.asarray(eigenvalues, dtype=float))
    if lam.shape[0] != len(s_grid):
        lam = lam.T
    if lam.shape[0] != len(s_grid):
        raise ValueError("eigenvalue rows must follow the s grid")
    if len(s_grid) < 8:
        raise GridTooShort("product law needs at least 8 grid points")
    n_small = lam.shape[1]
    product = lam.prod(axis=1)
    series = SweepSeries(s=s_grid, values=product)
    s_w, v_w = series.window(window_fraction)
    cvals = v_w * np.log(1.0 / s_w) ** n_small
    c = float(cvals.mean())
    ratio = float(cvals.max() / cvals.min())
    residual = float(np.abs(cvals / c - 1.0).max())
    return FitResult(
        model="ProductLaw", c=c, residual=residual,
        verdict="PASS" if ratio < 1.5 else "FAIL",
        window={**_window_diag(s_w, window_fraction), "max_over_min": ratio},
    )
