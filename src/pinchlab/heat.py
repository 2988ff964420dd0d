"""Heat traces and large-time partial torsions from computed spectra.

The large-time torsion window [1, infinity) only needs the small end of
the spectrum: log tau = sum of E1(lambda_i) over positive eigenvalues,
with E1 the exponential integral.  As an eigenvalue degenerates,
E1(lambda) = -log(lambda) - gamma + O(lambda), so the torsion diverges
like minus the log of the product of the vanishing eigenvalues; the
torsion row of ``verify`` adds that log back and watches the sum settle.

Truncation tails are certified by the pencil dimension alone.  The pencil
has ``Spectrum.dimension`` eigenvalues, and the inertia check of
``solve_smallest`` proves that the computed window holds the k lowest, so
each of the dimension - k unseen eigenvalues is at least lambda_k.  No
growth law is fitted or extrapolated.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientSpectrum
from .laplace import Spectrum


def heat_trace(spectrum: Spectrum, t: float, M: int | None = None) -> tuple[float, float]:
    """Heat trace at time t over the M lowest eigenvalues (default all
    computed), and the certified bound (dimension - M) exp(-t lambda_M)
    on the unseen rest."""
    if t <= 0:
        raise ValueError("time must be positive")
    ev = spectrum.eigenvalues
    if M is None:
        M = len(ev)
    if not 0 < M <= len(ev):
        raise InsufficientSpectrum(
            f"heat.heat_trace(V={spectrum.dimension}, t={t}): requested M={M}, "
            f"computed {len(ev)}"
        )
    value = float(np.exp(-ev[:M] * t).sum())
    tail = (spectrum.dimension - M) * math.exp(-t * ev[M - 1])
    return value, tail


#: Largest certified tail of the torsion sum that a partial spectrum may leave.
TAIL_TOL = 1e-2


def partial_torsion_large_time(
    spectrum: Spectrum, h0: int | None = None
) -> tuple[float, float]:
    """log tau over the time window [1, infinity).

    Sums E1 over the positive computed eigenvalues (the h0 kernel modes
    are excluded).  The unseen remainder is at most
    (dimension - k) exp(-lambda_k) / lambda_k, since E1(x) <= exp(-x)/x;
    ``InsufficientSpectrum`` is raised if that exceeds ``TAIL_TOL``.
    """
    ev = spectrum.eigenvalues
    if h0 is None:
        h0 = int(spectrum.numerically_zero().sum())
    V, k, lam_k = spectrum.dimension, len(ev), float(ev[-1])
    where = f"heat.partial_torsion_large_time(V={V}, k={k}, h0={h0})"
    positive = ev[h0:]
    if positive.size and positive[0] <= 0:
        raise InsufficientSpectrum(
            f"{where}: eigenvalue {h0 + 1} is {positive[0]!r}, "
            "so h0 does not match the kernel"
        )
    from scipy.special import exp1  # on first use: nothing else needs it

    value = float(exp1(positive).sum())
    if V == k:
        tail = 0.0
    else:
        tail = (V - k) * math.exp(-lam_k) / lam_k if lam_k > 0 else math.inf
    if tail > TAIL_TOL:
        raise InsufficientSpectrum(
            f"{where}: certified tail (V-k) exp(-lambda_k)/lambda_k = {tail:.3e} "
            f"at lambda_k = {lam_k:.6g} exceeds TAIL_TOL = {TAIL_TOL}"
        )
    return value, tail
