"""Tests for heat traces, partial torsions and their certified tails."""
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pinchlab import heat
from pinchlab.errors import InsufficientSpectrum
from pinchlab.heat import heat_trace, partial_torsion_large_time
from pinchlab.laplace import Spectrum, assemble, solve_smallest
from pinchlab.mesh import flat_torus_mesh


def make_spectrum(evs, s=1e-3, zero_threshold=1e-12, dimension=1000):
    evs = np.asarray(evs, dtype=float)
    return Spectrum(
        eigenvalues=evs,
        residual_norms=np.zeros_like(evs),
        dimension=dimension,
        s=s,
        zero_threshold=zero_threshold,
    )


def e1_by_torsion(lam):
    """E1(lam) as the large-time torsion of a one-eigenvalue pencil."""
    return partial_torsion_large_time(make_spectrum([lam], dimension=1), h0=0)[0]


class TestExpIntegral:
    def test_value_at_one(self):
        assert e1_by_torsion(1.0) == pytest.approx(0.219384, abs=5e-7)

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.3, 0.99, 1.0, 1.01, 5.0, 50.0, 100.0])
    def test_matches_quadrature(self, lam):
        oracle = quad(lambda t: math.exp(-lam * t) / t, 1.0, np.inf, limit=500)[0]
        assert e1_by_torsion(lam) == pytest.approx(oracle, rel=1e-10)

    def test_small_argument_log_asymptote(self):
        lam = 1e-8
        assert e1_by_torsion(lam) == pytest.approx(
            -math.log(lam) - np.euler_gamma, abs=1e-7
        )

    @settings(max_examples=50, deadline=None)
    @given(loglam=st.floats(min_value=-6, max_value=2))
    def test_positive_and_decreasing(self, loglam):
        lam = 10.0 ** loglam
        v = e1_by_torsion(lam)
        assert 0 < v < math.inf
        assert e1_by_torsion(lam * 1.01) < v


class TestHeatTrace:
    def test_single_eigenvalue(self):
        sp = make_spectrum([0.0, 2.0, 20.0, 40.0, 60.0, 80.0])
        v, tail = heat_trace(sp, t=1.0, M=2)
        assert v == pytest.approx(1.0 + math.exp(-2.0))
        assert tail == pytest.approx(998 * math.exp(-2.0))

    def test_kernel_only_survives_large_time(self):
        sp = make_spectrum([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        v, _ = heat_trace(sp, t=80.0)
        assert v == pytest.approx(2.0, abs=1e-30)

    def test_monotone_decreasing_in_t(self):
        sp = make_spectrum([0.0, 0.3, 1.1, 2.0, 3.3, 4.8])
        vals = [heat_trace(sp, t)[0] for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_flat_torus_small_time_expansion(self):
        # In Hodge-Kodaira units exp(-lambda t) is the geometer's kernel at
        # time t/2, so the trace is a0 / (t/2) with a0 = area / 4 pi, up to
        # terms of order exp(-1/(2t)) on the flat torus
        area = 1.0
        mesh = flat_torus_mesh(20, area=area)
        spec = solve_smallest(assemble(mesh), 60, s=0.0)
        a0 = area / (4.0 * math.pi)
        for t in (0.05, 0.06, 0.08):
            value, tail = heat_trace(spec, t)
            assert abs(value - 2.0 * a0 / t) <= tail + 0.05
            # and against the exact Fourier spectrum
            exact = sum(
                math.exp(-2.0 * math.pi ** 2 * (m * m + n * n) * t)
                for m in range(-20, 21)
                for n in range(-20, 21)
            )
            assert value == pytest.approx(exact, rel=0.02)

    def test_insufficient_spectrum_raises(self):
        sp = make_spectrum([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(InsufficientSpectrum, match=r"heat\.heat_trace"):
            heat_trace(sp, 1.0, M=10)


class TestDenseOracle:
    """Reported values and tails against the full spectrum of a small pencil."""

    @pytest.fixture(scope="class")
    def pencil(self):
        # area 20 brings the eigenvalues down to about |n|^2, so the tails
        # are of order one at small k
        pb = assemble(flat_torus_mesh(12, area=20.0))
        full = scipy.linalg.eigh(
            pb.stiffness.toarray(), np.diag(pb.mass), eigvals_only=True
        )
        return pb, full

    @pytest.mark.parametrize("k", [10, 30, 60])
    def test_reported_value_plus_unseen_sum_is_full_sum(self, pencil, k, monkeypatch):
        pb, full = pencil
        spec = solve_smallest(pb, k)
        monkeypatch.setattr(heat, "TAIL_TOL", math.inf)
        value, tail = partial_torsion_large_time(spec, h0=1)
        unseen = float(scipy.special.exp1(full[k:]).sum())
        whole = float(scipy.special.exp1(full[1:]).sum())
        assert value + unseen == pytest.approx(whole, rel=1e-9)
        assert unseen <= tail
        for t in (0.1, 1.0, 10.0):
            value, tail = heat_trace(spec, t)
            unseen = float(np.exp(-t * full[k:]).sum())
            assert value + unseen == pytest.approx(float(np.exp(-t * full).sum()), rel=1e-9)
            assert unseen <= tail


class TestPartialTorsion:
    def test_single_unit_eigenvalue(self):
        sp = make_spectrum([0.0, 1.0] + [10.0 + 5 * j for j in range(40)])
        v, tail = partial_torsion_large_time(sp, h0=1)
        contrib_rest = float(scipy.special.exp1(sp.eigenvalues[2:]).sum())
        assert v == pytest.approx(0.219384 + contrib_rest, abs=1e-6)
        assert tail == pytest.approx(958 * math.exp(-205.0) / 205.0)

    def test_empty_positive_spectrum(self):
        sp = make_spectrum([0.0, 0.0], dimension=2)
        v, tail = partial_torsion_large_time(sp, h0=2)
        assert (v, tail) == (0.0, 0.0)

    def test_divergence_like_log_inverse_eigenvalue(self):
        base = [2.0 + 0.5 * j for j in range(50)]
        torsions = []
        lams = [1e-2, 1e-4, 1e-6]
        for lam in lams:
            sp = make_spectrum([0.0, lam] + base)
            torsions.append(partial_torsion_large_time(sp, h0=1)[0])
        # successive differences ~ log(previous/next) = log(100)
        # E1(lam) = -log(lam) - gamma + O(lam): remainder ~ 1e-2 on the
        # first step, ~ 1e-4 once the eigenvalue is tiny
        d1 = torsions[1] - torsions[0]
        d2 = torsions[2] - torsions[1]
        assert d1 == pytest.approx(math.log(100), rel=3e-3)
        assert d2 == pytest.approx(math.log(100), rel=1e-4)

    def test_failure_names_layer_and_input(self):
        # four eigenvalues of a 10000-dimensional pencil, lambda_k = 1.5
        sp = make_spectrum([0.0, 0.5, 1.0, 1.5], dimension=10_000)
        with pytest.raises(InsufficientSpectrum) as err:
            partial_torsion_large_time(sp)
        tail = 9996 * math.exp(-1.5) / 1.5
        for part in ("heat.partial_torsion_large_time(V=10000, k=4, h0=1)",
                     f"{tail:.3e}", "lambda_k = 1.5 ", "TAIL_TOL = 0.01"):
            assert part in str(err.value)

    def test_unseen_spectrum_above_zero_window_raises(self):
        sp = make_spectrum([0.0, 0.0], dimension=3)
        with pytest.raises(InsufficientSpectrum, match="inf"):
            partial_torsion_large_time(sp, h0=2)


class TestExtractionCheck:
    def test_synthetic_inverse_log_spectrum_converges(self):
        # lambda_1(s) = 1/log(1/s), rest fixed: log tau + log lambda_1
        # -> fixed torsion part - gamma as the small mode vanishes
        base = [3.0 + 0.5 * j for j in range(60)]
        fixed_part = float(scipy.special.exp1(base).sum())
        lams, offsets = [], []
        for s in 10.0 ** -np.arange(2, 12, dtype=float):
            lam = 1.0 / math.log(1.0 / s)
            sp = make_spectrum([0.0, lam] + base, s=s)
            lams.append(lam)
            offsets.append(partial_torsion_large_time(sp)[0] + math.log(lam)
                           - (fixed_part - np.euler_gamma))
        lams, offsets = np.array(lams), np.array(offsets)
        # the remainder E1(x) + log x + gamma = x - x^2/4 + ...
        assert (np.abs(offsets - lams) <= lams ** 2 / 4).all()
        assert (np.diff(offsets) < 0).all() and offsets[-1] < 0.04

    def test_gamma_compensation_identity(self):
        # int_1^inf e^{-t}dt/t + int_0^1 (e^{-t}-1)dt/t = -gamma
        second = quad(lambda t: (math.exp(-t) - 1.0) / t, 0.0, 1.0)[0]
        assert e1_by_torsion(1.0) + second == pytest.approx(-np.euler_gamma, abs=1e-12)
