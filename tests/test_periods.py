"""Tests for period Gram matrices, annulus integrals, and determinant growth."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipk

from pinchlab.errors import (
    AGMNotConverged,
    GridMismatch,
    GridTooShort,
    IllConditionedFit,
    QuadratureNotConverged,
)
from pinchlab import verify
from pinchlab.family import FAMILY_PRESETS, INF_POINT, three_cycle_family, two_sphere_family
from pinchlab.laplace import Spectrum
from pinchlab.periods import (
    KAPPA,
    RHO,
    RHO_0,
    RHO_1,
    PeriodGram,
    PlumbingDifferential,
    RationalForm,
    _gl_panels,
    _polar_quad,
    annulus_log_integral,
    canonical_basis,
    check_grid,
    component_pairing,
    det_growth_fit,
    elliptic_period_gram,
    fit_log_asymptotics,
    node_residue,
    node_taylor,
    plumbing_gram,
    plumbing_twisted_gram,
    plumbing_untwisted_gram,
    residue_free_differential,
    validate_residues,
)


def bivariate_taylor(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Bivariate coefficients c[m, n] of alpha(x, y) on the node annulus,
    the quadrature oracle's input.

    Left restriction alpha(x, 0) = sum g_m x^m; the right branch enters
    with a sign because dy/y = -dx/x, so c[0, n] = -h_n for n >= 1.  The
    constant terms agree up to sign (opposite residues), and c[0, 0] is
    taken from the left branch.
    """
    c = np.zeros((len(g), len(h)), dtype=complex)
    c[:, 0] = g
    c[0, 1:] = -h[1:]
    return c


def leading_coefficient(residues_i, residues_j) -> complex:
    """a_ij = KAPPA * sum over nodes of Res_q(omega_i) conj(Res_q(omega_j)).

    Residues are per node (one branch each, consistently chosen; the
    product is invariant under the simultaneous sign flip of a node).
    """
    ri = np.asarray(residues_i, dtype=complex)
    rj = np.asarray(residues_j, dtype=complex)
    return KAPPA * complex((ri * np.conj(rj)).sum())


def annulus_closed_form(t, ci, cj):
    # alpha_i conj(alpha_j) has one exponential per angular frequency
    # k = m - n, so the integral is a finite sum in closed form
    def freq_coeffs(c):
        d = {}
        M, N = c.shape
        for m in range(M):
            for n in range(N):
                if c[m, n] != 0:
                    d[m - n] = d.get(m - n, 0) + c[m, n] * t ** n
        return d

    Si, Sj = freq_coeffs(np.asarray(ci, complex)), freq_coeffs(np.asarray(cj, complex))
    L = math.log(1.0 / abs(t))
    total = 0.0 + 0.0j
    for k in set(Si) | set(Sj):
        si, sj = Si.get(k, 0.0), Sj.get(k, 0.0)
        if si == 0 or sj == 0:
            continue
        radial = L if k == 0 else (1.0 - abs(t) ** (2 * k)) / (2 * k)
        total += si * np.conj(sj) * radial
    return 4.0 * math.pi * total


class TestRationalForm:
    def test_residue_at_infinity_balances(self):
        f = RationalForm(poles=((0j, 2.0 + 1j), (1.0 + 0j, -0.5 + 0j)))
        assert f.residue_at_infinity() == -(2.0 + 1j - 0.5)

    def test_taylor_at_zero_matches_evaluation(self):
        f = RationalForm(poles=((0j, 1.0 + 0j), (2.0 + 1j, -1.0 + 0j)))
        c = f.taylor_alpha_at_zero(20)
        x = 0.1 + 0.05j
        series = sum(c[m] * x ** m for m in range(21))
        assert series == pytest.approx(x * complex(f.eval(np.array([x]))[0]), rel=1e-12)

    def test_taylor_at_infinity_matches_evaluation(self):
        f = RationalForm(poles=((1.5j, 1.0 + 0j), (-1.5j, -1.0 + 0j)))
        c = f.taylor_alpha_at_infinity(40)
        x = 0.1 - 0.2j  # local coordinate 1/z
        series = sum(c[m] * x ** m for m in range(41))
        direct = -complex(f.eval(np.array([1.0 / x]))[0]) / x
        assert series == pytest.approx(direct, rel=1e-10)

    def test_validate_residues_rejects_mismatched_node(self):
        fam = two_sphere_family()
        bad = PlumbingDifferential(
            forms={0: RationalForm(poles=((0j, 1.0 + 0j),)),
                   1: RationalForm(poles=((0j, 1.0 + 0j),))}
        )
        with pytest.raises(ValueError):
            validate_residues(fam, bad)

    def test_validate_residues_rejects_a_stray_pole(self):
        # residues sum to zero on each component and are opposite at the
        # node, but z = 2 is neither a node marked point nor a puncture
        fam = two_sphere_family()
        forms = {0: RationalForm(poles=((0j, 1.0 + 0j), (2.0 + 0j, -1.0 + 0j))),
                 1: RationalForm(poles=((0j, -1.0 + 0j), (2.0 + 0j, 1.0 + 0j)))}
        with pytest.raises(ValueError, match=r"component 0: poles at \[\(2\+0j\)\]"):
            validate_residues(fam, PlumbingDifferential(forms=forms))
        validate_residues(fam, PlumbingDifferential(
            forms=forms, punctures=((0, 2.0 + 0j), (1, 2.0 + 0j))))

    def test_validate_residues_rejects_a_stray_residue_at_infinity(self):
        # the implicit pole at infinity, which no node of the two-sphere has
        fam = two_sphere_family()
        forms = {0: RationalForm(poles=((0j, 1.0 + 0j),)),
                 1: RationalForm(poles=((0j, -1.0 + 0j),))}
        with pytest.raises(ValueError, match=r"component 0: poles at \[\(inf\+0j\)\]"):
            validate_residues(fam, PlumbingDifferential(forms=forms))
        validate_residues(fam, PlumbingDifferential(
            forms=forms, punctures=((0, INF_POINT), (1, INF_POINT))))

    def test_bivariate_taylor_layout(self):
        g = np.array([1.0, 2.0, 3.0], dtype=complex)
        h = np.array([-1.0, 5.0], dtype=complex)
        c = bivariate_taylor(g, h)
        assert c[0, 0] == 1.0  # left constant term wins
        assert list(c[:, 0]) == [1.0, 2.0, 3.0]
        assert c[0, 1] == -5.0  # right branch enters with dy/y = -dx/x


class TestAnnulusLogIntegral:
    def test_constant_data_gives_kappa_log(self):
        one = np.array([[1.0 + 0j]])
        for t in (1e-2, 1e-5, 1e-9):
            v = annulus_log_integral(t, one, one)
            assert v.real == pytest.approx(4.0 * math.pi * math.log(1.0 / t), rel=1e-9)
            assert abs(v.imag) < 1e-9

    def test_kappa_constants_recorded(self):
        assert KAPPA == 4.0 * math.pi

    def test_linear_data_stays_bounded(self):
        cx = np.zeros((2, 1), complex)
        cx[1, 0] = 1.0
        v4 = annulus_log_integral(1e-4, cx, cx)
        v8 = annulus_log_integral(1e-8, cx, cx)
        assert v4.real == pytest.approx(2.0 * math.pi, rel=1e-6)
        assert abs(v8 - v4) < 1e-6  # no log term

    def test_regression_residual_below_one_percent(self):
        ci = bivariate_taylor(np.array([1.0, 0.3], complex), np.array([-1.0, 0.2], complex))
        ts = np.array([1e-3, 1e-4, 1e-5])
        vals = np.array([annulus_log_integral(t, ci, ci).real for t in ts])
        consts = vals - KAPPA * np.log(1.0 / ts)
        assert (consts.max() - consts.min()) / abs(consts.mean()) < 0.01

    def test_rejects_bad_t(self):
        one = np.array([[1.0 + 0j]])
        for t in (0.0, 1.5):
            with pytest.raises(ValueError):
                annulus_log_integral(t, one, one)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                       allow_infinity=False), min_size=8, max_size=8))
    def test_matches_closed_form(self, flat):
        ci = np.array(flat[:4], complex).reshape(2, 2)
        cj = np.array(flat[4:], complex).reshape(2, 2)
        if abs(ci).max() < 1e-3 or abs(cj).max() < 1e-3:
            return
        t = 1e-3
        v = annulus_log_integral(t, ci, cj)
        oracle = annulus_closed_form(t, ci, cj)
        # quadrature stops relative to the L1 mass of the integrand
        tol = 1e-5 * (1.0 + abs(ci).sum() * abs(cj).sum() * math.log(1.0 / t))
        assert abs(v - oracle) <= tol
        # Hermitian symmetry of the pairing
        assert annulus_log_integral(t, cj, ci) == pytest.approx(np.conj(v), abs=tol)


class TestLeadingCoefficient:
    def test_zero_residues_vanish(self):
        assert leading_coefficient(np.zeros(3), np.ones(3)) == 0

    def test_single_node_unit_residues(self):
        assert leading_coefficient(np.array([1.0]), np.array([1.0])) == KAPPA

    def test_sesquilinear_scaling(self):
        r = np.array([1.0 + 1j, -0.5 + 0j])
        lam = 2.0 - 1j
        assert leading_coefficient(lam * r, lam * r) == pytest.approx(
            abs(lam) ** 2 * leading_coefficient(r, r)
        )


def legendre_gram_2d_quadrature(t):
    """(i/2) int omega ^ conj(omega) = 2 int_C dA / |x(x-1)(x-t)| by
    patch-decomposed polar quadrature (patches around the three roots,
    smooth remainder, 1/x chart past |x| = 2)."""
    roots = [0.0, t, 1.0]
    nodes, weights = np.polynomial.legendre.leggauss(24)

    def smoothstep(x):
        x = np.clip(x, 0.0, 1.0)
        return x ** 3 * (10 - x * (15 - 6 * x))

    def chi(r):
        return smoothstep((0.2 - r) / 0.1)

    def f(x):
        return 2.0 / np.abs(x * (x - 1.0) * (x - t))

    def polar(fn, center, r0, r1, npan, ntheta):
        th = 2 * math.pi * np.arange(ntheta) / ntheta
        edges = np.linspace(r0, r1, npan + 1)
        tot = 0.0
        for a, b in zip(edges, edges[1:]):
            r = 0.5 * (a + b) + 0.5 * (b - a) * nodes
            w = 0.5 * (b - a) * weights
            z = center + r[:, None] * np.exp(1j * th[None, :])
            tot += ((fn(z).sum(axis=1) * (2 * math.pi / ntheta)) * (w * r)).sum()
        return tot

    def mid(z):
        v = f(z)
        for a in roots:
            v = v * (1 - chi(np.abs(z - a)))
        return v

    def far(w):  # x = 1/w past |x| = 2
        return 2.0 / (np.abs(w) * np.abs(1 - w) * np.abs(1 - t * w))

    total = sum(
        polar(lambda z, a=a: f(z) * chi(np.abs(z - a)), a, 0.0, 0.2, 20, 128)
        for a in roots
    )
    total += polar(mid, 0.0, 0.0, 2.0, 40, 128)
    total += polar(far, 0.0, 0.0, 0.5, 20, 128)
    return total


class TestEllipticPeriodGram:
    def test_matches_complete_elliptic_integrals(self):
        for t in (0.1, 0.3, 1e-4):
            expect = 16.0 * ellipk(t) * ellipk(1.0 - t)
            assert elliptic_period_gram(t) == pytest.approx(expect, rel=1e-10)

    def test_small_t_q_expansion(self):
        # lambda ~ 16 q gives Im tau = log(16/|t|)/pi; |omega_1|^2 -> (2 pi)^2 / pi
        t = 1e-9
        expect = 4.0 * math.pi * math.log(16.0 / t)
        assert elliptic_period_gram(t) == pytest.approx(expect, rel=1e-6)

    def test_half_matches_direct_2d_quadrature(self):
        direct = legendre_gram_2d_quadrature(0.5 - 1e-9)
        # 0.5 is outside the open precondition range; evaluate the AGM at
        # the same nudged point
        assert elliptic_period_gram(0.5 - 1e-9) == pytest.approx(direct, rel=1e-4)

    def test_conjugate_t_same_gram(self):
        t = 0.2 + 0.1j
        assert elliptic_period_gram(np.conj(t)) == pytest.approx(
            elliptic_period_gram(t), rel=1e-12
        )

    def test_rejects_out_of_range(self):
        for t in (0.0, 0.7):
            with pytest.raises(ValueError):
                elliptic_period_gram(t)


class TestCanonicalBasis:
    def test_two_sphere_counts(self):
        tw, utw = canonical_basis(two_sphere_family())
        assert len(tw) == 1 and len(utw) == 0
        # residue theorem forces node residues +-1
        fam = two_sphere_family()
        r = node_residue(fam, tw[0], fam.nodes[0], 0)
        assert abs(abs(r) - 1.0) < 1e-14

    def test_three_cycle_counts_and_residues(self):
        fam = three_cycle_family()
        tw, utw = canonical_basis(fam)
        assert len(tw) == 3 and len(utw) == 1  # g + N - 1 = 3, g = 1
        for d in tw:
            validate_residues(fam, d)
        # cycle form has |residue| 1 at every node
        res = [node_residue(fam, tw[0], n, 0) for n in fam.nodes]
        assert all(abs(abs(r) - 1.0) < 1e-14 for r in res)

    def test_residue_free_has_no_node_residues(self):
        for fam in (two_sphere_family(), three_cycle_family()):
            rf = residue_free_differential(fam)
            for node in fam.nodes:
                assert node_residue(fam, rf, node, 0) == 0

    def test_node_taylor_constant_term_is_residue(self):
        fam = three_cycle_family()
        tw, _ = canonical_basis(fam)
        for d in tw:
            for node in fam.nodes:
                c = node_taylor(fam, d, node, 0, degree=6)
                assert c[0] == pytest.approx(node_residue(fam, d, node, 0))


class TestPolarQuad:
    @staticmethod
    def gaussians(widths):
        # exp(-|z|^2 / w) over the disk |z| <= 1, one entry per width; a
        # narrow Gaussian needs more doublings than a wide one
        widths = np.asarray(widths, dtype=float)[:, None, None]
        return lambda z: np.exp(-np.abs(z) ** 2 / widths) * (1.0 + 0.5j)

    def test_entries_equal_scalar_calls(self):
        widths = [1.0, 0.3, 1e-3]
        vec = _polar_quad(self.gaussians(widths), 0.0 + 0j, [0.0, 0.5, 1.0], 1e-8)
        assert vec.shape == (3,)
        levels = []
        for k, w in enumerate(widths):
            calls = []

            def one(z, w=w):
                calls.append(z.shape[1])
                return self.gaussians([w])(z)[0]

            scalar = _polar_quad(one, 0.0 + 0j, [0.0, 0.5, 1.0], 1e-8)
            assert isinstance(scalar, complex)
            assert vec[k] == scalar
            levels.append(len(set(calls)))
        # the narrow entry converges at a later level than its neighbour,
        # and the batch keeps the earlier entries' values
        assert levels[2] > levels[1]

    def test_chunked_radii_match_one_array(self, monkeypatch):
        import pinchlab.periods as pm

        fn = self.gaussians([0.2, 0.05])
        whole = _polar_quad(fn, 0.3 + 0j, [0.0, 0.4], 1e-9)
        monkeypatch.setattr(pm, "_CHUNK_NODES", 100)
        seen = []

        def counted(z):
            seen.append(z.shape)
            return fn(z)

        chunked = _polar_quad(counted, 0.3 + 0j, [0.0, 0.4], 1e-9)
        # at most 100 nodes per call, or a single row of more angles
        assert all(rows * angles <= max(100, angles) for rows, angles in seen)
        assert len(seen) > 4 * len({angles for _, angles in seen})
        assert np.array_equal(whole, chunked)

    def test_failure_names_center_breaks_levels_and_worst_entry(self):
        def step(z):
            # discontinuous across |z| = 0.3, off every panel break, and
            # a smooth entry beside it
            jump = (np.abs(z - 0.1) < 0.3).astype(float)
            return np.stack([np.ones(z.shape), jump])

        with pytest.raises(QuadratureNotConverged) as err:
            _polar_quad(step, 0.1 + 0j, [0.0, 0.5], 1e-12, max_iter=2)
        msg = str(err.value)
        assert "polar quadrature around 0.1+0j on radial breaks [0, 0.5]" in msg
        assert "did not stabilize in 2 levels (n_theta 32 to 64)" in msg
        found = re.search(r"change of entry \(1,\) was (\S+) against rel_tol\*L1 = (\S+)$", msg)
        assert found and float(found[1]) > float(found[2]) > 0


    def test_failure_names_the_unconverged_piece(self):
        # the jump at |z - 0.1| = 0.3 lies in the piece [0.2, 0.5]; the
        # smooth piece [0, 0.2] freezes, and the bound quoted is the open
        # piece's own: rel_tol times its L1 mass, the annulus 0.2 < r < 0.3
        def step(z):
            return (np.abs(z - 0.1) < 0.3).astype(float)

        with pytest.raises(QuadratureNotConverged) as err:
            _polar_quad(step, 0.1 + 0j, [0.0, 0.2, 0.5], 1e-12, max_iter=3)
        msg = str(err.value)
        assert "did not stabilize in 3 levels (n_theta 32 to 128)" in msg
        found = re.search(r"on the radial piece \[0\.2, 0\.5\] the last change was "
                          r"(\S+) against rel_tol\*L1 = (\S+)$", msg)
        assert found and float(found[1]) > float(found[2])
        assert float(found[2]) == pytest.approx(1e-12 * 0.05 * math.pi, rel=0.02)


class TestPolarQuadFolds:
    """_polar_quad on one sector of a symmetric integrand against the
    unfolded call over every angle."""

    M = 3

    @classmethod
    def dihedral(cls, z):
        # D_3-symmetric about 0: functions of z^3 with real coefficients
        # times radial ones.  The wide Gaussian freezes at level 1, the
        # narrow one and the angular wave exp(4 z^3) run on.
        zm = z ** cls.M
        return np.stack([np.exp(-np.abs(z) ** 2),
                         np.exp(-np.abs(z) ** 2 / 0.01) * (1.0 + zm),
                         np.exp(4.0 * zm) * np.abs(z) ** 2])

    @staticmethod
    def levels(fn, **kw):
        log = []
        value = _polar_quad(counted(fn, log), 0.3 + 0j, [0.0, 0.5, 1.0], 1e-9,
                            n_theta0=48, **kw)
        return value, sorted({angles for _, angles, _ in log})

    @pytest.mark.parametrize("fold", [{"sectors": 3}, {"mirror": True},
                                      {"sectors": 3, "mirror": True}])
    def test_folded_equals_unfolded(self, fold):
        # symmetric about the centre 0.3
        def fn(z):
            return self.dihedral(z - 0.3)

        unfolded, full = self.levels(fn)
        folded, angles = self.levels(fn, **fold)
        _, l1, _ = composite_polar_quad(fn, 0.3 + 0j, [0.0, 0.5, 1.0], 1e-9, n_theta0=48)
        assert folded.shape == (3,)
        assert np.all(np.abs(folded - unfolded) <= 1e-9 * l1)
        # the same levels, on one sector (and its closing angle with mirror)
        mirror = fold.get("mirror", False)
        per = fold.get("sectors", 1) * (2 if mirror else 1)
        assert angles == [n // per + mirror for n in full]
        assert len(full) > 2

    def test_rotation_fold_of_a_complex_integrand(self):
        # invariant under rotation by 2 pi/3 but not conjugation-symmetric
        def fn(z):
            return (1.0 + 2.0j) * self.dihedral(z)

        folded = _polar_quad(fn, 0j, [0.0, 1.0], 1e-9, n_theta0=48, sectors=3)
        unfolded = _polar_quad(fn, 0j, [0.0, 1.0], 1e-9, n_theta0=48)
        _, l1, _ = composite_polar_quad(fn, 0j, [0.0, 1.0], 1e-9, n_theta0=48)
        assert np.all(np.abs(folded - unfolded) <= 1e-9 * l1)
        assert np.all(folded.imag != 0.0)  # no real part was taken

    @pytest.mark.parametrize("n_theta0, fold", [(32, {"sectors": 3}),
                                                (27, {"sectors": 3, "mirror": True}),
                                                (33, {"mirror": True})])
    def test_angles_not_a_multiple_of_the_fold_rejected(self, n_theta0, fold):
        def fn(z):
            raise AssertionError("evaluated")

        with pytest.raises(ValueError, match=f"n_theta0 = {n_theta0} is not a multiple"):
            _polar_quad(fn, 0j, [0.0, 1.0], 1e-6, n_theta0=n_theta0, **fold)

    def test_folded_chunks_hold_the_bound(self, monkeypatch):
        import pinchlab.periods as pm

        fold = {"n_theta0": 48, "sectors": 3, "mirror": True}
        whole = _polar_quad(self.dihedral, 0j, [0.0, 0.5, 1.0], 1e-9, **fold)
        monkeypatch.setattr(pm, "_CHUNK_NODES", 100)
        seen = []

        def counted_shapes(z):
            seen.append(z.shape)
            return self.dihedral(z)

        chunked = _polar_quad(counted_shapes, 0j, [0.0, 0.5, 1.0], 1e-9, **fold)
        assert all(rows * angles <= max(100, angles) for rows, angles in seen)
        assert len(seen) > 4 * len({angles for _, angles in seen})
        assert np.array_equal(whole, chunked)


def composite_polar_quad(fn, center, breaks, rel_tol, n_theta0=32, max_iter=7):
    """Oracle for _polar_quad: the doubling tensor quadrature that freezes
    each entry on its sum over all radial pieces, so every piece runs to
    the level the hardest piece needs.  Returns the value, the L1 mass at
    that level and the number of nodes evaluated."""
    prev, result, done, nodes = np.inf, 0j, np.False_, 0
    n_theta, split = n_theta0, 1
    for _ in range(max_iter):
        phase = np.exp(2j * math.pi * np.arange(n_theta) / n_theta)
        total, total_abs = 0j, 0.0
        for a, b in zip(breaks, breaks[1:]):
            r, wr = _gl_panels(a, b, 2 * split)
            v = fn(center + r[:, None] * phase)
            nodes += r.size * n_theta
            w = (2.0 * math.pi / n_theta) * wr * r
            total = total + (v.sum(axis=-1) * w).sum(axis=-1)
            total_abs = total_abs + (np.abs(v).sum(axis=-1) * w).sum(axis=-1)
        ok = np.abs(total - prev) <= rel_tol * np.maximum(total_abs, 1e-12)
        result = np.where(ok & ~done, total, result)
        done = done | ok
        if done.all():
            return result, total_abs, nodes
        prev = total
        n_theta, split = 2 * n_theta, 2 * split
    raise AssertionError("composite quadrature did not stabilize")


def counted(fn, log):
    """fn, appending (smallest radius from 0, angles, nodes) of each call."""
    def wrapped(z):
        log.append((float(np.abs(z).min()), z.shape[-1], z.size))
        return fn(z)
    return wrapped


def recorded_quads(monkeypatch, module):
    """Record the arguments of every _polar_quad call made via module."""
    calls = []

    def record(fn, center, breaks, rel_tol, **kw):
        calls.append((fn, center, breaks, rel_tol, kw))
        return _polar_quad(fn, center, breaks, rel_tol, **kw)

    monkeypatch.setattr(module, "_polar_quad", record)
    return calls


class TestFrozenPieces:
    """_polar_quad against the composite-level oracle: each radial piece
    stops at its own level, within rel_tol of the integrand's L1 mass."""

    @staticmethod
    def agree(fn, center, breaks, rel_tol, sectors=1, mirror=False, **kw):
        log = []
        got = _polar_quad(counted(fn, log), center, breaks, rel_tol,
                          sectors=sectors, mirror=mirror, **kw)
        # the oracle is unfolded: it evaluates every angle
        want, l1, oracle_nodes = composite_polar_quad(fn, center, breaks, rel_tol, **kw)
        assert np.all(np.abs(got - want) <= rel_tol * l1)
        return sum(n for *_, n in log), oracle_nodes

    def test_fermat_quartic_chart1(self, monkeypatch):
        from pinchlab import curvature as cv

        calls = recorded_quads(monkeypatch, cv)
        cv.fermat_gauss_bonnet(4, 0.1)
        fn, center, breaks, rel_tol, kw = calls[0]  # chart 1: five pieces
        assert len(breaks) == 6
        assert kw == {"n_theta0": 64, "sectors": 4, "mirror": True}
        # only the branch-bump annulus [rb - R1, rb + R1] needs level 3;
        # the D_4 fold evaluates 64/8 + 1 of 64 angles at level 1, and so
        # 27 744 of the unfolded 215 040 nodes
        assert self.agree(fn, center, breaks, rel_tol, **kw) == (27_744, 870_400)

    @pytest.mark.parametrize("cid", [0, 1, 2])
    def test_three_cycle_twisted_remainder(self, monkeypatch, cid):
        import pinchlab.periods as pm

        fam = three_cycle_family()
        tw, _ = canonical_basis(fam)
        calls = recorded_quads(monkeypatch, pm)
        component_pairing(fam, tw, cid)
        # the plain remainder, the puncture patch, then the remainder of
        # the pairs with that puncture: the heavy one
        assert [c[2] for c in calls] == [[RHO, 1.0, 1.0 / RHO], [0.0, RHO_0, RHO],
                                         [RHO, 1.0, 1.0 / RHO]]
        fn, center, breaks, rel_tol, kw = calls[-1]
        # every pole, residue, puncture and node point is real: the mirror
        # fold evaluates N/2 + 1 of N angles, 219 584 of the unfolded
        # 436 224 nodes
        assert all(c[4] == {"mirror": True} for c in calls)
        # [1, 2] passes at level 3, [0.5, 1] needs level 4
        assert self.agree(fn, center, breaks, rel_tol, **kw) == (219_584, 698_368)

    @staticmethod
    def smooth_and_oscillatory(z):
        # radial and smooth on |z| < 0.5, a plane wave exp(80i Re z) beyond
        return np.where(np.abs(z) < 0.5, np.exp(-np.abs(z) ** 2), np.exp(80j * z.real))

    def test_two_piece_integrand(self):
        self.agree(self.smooth_and_oscillatory, 0j, [0.0, 0.5, 1.0], 1e-9)

    def test_frozen_piece_is_not_evaluated_again(self):
        log = []
        _polar_quad(counted(self.smooth_and_oscillatory, log), 0j, [0.0, 0.5, 1.0], 1e-9)
        inner = [angles for r_min, angles, _ in log if r_min < 0.5]
        outer = [angles for r_min, angles, _ in log if r_min >= 0.5]
        # the smooth piece freezes at level 1; the outer one runs on
        assert inner == [32, 64]
        assert max(outer) >= 4 * max(inner)

    def test_zero_piece_freezes_at_level_1(self):
        log = []

        def fn(z):
            r = np.abs(z)
            return np.stack([np.where(r < 0.5, 0.0, np.exp(80j * z.real)),
                             np.where(r < 0.5, 0.0, np.exp(40j * z.imag))])

        got = _polar_quad(counted(fn, log), 0j, [0.0, 0.5, 1.0], 1e-9)
        assert [angles for r_min, angles, _ in log if r_min < 0.5] == [32, 64]
        assert max(angles for *_, angles, _ in log) > 64
        want, l1, _ = composite_polar_quad(fn, 0j, [0.0, 0.5, 1.0], 1e-9)
        assert np.all(np.abs(got - want) <= 1e-9 * l1)


def memo_case(name):
    """(family, differentials) of the entry-sharing tests."""
    if name == "two-sphere residue-free":
        fam = two_sphere_family()
        return fam, canonical_basis(fam)[0] + [residue_free_differential(fam)]
    fam = three_cycle_family()
    if name in ("three-cycle twisted", "three-cycle untwisted"):
        return fam, canonical_basis(fam)[name.endswith("untwisted")]
    if name == "three-cycle punctured cycle":
        # the cycle's forms twice, the second time with a puncture on
        # component 0: the same two forms under two puncture sets
        cyc = canonical_basis(fam)[1][0]
        return fam, [cyc, PlumbingDifferential(forms=cyc.forms, punctures=((0, -1 + 0j),))]
    # "three-cycle fold": C has a complex residue.  Component 0 computes
    # (A, C) in the puncture group {1, -1}; on component 1 that group is
    # (A, B) and (A, C), so only the all-real (A, B) is new there, and its
    # fold must still be the whole group's (none)
    f_a = RationalForm(poles=((0j, 1 + 0j), (-1 + 0j, -1 + 0j)))
    f_b = RationalForm(poles=((0j, 1 + 0j), (1 + 0j, -1 + 0j)))
    f_c = RationalForm(poles=((0j, 1j), (1 + 0j, -1j)))
    a = PlumbingDifferential(forms={0: f_a, 1: f_a}, punctures=((0, -1 + 0j), (1, -1 + 0j)))
    b = PlumbingDifferential(forms={1: f_b}, punctures=((1, 1 + 0j),))
    c = PlumbingDifferential(forms={0: f_c, 1: f_c}, punctures=((0, 1 + 0j), (1, 1 + 0j)))
    return fam, [a, b, c]


class TestComponentPairing:
    def test_radial_oracle_for_cap_form(self):
        # f = dz/z on a one-node component with puncture at infinity: the
        # weighted density is radial, so a 1D quadrature is exact
        fam = two_sphere_family()
        tw, _ = canonical_basis(fam)
        block = component_pairing(fam, tw[:1], 0)
        assert block.shape == (1, 1)
        from pinchlab.periods import _weight_profile

        def radial(rho):  # rho = |1/z|, density 2/|z|^2 * W(rho)
            return float(_weight_profile(np.array([rho]))[0]) / rho

        oracle = 4.0 * math.pi * quad(radial, 1e-12, 2.0, limit=400)[0]
        assert block[0, 0].real == pytest.approx(oracle, rel=1e-5)
        assert block[0, 0].imag == 0.0  # the diagonal keeps the real part

    def test_hermitian(self):
        fam = three_cycle_family()
        tw, _ = canonical_basis(fam)
        for comp in fam.components:
            block = component_pairing(fam, tw, comp.id)
            assert block.shape == (3, 3)
            assert np.array_equal(block, block.conj().T)
        # the reversed order gives the transposed block, to quadrature accuracy
        a = component_pairing(fam, tw[:2], 0)
        b = component_pairing(fam, tw[1::-1], 0)
        assert a[0, 1] == pytest.approx(b[1, 0], abs=1e-4)

    @pytest.mark.parametrize("name", ["three-cycle twisted", "two-sphere residue-free",
                                      "three-cycle punctured cycle"])
    def test_entries_equal_pair_blocks(self, name):
        # batching the pairs of a puncture set mixes no entries: each entry
        # equals the off-diagonal of the block of its own pair
        fam, diffs = memo_case(name)
        for comp in fam.components:
            block = component_pairing(fam, diffs, comp.id)
            for i in range(len(diffs)):
                for j in range(i, len(diffs)):
                    pair = component_pairing(fam, [diffs[i], diffs[j]], comp.id)
                    assert block[i, j] == pair[0, 1 if j > i else 0]

    def test_three_cycle_twisted_gram_quadratures(self, monkeypatch):
        import pinchlab.periods as pm

        calls = recorded_quads(monkeypatch, pm)
        plumbing_twisted_gram(three_cycle_family(), np.logspace(-3, -8, 4))
        # (breaks, entries) per quadrature: on component 0 the plain
        # remainder of (cycle, cycle), then the puncture patch and the
        # heavy remainder of its 2 distinct integrands (twisted-1 and -2
        # agree there); on component 1 the 3 new ones with its puncture.
        # Component 2 repeats component 1's integrands and runs none.
        probe = np.array([[0.7 + 0j]])
        got = [(breaks, fn(probe).shape[0]) for fn, _, breaks, *_ in calls]
        rem, patch = [RHO, 1.0, 1.0 / RHO], [0.0, RHO_0, RHO]
        assert got == [(rem, 1), (patch, 2), (rem, 2), (patch, 3), (rem, 3)]

    @pytest.mark.parametrize("name", ["three-cycle twisted", "three-cycle untwisted",
                                      "two-sphere residue-free", "three-cycle fold"])
    def test_gram_equals_unshared_blocks(self, monkeypatch, name):
        # sharing entries between components changes no bit of the Gram;
        # the two-sphere basis mixes folded and unfolded puncture groups
        import pinchlab.periods as pm

        fam, diffs = memo_case(name)
        ts = np.logspace(-3, -8, 4)
        shared = np.stack(plumbing_gram(fam, ts, diffs).matrices)
        memos = []

        def alone(family, diffs, cid, memo=None):
            memos.append(memo)
            return component_pairing(family, diffs, cid)

        monkeypatch.setattr(pm, "component_pairing", alone)
        unshared = np.stack(plumbing_gram(fam, ts, diffs).matrices)
        # one call per component, all with the Gram's one memo
        assert len(memos) == len(fam.components)
        assert all(m is memos[0] for m in memos) and memos[0] == {}
        assert shared.tobytes() == unshared.tobytes()

    def test_a_non_real_pole_takes_the_unfolded_path(self, monkeypatch):
        # on component 0 of two-sphere (its node at 0), the form with poles
        # at 0 and 1.2i is the one with poles at 0 and 1.2 turned by a
        # quarter, which moves neither the node, the weight nor the bumps
        import pinchlab.periods as pm

        fam = two_sphere_family()

        def pairing(p):
            form = RationalForm(poles=((0j, 1.0 + 0j), (p, -1.0 + 0j)))
            diff = PlumbingDifferential(forms={0: form}, punctures=((0, p),))
            return component_pairing(fam, [diff], 0)[0, 0]

        calls = recorded_quads(monkeypatch, pm)
        real, turned = pairing(1.2 + 0j), pairing(1.2j)
        assert [c[4] for c in calls] == [{"mirror": True}] * 2 + [{"mirror": False}] * 2
        assert turned == pytest.approx(real, rel=1e-6)
        # the unfolded path is the quadrature without a fold, value for value
        monkeypatch.setattr(pm, "_polar_quad", lambda *args, mirror: _polar_quad(*args))
        assert pairing(1.2j) == turned

    def test_zero_when_form_absent(self):
        fam = three_cycle_family()
        tw, _ = canonical_basis(fam)
        # twisted-1 routes through components 0 and 1 only
        assert component_pairing(fam, tw[1:2], 2)[0, 0] == 0
        block = component_pairing(fam, tw, 2)
        assert not block[1].any() and not block[:, 1].any()
        assert block[0, 0] != 0 and block[2, 2] != 0


@pytest.fixture(scope="module")
def two_sphere_gram():
    ts = np.logspace(-3, -8, 8)
    return ts, plumbing_twisted_gram(two_sphere_family(), ts)


@pytest.fixture(scope="module")
def three_cycle_grams():
    ts = np.logspace(-4, -16, 8)
    fam = three_cycle_family()
    return ts, plumbing_twisted_gram(fam, ts), plumbing_untwisted_gram(fam, ts)


class TestPlumbingGram:
    def test_two_sphere_log_growth(self, two_sphere_gram):
        ts, g = two_sphere_gram
        fit = fit_log_asymptotics(g)
        assert fit.a[0, 0].real == pytest.approx(KAPPA, rel=1e-6)
        assert fit.residual < 1e-6

    def test_positive_definite_everywhere(self, three_cycle_grams):
        _, g, gu = three_cycle_grams
        assert g.check_positive_definite() > 0
        assert gu.check_positive_definite() > 0

    def test_hermitian_entries(self, three_cycle_grams):
        _, g, _ = three_cycle_grams
        for m in g.matrices:
            assert abs(m - m.conj().T).max() < 1e-8

    def test_leading_coefficients_match_residues(self, three_cycle_grams):
        ts, g, _ = three_cycle_grams
        fam = three_cycle_family()
        tw, _ = canonical_basis(fam)
        fit = fit_log_asymptotics(g)
        res = np.array(
            [[node_residue(fam, d, n, 0) for n in fam.nodes] for d in tw]
        )
        pred = np.array(
            [[leading_coefficient(res[i], res[j]) for j in range(3)] for i in range(3)]
        )
        assert abs(fit.a - pred).max() < 1e-6 * abs(pred).max()

    def test_untwisted_block_log_growth(self, three_cycle_grams):
        ts, _, gu = three_cycle_grams
        vals = np.array([m[0, 0].real for m in gu.matrices])
        slope = np.polyfit(np.log(1.0 / ts), vals, 1)[0]
        assert slope == pytest.approx(3 * KAPPA, rel=1e-6)  # three unit-residue nodes

    def test_two_sphere_untwisted_is_empty(self):
        ts = np.array([1e-3, 1e-4])
        gu = plumbing_untwisted_gram(two_sphere_family(), ts)
        assert np.allclose(gu.determinants(), 1.0)


def quadrature_gram(fam, ts, diffs, rel_tol=1e-10, degree=24):
    """plumbing_gram with every annulus pairing from the quadrature oracle;
    the component interiors as plumbing_gram computes them."""
    n = len(diffs)
    base = sum(component_pairing(fam, diffs, c.id) for c in fam.components)
    scale = RHO ** np.arange(degree + 1)
    taylors = [[bivariate_taylor(node_taylor(fam, d, node, 0, degree) * scale,
                                 node_taylor(fam, d, node, 1, degree) * scale)
                for node in fam.nodes] for d in diffs]
    mats = []
    for t in ts:
        G = base.copy()
        for q in range(len(fam.nodes)):
            for i in range(n):
                for j in range(i, n):
                    v = annulus_log_integral(t / RHO ** 2, taylors[i][q], taylors[j][q],
                                             rel_tol)
                    G[i, j] += v
                    if j > i:
                        G[j, i] += np.conj(v)
        mats.append(0.5 * (G + G.conj().T))
    return np.array(mats)


class TestClosedFormAnnuli:
    @pytest.mark.parametrize("name", ["three-cycle twisted", "two-sphere residue-free"])
    def test_matches_quadrature_oracle(self, name):
        if name == "three-cycle twisted":
            fam = three_cycle_family()
            diffs = canonical_basis(fam)[0]
        else:
            fam = two_sphere_family()
            diffs = canonical_basis(fam)[0] + [residue_free_differential(fam)]
        ts = np.array([1e-3, 1e-9, 1e-24])
        got = np.array(plumbing_gram(fam, ts, diffs).matrices)
        expect = quadrature_gram(fam, ts, diffs)
        # the residue-free pair's cross entries vanish (|G| ~ 1e-15), so
        # the tolerance is absolute below |G| = 1
        assert (np.abs(got - expect) <= 1e-12 * np.maximum(np.abs(expect), 1.0)).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_deep_and_edge_grids_run_clean(self):
        # |t| = 1e-120 is the verify suite's deepest point: |t|^-2m would
        # overflow there; just under RHO^2 the annuli are nearly empty
        fam = three_cycle_family()
        tw, _ = canonical_basis(fam)
        deep = np.logspace(-20.0, -120.0, 8)
        fit = fit_log_asymptotics(plumbing_twisted_gram(fam, deep))
        res = np.array([[node_residue(fam, d, n, 0) for n in fam.nodes] for d in tw])
        pred = KAPPA * res @ res.conj().T
        assert abs(fit.a - pred).max() < 1e-9 * abs(pred).max()
        edge = plumbing_twisted_gram(two_sphere_family(), np.array([RHO ** 2 * (1.0 - 1e-12)]))
        assert np.isfinite(edge.matrices[0]).all()
        assert abs(edge.matrices[0] - edge.matrices[0].conj().T).max() == 0.0

    @pytest.mark.parametrize("t", [0.0, RHO ** 2, 0.3, -RHO ** 2])
    def test_rejects_t_outside_plumbing_range(self, t):
        fam = two_sphere_family()
        with pytest.raises(ValueError, match="outside the plumbing range"):
            plumbing_twisted_gram(fam, np.array([1e-3, t]))


class TestProp51:
    def test_residue_free_rows_have_tiny_leading_coefficient(self):
        fam = two_sphere_family()
        tw, _ = canonical_basis(fam)
        rf = residue_free_differential(fam)
        ts = np.logspace(-3, -8, 8)
        g = plumbing_gram(fam, ts, tw + [rf])
        fit = fit_log_asymptotics(g)
        amax = abs(fit.a).max()
        assert abs(fit.a[1]).max() < 1e-3 * amax
        assert abs(fit.a[:, 1]).max() < 1e-3 * amax
        # A block (residue-carrying) and B block both positive-definite
        assert np.linalg.eigvalsh(fit.a[:1, :1]).min() > 0
        assert np.linalg.eigvalsh(fit.b).min() > 0
        assert g.check_positive_definite() > 0


class TestDetGrowthFit:
    def test_synthetic_cubic_model(self):
        ts = np.logspace(-2, -10, 9)
        dets = np.log(1.0 / ts) ** 3
        slope, nearest, dev = det_growth_fit(ts, dets)
        assert slope == pytest.approx(3.0, abs=1e-9)
        assert nearest == 3 and dev < 1e-9

    def test_legendre_family_slope_one(self):
        ts = np.logspace(-20, -200, 10)
        dets = np.array([elliptic_period_gram(t) for t in ts])
        slope, nearest, dev = det_growth_fit(ts, dets)
        assert nearest == 1 and abs(slope - 1.0) < 0.05
        # linearity of the Gram itself in log(1/|t|)
        L = np.log(1.0 / ts)
        resid = np.polyfit(L, dets, 1, full=True)[1][0]
        ss = ((dets - dets.mean()) ** 2).sum()
        assert 1.0 - resid / ss > 0.999

    def test_two_sphere_twisted_slope_one(self):
        ts = np.logspace(-10, -150, 9)
        g = plumbing_twisted_gram(two_sphere_family(), ts)
        slope, nearest, _ = det_growth_fit(ts, g.determinants())
        assert nearest == 1 and abs(slope - 1.0) < 0.05

    def test_power_substitution_invariance(self):
        ts = np.logspace(-20, -150, 10)  # t^2 stays above the float underflow
        dets = np.array([elliptic_period_gram(t) for t in ts])
        s1 = det_growth_fit(ts, dets)[0]
        dets_sq = np.array([elliptic_period_gram(t) for t in ts ** 2])
        s2 = det_growth_fit(ts ** 2, dets_sq)[0]
        assert abs(s1 - s2) < 0.05

    def test_grid_too_short(self):
        with pytest.raises(GridTooShort):
            det_growth_fit(np.logspace(-2, -8, 5), np.ones(5))
        with pytest.raises(GridTooShort):
            det_growth_fit(np.logspace(-2, -4, 9), np.ones(9))

    def test_nonpositive_determinant_rejected(self):
        ts = np.logspace(-2, -10, 9)
        dets = np.ones(9)
        dets[3] = -1.0
        with pytest.raises(IllConditionedFit):
            det_growth_fit(ts, dets)


def _spectrum(evs, s):
    evs = np.asarray(evs, dtype=float)
    return Spectrum(
        eigenvalues=evs,
        residual_norms=np.zeros_like(evs),
        dimension=len(evs),
        s=s,
        zero_threshold=1e-12,
    )


def _gram_1x1(ts, values):
    return PeriodGram(
        t_grid=np.asarray(ts, dtype=complex),
        matrices=[np.array([[v + 0j]]) for v in values],
    )


def _identity_rows(monkeypatch, twisted_det):
    """``verify.suite_identity`` on synthetic sweeps (no mesh or solve)
    whose N - 1 small eigenvalues are all 1/log(1/s), paired with 1x1
    Grams: untwisted 1, twisted ``twisted_det(N, log(1/s))``."""
    grid = verify.DEFAULT_GRID
    L = np.log(1.0 / grid)

    def solve_fibers(family, kind, grid, k, **_):
        n = family.N
        return [verify.FiberRecord(
            float(s), _spectrum([0.0] + [1.0 / l] * (n - 1) + list(range(2, 2 + k - n)), s),
            None, 0.0, None, 0.0, k) for s, l in zip(grid, np.log(1.0 / grid))]

    cache = {}
    for name in ("two-sphere", "three-cycle"):
        n = FAMILY_PRESETS[name]().N
        cache[("gram", name, "twisted", tuple(grid))] = _gram_1x1(grid, twisted_det(n, L))
        cache[("gram", name, "untwisted", tuple(grid))] = _gram_1x1(grid, np.ones_like(L))
    monkeypatch.setattr(verify, "_CACHE", cache)
    monkeypatch.setattr(verify, "solve_fibers", solve_fibers)
    return {row.criterion: row.verdict for row in verify.suite_identity()}


class TestKeyIdentity:
    def test_synthetic_exact_inputs_pass(self, monkeypatch):
        # lambda_1 ... lambda_{N-1} = log(1/s)^-(N-1), det ratio log(1/s)^(N-1)
        rows = _identity_rows(monkeypatch, lambda n, L: L ** (n - 1))
        assert len(rows) == 4 and set(rows.values()) == {"PASS"}

    def test_mismatched_exponent_fails(self, monkeypatch):
        # one power of log(1/s) too many: the ratio grows like log(1/s),
        # under 2x over the final half, but with a trend above 10% a decade
        rows = _identity_rows(monkeypatch, lambda n, L: L ** n)
        for name in ("two-sphere", "three-cycle"):
            assert rows[f"{name} identity ratio max/min (final half)"] == "PASS"
            assert rows[f"{name} identity trend per decade"] == "FAIL"

    def test_grid_mismatch_raises(self):
        ts = np.logspace(-2, -10, 9)
        L = np.log(1.0 / ts)
        check_grid(ts, _gram_1x1(ts, L), _gram_1x1(-ts, L))  # |t| is what counts
        for gram in (_gram_1x1(ts * 10.0, L), _gram_1x1(ts[:-1], L[:-1]),
                     PeriodGram(t_grid=ts.astype(complex), matrices=[])):
            with pytest.raises(GridMismatch, match=r"periods.check_grid: Gram of \d+ matrices"):
                check_grid(ts, _gram_1x1(ts, L), gram)
