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
from pinchlab.family import INF_POINT, three_cycle_family, two_sphere_family
from pinchlab.laplace import Spectrum
from pinchlab.periods import (
    KAPPA,
    RHO,
    RHO_0,
    RHO_1,
    PeriodGram,
    PlumbingDifferential,
    RationalForm,
    _polar_quad,
    annulus_log_integral,
    canonical_basis,
    component_pairing,
    det_growth_fit,
    elliptic_period_gram,
    fit_log_asymptotics,
    key_identity_check,
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

    @pytest.mark.parametrize("name", ["three-cycle twisted", "two-sphere residue-free"])
    def test_entries_equal_pair_blocks(self, name):
        # batching the pairs of a puncture set mixes no entries: each entry
        # equals the off-diagonal of the block of its own pair
        if name == "three-cycle twisted":
            fam = three_cycle_family()
            diffs = canonical_basis(fam)[0]
        else:
            fam = two_sphere_family()
            diffs = canonical_basis(fam)[0] + [residue_free_differential(fam)]
        for comp in fam.components:
            block = component_pairing(fam, diffs, comp.id)
            for i in range(len(diffs)):
                for j in range(i, len(diffs)):
                    pair = component_pairing(fam, [diffs[i], diffs[j]], comp.id)
                    assert block[i, j] == pair[0, 1 if j > i else 0]

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
        got = np.array(plumbing_gram(fam, ts, diffs, twisted=True).matrices)
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
        g = plumbing_gram(fam, ts, tw + [rf], twisted=True)
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


def _gram_1x1(ts, values, twisted=True):
    return PeriodGram(
        t_grid=np.asarray(ts, dtype=complex),
        matrices=[np.array([[v + 0j]]) for v in values],
        twisted=twisted,
    )


class TestKeyIdentity:
    def test_synthetic_exact_inputs_pass(self):
        ts = np.logspace(-2, -10, 9)
        L = np.log(1.0 / ts)
        spectra = [_spectrum([0.0, 1.0 / l, 2.0, 3.0], s) for s, l in zip(ts, L)]
        twisted = _gram_1x1(ts, L)
        untwisted = _gram_1x1(ts, np.ones_like(L), twisted=False)
        chk = key_identity_check(spectra, twisted, untwisted, n_small=1)
        assert chk.verdict == "PASS"
        assert np.allclose(chk.ratio, 1.0)

    def test_mismatched_exponent_fails(self):
        ts = np.logspace(-2, -10, 9)
        L = np.log(1.0 / ts)
        spectra = [_spectrum([0.0, 1.0 / l, 2.0, 3.0], s) for s, l in zip(ts, L)]
        twisted = _gram_1x1(ts, L ** 2)
        untwisted = _gram_1x1(ts, np.ones_like(L), twisted=False)
        chk = key_identity_check(spectra, twisted, untwisted, n_small=1)
        assert chk.verdict == "FAIL"

    def test_grid_mismatch_raises(self):
        ts = np.logspace(-2, -10, 9)
        L = np.log(1.0 / ts)
        spectra = [_spectrum([0.0, 1.0 / l, 2.0], s) for s, l in zip(ts, L)]
        twisted = _gram_1x1(ts * 10.0, L)
        untwisted = _gram_1x1(ts, np.ones_like(L), twisted=False)
        with pytest.raises(GridMismatch):
            key_identity_check(spectra, twisted, untwisted, n_small=1)
