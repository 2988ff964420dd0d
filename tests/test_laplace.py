"""Tests for the cotangent FEM pencil, eigensolver, and weighted variant."""
import copy
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchlab import laplace
from pinchlab.cli import SweepPlan
from pinchlab.errors import NoConvergence, NonFiniteEntry
from pinchlab.family import MetricKind, three_cycle_family, two_sphere_family
from pinchlab.laplace import (
    SpectralProblem,
    WeightField,
    _ring_blocks,
    _sym_lu,
    assemble,
    assemble_weighted,
    component_bundle_weight,
    solve_smallest,
)
from pinchlab.mesh import (
    FiberMetric,
    RingLayout,
    TriangleMesh,
    disjoint_union,
    flat_torus_mesh,
    mesh_fiber,
    unit_sphere_mesh,
)
from pinchlab.verify import DEFAULT_GRID, SWEEP_PARAMS, TORSION_GRID


def neutral_weight(mesh):
    """Unit weight with zero curvature density: the oracle that
    ``assemble_weighted`` reproduces ``assemble``."""
    return WeightField(
        weights=np.ones(mesh.F),
        curvature_density=np.zeros(mesh.F),
        chart_areas=component_bundle_weight(mesh).chart_areas,
    )


def sweep_shift(pb):
    """The shift ``solve_smallest`` factors at: -0.01 * 2 pi / sum(M)."""
    return -0.02 * math.pi / float(pb.mass.sum())


@pytest.fixture(scope="module")
def torus_problem():
    return assemble(flat_torus_mesh(24))


@pytest.fixture(scope="module")
def fiber_mesh():
    return mesh_fiber(two_sphere_family(), MetricKind.INDUCED, 1e-4)


class TestAssemble:
    def test_torus_smallest_nonzero_matches_fourier(self, torus_problem):
        # HdR eigenvalue 4*pi^2 on the unit torus; HodgeKodaira reports half
        spec = solve_smallest(torus_problem, 6)
        expect = 2 * math.pi ** 2
        for i in range(1, 5):  # multiplicity 4
            assert spec.eigenvalues[i] == pytest.approx(expect, rel=0.01)
        assert spec.eigenvalues[5] > 1.5 * expect

    def test_sphere_smallest_nonzero_multiplicity_three(self):
        spec = solve_smallest(assemble(unit_sphere_mesh(16, 40)), 5)
        # HdR eigenvalue 2 with multiplicity 3 -> HodgeKodaira 1, 1, 1
        for i in (1, 2, 3):
            assert spec.eigenvalues[i] == pytest.approx(1.0, rel=0.02)
        assert spec.eigenvalues[4] > 2.0

    def test_constants_in_kernel(self, torus_problem):
        ones = np.ones(torus_problem.dimension)
        assert np.abs(torus_problem.stiffness @ ones).max() < 1e-12

    def test_stiffness_symmetric(self, fiber_mesh):
        K = assemble(fiber_mesh).stiffness
        assert abs(K - K.T).max() < 1e-14

    def test_mass_positive(self, fiber_mesh):
        assert (assemble(fiber_mesh).mass > 0).all()

    def test_non_finite_rejected(self):
        K = sp.eye(3, format="csr")
        with pytest.raises(NonFiniteEntry):
            SpectralProblem(stiffness=K, mass=np.array([1.0, -1.0, 1.0]))

    def test_dimension_is_the_stiffness_order(self, fiber_mesh):
        pb = assemble(fiber_mesh)
        assert pb.dimension == fiber_mesh.V == pb.stiffness.shape[0]

    def test_mass_of_another_length_rejected(self):
        K = sp.eye(3, format="csr")
        for mass in (np.ones(2), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ValueError, match=r"laplace.SpectralProblem: mass of shape"):
                SpectralProblem(stiffness=K, mass=mass)


class TestSolveSmallest:
    def test_unweighted_zero_mode(self, fiber_mesh):
        spec = solve_smallest(assemble(fiber_mesh), 4, s=1e-4)
        assert spec.eigenvalues[0] <= spec.zero_threshold
        assert spec.numerically_zero()[0]
        assert not spec.numerically_zero()[1]

    def test_residuals_below_tolerance(self, fiber_mesh):
        spec = solve_smallest(assemble(fiber_mesh), 6)
        assert (spec.residual_norms <= 1e-9).all()

    def test_deterministic_given_seed(self, fiber_mesh):
        pb = assemble(fiber_mesh)
        a = solve_smallest(pb, 5, seed=7).eigenvalues
        b = solve_smallest(pb, 5, seed=7).eigenvalues
        assert np.array_equal(a, b)

    def test_restart_vectors_seeded(self, monkeypatch):
        # default two-sphere sweep fiber 4 (s = 1.23e-5, V = 2978) at seed 12:
        # ARPACK asks for a fresh random vector (ido == 4) in every solve.
        # Drawn from an unseeded generator, its last bits changed between
        # reruns
        restarts = []
        eigsh = spla.eigsh

        def recorder(*args, **kwargs):
            rng = kwargs.get("rng")
            before = None if rng is None else rng.bit_generator.state
            out = eigsh(*args, **kwargs)
            restarts.append(rng is not None and rng.bit_generator.state != before)
            return out

        monkeypatch.setattr(spla, "eigsh", recorder)
        plan = SweepPlan()
        s = float(plan.s_grid[4])
        pb = assemble(mesh_fiber(two_sphere_family(), MetricKind.INDUCED, s, plan.mesh_params))
        runs = [solve_smallest(pb, 3, s=s, seed=12) for _ in range(3)]
        assert all(restarts)
        for spec in runs[1:]:
            assert np.array_equal(spec.eigenvalues, runs[0].eigenvalues)
            assert np.array_equal(spec.residual_norms, runs[0].residual_norms)

    def test_union_reruns_bitwise_across_processes(self):
        # the two-sphere union takes the generic operator; its k = 4 window
        # ends inside the 3.975 cluster, where ARPACK's last bits once
        # varied between runs.  Each run is a fresh interpreter
        script = (
            "from pinchlab.laplace import assemble, solve_smallest\n"
            "from pinchlab.mesh import disjoint_union, unit_sphere_mesh\n"
            "half = unit_sphere_mesh(8, 16, radius=0.5)\n"
            "pb = assemble(disjoint_union([half, half]))\n"
            "for seed in (8, 39):\n"
            "    spec = solve_smallest(pb, 4, seed=seed)\n"
            "    print(spec.operator, *(v.hex() for v in spec.eigenvalues))\n"
        )
        src = Path(laplace.__file__).resolve().parents[1]
        runs = [subprocess.run([sys.executable, "-c", script],
                               env={**os.environ, "PYTHONPATH": str(src)},
                               capture_output=True, text=True, timeout=120, check=True).stdout
                for _ in range(2)]
        assert runs[0].count("symmetric LU") == 2
        assert runs[1] == runs[0]

    def test_nodal_limit_has_component_count_zero_modes(self):
        # two disjoint spheres: exactly N = 2 numerically zero eigenvalues
        half = unit_sphere_mesh(8, 16, radius=0.5)
        union = disjoint_union([half, half])
        spec = solve_smallest(assemble(union), 5)
        assert spec.numerically_zero().sum() == 2
        assert spec.eigenvalues[2] > 1.0

    def test_two_sphere_union_matches_dense_for_every_window(self):
        # spectrum {0, 0, 3.975 x4, 3.991 x2, ...}: the window edge for
        # k = 3..8 falls before, inside and after both clusters
        half = unit_sphere_mesh(8, 16, radius=0.5)
        pb = assemble(disjoint_union([half, half]))
        dense = scipy.linalg.eigh(
            pb.stiffness.toarray(), np.diag(pb.mass), eigvals_only=True
        )
        for seed in range(6):
            for k in range(3, 9):
                spec = solve_smallest(pb, k, seed=seed)
                assert (spec.residual_norms <= 1e-9).all(), (seed, k)
                np.testing.assert_allclose(
                    spec.eigenvalues, dense[:k], rtol=1e-10, atol=1e-10,
                    err_msg=f"seed={seed} k={k} path={spec.solver_path}",
                )

    def test_no_convergence_names_input_and_rungs(self, monkeypatch):
        half = unit_sphere_mesh(8, 16, radius=0.5)
        pb = assemble(disjoint_union([half, half]))
        monkeypatch.setattr(laplace, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NoConvergence) as err:
            solve_smallest(pb, 5, seed=3)
        msg = str(err.value)
        for part in ("V=484", "k=5", "seed=3",
                     "(tried eigsh, eigsh+2, eigsh+4, eigsh+8)",
                     "last rung eigsh+8", "max residual"):
            assert part in msg

    def test_constant_metric_scaling_divides_eigenvalues(self, fiber_mesh):
        # conformal scale a: stiffness invariant, mass scales by a
        pb = assemble(fiber_mesh)
        scaled = SpectralProblem(
            stiffness=pb.stiffness, mass=8.0 * pb.mass
        )
        s1 = solve_smallest(pb, 4).eigenvalues[1:]
        s8 = solve_smallest(scaled, 4).eigenvalues[1:]
        assert np.allclose(s1 / s8, 8.0, rtol=1e-7)

    def test_eigenvalues_ascending(self, fiber_mesh):
        spec = solve_smallest(assemble(fiber_mesh), 8)
        assert (np.diff(spec.eigenvalues) >= -1e-12).all()

    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_mass_scaling_scales_shift_and_eigenvalues(self, fiber_mesh, c):
        # mass times c divides the spectrum by c; the shift follows it,
        # so the shift-inverted problem is the same one
        pb = assemble(fiber_mesh)
        scaled = SpectralProblem(
            stiffness=pb.stiffness, mass=c * pb.mass
        )
        base = solve_smallest(pb, 5, seed=4)
        spec = solve_smallest(scaled, 5, seed=4)
        np.testing.assert_allclose(
            spec.eigenvalues, base.eigenvalues / c, rtol=1e-10, atol=1e-10 / c
        )
        assert spec.shift * scaled.mass.sum() == pytest.approx(
            base.shift * pb.mass.sum(), rel=1e-14
        )
        assert base.shift < 0


class TestZeroThreshold:
    """The zero threshold is 1e-10 * 2 pi / sum(M), on the spectrum's
    scale: it does not grow with the neck as the finest triangles do."""

    @pytest.fixture(scope="class", params=[1.0, 4.0], ids=["scale1", "scale4"])
    def deep_spectrum(self, request):
        s = 1e-20
        m = mesh_fiber(two_sphere_family(request.param), MetricKind.INDUCED, s,
                       SWEEP_PARAMS)
        return solve_smallest(assemble(m), 3, s=s, seed=2)

    def test_deep_fiber_has_one_zero_mode(self, deep_spectrum):
        assert deep_spectrum.numerically_zero().sum() == 1

    def test_sylvester_point_positive(self, deep_spectrum):
        # mu of the inertia count; the count is vacuous once it drops below 0
        lam_k = deep_spectrum.eigenvalues[-1]
        assert lam_k > 0
        assert lam_k - (1e-8 * abs(lam_k) + deep_spectrum.zero_threshold) > 0

    @pytest.mark.parametrize("c", [1e-3, 1e3])
    def test_mass_scaling_divides_threshold(self, torus_problem, c):
        scaled = SpectralProblem(stiffness=torus_problem.stiffness,
                                 mass=c * torus_problem.mass)
        base = solve_smallest(torus_problem, 2).zero_threshold
        assert solve_smallest(scaled, 2).zero_threshold == pytest.approx(base / c,
                                                                         rel=1e-14)


class TestBandCholesky:
    """The generic shift-invert factor, a symmetric-mode SuperLU
    (``_sym_lu``), against dense solves, its failure on an indefinite
    input and the operator label of each path."""

    @pytest.mark.parametrize("which", ["two-sphere", "three-cycle", "sphere-union", "torus"])
    def test_solve_matches_dense(self, which):
        if which == "sphere-union":  # two components: a disconnected graph
            half = unit_sphere_mesh(8, 16, radius=0.5)
            m = disjoint_union([half, half])
        elif which == "torus":  # the one verify pencil without a ring layout
            m = flat_torus_mesh(24)
        else:
            fam = two_sphere_family() if which == "two-sphere" else three_cycle_family()
            m = mesh_fiber(fam, MetricKind.INDUCED, 1e-6)
        pb = assemble(m)
        sigma = sweep_shift(pb)
        lu, negative = _sym_lu(pb.stiffness, pb.mass, sigma)
        assert negative == 0
        solve = lu.solve
        rhs = np.random.default_rng(0).standard_normal((m.V, 2))
        dense = np.linalg.solve(pb.stiffness.toarray() - sigma * np.diag(pb.mass), rhs)
        for j in range(2):
            x = solve(rhs[:, j])
            assert np.linalg.norm(x - dense[:, j]) <= 1e-10 * np.linalg.norm(dense[:, j])

    def test_indefinite_input_names_layer_and_input(self, torus_problem):
        # K - 5 M has negative eigenvalues, so K - 5 M - sigma M is not
        # definite; only the zero mode lies below 5 + sigma: one negative pivot
        pb = torus_problem
        shifted = SpectralProblem(stiffness=(pb.stiffness - sp.diags(5.0 * pb.mass)).tocsr(),
                                  mass=pb.mass)
        with pytest.raises(np.linalg.LinAlgError) as err:
            solve_smallest(shifted, 3)
        msg = str(err.value)
        for part in ("laplace.solve_smallest(V=576)", "symmetric LU",
                     f"sigma = {sweep_shift(pb):.6g}", "1 of 576 pivots negative",
                     "not positive definite"):
            assert part in msg

    def test_spectrum_records_bandwidth(self, fiber_mesh):
        # a pencil without a ring layout takes the symmetric LU, at the
        # shift the blocks take
        pb = replace(assemble(fiber_mesh), rings=None)
        spec = solve_smallest(pb, 3)
        assert spec.operator == "symmetric LU"
        assert spec.shift == sweep_shift(pb)
        assert (spec.residual_norms <= laplace.RESIDUAL_TOL).all()

    def test_spectrum_names_ring_blocks(self, fiber_mesh):
        n, R, fans, cycle = fiber_mesh.rings
        assert (n, fans, cycle) == (16, 2, False)
        spec = solve_smallest(assemble(fiber_mesh), 3)
        assert spec.operator == f"ring blocks n=16 R={R} path"
        cycle_mesh = mesh_fiber(three_cycle_family(), MetricKind.INDUCED, 1e-4)
        spec = solve_smallest(assemble(cycle_mesh), 3)
        assert spec.operator == f"ring blocks n=16 R={cycle_mesh.rings.rings} cycle"


def grid_pencil(n, R, cycle):
    """Shift-invariant pencil on n x R ring positions with integer entries:
    4 on the diagonal, -1 to the four grid neighbours (mod R on a cycle),
    unit mass.  Its block m = 0 has diagonal 4 - 2 = 2 exactly."""
    idx = np.arange(n * R).reshape(R, n)
    pairs = [(idx, np.roll(idx, 1, axis=1))]
    pairs.append((idx, np.roll(idx, 1, axis=0)) if cycle else (idx[:-1], idx[1:]))
    rows = np.concatenate([a.ravel() for a, _ in pairs])
    cols = np.concatenate([b.ravel() for _, b in pairs])
    off = sp.coo_matrix((-np.ones(rows.size), (rows, cols)), shape=(n * R, n * R))
    K = (off + off.T + 4.0 * sp.eye(n * R)).tocsr()
    return SpectralProblem(stiffness=K, mass=np.ones(n * R),
                           rings=RingLayout(n, R, 0, cycle))


@pytest.fixture(scope="module")
def torsion_ends():
    """The benchmark's torsion pencils: two-sphere at scale 4, both ends
    of the torsion grid, scalar and bundle-weighted."""
    pencils = {}
    for i in (0, 11):
        s = float(TORSION_GRID[i])
        m = mesh_fiber(two_sphere_family(4.0), MetricKind.INDUCED, s, SWEEP_PARAMS)
        pencils[f"s{i}-scalar"] = assemble(m)
        pencils[f"s{i}-weighted"] = assemble_weighted(m, component_bundle_weight(m))
    return pencils


class TestRingBlocks:
    """The shift-invert operator and inertia count of a ring-stack pencil,
    by its ring-Fourier blocks, against dense solves, the SuperLU count
    and the generic path."""

    @pytest.mark.parametrize("which", ["two-sphere", "three-cycle"])
    def test_solve_matches_dense(self, which):
        fam = two_sphere_family() if which == "two-sphere" else three_cycle_family()
        m = mesh_fiber(fam, MetricKind.INDUCED, 1e-6)
        pb = assemble(m)
        sigma = sweep_shift(pb)
        blocks = _ring_blocks(pb)
        assert blocks.label.endswith("path" if which == "two-sphere" else "cycle")
        solve = blocks.factor(sigma)
        rhs = np.random.default_rng(0).standard_normal((m.V, 2))
        dense = np.linalg.solve(pb.stiffness.toarray() - sigma * np.diag(pb.mass), rhs)
        for j in range(2):
            x = solve(rhs[:, j])
            assert np.linalg.norm(x - dense[:, j]) <= 1e-10 * np.linalg.norm(dense[:, j])

    @pytest.mark.parametrize("which", ["two-sphere", "three-cycle", "s0-scalar",
                                       "s0-weighted", "s11-scalar", "s11-weighted"])
    def test_count_matches_sylvester_lu(self, which, torsion_ends):
        # at every midpoint between separated eigenvalues of the lowest 41
        if which in torsion_ends:
            pb = torsion_ends[which]
        else:
            fam = two_sphere_family() if which == "two-sphere" else three_cycle_family()
            pb = assemble(mesh_fiber(fam, MetricKind.INDUCED, 1e-6))
        blocks = _ring_blocks(pb)
        vals = solve_smallest(pb, 41).eigenvalues
        checked = 0
        for i in range(40):
            if vals[i + 1] - vals[i] <= 1e-6 * vals[i + 1]:
                continue  # inside a cluster
            mu = 0.5 * (vals[i] + vals[i + 1])
            count = blocks.count_below(mu)
            assert count == _sym_lu(pb.stiffness, pb.mass, mu)[1] == i + 1, (i, mu)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("entry", ["stiffness", "mass"])
    def test_off_orbit_entry_takes_band_path(self, fiber_mesh, entry):
        pb = assemble(fiber_mesh)
        if entry == "stiffness":  # one edge weight, by 1e-10 of the largest entry
            delta = 1e-10 * abs(pb.stiffness).max()
            edge = sp.coo_matrix((delta * np.array([1.0, 1.0, -1.0, -1.0]),
                                  ([20, 21, 20, 21], [21, 20, 20, 21])), shape=pb.stiffness.shape)
            off = replace(pb, stiffness=(pb.stiffness + edge).tocsr())
        else:
            mass = pb.mass.copy()
            mass[20] *= 1.0 + 1e-10
            off = replace(pb, mass=mass)
        assert _ring_blocks(pb) is not None and _ring_blocks(off) is None
        ring, band = solve_smallest(pb, 6, seed=1), solve_smallest(off, 6, seed=1)
        assert ring.operator.startswith("ring blocks")
        assert band.operator == "symmetric LU"
        np.testing.assert_allclose(band.eigenvalues, ring.eigenvalues, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
    def test_zero_pivot_yields_none(self, cycle):
        # block 0's first pivot is 2 - mu, exactly zero at mu = 2
        pb = grid_pencil(16, 7, cycle)
        blocks = _ring_blocks(pb)
        assert blocks.count_below(2.0) is None
        for mu in (0.3, 1.7, 2.9, 4.5, 7.1):
            assert blocks.count_below(mu) == _sym_lu(pb.stiffness, pb.mass, mu)[1]

    def test_indefinite_ring_pencil_names_operator(self, fiber_mesh):
        pb = assemble(fiber_mesh)
        shifted = replace(pb, stiffness=(pb.stiffness - sp.diags(5.0 * pb.mass)).tocsr())
        with pytest.raises(np.linalg.LinAlgError) as err:
            solve_smallest(shifted, 3)
        msg = str(err.value)
        for part in (f"laplace.solve_smallest(V={fiber_mesh.V})", "ring blocks n=16",
                     "failed at pivot "):
            assert part in msg

    def test_returns_what_eigsh_returned(self, monkeypatch):
        # the benchmark recomputes residuals from the raw eigsh pairs: argsort
        # and clamp of the last call's output must give the eigenvalues
        calls = []
        eigsh = spla.eigsh

        def recorder(*args, **kwargs):
            out = eigsh(*args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(spla, "eigsh", recorder)
        m = mesh_fiber(three_cycle_family(), MetricKind.INDUCED, 1e-6)
        for k in (3, 5, 12):
            spec = solve_smallest(assemble(m), k, seed=k)
            assert spec.operator.startswith("ring blocks")
            vals = calls[-1][0]
            assert np.array_equal(np.maximum(vals[np.argsort(vals)[:k]], 0.0), spec.eigenvalues)

    @pytest.mark.parametrize("kind", list(MetricKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("family", [two_sphere_family, three_cycle_family])
    def test_sweep_fibers_take_ring_blocks(self, family, kind):
        # the suites and the benchmark solve every fiber on its blocks; the
        # deepest sweep fiber has the most rings and the widest entries
        s = float(DEFAULT_GRID[-1])
        pb = assemble(mesh_fiber(family(), kind, s, SWEEP_PARAMS))
        assert solve_smallest(pb, 2, s=s).operator.startswith("ring blocks")

    @pytest.mark.parametrize("weight", ["scalar", "weighted"])
    def test_torsion_pencils_take_ring_blocks(self, torsion_ends, weight):
        # the torsion suite's and the benchmark's deepest fiber, s = 1e-15
        pb = torsion_ends[f"s{len(TORSION_GRID) - 1}-{weight}"]
        assert solve_smallest(pb, 2).operator.startswith("ring blocks")


class TestResiduals:
    """``_residuals`` in blocks of columns against the per-pair formula
    ||K u - lambda M u|| / sqrt(u . M u)."""

    @staticmethod
    def per_pair(pb, vals, vecs):
        return np.array([
            np.linalg.norm(pb.stiffness @ u - lam * (pb.mass * u))
            / math.sqrt(u @ (pb.mass * u))
            for lam, u in zip(vals, vecs.T)
        ])

    @staticmethod
    def perturbed_pairs(pb, k, seed):
        # solved pairs, each vector moved by 1e-6 of its size: residuals
        # of order 1e-4, far above rounding
        eigsh = spla.eigsh
        pairs = []

        def recorder(*args, **kwargs):
            pairs.append(eigsh(*args, **kwargs))
            return pairs[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spla, "eigsh", recorder)
            solve_smallest(pb, k, seed=seed)
        vals, vecs = pairs[-1]
        noise = np.random.default_rng(seed).standard_normal(vecs.shape)
        return vals, vecs + 1e-6 * np.abs(vecs).max(axis=0) * noise

    @pytest.fixture(scope="class")
    def sweep_pencil(self):
        # the deepest three-cycle sweep fiber of the benchmark: V > 10 000
        plan = SweepPlan(family="three-cycle", num_ev=5)
        m = mesh_fiber(three_cycle_family(), MetricKind.INDUCED, 1e-10, plan.mesh_params)
        assert m.V == 15360
        return assemble(m)

    def test_matches_per_pair_above_ten_thousand_vertices(self, sweep_pencil):
        vals, vecs = self.perturbed_pairs(sweep_pencil, 5, seed=3)
        res = laplace._residuals(sweep_pencil.stiffness, sweep_pencil.mass, vals, vecs)
        assert (res > 1e-8).all()
        np.testing.assert_allclose(res, self.per_pair(sweep_pencil, vals, vecs), rtol=1e-12)

    def test_matches_per_pair_k150_torsion_pencil(self):
        # k = 150 is not a multiple of the block of 16 columns
        m = mesh_fiber(two_sphere_family(4.0), MetricKind.INDUCED,
                       float(TORSION_GRID[11]), SWEEP_PARAMS)
        assert m.V == 8546
        pb = assemble(m)
        vals, vecs = self.perturbed_pairs(pb, 150, seed=11)
        assert len(vals) == 150
        res = laplace._residuals(pb.stiffness, pb.mass, vals, vecs)
        assert (res > 1e-8).all()
        np.testing.assert_allclose(res, self.per_pair(pb, vals, vecs), rtol=1e-12)

    def test_nan_column_is_nan(self, sweep_pencil):
        vals, vecs = self.perturbed_pairs(sweep_pencil, 5, seed=3)
        vecs[7, 2] = np.nan
        res = laplace._residuals(sweep_pencil.stiffness, sweep_pencil.mass, vals, vecs)
        assert np.isnan(res[2]) and np.isfinite(np.delete(res, 2)).all()

    def test_nan_pair_fails_every_rung(self, fiber_mesh, monkeypatch):
        eigsh = spla.eigsh

        def poisoned(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            vecs[0, np.argmin(vals)] = np.nan
            return vals, vecs

        monkeypatch.setattr(spla, "eigsh", poisoned)
        with pytest.raises(NoConvergence, match="1 of 3 pairs above tol"):
            solve_smallest(assemble(fiber_mesh), 3)


class TestDiagonalMass:
    """ARPACK's B-product is the mass diagonal times x, as a
    ``LinearOperator``: it gives the eigenvalues a csr diagonal gives, from
    the same start and restart vectors."""

    @pytest.mark.parametrize("family, shape", [(two_sphere_family, "path"),
                                               (three_cycle_family, "cycle")])
    def test_same_eigenvalues_as_csr_diagonal(self, monkeypatch, family, shape):
        pb = assemble(mesh_fiber(family(), MetricKind.INDUCED, 1e-6))
        csr = sp.diags(pb.mass).tocsr()
        eigsh = spla.eigsh
        pairs = []

        def both(A, k, M, **kwargs):
            assert isinstance(M, spla.LinearOperator) and not sp.issparse(M)
            reference = eigsh(A, k, M=csr, **{**kwargs, "rng": copy.deepcopy(kwargs["rng"])})
            out = eigsh(A, k, M=M, **kwargs)
            pairs.append((reference, out))
            return out

        monkeypatch.setattr(spla, "eigsh", both)
        spec = solve_smallest(pb, 5, seed=5)
        assert spec.operator.endswith(shape)
        assert pairs
        for (ref_vals, ref_vecs), (vals, vecs) in pairs:
            assert np.array_equal(vals, ref_vals)
            assert np.array_equal(vecs, ref_vecs)


class TestShiftInvertWork:
    """Work counts, not clock times: the first rung passes within three
    times the applications of (K - sigma M)^-1 measured with the shift on
    the spectrum's scale."""

    def test_three_cycle_pair_stall_input(self):
        # default sweep fiber 10 (s = 5.3e-10), plan seed 6002000: exactly
        # degenerate pairs.  73 applications; 4476 (26 s) with the default
        # ncv, a general LU and the shift -1e-6 * median(diag(K) / M)
        plan = SweepPlan(family="three-cycle", num_ev=5, seed=6002000)
        m = mesh_fiber(three_cycle_family(), MetricKind.INDUCED,
                       plan.s_grid[10], plan.mesh_params)
        spec = solve_smallest(assemble(m), 5, seed=6002000 * 100003 + 10)
        assert spec.solver_path == "eigsh"
        assert spec.opinv_solves <= 3 * 73

    def test_deep_torsion_pencils(self):
        # V = 8546, the deepest torsion fiber, at the benchmark's k = 150:
        # 493 applications for each pencil (879 with the shift
        # -1e-6 * median(diag(K) / M))
        s = float(TORSION_GRID[11])
        m = mesh_fiber(two_sphere_family(4.0), MetricKind.INDUCED, s, SWEEP_PARAMS)
        assert m.V == 8546
        for pb in (assemble(m), assemble_weighted(m, component_bundle_weight(m))):
            spec = solve_smallest(pb, 150, s=s, seed=11)
            assert spec.solver_path == "eigsh"
            assert spec.opinv_solves <= 3 * 493


class TestWeighted:
    def test_neutral_weight_identical_to_assemble(self, fiber_mesh):
        pb = assemble(fiber_mesh)
        pbn = assemble_weighted(fiber_mesh, neutral_weight(fiber_mesh))
        assert abs(pb.stiffness - pbn.stiffness).max() == 0.0
        assert np.array_equal(pb.mass, pbn.mass)

    def test_weight_one_on_pure_neck_triangles(self, fiber_mesh):
        wf = component_bundle_weight(fiber_mesh)
        cent = np.abs(fiber_mesh.tri_coords.mean(axis=1))
        neck = np.array(
            [fiber_mesh.charts[i][0] == "neck" for i in fiber_mesh.tri_chart]
        ) & (cent < 0.5)
        assert np.array_equal(wf.weights[neck], np.ones(int(neck.sum())))
        assert np.array_equal(wf.curvature_density[neck], np.zeros(int(neck.sum())))

    def test_cap_charts_from_chart_table(self):
        # the weight reads cap triangles from the mesh's chart table; the
        # same fields come from each triangle's chart, one at a time
        m = mesh_fiber(two_sphere_family(), MetricKind.INDUCED, 1e-3)
        wf = component_bundle_weight(m)
        rho = np.abs(m.tri_coords.mean(axis=1))
        interior = np.array([m.charts[i][0] == "cap" for i in m.tri_chart]) | (rho >= 0.5)
        phi = np.where(interior, np.log((1.0 + rho ** 2) / 1.25), 0.0)
        assert np.array_equal(wf.weights, np.exp(-phi))
        assert np.array_equal(wf.curvature_density,
                              np.where(interior, 1.0 / (1.0 + rho ** 2) ** 2, 0.0))

    def test_no_zero_mode(self, fiber_mesh):
        pbw = assemble_weighted(fiber_mesh, component_bundle_weight(fiber_mesh))
        spec = solve_smallest(pbw, 3, s=1e-4)
        assert spec.eigenvalues[0] > 0.1

    def test_uniform_gap_over_sweep(self):
        # smallest weighted eigenvalue stays above a floor computed at the
        # largest s of the sweep
        fam = two_sphere_family()
        lows = []
        for s in (1e-2, 1e-4, 1e-6, 1e-8):
            m = mesh_fiber(fam, MetricKind.INDUCED, s)
            pbw = assemble_weighted(m, component_bundle_weight(m))
            lows.append(solve_smallest(pbw, 2, s=s).eigenvalues[0])
        floor = 0.5 * lows[0]
        assert min(lows) >= floor

    def test_constant_weight_rescale_leaves_eigenvalues(self, fiber_mesh):
        # scaling w by a constant scales K and M together: pencil unchanged
        wf = component_bundle_weight(fiber_mesh)
        spec1 = solve_smallest(assemble_weighted(fiber_mesh, wf), 3)
        wf3 = type(wf)(
            weights=3.0 * wf.weights,
            curvature_density=wf.curvature_density,
            chart_areas=wf.chart_areas,
        )
        spec3 = solve_smallest(assemble_weighted(fiber_mesh, wf3), 3)
        assert np.allclose(spec1.eigenvalues, spec3.eigenvalues, rtol=1e-8)

    def test_weyl_floor_on_low_end(self, fiber_mesh):
        pbw = assemble_weighted(fiber_mesh, component_bundle_weight(fiber_mesh))
        spec = solve_smallest(pbw, 12, s=1e-4)
        j = np.arange(1, 13)
        C = (spec.eigenvalues / j).min()
        assert C > 0
        assert (spec.eigenvalues >= C * j - 1e-12).all()


class TestSpectralInvariants:
    def test_component_swap_symmetry(self):
        # symmetric two-sphere family: spectrum invariant under swapping
        # the two branches (mesh built from either end)
        fam = two_sphere_family()
        m = mesh_fiber(fam, MetricKind.INDUCED, 1e-3)
        spec = solve_smallest(assemble(m), 5, s=1e-3)
        # swap: relabel branch 0 <-> 1 by meshing the reversed family
        from pinchlab.family import ComponentSurface, NodeSpec, build_plumbing

        c0 = ComponentSurface(id=0, marked_points=(0.0 + 0j,))
        c1 = ComponentSurface(id=1, marked_points=(0.0 + 0j,))
        fam_sw = build_plumbing([c1, c0], [NodeSpec(node_id=0, left=(1, 0), right=(0, 0))])
        m_sw = mesh_fiber(fam_sw, MetricKind.INDUCED, 1e-3)
        spec_sw = solve_smallest(assemble(m_sw), 5, s=1e-3)
        assert np.allclose(spec.eigenvalues, spec_sw.eigenvalues, rtol=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(logs=st.floats(min_value=-6.0, max_value=-3.0))
    def test_gap_above_first_nonzero(self, logs):
        fam = two_sphere_family()
        s = 10.0 ** logs
        m = mesh_fiber(fam, MetricKind.INDUCED, s)
        spec = solve_smallest(assemble(m), 4, s=s)
        # lambda_N (N = 2) stays order-one while lambda_1 degenerates
        assert spec.eigenvalues[2] > 10 * spec.eigenvalues[1]
