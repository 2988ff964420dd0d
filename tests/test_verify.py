"""The fiber pipeline shared by `pinchlab sweep` and the verify suites."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pinchlab import verify
from pinchlab.cli import SweepPlan, cmd_sweep, read_sweep_csv
from pinchlab.errors import PinchlabError
from pinchlab.family import MetricKind, three_cycle_family, two_sphere_family
from pinchlab.laplace import Spectrum
from pinchlab.mesh import mesh_fiber
from pinchlab.verify import (
    DEFAULT_GRID,
    SWEEP_PARAMS,
    FiberRecord,
    _core_ring_length,
    eigen_sweep,
    solve_fibers,
    suite_identity,
    suite_rayleigh,
    suite_thm1,
    suite_thm2,
    suite_torsion,
)


def test_cli_sweep_is_thm1_induced_sweep(tmp_path):
    # the CLI defaults (density 2, seed 0) are thm1's sweep; repeated
    # ARPACK solves agree to rounding, not bit for bit
    plan = SweepPlan(family="two-sphere", num_ev=3, seed=0,
                     out=str(tmp_path / "sweep.csv"))
    assert np.array_equal(plan.s_grid, DEFAULT_GRID)
    assert not cmd_sweep(plan).failures
    _, cols = read_sweep_csv(plan.out)
    records = eigen_sweep("two-sphere", MetricKind.INDUCED, DEFAULT_GRID, 3)
    for rec in records:
        at_s = cols["s"] == rec.s
        assert cols["k"][at_s].tolist() == [0, 1, 2]
        assert int(cols["vertices"][at_s][0]) == rec.spectrum.dimension
        lam = rec.spectrum.eigenvalues
        np.testing.assert_allclose(cols["lambda"][at_s][1:], lam[1:], rtol=1e-12)
        assert abs(cols["lambda"][at_s][0] - lam[0]) < 1e-12


def test_failed_fiber_names_suite_family_s_seed_and_cause():
    grid = np.array([1e-2, 0.3])  # |s| >= 1/4 cannot be meshed
    with pytest.raises(PinchlabError) as info:
        eigen_sweep("two-sphere", MetricKind.INDUCED, grid, 2)
    msg = str(info.value)
    for part in ("verify", "two-sphere", "induced", "k=2", "s=0.3", "seed 1",
                 "PointOffFiber"):
        assert part in msg


def test_fiber_record_times_the_mesh_and_counts_vertices():
    fam = two_sphere_family()
    ok, failed = solve_fibers(fam, MetricKind.INDUCED, [1e-3, 0.3], 2)
    assert ok.error is None
    assert ok.vertices == mesh_fiber(fam, MetricKind.INDUCED, 1e-3, SWEEP_PARAMS).V
    assert ok.vertices == ok.spectrum.dimension
    assert 0.0 < ok.mesh_seconds < ok.seconds
    assert failed.error.startswith("PointOffFiber")
    assert failed.mesh_seconds is None and failed.vertices is None


@pytest.mark.parametrize("before", [None, "4"])
def test_pool_workers_start_with_one_blas_thread(monkeypatch, before):
    # solve_fibers starts its pool workers inside this block
    if before is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", before)
    with verify._one_blas_thread():
        child = subprocess.run(
            [sys.executable, "-c", "import os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            capture_output=True, text=True, timeout=60)
    assert child.stdout.split() == ["1"]
    assert os.environ.get("OPENBLAS_NUM_THREADS") == before


def test_pool_leaves_the_environment_as_it_was():
    before = dict(os.environ)
    serial = solve_fibers(two_sphere_family(), MetricKind.INDUCED, [1e-3, 1e-4], 2)
    pooled = solve_fibers(two_sphere_family(), MetricKind.INDUCED, [1e-3, 1e-4], 2, workers=2)
    assert dict(os.environ) == before
    for a, b in zip(serial, pooled):
        assert np.array_equal(a.spectrum.eigenvalues, b.spectrum.eigenvalues)


def test_pool_is_capped_at_the_fibers_and_the_usable_cores(monkeypatch):
    started = []
    pool = verify.ProcessPoolExecutor

    def recorded(max_workers, **kw):
        started.append(max_workers)
        return pool(max_workers=max_workers, **kw)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", recorded)
    monkeypatch.setattr(verify, "_usable_cores", lambda: 2)
    fam, grid = two_sphere_family(), [1e-3, 1e-4, 1e-5]
    serial = solve_fibers(fam, MetricKind.INDUCED, grid, 2)
    pooled = solve_fibers(fam, MetricKind.INDUCED, grid, 2, workers=8)
    assert started == [2]
    for a, b in zip(serial, pooled, strict=True):
        assert np.array_equal(a.spectrum.eigenvalues, b.spectrum.eigenvalues)
    # one fiber, or one usable core, leaves one worker: no pool starts
    alone = solve_fibers(fam, MetricKind.INDUCED, grid[:1], 2, workers=8)
    monkeypatch.setattr(verify, "_usable_cores", lambda: 1)
    in_process = solve_fibers(fam, MetricKind.INDUCED, grid, 2, workers=8)
    assert started == [2]
    assert np.array_equal(alone[0].spectrum.eigenvalues, serial[0].spectrum.eigenvalues)
    for a, b in zip(serial, in_process, strict=True):
        assert np.array_equal(a.spectrum.eigenvalues, b.spectrum.eigenvalues)


def test_usable_cores_reads_the_affinity_set_else_the_core_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert verify._usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert verify._usable_cores() == 3


def _doctored_records(grid, k, doctored):
    """Sweep records with one zero mode per fiber, but two on fiber
    ``doctored``; no mesh or eigensolve behind them."""
    records = []
    for i, s in enumerate(grid):
        ev = np.linspace(0.0, 1.0, k)
        if i == doctored:
            ev[1] = 1e-12
        spectrum = Spectrum(eigenvalues=ev, residual_norms=np.zeros(k), dimension=100,
                            s=s, zero_threshold=1e-10)
        records.append(FiberRecord(float(s), spectrum, None, 0.0, None, 0.0, 100))
    return records


@pytest.mark.parametrize("suite,name", [(suite_thm1, "two-sphere"),
                                        (suite_thm2, "three-cycle"),
                                        (suite_rayleigh, "two-sphere"),
                                        (suite_torsion, "two-sphere"),
                                        (suite_identity, "two-sphere")])
def test_sweep_rows_reject_a_fiber_without_exactly_one_zero_mode(monkeypatch, suite, name):
    # the rows read eigenvalue 1, 2, ... as the first nonzero ones
    solved = []

    def solve_fibers(family, kind, grid, k, **_):
        solved.append(grid)
        return _doctored_records(grid, k, doctored=2)

    monkeypatch.setattr(verify, "_CACHE", {})
    monkeypatch.setattr(verify, "solve_fibers", solve_fibers)
    with pytest.raises(PinchlabError) as info:
        suite()
    msg = str(info.value)
    for part in ("verify", name, "induced", f"s={solved[-1][2]:.6g}", "seed 2", "h0=2"):
        assert part in msg


def _core_ring_length_loop(mesh, s):
    """Per-triangle reference for ``verify._core_ring_length``."""
    root = math.sqrt(abs(s))
    radii = np.unique(np.abs(np.concatenate(
        [mesh.tri_coords[f] for f, i in enumerate(mesh.tri_chart)
         if mesh.charts[i][0] == "neck"])))
    r0 = radii[np.abs(np.log(radii / root)).argmin()]
    total, seen = 0.0, set()
    for f, i in enumerate(mesh.tri_chart):
        if mesh.charts[i][0] != "neck":
            continue
        for j in range(3):
            e = int(mesh.tri_edge[f, j])
            p = mesh.tri_coords[f, (j + 1) % 3]
            q = mesh.tri_coords[f, (j + 2) % 3]
            if e not in seen and abs(abs(p) - r0) < 1e-9 * r0 and abs(abs(q) - r0) < 1e-9 * r0:
                seen.add(e)
                total += float(mesh.edge_lengths[e])
    return total


@pytest.mark.parametrize("family,kind,s", [
    (two_sphere_family, MetricKind.HYPERBOLIC_MODEL, 1e-6),  # thm1's row
    (two_sphere_family, MetricKind.INDUCED, 1e-3),
    (three_cycle_family, MetricKind.CYLINDER, 1e-5),
])
def test_core_ring_length_matches_loop(family, kind, s):
    mesh = mesh_fiber(family(), kind, s, SWEEP_PARAMS)
    expect = _core_ring_length_loop(mesh, s)
    assert expect > 0
    assert _core_ring_length(mesh, s) == pytest.approx(expect, rel=1e-12)
