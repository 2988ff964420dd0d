"""Verification suites: one measured/target/tolerance row per claim.

Each suite computes the quantities behind one group of advertised
guarantees (solver oracles, eigenvalue laws, torsion, periods, the
eigenvalue-product identity, curvature) and reports them as rows with a
PASS/FAIL verdict.  Expensive sweeps are memoized at module level so the
command-line `verify` runner and the acceptance tests share work.

Every sweep, here and in ``pinchlab sweep``, runs through
``solve_fibers``: mesh, pencil and eigensolve per fiber, fiber i seeded
with ``seed * 100003 + i``, in-process or in a process pool.  The
eigenvalue suites read their sweeps through ``eigen_sweep``, which
certifies one zero mode per fiber.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .curvature import (
    curvature_samples,
    fermat_gauss_bonnet,
    gauss_bonnet,
    min_curvature_sweep,
    nodal_defect,
)
from .errors import PinchlabError
from .family import (
    FAMILY_PRESETS,
    DegenerationFamily,
    MetricKind,
    neck_core_length,
    three_cycle_family,
    two_sphere_family,
)
from .fitting import SweepSeries, fit_power_of_log, product_law_check
from .heat import partial_torsion_large_time
from .laplace import (
    Spectrum,
    assemble,
    assemble_weighted,
    component_bundle_weight,
    solve_smallest,
)
from .mesh import MeshParams, annulus_mesh, flat_torus_mesh, mesh_fiber, unit_sphere_mesh
from .periods import (
    KAPPA,
    canonical_basis,
    check_grid,
    det_growth_fit,
    elliptic_period_gram,
    fit_log_asymptotics,
    plumbing_gram,
    plumbing_twisted_gram,
    plumbing_untwisted_gram,
    residue_free_differential,
)
from .rayleigh import build_cutoffs, dirichlet_energy, log_ramp, rayleigh_upper_bound

#: Default sweep grid: 12 points, geometric, 1e-2 down to 1e-10.
DEFAULT_GRID = np.logspace(-2.0, -10.0, 12)

#: Mesh resolution used by the eigenvalue sweeps (V = 1.4k-15.4k per fiber).
SWEEP_PARAMS = MeshParams(rings_per_decade=16, angular_count=32)

#: Dense mesh for curvature quadrature (the neck carries a sharp bump).
CURVATURE_PARAMS = MeshParams(rings_per_decade=96, angular_count=64)

#: Torsion sweep grid: deep enough for the weighted problem to settle,
#: shallow enough that every fiber keeps a well-conditioned pencil.
TORSION_GRID = np.logspace(-5.0, -15.0, 12)


@dataclass
class CriterionRow:
    """One verified claim: a measurement against a target."""

    criterion: str
    measured: float
    target: float
    tolerance: float
    verdict: str


def _within(criterion: str, measured, target, tolerance) -> CriterionRow:
    ok = abs(measured - target) <= tolerance
    return CriterionRow(criterion, float(measured), float(target),
                        float(tolerance), "PASS" if ok else "FAIL")


def _at_least(criterion: str, measured, floor) -> CriterionRow:
    ok = measured >= floor
    return CriterionRow(criterion, float(measured), float(floor), 0.0,
                        "PASS" if ok else "FAIL")


def _below(criterion: str, measured, cap) -> CriterionRow:
    ok = measured < cap
    return CriterionRow(criterion, float(measured), float(cap), 0.0,
                        "PASS" if ok else "FAIL")


# ---------------------------------------------------------------------------
# shared, memoized sweeps
# ---------------------------------------------------------------------------

_CACHE: dict = {}


def _memo(key, fn):
    if key not in _CACHE:
        _CACHE[key] = fn()
    return _CACHE[key]


@dataclass
class FiberRecord:
    """One fiber of a sweep: its spectra, or the error that stopped it."""

    s: float
    spectrum: Spectrum | None
    weighted: Spectrum | None  # bundle-weighted pencil on the same mesh
    seconds: float
    error: str | None  # "Type: message"; strings cross a process pool
    mesh_seconds: float | None  # mesh_fiber's share of seconds
    vertices: int | None  # None, as mesh_seconds, when mesh_fiber raised


def _solve_fiber(args) -> FiberRecord:
    """Mesh, assemble and solve one fiber; the mesh and the pencils are
    dropped on return."""
    family, kind, s, k, params, seed, weighted = args
    t0 = time.perf_counter()
    mesh_seconds = vertices = None
    try:
        mesh = mesh_fiber(family, kind, s, params)
        mesh_seconds, vertices = time.perf_counter() - t0, mesh.V
        spectrum = solve_smallest(assemble(mesh), k, s=s, seed=seed)
        bundle = None
        if weighted:
            pbw = assemble_weighted(mesh, component_bundle_weight(mesh))
            bundle = solve_smallest(pbw, k, s=s, seed=seed)
        return FiberRecord(s, spectrum, bundle, time.perf_counter() - t0, None,
                           mesh_seconds, vertices)
    except Exception as exc:  # recorded; the caller decides
        return FiberRecord(s, None, None, time.perf_counter() - t0,
                           f"{type(exc).__name__}: {exc}", mesh_seconds, vertices)


def solve_fibers(family: DegenerationFamily, kind: MetricKind, grid, k: int,
                 params: MeshParams = SWEEP_PARAMS, seed: int = 0,
                 workers: int = 1, weighted: bool = False) -> list[FiberRecord]:
    """The k smallest eigenvalues of every fiber of the grid, in grid order
    (and of the bundle-weighted pencil if ``weighted``).

    Fiber i's solver seed is ``seed * 100003 + i``, so the records depend
    on neither the worker count nor the caller.  ``workers > 1`` runs the
    fibers in a process pool of at most one worker per fiber and per
    usable core; when that leaves one worker, they run in-process."""
    tasks = [(family, kind, float(s), k, params, seed * 100003 + i, weighted)
             for i, s in enumerate(grid)]
    workers = min(workers, len(tasks), _usable_cores())
    if workers <= 1:
        return [_solve_fiber(t) for t in tasks]
    # Fresh interpreters, so each worker's BLAS starts with one thread:
    # forked workers inherit the parent's BLAS thread count and
    # oversubscribe the cores.
    with _one_blas_thread(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(_solve_fiber, tasks))


def _usable_cores() -> int:
    """The cores this process may run on: its affinity set where the
    platform has one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _one_blas_thread():
    """Processes started inside the block run OpenBLAS (numpy's and
    scipy's) with one thread; this process's environment is restored on
    exit."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def eigen_sweep(name: str, kind: MetricKind, grid: np.ndarray, num_ev: int,
                scale: float = 1.0, weighted: bool = False) -> list[FiberRecord]:
    """``solve_fibers`` over a preset family at seed 0, memoized.

    Raises on a failed fiber, and on a fiber whose scalar pencil does not
    have exactly one numerically zero mode: every suite reads column 0 of
    ``_eigenvalues`` as the kernel and columns 1 : N as the N - 1 small
    eigenvalues."""
    key = ("eigen", name, kind.value, tuple(grid), num_ev, scale, weighted)

    def run():
        records = solve_fibers(FAMILY_PRESETS[name](scale), kind, grid, num_ev,
                               weighted=weighted)
        for i, rec in enumerate(records):
            where = (f"verify: {name} {kind.value} sweep, k={num_ev}: fiber "
                     f"s={rec.s:.6g} (seed {i})")
            if rec.error is not None:
                raise PinchlabError(f"{where} failed: {rec.error}")
            h0 = int(rec.spectrum.numerically_zero().sum())
            if h0 != 1:
                raise PinchlabError(f"{where} has h0={h0} numerically zero modes, not 1")
        return records

    return _memo(key, run)


def _eigenvalues(records: list[FiberRecord]) -> np.ndarray:
    """The (fibers, k) eigenvalues of an ``eigen_sweep``."""
    return np.array([rec.spectrum.eigenvalues for rec in records])


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_oracles() -> list[CriterionRow]:
    """Closed-form spectra (sphere, torus) and exact conformal scaling."""
    t0 = time.monotonic()
    rows = []

    # Unit sphere: first nonzero eigenvalue 2 with multiplicity 3
    # (the solver reports half of the geometer's value).
    sphere = solve_smallest(assemble(unit_sphere_mesh(16, 40)), 5, seed=0)
    trip = 2.0 * sphere.eigenvalues[1:4]
    rows.append(_within("sphere first nonzero eigenvalue", trip.mean(), 2.0, 0.04))
    rows.append(_within("sphere multiplicity-three spread",
                        np.abs(trip - 2.0).max() / 2.0, 0.0, 0.02))

    # Unit flat torus: first nonzero eigenvalue 4 pi^2.
    torus = solve_smallest(assemble(flat_torus_mesh(24)), 3, seed=0)
    target = 4.0 * math.pi ** 2
    rows.append(_within("torus first nonzero eigenvalue",
                        2.0 * torus.eigenvalues[1], target, 0.02 * target))

    # Constant conformal scaling by 4 divides every eigenvalue by 4,
    # exactly (stiffness unchanged, mass scaled); the scaled pencil keeps
    # the ring layout, so both solves run the same operator.
    pb = assemble(mesh_fiber(two_sphere_family(), MetricKind.INDUCED, 1e-4))
    scaled = replace(pb, mass=4.0 * pb.mass)
    ev = solve_smallest(pb, 3, s=1e-4, seed=0).eigenvalues[1:]
    ev4 = solve_smallest(scaled, 3, s=1e-4, seed=0).eigenvalues[1:]
    rows.append(_within("conformal scaling invariance",
                        np.abs(4.0 * ev4 / ev - 1.0).max(), 0.0, 1e-8))

    rows.append(_below("oracle runtime (seconds)", time.monotonic() - t0, 60.0))
    return rows


def suite_thm1() -> list[CriterionRow]:
    """Inverse-log eigenvalue law for the two-sphere family, per metric."""
    grid = DEFAULT_GRID
    rows = []

    lam1 = _eigenvalues(eigen_sweep("two-sphere", MetricKind.INDUCED, grid, 3))[:, 1]
    fit_ind = fit_power_of_log(SweepSeries(s=grid, values=lam1))
    rows.append(_within("induced lambda_1 log-power exponent", fit_ind.p, 1.0, 0.15))
    comp = (lam1 * np.log(1.0 / grid))[len(grid) // 2:]
    rows.append(_below("induced lambda_1 * log(1/s) variation (final half)",
                       comp.max() / comp.min() - 1.0, 0.20))

    hyp = _eigenvalues(eigen_sweep("two-sphere", MetricKind.HYPERBOLIC_MODEL, grid, 3))
    fit_hyp = fit_power_of_log(SweepSeries(s=grid, values=hyp[:, 1]))
    rows.append(_within("hyperbolic-model lambda_1 log-power exponent",
                        fit_hyp.p, 1.0, 0.2))

    fam = two_sphere_family()
    s_core = 1e-6
    mesh = mesh_fiber(fam, MetricKind.HYPERBOLIC_MODEL, s_core, SWEEP_PARAMS)
    length = _core_ring_length(mesh, s_core)
    expect = neck_core_length(fam, MetricKind.HYPERBOLIC_MODEL, s_core)
    rows.append(_within("hyperbolic-model neck core length", length, expect,
                        0.10 * expect))

    cyl = _eigenvalues(eigen_sweep("two-sphere", MetricKind.CYLINDER, grid, 3))
    fit_cyl = fit_power_of_log(SweepSeries(s=grid, values=cyl[:, 1]))
    rows.append(_within("cylinder lambda_1 log-power exponent", fit_cyl.p, 2.5, 0.7))
    rows.append(_at_least("cylinder vs induced exponent separation",
                          abs(fit_cyl.p - fit_ind.p), 0.5))
    return rows


def _core_ring_length(mesh, s: complex) -> float:
    """Metric length of the vertex ring nearest |x| = sqrt|s| on the neck."""
    neck = np.isin(mesh.tri_chart,
                   [c for c, chart in enumerate(mesh.charts) if chart[0] == "neck"])
    radii = np.abs(mesh.tri_coords[neck])
    ring = np.unique(radii)
    r0 = ring[np.abs(np.log(ring / math.sqrt(abs(s)))).argmin()]
    on = np.abs(radii - r0) < 1e-9 * r0
    # edge j of a triangle joins its vertices j+1 and j+2
    edges = np.unique(mesh.tri_edge[neck][on[:, [1, 2, 0]] & on[:, [2, 0, 1]]])
    return float(mesh.edge_lengths[edges].sum())


def suite_thm2() -> list[CriterionRow]:
    """Product law for the two degenerating eigenvalues of the 3-cycle."""
    grid = DEFAULT_GRID
    n = three_cycle_family().N
    lam = _eigenvalues(eigen_sweep("three-cycle", MetricKind.INDUCED, grid, 5))
    res = product_law_check(grid, lam[:, 1:n])
    rows = [_below("three-cycle compensated product max/min",
                   res.window["max_over_min"], 1.5)]
    lam3 = lam[:, n]  # the first eigenvalue that does not degenerate
    rows.append(_at_least("three-cycle lambda_3 persistence",
                          lam3.min() / lam3[0], 0.5))
    return rows


def suite_rayleigh() -> list[CriterionRow]:
    """Certified upper bounds: validity, decay exponent, ramp energy."""
    rows = []

    def violations():
        count = 0
        for name, grid, k in (
            ("two-sphere", DEFAULT_GRID, 3),  # thm1's sweep
            ("three-cycle", np.logspace(-4.0, -8.0, 3), 3),
        ):
            fam = FAMILY_PRESETS[name]()
            lam = _eigenvalues(eigen_sweep(name, MetricKind.INDUCED, grid, k))
            for s, small in zip(grid, lam[:, 1:fam.N]):
                mesh = mesh_fiber(fam, MetricKind.INDUCED, s, SWEEP_PARAMS)
                bounds = rayleigh_upper_bound(assemble(mesh), build_cutoffs(mesh, fam, s))
                count += int((bounds < small - 1e-14).sum())
        return count

    rows.append(_within("upper-bound violations",
                        _memo(("rayleigh", "violations"), violations), 0, 0))

    def exponent():
        fam = two_sphere_family()
        grid = np.logspace(-10.0, -20.0, 6)
        bs = []
        # ramp test functions are resolved by the default mesh already
        for s in grid:
            mesh = mesh_fiber(fam, MetricKind.INDUCED, s)
            ts = build_cutoffs(mesh, fam, s)
            bs.append(rayleigh_upper_bound(assemble(mesh), ts)[0])
        return fit_power_of_log(SweepSeries(s=grid, values=np.array(bs)),
                                window_fraction=1.0).p

    rows.append(_within("upper-bound log-power exponent",
                        _memo(("rayleigh", "exponent"), exponent), 1.0, 0.2))

    eps = 1e-4
    mesh = annulus_mesh(eps, 1.0, n_theta=64, rings_per_decade=16)
    coords = mesh.vertex_chart_index()[2]
    vec = log_ramp(np.hypot(coords.real, coords.imag), eps)
    energy = dirichlet_energy(assemble(mesh), vec)
    expect = 4.0 * math.pi / math.log(1.0 / eps)
    rows.append(_within("flat-annulus ramp energy", energy, expect, 0.01 * expect))
    return rows


def suite_torsion() -> list[CriterionRow]:
    """Compensated analytic torsion along the two-sphere sweep.

    k = 60 pairs per fiber keep the certified torsion tail below 2e-3 on
    the deepest fiber; ``partial_torsion_large_time`` raises if not."""
    records = eigen_sweep("two-sphere", MetricKind.INDUCED, TORSION_GRID, 60,
                          scale=4.0, weighted=True)
    n = two_sphere_family().N
    torsions = np.array([partial_torsion_large_time(rec.spectrum)[0]
                         for rec in records])
    # log tau diverges like -log(lambda_1 ... lambda_{N-1}); adding that
    # back, the series settles as the small eigenvalues vanish
    series = torsions + np.log(_eigenvalues(records)[:, 1:n]).sum(axis=1)
    half = series[len(series) // 2:]
    variation = (half.max() - half.min()) / max(abs(float(np.mean(half))), 1e-30)
    rows = [_below("compensated torsion variation (final half)", variation, 0.10)]

    tw = np.array([partial_torsion_large_time(rec.weighted, h0=0)[0]
                   for rec in records])
    var = float((tw.max() - tw.min()) / max(abs(tw.mean()), 1e-30))
    rows.append(_below("weighted-problem torsion variation", var, 0.10))
    return rows


def suite_identity() -> list[CriterionRow]:
    """Eigenvalue product * twisted/untwisted determinant ratio."""
    grid = DEFAULT_GRID
    rows = []
    half = len(grid) // 2
    for name, num_ev in (("two-sphere", 3), ("three-cycle", 5)):
        fam = FAMILY_PRESETS[name]()
        records = eigen_sweep(name, MetricKind.INDUCED, grid, num_ev)
        tg = _memo(("gram", name, "twisted", tuple(grid)),
                   lambda: plumbing_twisted_gram(fam, grid))
        ug = _memo(("gram", name, "untwisted", tuple(grid)),
                   lambda: plumbing_untwisted_gram(fam, grid))
        check_grid([rec.s for rec in records], tg, ug)
        # R(s) = lambda_1 ... lambda_{N-1} * det(twisted) / det(untwisted),
        # bounded with no trend on the final half of the sweep
        ratio = (_eigenvalues(records)[:, 1:fam.N].prod(axis=1)
                 * tg.determinants() / ug.determinants())
        r, s = ratio[half:], grid[half:]
        X = np.column_stack([np.log10(1.0 / s), np.ones_like(s)])
        trend = np.linalg.lstsq(X, np.log(r), rcond=None)[0][0]
        rows.append(_below(f"{name} identity ratio max/min (final half)",
                           r.max() / r.min(), 2.0))
        rows.append(_below(f"{name} identity trend per decade",
                           abs(trend), math.log(1.1)))
    return rows


def suite_periods() -> list[CriterionRow]:
    """Period Gram asymptotics: log law, determinant growth, residues."""
    rows = []
    fam2 = two_sphere_family()

    ts = np.logspace(-3.0, -8.0, 8)
    gram = plumbing_twisted_gram(fam2, ts)
    fit = fit_log_asymptotics(gram)
    rows.append(_below("annulus log-law regression residual", fit.residual, 0.01))
    rows.append(_within("annulus log coefficient kappa", KAPPA, 4.0 * math.pi, 0.0))

    dets_ts = np.logspace(-20.0, -200.0, 10)
    dets = np.array([elliptic_period_gram(t) for t in dets_ts])
    L = np.log(1.0 / dets_ts)
    ss_res = np.polyfit(L, dets, 1, full=True)[1][0]
    r2 = 1.0 - ss_res / ((dets - dets.mean()) ** 2).sum()
    rows.append(_at_least("elliptic-family Gram linearity R^2", r2, 0.999))
    slope, _, _ = det_growth_fit(dets_ts, dets)
    rows.append(_within("elliptic-family determinant slope", slope, 1.0, 0.05))

    fam3 = three_cycle_family()
    deep = np.logspace(-20.0, -120.0, 8)
    tg3 = plumbing_twisted_gram(fam3, deep)
    ug3 = plumbing_untwisted_gram(fam3, deep)
    slope_t, _, _ = det_growth_fit(deep, tg3.determinants())
    slope_u, _, _ = det_growth_fit(deep, ug3.determinants())
    rows.append(_within("three-cycle twisted determinant slope", slope_t, 3.0, 0.1))
    rows.append(_within("three-cycle untwisted determinant slope", slope_u, 1.0, 0.1))
    rows.append(_at_least("three-cycle twisted Gram positive-definite",
                          tg3.check_positive_definite(), 0.0))

    twists, _ = canonical_basis(fam2)
    rf = residue_free_differential(fam2)
    g_rf = plumbing_gram(fam2, ts, twists + [rf])
    fit_rf = fit_log_asymptotics(g_rf)
    amax = float(np.abs(fit_rf.a).max())
    leak = max(float(np.abs(fit_rf.a[1]).max()),
               float(np.abs(fit_rf.a[:, 1]).max())) / amax
    rows.append(_below("residue-free log-coefficient leakage", leak, 1e-3))
    a_min = float(np.linalg.eigvalsh(fit_rf.a[:1, :1]).min())
    b_min = float(np.linalg.eigvalsh(fit_rf.b).min())
    rows.append(_at_least("log-coefficient block positive-definite", a_min, 0.0))
    rows.append(_at_least("constant block positive-definite", b_min, 0.0))
    return rows


def suite_curvature() -> list[CriterionRow]:
    """Curvature blow-up, Gauss-Bonnet totals, nodal defects."""
    rows = []
    fam2 = two_sphere_family()

    rep = _memo(("curvature", "minsweep"), lambda: min_curvature_sweep(
        fam2, MetricKind.INDUCED, np.logspace(-2.0, -6.0, 5)))
    growth = abs(rep.min_values[-1]) / abs(rep.min_values[0])
    rows.append(_at_least("min-curvature growth 1e-2 -> 1e-6", growth, 10.0))

    s = 1e-3
    for name, fam, chi in (("two-sphere", fam2, 2), ("three-cycle",
                                                     three_cycle_family(), 0)):
        def total(fam=fam):
            mesh = mesh_fiber(fam, MetricKind.INDUCED, s, CURVATURE_PARAMS)
            values = curvature_samples(fam, MetricKind.INDUCED, s, mesh)
            return gauss_bonnet(mesh, values).total
        tot = _memo(("curvature", "gb", name), total)
        rows.append(_within(f"{name} Gauss-Bonnet total", tot,
                            2.0 * math.pi * chi, 0.02 * 4.0 * math.pi))

    frep = _memo(("curvature", "fermat"), lambda: fermat_gauss_bonnet(4, 0.1))
    rows.append(_within("quartic-curve Gauss-Bonnet total", frep.total,
                        -8.0 * math.pi, 0.02 * 8.0 * math.pi))

    eps = np.logspace(-1.0, -3.0, 6)
    for name, fam, target in (("two-sphere", fam2, 8.0 * math.pi),
                              ("three-cycle", three_cycle_family(), 12.0 * math.pi)):
        drep = _memo(("curvature", "defect", name),
                     lambda fam=fam: nodal_defect(fam, eps))
        rows.append(_within(f"{name} nodal curvature total", drep.limit,
                            target, 0.02 * target))
    return rows


SUITES = {
    "oracles": suite_oracles,
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "identity": suite_identity,
    "torsion": suite_torsion,
    "rayleigh": suite_rayleigh,
    "curvature": suite_curvature,
    "periods": suite_periods,
}


def run_suite(name: str) -> list[CriterionRow]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return _memo(("suite", name), SUITES[name])
