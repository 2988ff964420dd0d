"""The two workloads: inputs (the set-up), one timed round, and the
checks and bitwise digest of a round's outputs.

A workload is two parts run one after the other in each round:
``spectral`` is ``Sweep`` then ``Torsion`` (mesh, pencil, eigensolve,
torsion), ``geometry`` is ``Periods`` then ``Curvature`` (no eigensolve).
Two workloads, not four, so that a run can time rounds twice as long in
the time a full set of runs is given (see the README's *Steadiness*).

Every library call goes through a module attribute (``cli.cmd_sweep``,
``laplace.solve_smallest``, ...) so that the wrappers in ``tracing``
see it.  An operation that raises is counted as failed and the round
goes on; the checks look at the operations that did not fail.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import checks
import tracing
from pinchlab import cli, curvature, family, heat, laplace, mesh, periods, rayleigh, verify
from pinchlab.family import MetricKind, is_inf_point

INDUCED = MetricKind.INDUCED


class Output:
    """What one round returns: its failures and the data its checks read."""

    def __init__(self, **data):
        self.failed = 0
        self.errors: list[str] = []
        self.__dict__.update(data)

    def fail(self, what, exc, ops=1):
        self.failed += ops
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


class Fiber:
    """What the checks keep of one solve: the returned ``Spectrum``, the
    pencil's dimension, the residuals the benchmark recomputed from the
    raw pairs (None when those do not reproduce the returned eigenvalues)
    and, in the sweep, the cut-off Rayleigh bounds.  No mesh, pencil or
    eigenvector outlives its fiber."""

    __slots__ = ("spectrum", "dimension", "residuals", "bound")

    def __init__(self, spectrum, dimension, residuals, bound):
        self.spectrum, self.dimension = spectrum, dimension
        self.residuals, self.bound = residuals, bound


def fiber_hook(fam=None):
    """``Recorder.on_solve`` for the sweep (``fam`` given: with Rayleigh
    bounds) and for the torsion (without)."""
    def hook(m, problem, spectrum, pairs):
        residuals = None if pairs is None else checks.pencil_residuals(
            problem.stiffness, problem.mass, *pairs)
        bound = None if fam is None else rayleigh.rayleigh_upper_bound(
            problem, rayleigh.build_cutoffs(m, fam, spectrum.s))
        return Fiber(spectrum, problem.dimension, residuals, bound)
    return hook


def _fiber_problems(label, fiber, zeros) -> list[str]:
    """Residuals and zero-mode count of one captured solve."""
    if isinstance(fiber, Exception):
        return [f"{label}: the checks after the solve raised {fiber!r}"]
    if fiber.residuals is None:
        return [f"{label}: captured pairs do not reproduce the returned eigenvalues"]
    return (checks.check_residuals(label, fiber.residuals)
            + checks.check_zero_modes(label, fiber.spectrum.eigenvalues, zeros))


# ---------------------------------------------------------------------------
# sweep: the thm1/thm2 data through the command line layer
# ---------------------------------------------------------------------------

class Sweep:
    """``cli.cmd_sweep`` on two-sphere (k=3) and three-cycle (k=5) over the
    default 12-point grid 1e-2..1e-10 at mesh density 2, ``workers=1``;
    the cut-off Rayleigh bound on every fiber; ``cli.cmd_fit`` of the
    lambda_1 log-power law (two-sphere) and the product law (three-cycle)."""

    captures = tracing.CAPTURED
    FAMILIES = (("two-sphere", 3), ("three-cycle", 5))

    def __init__(self, seed: int, out_dir: Path):
        self.plans = [
            cli.SweepPlan(family=name, num_ev=k, workers=1, seed=seed,
                          out=str(out_dir / f"sweep-{name}.csv"))
            for name, k in self.FAMILIES
        ]
        self.families = [family.resolve_family(p.family)[0] for p in self.plans]
        self.ops = sum(p.count for p in self.plans)

    def run(self, rec: tracing.Recorder) -> Output:
        out = Output(reports=[], fibers=[], fits=[])
        for plan, fam in zip(self.plans, self.families):
            rec.on_solve = fiber_hook(fam)
            first = len(rec.solves)
            report = cli.cmd_sweep(plan)
            out.reports.append(report)
            out.failed += len(report.failures)
            out.errors += [f"{plan.family} s={f['s']:.3g}: {f['error']}" for f in report.failures]
            out.fibers.append(rec.solves[first:])
        rec.on_solve = None
        out.fits = [cli.cmd_fit(self.plans[0].out, "power", k=1),
                    cli.cmd_fit(self.plans[1].out, "product")]
        return out

    def check(self, out: Output) -> list[str]:
        problems = []
        series = []
        for plan, fibers in zip(self.plans, out.fibers):
            s_list, lam = [], []
            for i, fiber in enumerate(fibers):
                label = f"sweep {plan.family} fiber {i}"
                found = _fiber_problems(label, fiber, 1)
                problems += found
                if found:
                    continue
                vals = fiber.spectrum.eigenvalues
                problems += checks.check_rayleigh(label, fiber.bound, vals)
                s_list.append(fiber.spectrum.s)
                lam.append(vals)
            series.append((np.array(s_list), np.array(lam)))

        (s2, lam2), (s3, lam3) = series
        if len(s2) == self.plans[0].count:
            p = checks.log_power_exponent(s2, lam2[:, 1])
            problems += checks.check_within("two-sphere lambda_1 log-power exponent", p, 1.0, 0.15)
            problems += checks.check_within("cmd_fit power exponent", out.fits[0]["p"], p,
                                            1e-8 * abs(p))
        if len(s3) == self.plans[1].count:
            spread = checks.product_spread(s3, lam3[:, 1], lam3[:, 2])
            problems += checks.check_below("three-cycle product max/min", spread, 1.5)
            problems += checks.check_within("cmd_fit product max/min",
                                            out.fits[1]["window"]["max_over_min"], spread,
                                            1e-8 * spread)
        return problems

    def digest(self, out: Output) -> list:
        d = [np.array([r[:5] for r in rep.rows], dtype=float) for rep in out.reports]
        for fibers in out.fibers:
            d += [f.spectrum.eigenvalues for f in fibers]
            d += [f.spectrum.residual_norms for f in fibers]
            d += [f.bound for f in fibers]
        d += [np.array([f[key] for key in ("c", "p", "slope", "residual")], dtype=float)
              for f in out.fits]
        return d


# ---------------------------------------------------------------------------
# torsion: the heat-kernel side
# ---------------------------------------------------------------------------

class Torsion:
    """Two-sphere family at metric scale 4, fibers at the shallow and the
    deep end of ``verify.TORSION_GRID`` (s = 1e-5 and 1e-15), mesh
    ``verify.SWEEP_PARAMS``; per fiber k=150 pairs of the scalar pencil
    and of the bundle-weighted pencil, then ``partial_torsion_large_time``
    of both.  The solver seed of fiber i is seed * 100003 + i, as in
    ``cli``."""

    captures = tracing.CAPTURED
    SCALE, K = 4.0, 150
    GRID_INDICES = (0, 11)

    def __init__(self, seed: int, out_dir: Path):
        self.family = family.two_sphere_family(self.SCALE)
        self.fibers = [(float(verify.TORSION_GRID[i]), seed * 100003 + i)
                       for i in self.GRID_INDICES]
        self.ops = len(self.fibers)

    def run(self, rec: tracing.Recorder) -> Output:
        out = Output(fibers=[])
        rec.on_solve = fiber_hook()
        for s, seed in self.fibers:
            first = len(rec.solves)
            try:
                tau, tau_w = self._fiber(s, seed)
            except Exception as exc:  # counted; the round goes on
                out.fail(f"torsion s={s:.3g}", exc)
                continue
            out.fibers.append((s, rec.solves[first:], tau, tau_w))
        rec.on_solve = None
        return out

    def _fiber(self, s, seed):
        m = mesh.mesh_fiber(self.family, INDUCED, s, verify.SWEEP_PARAMS)
        scalar = laplace.solve_smallest(laplace.assemble(m), self.K, s=s, seed=seed)
        weight = laplace.component_bundle_weight(m)
        weighted = laplace.solve_smallest(laplace.assemble_weighted(m, weight),
                                          self.K, s=s, seed=seed)
        return (heat.partial_torsion_large_time(scalar)[0],
                heat.partial_torsion_large_time(weighted, h0=0)[0])

    def check(self, out: Output) -> list[str]:
        problems = []
        compensated = []
        for s, (scalar, weighted), tau, tau_w in out.fibers:
            for name, fiber, zeros, value in (("scalar", scalar, 1, tau),
                                              ("weighted", weighted, 0, tau_w)):
                label = f"torsion {name} s={s:.3g}"
                found = _fiber_problems(label, fiber, zeros)
                problems += found
                if found:
                    continue
                vals = fiber.spectrum.eigenvalues
                problems += checks.check_torsion(label, value, vals, zeros)
                problems += checks.check_below(f"{label} certified tail",
                                               checks.certified_tail(fiber.dimension, vals), 1e-2)
                if name == "scalar":
                    compensated.append(value + math.log(vals[1]))
        if len(compensated) == len(self.fibers):
            problems += checks.check_below("log tau + log lambda_1 variation",
                                           checks.relative_variation(compensated), 0.10)
        return problems

    def digest(self, out: Output) -> list:
        d = []
        for _, fibers, tau, tau_w in out.fibers:
            d += [f.spectrum.eigenvalues for f in fibers]
            d += [f.spectrum.residual_norms for f in fibers]
            d.append(np.array([tau, tau_w]))
        return d


# ---------------------------------------------------------------------------
# periods: the Quillen side
# ---------------------------------------------------------------------------

class Periods:
    """Twisted and untwisted Grams of the three-cycle over 8 points of
    |t| from 1e-3 to 1e-24, and the twisted Gram of the two-sphere over
    8 points from 1e-3 to 1e-8 with its log-law fit (the suite's grid).
    No mesh and no solve runs here."""

    captures = ()
    CYCLE_GRID = np.logspace(-3.0, -24.0, 8)
    PAIR_GRID = np.logspace(-3.0, -8.0, 8)

    def __init__(self, seed: int, out_dir: Path):
        cycle, pair = family.three_cycle_family(), family.two_sphere_family()
        self.grams = (
            ("three-cycle twisted", "plumbing_twisted_gram", cycle, self.CYCLE_GRID, 0),
            ("three-cycle untwisted", "plumbing_untwisted_gram", cycle, self.CYCLE_GRID, 1),
            ("two-sphere twisted", "plumbing_twisted_gram", pair, self.PAIR_GRID, 0),
        )
        self.ops = sum(len(g[3]) for g in self.grams)

    def run(self, rec: tracing.Recorder) -> Output:
        out = Output(grams=[])
        for label, build, fam, grid, _ in self.grams:
            try:
                gram = getattr(periods, build)(fam, grid)
                fit = periods.fit_log_asymptotics(gram)
            except Exception as exc:  # counted; the round goes on
                out.fail(label, exc, ops=len(grid))
                continue
            out.grams.append((label, gram, fit))
        return out

    def check(self, out: Output) -> list[str]:
        problems = []
        spec = {g[0]: g for g in self.grams}
        for label, gram, fit in out.grams:
            _, _, fam, grid, which = spec[label]
            diffs = periods.canonical_basis(fam)[which]
            problems += checks.check_hermitian_pd(label, gram.matrices)
            res, g, h = _node_data(fam, diffs)
            scale = np.abs(fit.a).max()
            problems += checks.check_matrix_close(f"{label} log coefficient", fit.a,
                                                  checks.log_coefficient(res), 1e-6 * scale)
            that = np.asarray(grid) / periods.RHO ** 2
            for i in range(len(grid) - 1):
                got = gram.matrices[i] - gram.matrices[i + 1]
                expect = checks.annulus_difference(g, h, that[i], that[i + 1])
                size = max(np.abs(gram.matrices[i]).max(), np.abs(gram.matrices[i + 1]).max())
                problems += checks.check_matrix_close(
                    f"{label} G({grid[i]:.3g}) - G({grid[i + 1]:.3g})", got, expect,
                    PERIODS_REL_TOL * size)
            if label == "two-sphere twisted":
                problems += checks.check_below("two-sphere log-law residual", fit.residual, 0.01)
        return problems

    def digest(self, out: Output) -> list:
        return [np.array(gram.matrices) for _, gram, _ in out.grams]


#: plumbing_gram's default quadrature tolerance (relative to the
#: integrand's L1 mass, which the entries' size stands in for).
PERIODS_REL_TOL = 1e-6
TAYLOR_DEGREE = 24  # plumbing_gram's default truncation


def _node_data(fam, diffs):
    """Residues (diff, node) at each node's left branch, and Taylor data
    g (left branch) and h (right branch), (diff, node, degree + 1),
    scaled to the annulus of radius RHO, all from the forms' poles."""
    scale = periods.RHO ** np.arange(TAYLOR_DEGREE + 1)
    res = np.zeros((len(diffs), len(fam.nodes)), dtype=complex)
    g = np.zeros((len(diffs), len(fam.nodes), TAYLOR_DEGREE + 1), dtype=complex)
    h = np.zeros_like(g)
    for i, d in enumerate(diffs):
        for q, node in enumerate(fam.nodes):
            for branch, out in ((node.left, g), (node.right, h)):
                cid, mp = branch
                point = fam.component(cid).marked_points[mp]
                point = None if is_inf_point(point) else point
                poles = d.form(cid).poles
                out[i, q] = checks.alpha_taylor(poles, point, TAYLOR_DEGREE) * scale
                if branch is node.left:
                    res[i, q] = checks.residue(poles, point)
    return res, g, h


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

class Curvature:
    """Gauss-Bonnet totals of the two-sphere and three-cycle fibers at
    s = 1e-3 on ``verify.CURVATURE_PARAMS`` meshes, the quartic Fermat
    curve at s = 0.1, nodal totals of both plumbing families over ball
    radii 1e-1..1e-3 (6 points), and the two-sphere minimum-curvature
    sweep over 1e-2..1e-6 (5 points): the suite's inputs."""

    captures = ()
    S = 1e-3
    EPS = np.logspace(-1.0, -3.0, 6)
    MIN_GRID = np.logspace(-2.0, -6.0, 5)
    # (label, target, tolerance): 2 pi chi with chi = 2 and 0, 2 pi chi
    # of the genus-3 quartic, 4 pi per sphere of the normalization; the
    # suite's 2 % tolerances
    TARGETS = (
        ("two-sphere Gauss-Bonnet", 4.0 * math.pi, 0.02 * 4.0 * math.pi),
        ("three-cycle Gauss-Bonnet", 0.0, 0.02 * 4.0 * math.pi),
        ("quartic Gauss-Bonnet", -8.0 * math.pi, 0.02 * 8.0 * math.pi),
        ("two-sphere nodal total", 8.0 * math.pi, 0.02 * 8.0 * math.pi),
        ("three-cycle nodal total", 12.0 * math.pi, 0.02 * 12.0 * math.pi),
    )

    def __init__(self, seed: int, out_dir: Path):
        self.pair, self.cycle = family.two_sphere_family(), family.three_cycle_family()
        self.ops = len(self.TARGETS) + 1

    def _gauss_bonnet(self, fam):
        m = mesh.mesh_fiber(fam, INDUCED, self.S, verify.CURVATURE_PARAMS)
        field = curvature.curvature_samples(fam, INDUCED, self.S, m)
        return curvature.gauss_bonnet(m, field).total

    def run(self, rec: tracing.Recorder) -> Output:
        out = Output(totals={})
        steps = (
            ("two-sphere Gauss-Bonnet", lambda: self._gauss_bonnet(self.pair)),
            ("three-cycle Gauss-Bonnet", lambda: self._gauss_bonnet(self.cycle)),
            ("quartic Gauss-Bonnet", lambda: curvature.fermat_gauss_bonnet(4, 0.1).total),
            ("two-sphere nodal total", lambda: curvature.nodal_defect(self.pair, self.EPS).limit),
            ("three-cycle nodal total",
             lambda: curvature.nodal_defect(self.cycle, self.EPS).limit),
            ("min-curvature growth", lambda: _growth(curvature.min_curvature_sweep(
                self.pair, INDUCED, self.MIN_GRID))),
        )
        for label, step in steps:
            try:
                out.totals[label] = step()
            except Exception as exc:  # counted; the round goes on
                out.fail(label, exc)
        return out

    def check(self, out: Output) -> list[str]:
        problems = []
        for label, target, tol in self.TARGETS:
            if label in out.totals:
                problems += checks.check_within(label, out.totals[label], target, tol)
        if "min-curvature growth" in out.totals:
            problems += checks.check_at_least("min-curvature growth 1e-2 -> 1e-6",
                                              out.totals["min-curvature growth"], 10.0)
        return problems

    def digest(self, out: Output) -> list:
        return [np.array(list(out.totals.values()))]


def _growth(report) -> float:
    return abs(report.min_values[-1]) / abs(report.min_values[0])


# ---------------------------------------------------------------------------
# the workloads: two parts each
# ---------------------------------------------------------------------------

class Combined:
    """Parts run one after the other in a round; ops, failures, checks
    and digests are the parts' together."""

    PARTS: tuple = ()

    def __init__(self, seed: int, out_dir: Path):
        self.parts = [part(seed, out_dir) for part in self.PARTS]
        self.captures = tuple(dict.fromkeys(c for p in self.parts for c in p.captures))
        self.ops = sum(p.ops for p in self.parts)

    def run(self, rec: tracing.Recorder) -> Output:
        outs = [p.run(rec) for p in self.parts]
        out = Output(parts=outs)
        out.failed = sum(o.failed for o in outs)
        out.errors = [e for o in outs for e in o.errors]
        return out

    def check(self, out: Output) -> list[str]:
        return [q for p, o in zip(self.parts, out.parts) for q in p.check(o)]

    def digest(self, out: Output) -> list:
        return [d for p, o in zip(self.parts, out.parts) for d in p.digest(o)]


class Spectral(Combined):
    """The spectral side: the sweep's small-k shift-invert solves, then
    the torsion's k=150 Lanczos solves on the same laplace layer."""

    PARTS = (Sweep, Torsion)


class Geometry(Combined):
    """No eigensolve: the Quillen side's period Grams, then the
    curvature module on meshes four times denser than the sweep's."""

    PARTS = (Periods, Curvature)


WORKLOADS = {"spectral": Spectral, "geometry": Geometry}
