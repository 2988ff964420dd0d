"""Command line: sweeps, fits, period reports, verification tables.

Reports are plain UTF-8 with LF line endings: CSV for series, JSON for
structured results, each carrying a versioned ``schema`` marker.  A sweep
runs through ``verify.solve_fibers``, which seeds each fiber from the
plan seed and its index and fans the fibers out to a process pool; rows
are order-normalized (by s, then eigenvalue index) before the single
writer emits them, so worker count never changes their order.
"""
from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import min_curvature_sweep
from .errors import SchemaError
from .family import MetricKind, resolve_family
from .fitting import (
    SweepSeries,
    fit_inverse_log,
    fit_loglog_slope,
    fit_power_of_log,
    product_law_check,
)
from .mesh import MeshParams, mesh_fiber
from .periods import det_growth_fit, plumbing_twisted_gram, plumbing_untwisted_gram
from .verify import SUITES, run_suite, solve_fibers

SWEEP_SCHEMA = "pinchlab-sweep-v1"
FIT_SCHEMA = "pinchlab-fit-v1"
PERIODS_SCHEMA = "pinchlab-periods-v1"
VERIFY_SCHEMA = "pinchlab-verify-v1"
CURVATURE_SCHEMA = "pinchlab-curvature-v1"
MESH_SCHEMA = "pinchlab-mesh-v1"

SWEEP_COLUMNS = ("s", "k", "lambda", "residual", "vertices", "seconds")

FIT_MODELS = ("inverse-log", "power", "loglog", "product")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass
class SweepPlan:
    """A seeded eigenvalue sweep over a geometric s-grid."""

    family: str = "two-sphere"
    metric: str | None = None
    start: float = 1e-2
    stop: float = 1e-10
    count: int = 12
    num_ev: int = 3
    mesh_density: int = 2
    workers: int = 1
    seed: int = 0
    out: str = "sweep.csv"

    def __post_init__(self) -> None:
        if not self.start > self.stop > 0:
            raise ValueError("grid needs start > stop > 0")
        if self.count < 8:
            raise ValueError("grid needs at least 8 points")
        if self.num_ev < 2:
            raise ValueError("need at least 2 eigenvalues (one past the kernel)")
        if self.mesh_density < 1 or self.workers < 1:
            raise ValueError("mesh_density and workers must be >= 1")

    @property
    def s_grid(self) -> np.ndarray:
        return np.logspace(math.log10(self.start), math.log10(self.stop),
                           self.count)

    @property
    def mesh_params(self) -> MeshParams:
        return _mesh_params(self.mesh_density)


def _mesh_params(density: int) -> MeshParams:
    """Mesh resolution of a CLI ``--mesh-density``."""
    return MeshParams(rings_per_decade=8 * density, angular_count=16 * density)


@dataclass
class RunReport:
    """Aggregated sweep outcome: complete rows or explicit failures."""

    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def _metric_kind(plan_metric: str | None, config_metric: MetricKind | None
                 ) -> MetricKind:
    """Explicit flag wins; else the family config; else the induced metric."""
    if plan_metric is not None:
        return MetricKind(plan_metric)
    return config_metric or MetricKind.INDUCED


def cmd_sweep(plan: SweepPlan) -> RunReport:
    """Run the sweep, write the CSV, and return the aggregated report."""
    fam, cfg_metric = resolve_family(plan.family)
    kind = _metric_kind(plan.metric, cfg_metric)
    records = solve_fibers(fam, kind, plan.s_grid, plan.num_ev,
                           plan.mesh_params, plan.seed, plan.workers)

    report = RunReport()
    for index, rec in enumerate(records):
        if rec.error is not None:
            report.failures.append({"index": index, "s": rec.s,
                                    "error": rec.error})
            continue
        spec = rec.spectrum
        report.rows.extend(
            (rec.s, k, float(spec.eigenvalues[k]),
             float(spec.residual_norms[k]), spec.dimension, rec.seconds)
            for k in range(plan.num_ev))
    report.rows.sort(key=lambda r: (-r[0], r[1]))

    lines = [
        f"# schema={SWEEP_SCHEMA}",
        f"# family={plan.family}",
        f"# metric={kind.value}",
        f"# n_components={len(fam.components)}",
        f"# num_ev={plan.num_ev}",
        f"# seed={plan.seed}",
        ",".join(SWEEP_COLUMNS),
    ]
    for s, k, lam, res, verts, secs in report.rows:
        lines.append(",".join([_fmt(s), str(k), _fmt(lam), _fmt(res),
                               str(verts), _fmt(secs)]))
    with open(plan.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return report


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def read_sweep_csv(path: str) -> tuple[dict, dict]:
    """Metadata dict and column arrays of a sweep CSV."""
    meta: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    body = []
    for ln in lines:
        if ln.startswith("#"):
            key, _, value = ln.lstrip("# ").partition("=")
            meta[key] = value
        else:
            body.append(ln)
    if not body:
        raise SchemaError(f"{path}: no header row")
    header = body[0].split(",")
    missing = [c for c in SWEEP_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing columns {missing}")
    if meta.get("schema") != SWEEP_SCHEMA:
        raise SchemaError(f"{path}: schema {meta.get('schema')!r} is not "
                          f"{SWEEP_SCHEMA}")
    raw = [ln.split(",") for ln in body[1:]]
    cols = {name: np.array([float(r[j]) for r in raw])
            for j, name in enumerate(header)}
    return meta, cols


def cmd_fit(csv_path: str, model: str, out: str | None = None,
            k: int = 1) -> dict:
    """Fit one eigenvalue series (or the product law) from a sweep CSV."""
    if model not in FIT_MODELS:
        raise ValueError(f"unknown fit model {model!r}; choose from {FIT_MODELS}")
    meta, cols = read_sweep_csv(csv_path)
    if model == "product":
        n = int(meta.get("n_components", 0))
        if n < 2:
            raise SchemaError("product fit needs n_components >= 2 in metadata")
        s_grid = np.unique(cols["s"])[::-1]
        lam = np.empty((len(s_grid), n - 1))
        for i, s in enumerate(s_grid):
            at_s = cols["k"][cols["s"] == s]
            vals = cols["lambda"][cols["s"] == s]
            for j in range(1, n):
                lam[i, j - 1] = vals[at_s == j][0]
        res = product_law_check(s_grid, lam)
    else:
        mask = cols["k"] == k
        series = SweepSeries(s=cols["s"][mask], values=cols["lambda"][mask])
        fitter = {"inverse-log": fit_inverse_log, "power": fit_power_of_log,
                  "loglog": fit_loglog_slope}[model]
        res = fitter(series)
    def num(x):
        return float(x) if math.isfinite(x) else None

    payload = {
        "schema": FIT_SCHEMA,
        "source": csv_path,
        "model": res.model,
        "c": num(res.c),
        "p": num(res.p),
        "slope": num(res.slope),
        "residual": num(res.residual),
        "verdict": res.verdict,
        "window": res.window,
    }
    if out:
        _write_json(out, payload)
    return payload


# ---------------------------------------------------------------------------
# periods / verify / curvature / mesh-dump
# ---------------------------------------------------------------------------

def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, default=float)
        fh.write("\n")


def cmd_periods(family_ref: str, t_grid: np.ndarray,
                out: str | None = None) -> dict:
    """Twisted/untwisted period Grams and determinant growth slopes."""
    fam, _ = resolve_family(family_ref)
    twisted = plumbing_twisted_gram(fam, t_grid)
    untwisted = plumbing_untwisted_gram(fam, t_grid)
    payload = {"schema": PERIODS_SCHEMA, "family": family_ref,
               "t_grid": [float(t) for t in t_grid]}
    for label, gram in (("twisted", twisted), ("untwisted", untwisted)):
        dets = gram.determinants()
        slope, nearest, deviation = det_growth_fit(t_grid, dets)
        payload[label] = {
            "labels": gram.labels,
            "determinants": dets.tolist(),
            "min_eigenvalue": gram.check_positive_definite(),
            "det_slope": slope,
            "nearest_integer": nearest,
            "slope_deviation": deviation,
            "matrices_re": [np.real(m).tolist() for m in gram.matrices],
            "matrices_im": [np.imag(m).tolist() for m in gram.matrices],
        }
    if out:
        _write_json(out, payload)
    return payload


def cmd_verify(suite: str, out: str | None = None) -> list:
    """One measured/target/tolerance/verdict row per criterion."""
    rows = run_suite(suite)
    if out:
        _write_json(out, {
            "schema": VERIFY_SCHEMA,
            "suite": suite,
            "rows": [vars(r) for r in rows],
        })
    return rows


def cmd_curvature(family_ref: str, metric: str | None, s_grid: np.ndarray,
                  out: str | None = None):
    """Minimum-curvature sweep written as CSV."""
    fam, cfg_metric = resolve_family(family_ref)
    kind = _metric_kind(metric, cfg_metric)
    rep = min_curvature_sweep(fam, kind, s_grid)
    lines = [
        f"# schema={CURVATURE_SCHEMA}",
        f"# family={family_ref}",
        f"# metric={kind.value}",
        f"# fitted_exponent={_fmt(rep.fitted_exponent)}",
        "s,min_curvature,component_max",
    ]
    for s, mn, mx in zip(rep.s_grid, rep.min_values, rep.component_max):
        lines.append(",".join([_fmt(s), _fmt(mn), _fmt(mx)]))
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return rep


def cmd_mesh_dump(family_ref: str, metric: str | None, s: float,
                  mesh_density: int, out: str) -> None:
    """Vertex table (chart, coordinate) plus size statistics."""
    fam, cfg_metric = resolve_family(family_ref)
    kind = _metric_kind(metric, cfg_metric)
    mesh = mesh_fiber(fam, kind, s, _mesh_params(mesh_density))
    lines = [
        f"# schema={MESH_SCHEMA}",
        f"# family={family_ref}",
        f"# metric={kind.value}",
        f"# s={_fmt(s)}",
        f"# vertices={mesh.V}",
        f"# triangles={mesh.F}",
        f"# edges={mesh.E}",
        f"# genus={mesh.genus}",
        "vertex,chart,re,im",
    ]
    charts, ids, coords = mesh.vertex_chart_index()
    names = [":".join(str(c) for c in chart) for chart in charts]
    for v, (c, coord) in enumerate(zip(ids.tolist(), coords.tolist())):
        lines.append(f"{v},{names[c]},{_fmt(coord.real)},{_fmt(coord.imag)}")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:count")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="two-sphere",
                   help="preset name or family config file")
    p.add_argument("--metric", default=None,
                   choices=[k.value for k in MetricKind],
                   help="overrides the metric from a family config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchlab",
        description="spectra, periods, and curvature of degenerating surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="eigenvalue sweep over an s-grid")
    _add_family_flags(p)
    p.add_argument("--s-grid", type=_parse_grid, default=(1e-2, 1e-10, 12),
                   metavar="START:STOP:COUNT")
    p.add_argument("--num-ev", type=int, default=3)
    p.add_argument("--mesh-density", type=int, default=2)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="sweep.csv")

    p = sub.add_parser("fit", help="fit an asymptotic law to a sweep CSV")
    p.add_argument("csv")
    p.add_argument("--model", choices=FIT_MODELS, default="inverse-log")
    p.add_argument("--k", type=int, default=1, help="eigenvalue index")
    p.add_argument("--out", default=None)

    p = sub.add_parser("periods", help="period Gram matrices and det growth")
    _add_family_flags(p)
    p.add_argument("--s-grid", type=_parse_grid, default=(1e-3, 1e-8, 8),
                   metavar="START:STOP:COUNT")
    p.add_argument("--out", default="periods.json")

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--out", default=None)

    p = sub.add_parser("curvature", help="minimum-curvature sweep")
    _add_family_flags(p)
    p.add_argument("--s-grid", type=_parse_grid, default=(1e-2, 1e-6, 5),
                   metavar="START:STOP:COUNT")
    p.add_argument("--out", default="curvature.csv")

    p = sub.add_parser("mesh-dump", help="dump one fiber mesh as CSV")
    _add_family_flags(p)
    p.add_argument("--s", type=float, default=1e-4)
    p.add_argument("--mesh-density", type=int, default=1)
    p.add_argument("--out", default="mesh.csv")
    return parser


def _grid_array(spec: tuple[float, float, int]) -> np.ndarray:
    start, stop, count = spec
    if not start > stop > 0 or count < 2:
        raise ValueError("grid needs start > stop > 0 and count >= 2")
    return np.logspace(math.log10(start), math.log10(stop), count)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        start, stop, count = args.s_grid
        plan = SweepPlan(family=args.family, metric=args.metric,
                         start=start, stop=stop, count=count,
                         num_ev=args.num_ev, mesh_density=args.mesh_density,
                         workers=args.workers, seed=args.seed, out=args.out)
        report = cmd_sweep(plan)
        print(f"wrote {plan.out}: {len(report.rows)} rows, "
              f"{len(report.failures)} failures")
        for failure in report.failures:
            print(f"  failed s={failure['s']:.3g}: {failure['error']}")
        return 1 if report.failures else 0
    if args.command == "fit":
        payload = cmd_fit(args.csv, args.model, out=args.out, k=args.k)
        print(json.dumps(payload, indent=1, default=float))
        return 0
    if args.command == "periods":
        payload = cmd_periods(args.family, _grid_array(args.s_grid),
                              out=args.out)
        print(f"wrote {args.out}: twisted det slope "
              f"{payload['twisted']['det_slope']:.4f}, untwisted "
              f"{payload['untwisted']['det_slope']:.4f}")
        return 0
    if args.command == "verify":
        rows = cmd_verify(args.suite, out=args.out)
        width = max(len(r.criterion) for r in rows)
        for r in rows:
            print(f"{r.verdict:4s} {r.criterion:<{width}s} "
                  f"measured={r.measured:.6g} target={r.target:.6g} "
                  f"tol={r.tolerance:.3g}")
        return 0 if all(r.verdict == "PASS" for r in rows) else 1
    if args.command == "curvature":
        rep = cmd_curvature(args.family, args.metric,
                            _grid_array(args.s_grid), out=args.out)
        print(f"wrote {args.out}: fitted exponent {rep.fitted_exponent:.4f}")
        return 0
    if args.command == "mesh-dump":
        cmd_mesh_dump(args.family, args.metric, args.s, args.mesh_density,
                      args.out)
        print(f"wrote {args.out}")
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
