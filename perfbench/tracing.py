"""Wrappers around the library calls the workloads make: spans, counts and captures.

A wrapper replaces a function on every module attribute that callers look
up at call time.  ``pinchlab.cli`` and ``pinchlab.verify`` bind
``mesh_fiber``, ``assemble`` and ``solve_smallest`` at import, ``mesh``
binds ``conformal_factor``, ``plumbing_gram`` looks up
``annulus_log_integral`` and ``component_pairing`` in ``pinchlab.periods``,
and ``solve_smallest`` reaches ``eigsh`` through ``scipy.sparse.linalg``.
So the original function object is looked for in every loaded
``pinchlab`` module, and the scipy solvers in ``scipy.sparse.linalg``.

With tracing on, a wrapper records a span (name, start, end, parent) and
counts; spans stay in memory until the run writes them out.  With tracing
off, only the captures the checks need are installed, on ``mesh_fiber``,
``solve_smallest``, ``eigsh`` and ``lobpcg`` (``Spectrum`` carries no
eigenvectors).  When ``solve_smallest`` returns, the workload's
``on_solve`` hook gets the fiber's mesh, pencil, ``Spectrum`` and the
raw pairs of the rung that produced it, and keeps only the numbers its
checks need; the references are then dropped, so a round holds no more
meshes, pencils or eigenvectors than the library itself does.  The
hook's time is summed in ``Recorder.check_s`` and left out of the
round's wall time; with tracing on it is a ``bench.check`` span.
"""
from __future__ import annotations

import collections
import importlib
import sys
import time

import numpy as np

#: (module, attribute, span name).  The span name's prefix is the layer.
TARGETS = (
    ("pinchlab.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("pinchlab.cli", "cmd_fit", "cli.cmd_fit"),
    ("pinchlab.mesh", "mesh_fiber", "mesh.mesh_fiber"),
    ("pinchlab.laplace", "assemble", "laplace.assemble"),
    ("pinchlab.laplace", "assemble_weighted", "laplace.assemble_weighted"),
    ("pinchlab.laplace", "component_bundle_weight", "laplace.component_bundle_weight"),
    ("pinchlab.laplace", "solve_smallest", "laplace.solve_smallest"),
    ("scipy.sparse.linalg", "eigsh", "laplace.eigsh"),
    ("scipy.sparse.linalg", "lobpcg", "laplace.lobpcg"),
    ("pinchlab.heat", "partial_torsion_large_time", "heat.partial_torsion_large_time"),
    ("pinchlab.periods", "plumbing_gram", "periods.plumbing_gram"),
    ("pinchlab.periods", "annulus_log_integral", "periods.annulus_log_integral"),
    ("pinchlab.periods", "component_pairing", "periods.component_pairing"),
    ("pinchlab.periods", "fit_log_asymptotics", "periods.fit_log_asymptotics"),
    ("pinchlab.curvature", "curvature_samples", "curvature.curvature_samples"),
    ("pinchlab.curvature", "gauss_bonnet", "curvature.gauss_bonnet"),
    ("pinchlab.curvature", "fermat_gauss_bonnet", "curvature.fermat_gauss_bonnet"),
    ("pinchlab.curvature", "nodal_defect", "curvature.nodal_defect"),
    ("pinchlab.curvature", "min_curvature_sweep", "curvature.min_curvature_sweep"),
    ("pinchlab.rayleigh", "build_cutoffs", "rayleigh.build_cutoffs"),
    ("pinchlab.rayleigh", "rayleigh_upper_bound", "rayleigh.rayleigh_upper_bound"),
    ("pinchlab.fitting", "fit_power_of_log", "fitting.fit_power_of_log"),
    ("pinchlab.fitting", "fit_inverse_log", "fitting.fit_inverse_log"),
    ("pinchlab.fitting", "fit_loglog_slope", "fitting.fit_loglog_slope"),
    ("pinchlab.fitting", "product_law_check", "fitting.product_law_check"),
)

#: Counted on every call but given no span: it runs per mesh vertex and
#: per edge sample, where a span would cost more than the call.
COUNTED = (("pinchlab.family", "conformal_factor", "family.conformal_factor"),)

#: Wrappers the checks need with tracing off.
CAPTURED = ("mesh.mesh_fiber", "laplace.solve_smallest", "laplace.eigsh", "laplace.lobpcg")


def returned_pairs(raw, spectrum, k):
    """(eigenvalues, eigenvectors) as ``solve_smallest`` post-processes
    the raw pairs ``raw`` = (values, vectors) of its last rung, or None
    when they do not reproduce the returned eigenvalues bit for bit."""
    if raw is None:
        return None
    raw_vals, raw_vecs = raw
    order = np.argsort(raw_vals)[:k]
    vals = np.maximum(raw_vals[order], 0.0)
    if not np.array_equal(vals, spectrum.eigenvalues):
        return None
    return vals, raw_vecs[:, order]


#: Span of the ``on_solve`` hook: left out of the round's wall time.
CHECK_SPAN = "bench.check"


class Recorder:
    """Spans and counts of one round, and what its ``on_solve`` hook
    returns for each ``solve_smallest`` call.

    ``on_solve(mesh, problem, spectrum, pairs)`` runs after each solve
    that returns; ``mesh`` is the last ``mesh_fiber`` result (or None)
    and ``pairs`` what ``returned_pairs`` gives.  ``solves`` gets its
    result, or the exception it raised.  A solve that raises adds
    nothing; the workload counts it as failed.
    """

    def __init__(self, trace: bool, on_solve=None):
        self.trace = trace
        self.on_solve = on_solve
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: collections.Counter = collections.Counter()
        self.solves: list = []
        self.check_s = 0.0
        self._stack: list[int] = []
        self._mesh = None
        self._raw = None

    def call(self, name, fn, args, kwargs):
        if not self.trace:
            out = self._capture(name, fn, args, kwargs)
        else:
            index = self._open(name)
            try:
                out = self._capture(name, fn, args, kwargs)
            finally:
                self._close(index)
            self._count(name, out)
        if name == "laplace.solve_smallest":
            problem = args[0] if args else kwargs["problem"]
            k = args[1] if len(args) > 1 else kwargs["k"]
            self._after_solve(problem, k, out)
        return out

    def _open(self, name) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _capture(self, name, fn, args, kwargs):
        if name == "laplace.solve_smallest":
            self._raw = None
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._mesh = self._raw = None
                raise
        if name in ("laplace.eigsh", "laplace.lobpcg"):
            self._raw = None  # a failed rung's pairs are not kept while the next runs
            out = fn(*args, **kwargs)
            self._raw = out[0], out[1]
            return out
        out = fn(*args, **kwargs)
        if name == "mesh.mesh_fiber":
            self._mesh = out
        return out

    def _after_solve(self, problem, k, spectrum):
        t0 = time.perf_counter()
        index = self._open(CHECK_SPAN) if self.trace else None
        try:
            if self.on_solve is not None:
                pairs = returned_pairs(self._raw, spectrum, k)
                try:
                    self.solves.append(self.on_solve(self._mesh, problem, spectrum, pairs))
                except Exception as exc:  # a fault of the checks, not of the solve
                    self.solves.append(exc)
        finally:
            self._mesh = self._raw = None
            if index is not None:
                self._close(index)
            self.check_s += time.perf_counter() - t0

    def _count(self, name, out):
        self.counts[name] += 1
        if name == "mesh.mesh_fiber":
            self.counts["mesh.vertices"] += out.V
        elif name == "laplace.solve_smallest":
            self.counts["laplace.pairs"] += out.k
            self.counts["laplace.first_rung"] += out.solver_path == "eigsh"

    def in_checks(self) -> list[bool]:
        """Per span: whether it runs inside an ``on_solve`` hook."""
        inside: list[bool] = []
        for name, _, _, parent in self.spans:
            inside.append(name == CHECK_SPAN or (parent >= 0 and inside[parent]))
        return inside

    def self_times(self, keep=None) -> dict:
        """Span name -> (calls, total seconds, self seconds), over the
        spans whose entry in ``keep`` is true (default all)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if keep is not None and not keep[i]:
                continue
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, total + end - start, own + end - start - child[i])
        return table

    def total(self, *names) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name in names)

    def longest(self, *names) -> float:
        return max((end - start for name, start, end, _ in self.spans if name in names),
                   default=0.0)


class installed:
    """Context manager: wrap the functions named (by span name) in every
    module that binds them, and restore the originals on exit."""

    def __init__(self, recorder: Recorder, names):
        self.rec = recorder
        self.names = set(names)
        self.undo: list = []

    def __enter__(self):
        for module_name, attr, name in TARGETS + COUNTED:
            if name not in self.names:
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = (_counter if (module_name, attr, name) in COUNTED else _spanner)(
                self.rec, name, original)
            homes = [module] if module_name.startswith("scipy") else [
                m for key, m in list(sys.modules.items())
                if key == "pinchlab" or key.startswith("pinchlab.")]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, wrapper)
                        self.undo.append((home, key, original))
        return self

    def __exit__(self, *exc):
        for home, key, original in reversed(self.undo):
            setattr(home, key, original)
        self.undo.clear()
        return False


def _spanner(rec, name, fn):
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _counter(rec, name, fn):
    counts = rec.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def all_names():
    return [name for _, _, name in TARGETS + COUNTED]


#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "mesh.build_s": ("s", "lower"),
    "mesh.calls": ("count", "lower"),
    "mesh.vertices": ("count", "lower"),
    "mesh.vertices_per_s": ("1/s", "higher"),
    "family.conformal_factor_calls": ("count", "lower"),
    "laplace.assemble_s": ("s", "lower"),
    "laplace.solve_s": ("s", "lower"),
    "laplace.solves": ("count", "lower"),
    "laplace.pairs": ("count", "lower"),
    "laplace.eigsh_s": ("s", "lower"),
    "laplace.eigsh_calls": ("count", "lower"),
    "laplace.eigsh_max_s": ("s", "lower"),
    "laplace.check_s": ("s", "lower"),
    "laplace.first_rung_share": ("ratio", "higher"),
    "heat.torsion_s": ("s", "lower"),
    "periods.gram_s": ("s", "lower"),
    "periods.annulus_s": ("s", "lower"),
    "periods.annulus_calls": ("count", "lower"),
    "periods.component_s": ("s", "lower"),
    "periods.component_calls": ("count", "lower"),
    "curvature.samples_s": ("s", "lower"),
    "curvature.fermat_s": ("s", "lower"),
    "curvature.defect_s": ("s", "lower"),
    "curvature.minsweep_s": ("s", "lower"),
    "curvature.gauss_bonnet_s": ("s", "lower"),
    "rayleigh.bound_s": ("s", "lower"),
    "fitting.fit_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer metrics of one traced round (``trace.overhead_s``
    needs the untraced rounds and is added by the caller)."""
    c = rec.counts
    build = rec.total("mesh.mesh_fiber")
    solve = rec.total("laplace.solve_smallest")
    eigsh = rec.total("laplace.eigsh", "laplace.lobpcg")
    solves = c["laplace.solve_smallest"]
    table = rec.self_times()
    return {
        "mesh.build_s": build,
        "mesh.calls": c["mesh.mesh_fiber"],
        "mesh.vertices": c["mesh.vertices"],
        "mesh.vertices_per_s": c["mesh.vertices"] / build if build > 0 else 0.0,
        "family.conformal_factor_calls": c["family.conformal_factor"],
        "laplace.assemble_s": rec.total("laplace.assemble", "laplace.assemble_weighted",
                                        "laplace.component_bundle_weight"),
        "laplace.solve_s": solve,
        "laplace.solves": solves,
        "laplace.pairs": c["laplace.pairs"],
        "laplace.eigsh_s": eigsh,
        "laplace.eigsh_calls": c["laplace.eigsh"] + c["laplace.lobpcg"],
        "laplace.eigsh_max_s": rec.longest("laplace.eigsh", "laplace.lobpcg"),
        "laplace.check_s": solve - eigsh,
        "laplace.first_rung_share": c["laplace.first_rung"] / solves if solves else 0.0,
        "heat.torsion_s": rec.total("heat.partial_torsion_large_time"),
        "periods.gram_s": rec.total("periods.plumbing_gram"),
        "periods.annulus_s": rec.total("periods.annulus_log_integral"),
        "periods.annulus_calls": c["periods.annulus_log_integral"],
        "periods.component_s": rec.total("periods.component_pairing"),
        "periods.component_calls": c["periods.component_pairing"],
        "curvature.samples_s": rec.total("curvature.curvature_samples"),
        "curvature.fermat_s": rec.total("curvature.fermat_gauss_bonnet"),
        "curvature.defect_s": rec.total("curvature.nodal_defect"),
        "curvature.minsweep_s": rec.total("curvature.min_curvature_sweep"),
        "curvature.gauss_bonnet_s": rec.total("curvature.gauss_bonnet"),
        "rayleigh.bound_s": rec.total("rayleigh.build_cutoffs", "rayleigh.rayleigh_upper_bound"),
        "fitting.fit_s": rec.total("fitting.fit_power_of_log", "fitting.fit_inverse_log",
                                   "fitting.fit_loglog_slope", "fitting.product_law_check"),
        "cli.self_s": table.get("cli.cmd_sweep", (0, 0.0, 0.0))[2],
    }


def format_table(rec: Recorder, wall: float) -> str:
    """Per-span calls, total and self time, and self time as a share of
    the traced round's wall time; the ``on_solve`` hooks, which run
    outside that wall time, are summed on a line of their own."""
    inside = rec.in_checks()
    rows = sorted(rec.self_times([not h for h in inside]).items(), key=lambda kv: -kv[1][2])
    lines = [f"{'span':<36s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s}"]
    for name, (calls, total, own) in rows:
        lines.append(f"{name:<36s} {calls:7d} {total:9.3f} {own:9.3f} "
                     f"{100.0 * own / wall:6.1f}")
    covered = sum(own for _, (_, _, own) in rows)
    lines.append(f"{'(outside any span)':<36s} {'':7s} {'':9s} {wall - covered:9.3f} "
                 f"{100.0 * (wall - covered) / wall:6.1f}")
    hooks = sorted(rec.self_times(inside).items())
    lines.append(f"checks after each solve, outside wall_s: {rec.check_s:.3f} s"
                 + "".join(f"; {name} {total:.3f} s" for name, (_, total, _) in hooks
                           if name != CHECK_SPAN))
    for name in ("family.conformal_factor", "mesh.vertices", "laplace.pairs"):
        lines.append(f"count {name} = {rec.counts[name]}")
    return "\n".join(lines)
