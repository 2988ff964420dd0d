"""The fiber pipeline shared by `pinchlab sweep` and the verify suites."""
import math

import numpy as np
import pytest

from pinchlab.cli import SweepPlan, cmd_sweep, read_sweep_csv
from pinchlab.errors import PinchlabError
from pinchlab.family import MetricKind, three_cycle_family, two_sphere_family
from pinchlab.mesh import mesh_fiber
from pinchlab.verify import DEFAULT_GRID, SWEEP_PARAMS, _core_ring_length, eigen_sweep


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


def _core_ring_length_loop(mesh, s):
    """Per-triangle reference for ``verify._core_ring_length``."""
    root = math.sqrt(abs(s))
    radii = np.unique(np.abs(np.concatenate(
        [mesh.tri_coords[f] for f, ch in enumerate(mesh.tri_chart) if ch[0] == "neck"])))
    r0 = radii[np.abs(np.log(radii / root)).argmin()]
    total, seen = 0.0, set()
    for f, chart in enumerate(mesh.tri_chart):
        if chart[0] != "neck":
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
