"""Tests for the command-line sweep/fit/report pipeline."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pinchlab.cli import (
    SWEEP_COLUMNS,
    SweepPlan,
    cmd_curvature,
    cmd_fit,
    cmd_mesh_dump,
    cmd_periods,
    cmd_sweep,
    cmd_verify,
    main,
    read_sweep_csv,
)
import pinchlab
from pinchlab.curvature import min_curvature_sweep
from pinchlab.errors import SchemaError
from pinchlab.family import MetricKind, three_cycle_family, two_sphere_family


def _numeric_lines(path):
    """CSV lines with the wall-time column dropped (it is diagnostic)."""
    out = []
    for ln in open(path, encoding="utf-8").read().splitlines():
        if ln.startswith("#") or ln.startswith("s,"):
            out.append(ln)
        else:
            out.append(",".join(ln.split(",")[:-1]))
    return out


def _small_plan(tmp_path, name="run.csv", **kw):
    defaults = dict(family="two-sphere", start=1e-2, stop=1e-8, count=8,
                    num_ev=2, mesh_density=1, seed=5,
                    out=str(tmp_path / name))
    defaults.update(kw)
    return SweepPlan(**defaults)


class TestSweepPlan:
    def test_grid_must_decrease(self):
        with pytest.raises(ValueError):
            SweepPlan(start=1e-8, stop=1e-2)

    def test_count_floor(self):
        with pytest.raises(ValueError):
            SweepPlan(count=7)

    def test_num_ev_floor(self):
        with pytest.raises(ValueError):
            SweepPlan(num_ev=1)

    def test_workers_floor(self):
        with pytest.raises(ValueError):
            SweepPlan(workers=0)

    def test_grid_endpoints(self):
        plan = SweepPlan(start=1e-2, stop=1e-10, count=12)
        assert plan.s_grid[0] == pytest.approx(1e-2)
        assert plan.s_grid[-1] == pytest.approx(1e-10)
        assert len(plan.s_grid) == 12

    def test_mesh_density_multiplier(self):
        params = SweepPlan(mesh_density=3).mesh_params
        assert params.rings_per_decade == 24
        assert params.angular_count == 48


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    plan = _small_plan(tmp)
    return plan, cmd_sweep(plan)


class TestCmdSweep:
    def test_row_count(self, sweep_result):
        plan, report = sweep_result
        assert len(report.rows) == plan.count * plan.num_ev
        assert not report.failures

    def test_csv_columns_exact(self, sweep_result):
        plan, _ = sweep_result
        lines = open(plan.out, encoding="utf-8").read().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == ",".join(SWEEP_COLUMNS)
        data = [ln for ln in lines if not ln.startswith(("#", "s,"))]
        assert len(data) == plan.count * plan.num_ev

    def test_schema_marker_present(self, sweep_result):
        plan, _ = sweep_result
        meta, _ = read_sweep_csv(plan.out)
        assert meta["schema"] == "pinchlab-sweep-v1"
        assert int(meta["n_components"]) == 2

    def test_rerun_same_seed_identical(self, sweep_result, tmp_path):
        plan, _ = sweep_result
        rerun = _small_plan(tmp_path, "rerun.csv")
        cmd_sweep(rerun)
        assert _numeric_lines(rerun.out) == _numeric_lines(plan.out)

    def test_parallel_equivalence(self, sweep_result, tmp_path):
        plan, _ = sweep_result
        par = _small_plan(tmp_path, "par.csv", workers=8)
        cmd_sweep(par)
        assert _numeric_lines(par.out) == _numeric_lines(plan.out)

    def test_rows_sorted_by_s_then_k(self, sweep_result):
        _, report = sweep_result
        keys = [(-r[0], r[1]) for r in report.rows]
        assert keys == sorted(keys)

    def test_fiber_failure_recorded_run_continues(self, tmp_path):
        # |s| >= 1/4 cannot be meshed: the first fiber fails, the rest run
        plan = _small_plan(tmp_path, "fail.csv", start=0.5, stop=1e-7)
        report = cmd_sweep(plan)
        assert len(report.failures) == 1
        assert report.failures[0]["s"] == pytest.approx(0.5)
        assert len(report.rows) == (plan.count - 1) * plan.num_ev


def _write_synthetic(path, s, lam, n_components=2):
    lines = [
        "# schema=pinchlab-sweep-v1",
        "# family=synthetic",
        "# metric=induced",
        f"# n_components={n_components}",
        "# num_ev=2",
        "# seed=0",
        ",".join(SWEEP_COLUMNS),
    ]
    for si, li in zip(s, lam):
        lines.append(f"{float(si)!r},0,1e-16,1e-12,100,0.1")
        lines.append(f"{float(si)!r},1,{float(li)!r},1e-12,100,0.1")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCmdFit:
    def test_inverse_log_recovers_constant(self, tmp_path):
        s = np.logspace(-1, -10, 12)
        path = tmp_path / "syn.csv"
        _write_synthetic(path, s, 3.0 / np.log(1.0 / s))
        payload = cmd_fit(str(path), "inverse-log")
        assert payload["c"] == pytest.approx(3.0, rel=1e-10)
        assert payload["schema"] == "pinchlab-fit-v1"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema=pinchlab-sweep-v1\ns,k,lambda\n1e-2,1,0.5\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError):
            cmd_fit(str(path), "inverse-log")

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema=other-v9\n" + ",".join(SWEEP_COLUMNS) + "\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError):
            cmd_fit(str(path), "inverse-log")

    def test_product_uses_component_metadata(self, tmp_path):
        s = np.logspace(-1, -10, 12)
        path = tmp_path / "syn.csv"
        _write_synthetic(path, s, 2.0 / np.log(1.0 / s))
        payload = cmd_fit(str(path), "product")
        assert payload["model"] == "ProductLaw"
        assert payload["verdict"] == "PASS"
        assert payload["c"] == pytest.approx(2.0, rel=1e-10)

    def test_unknown_model_rejected(self, tmp_path):
        s = np.logspace(-1, -10, 12)
        path = tmp_path / "syn.csv"
        _write_synthetic(path, s, 1.0 / np.log(1.0 / s))
        with pytest.raises(ValueError):
            cmd_fit(str(path), "quadratic")

    def test_json_output_is_strict(self, tmp_path):
        s = np.logspace(-1, -10, 12)
        path = tmp_path / "syn.csv"
        _write_synthetic(path, s, 1.0 / np.log(1.0 / s))
        out = tmp_path / "fit.json"
        cmd_fit(str(path), "inverse-log", out=str(out))
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["p"] is None  # NaN never leaks into JSON


#: A family config of the removed Fermat kind (the old reader needed only d).
FERMAT_CONFIG = "[family]\nschema = pinchlab-family-v1\nkind = fermat\nd = 4\n"


class TestCmdPeriods:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "periods.json"
        payload = cmd_periods("two-sphere", np.logspace(-3, -8, 8),
                              out=str(out))
        assert payload["schema"] == "pinchlab-periods-v1"
        assert payload["twisted"]["min_eigenvalue"] > 0
        disk = json.loads(out.read_text(encoding="utf-8"))
        assert disk["twisted"]["det_slope"] == payload["twisted"]["det_slope"]

    def test_fermat_config_fails_without_json(self, tmp_path):
        # a family kind that no stage can run must stop the command, not
        # write empty Grams
        cfg, out = tmp_path / "fermat.cfg", tmp_path / "periods.json"
        cfg.write_text(FERMAT_CONFIG, encoding="utf-8")
        src = Path(pinchlab.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "pinchlab.cli", "periods", "--family", str(cfg),
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120)
        assert run.returncode != 0
        assert "SchemaError" in run.stderr and str(cfg) in run.stderr
        assert not out.exists()


class TestCmdVerify:
    def test_oracle_rows(self, tmp_path):
        out = tmp_path / "verify.json"
        rows = cmd_verify("oracles", out=str(out))
        assert rows and all(r.verdict in ("PASS", "FAIL") for r in rows)
        disk = json.loads(out.read_text(encoding="utf-8"))
        assert disk["schema"] == "pinchlab-verify-v1"
        assert len(disk["rows"]) == len(rows)

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "no-such-suite"])
        assert err.value.code == 2


class TestCmdCurvature:
    def _read(self, path):
        lines = path.read_text(encoding="utf-8").splitlines()
        header = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        columns = lines.index("s,min_curvature,component_max")
        rows = [[float(x) for x in ln.split(",")] for ln in lines[columns + 1:]]
        return header, np.array(rows)

    def test_header_rows_and_exponent(self, tmp_path):
        out = tmp_path / "curvature.csv"
        grid = np.logspace(-2, -5, 4)
        rep = cmd_curvature("two-sphere", None, grid, out=str(out))
        header, rows = self._read(out)
        assert header == {"schema": "pinchlab-curvature-v1", "family": "two-sphere",
                          "metric": "induced", "fitted_exponent": header["fitted_exponent"]}
        assert rows.shape == (len(grid), 3)
        assert rows[:, 0].tolist() == grid.tolist()
        expect = min_curvature_sweep(two_sphere_family(), MetricKind.INDUCED, grid)
        assert float(header["fitted_exponent"]) == expect.fitted_exponent == rep.fitted_exponent
        assert rows[:, 1].tolist() == expect.min_values.tolist()
        assert rows[:, 2].tolist() == expect.component_max.tolist()

    def test_command_line_metric_and_grid(self, tmp_path, capsys):
        out = tmp_path / "curvature.csv"
        assert main(["curvature", "--family", "three-cycle", "--metric", "cylinder",
                     "--s-grid", "1e-2:1e-4:3", "--out", str(out)]) == 0
        header, rows = self._read(out)
        assert (header["family"], header["metric"]) == ("three-cycle", "cylinder")
        assert rows[:, 0].tolist() == np.logspace(-2, -4, 3).tolist()
        expect = min_curvature_sweep(three_cycle_family(), MetricKind.CYLINDER,
                                     np.logspace(-2, -4, 3))
        assert float(header["fitted_exponent"]) == expect.fitted_exponent
        assert f"fitted exponent {expect.fitted_exponent:.4f}" in capsys.readouterr().out


class TestCmdMeshDump:
    def test_vertex_table(self, tmp_path):
        out = tmp_path / "mesh.csv"
        cmd_mesh_dump("two-sphere", None, 1e-4, 1, str(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        stats = {ln.lstrip("# ").split("=")[0]: ln.split("=")[1]
                 for ln in lines if ln.startswith("#")}
        assert stats["schema"] == "pinchlab-mesh-v1"
        body = [ln for ln in lines if not ln.startswith(("#", "vertex,"))]
        assert len(body) == int(stats["vertices"])

    def test_chart_column_names_the_family_charts(self, tmp_path):
        out = tmp_path / "mesh.csv"
        cmd_mesh_dump("three-cycle", None, 1e-4, 1, str(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        names = {ln.split(",")[1] for ln in lines if not ln.startswith(("#", "vertex,"))}
        assert names == {":".join(map(str, c)) for c in three_cycle_family().charts()}

    def test_fubini_study_metric_is_a_usage_error(self, tmp_path, capsys):
        # no plumbing chart has a Fubini-Study factor, so no command offers it
        out = tmp_path / "mesh.csv"
        with pytest.raises(SystemExit) as err:
            main(["mesh-dump", "--family", "two-sphere", "--metric", "fubini-study",
                  "--out", str(out)])
        assert err.value.code == 2
        assert "invalid choice: 'fubini-study'" in capsys.readouterr().err
        assert not out.exists()


class TestMain:
    def test_sweep_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(["sweep", "--family", "two-sphere",
                     "--s-grid", "1e-2:1e-8:8", "--num-ev", "2",
                     "--mesh-density", "1", "--seed", "1",
                     "--out", str(out)])
        assert code == 0 and out.exists()
        assert "16 rows" in capsys.readouterr().out

    def test_fit_prints_json(self, tmp_path, capsys):
        s = np.logspace(-1, -10, 12)
        path = tmp_path / "syn.csv"
        _write_synthetic(path, s, 3.0 / np.log(1.0 / s))
        code = main(["fit", str(path), "--model", "inverse-log"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["c"] == pytest.approx(3.0, rel=1e-10)

    def test_bad_grid_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--s-grid", "nonsense"])
