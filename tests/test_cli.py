"""Command-line interface: config parsing, exit codes, output determinism."""

import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import curvednbody
from curvednbody import cli, criterion_check, rho_grid
from curvednbody.jsonout import format_float


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TRIANGLE_EXACT = {
    "kappa": 1.0,
    "angles": ["0/1", "1/4", "1/2"],
    "masses": [1.0, 1.0, 1.0],
    "rho": 0.5,
}

SQUARE_EXACT = {
    "kappa": 1.0,
    "angles": ["0/1", "1/4", "1/2", "3/4"],
    "masses": [1.0, 1.0, 1.0, 1.0],
    "rho": 0.5,
}


class TestValidate:
    def test_regular_square(self, tmp_path):
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, out, err = run_cli(["validate", "--config", cfg])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["is_regular"] is True
        assert doc["n"] == 4
        assert doc["representation"] == "exact"
        assert len(doc["pair_c"]) == 6

    def test_gaps_null_below_three_vertices(self, tmp_path):
        cfg = write_config(
            tmp_path, {"kappa": 1.0, "angles": [0.0], "masses": [1.0]}
        )
        code, out, _ = run_cli(["validate", "--config", cfg])
        assert code == 0
        doc = json.loads(out)
        assert doc["gaps"] is None and doc["is_regular"] is None

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, dict(SQUARE_EXACT, omega=2.0))
        code, _, err = run_cli(["validate", "--config", cfg])
        assert code == 2
        assert "omega" in err

    def test_mixed_angle_kinds_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, {"kappa": 1.0, "angles": ["0/1", 0.5, "1/2"]}
        )
        code, _, err = run_cli(["validate", "--config", cfg])
        assert code == 2
        assert "angles" in err

    def test_zero_curvature_rejected(self, tmp_path):
        cfg = write_config(tmp_path, dict(SQUARE_EXACT, kappa=0.0))
        code, _, err = run_cli(["validate", "--config", cfg])
        assert code == 2

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli(["validate", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config" in err

    def test_seed_flag_echoed(self, tmp_path):
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, out, _ = run_cli(["validate", "--config", cfg, "--seed", "7"])
        assert code == 0
        assert json.loads(out)["seed"] == 7


class TestCriterion:
    def test_regular_satisfied(self, tmp_path):
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, out, _ = run_cli(["criterion", "--config", cfg])
        assert code == 0
        doc = json.loads(out)
        assert doc["satisfied"] is True
        assert doc["max_delta_spread"] <= doc["threshold"]

    def test_irregular_unsatisfied(self, tmp_path):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        code, out, _ = run_cli(["criterion", "--config", cfg])
        assert code == 1
        assert json.loads(out)["satisfied"] is False

    def test_rho_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, out, _ = run_cli(["criterion", "--config", cfg, "--rho", "0.25"])
        assert code == 0
        assert json.loads(out)["rho"] == 0.25

    def test_equator_rho_rejected(self, tmp_path):
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, _, err = run_cli(["criterion", "--config", cfg, "--rho", "1.0"])
        assert code == 2
        assert "rho" in err

    def test_wrong_branch_rho_rejected(self, tmp_path):
        doc = dict(SQUARE_EXACT)
        del doc["rho"]
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["criterion", "--config", cfg, "--rho", "-0.5"])
        assert code == 2

    def test_loose_tolerance_flips_verdict(self, tmp_path):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        code, out, _ = run_cli(["criterion", "--config", cfg, "--tol", "1.0"])
        assert code == 0
        assert json.loads(out)["satisfied"] is True

    def test_missing_rho_rejected(self, tmp_path):
        doc = dict(TRIANGLE_EXACT)
        del doc["rho"]
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["criterion", "--config", cfg])
        assert code == 2
        assert "rho" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_tol_flag_must_be_finite_and_positive(self, tmp_path, tol):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        code, out, err = run_cli(["criterion", "--config", cfg, "--tol", tol])
        assert code == 2 and out == ""
        assert "config error: tol:" in err


def reported_rho(command, doc):
    return doc["feasibility"]["rho"] if command == "certify" else doc["rho"]


@pytest.mark.parametrize("command", ["criterion", "certify", "feasibility"])
class TestRhoResolution:
    """--rho wins over the config rho, which wins over the command's default."""

    @pytest.mark.parametrize("kappa, flag", [(1.0, 0.25), (-1.0, -0.75)])
    def test_flag_overrides_config(self, tmp_path, command, kappa, flag):
        doc = dict(TRIANGLE_EXACT, kappa=kappa, rho=0.5 if kappa > 0 else -1.5)
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli([command, "--config", cfg, "--rho", str(flag)])
        assert code in (0, 1)
        assert reported_rho(command, json.loads(out)) == flag

    @pytest.mark.parametrize("kappa, flag", [(1.0, "-0.5"), (-1.0, "0.5")])
    def test_wrong_branch_flag_rejected(self, tmp_path, command, kappa, flag):
        doc = dict(TRIANGLE_EXACT, kappa=kappa, rho=0.5 if kappa > 0 else -1.5)
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli([command, "--config", cfg, "--rho", flag])
        assert code == 2 and out == ""
        assert "config error: rho:" in err

    @pytest.mark.parametrize("kappa, default", [(1.0, 0.5), (-1.0, -1.0)])
    def test_neither_flag_nor_config(self, tmp_path, command, kappa, default):
        doc = dict(TRIANGLE_EXACT, kappa=kappa)
        del doc["rho"]
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli([command, "--config", cfg])
        if command == "certify":
            assert code == 0
            assert reported_rho(command, json.loads(out)) == default
        else:
            assert code == 2 and out == ""
            assert "config error: rho: required by this command but missing" in err


class TestCertify:
    def test_irregular_certificate(self, tmp_path):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        code, out, _ = run_cli(["certify", "--config", cfg])
        assert code == 0
        doc = json.loads(out)
        assert doc["regular"] is False
        assert doc["j"] == 3
        assert doc["case"] == "case1"
        assert doc["feasibility"]["verdict"] == "infeasible"

    def test_regular_exit_three(self, tmp_path):
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, out, _ = run_cli(["certify", "--config", cfg])
        assert code == 3
        doc = json.loads(out)
        assert doc["regular"] is True and doc["certificate"] is None

    def test_float_angles_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"kappa": 1.0, "angles": [0.0, 1.5707963267948966, 3.141592653589793]},
        )
        code, _, err = run_cli(["certify", "--config", cfg])
        assert code == 2
        assert "exact" in err

    def test_output_reproducible_byte_for_byte(self, tmp_path):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        _, first, _ = run_cli(["certify", "--config", cfg])
        _, second, _ = run_cli(["certify", "--config", cfg])
        assert first == second

    def test_hyperbolic_rho_flag(self, tmp_path):
        doc = {"kappa": -1.0, "angles": ["0/1", "1/4", "1/2"]}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["certify", "--config", cfg, "--rho", "-1.0"])
        assert code == 0
        assert json.loads(out)["feasibility"]["rho"] == -1.0

    def test_rho_flag_wrong_branch_rejected(self, tmp_path):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        code, _, err = run_cli(["certify", "--config", cfg, "--rho", "-1.0"])
        assert code == 2


class TestFeasibility:
    def test_regular_feasible(self, tmp_path):
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, out, _ = run_cli(["feasibility", "--config", cfg])
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert len(doc["masses"]) == 4

    def test_irregular_infeasible(self, tmp_path):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        code, out, _ = run_cli(["feasibility", "--config", cfg])
        assert code == 1
        doc = json.loads(out)
        assert doc["feasible"] is False and doc["masses"] is None

    def test_rho_flag(self, tmp_path):
        doc = dict(SQUARE_EXACT)
        del doc["rho"]
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["feasibility", "--config", cfg, "--rho", "0.75"])
        assert code == 0
        assert json.loads(out)["rho"] == 0.75


GEODESIC = {
    "kappa": 1.0,
    "angles": [0.0],
    "masses": [1.0],
    "rho": 0.5,
    "velocities": [[0.0, 1.0, 0.0]],
    "integrator": {"dt": 0.001, "t_end": 0.05},
}


class TestSimulate:
    def test_explicit_velocity_run(self, tmp_path):
        out_csv = tmp_path / "traj.csv"
        cfg = write_config(tmp_path, GEODESIC)
        code, out, _ = run_cli(
            ["simulate", "--config", cfg, "--out", str(out_csv)]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"] == 50
        assert doc["omega_dot"] is None
        assert doc["max_surface_residual"] < 1e-10
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,x1,y1,z1,vx1,vy1,vz1"
        assert len(lines) == 52  # header + initial sample + 50 steps
        assert float(lines[-1].split(",")[0]) == 0.05

    def test_zero_t_end_single_row(self, tmp_path):
        doc = dict(GEODESIC, integrator={"dt": 0.001, "t_end": 0.0})
        out_csv = tmp_path / "traj.csv"
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["simulate", "--config", cfg, "--out", str(out_csv)])
        assert code == 0
        assert json.loads(out)["steps"] == 0
        assert len(out_csv.read_text().splitlines()) == 2

    def test_solved_rotation_run(self, tmp_path):
        doc = {
            "kappa": 1.0,
            "angles": ["0/1", "1/3", "2/3"],
            "masses": [1.0, 1.0, 1.0],
            "rho": 0.36,
            "integrator": {"dt": 0.001, "t_end": 0.02},
        }
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["simulate", "--config", cfg])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["omega_dot"] == pytest.approx(2.070144521752146, rel=1e-12)
        assert parsed["max_c_drift"] < 1e-9
        assert parsed["out"] is None

    def test_missing_dt_rejected(self, tmp_path):
        doc = dict(GEODESIC)
        del doc["integrator"]
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["simulate", "--config", cfg])
        assert code == 2
        assert "dt" in err

    def test_non_tangent_velocities_rejected(self, tmp_path):
        doc = dict(GEODESIC, velocities=[[1.0, 0.0, 0.0]])
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["simulate", "--config", cfg])
        assert code == 2
        assert "velocities" in err

    def test_drift_guard_exit_code(self, tmp_path):
        doc = dict(
            GEODESIC,
            integrator={
                "dt": 0.1,
                "t_end": 10.0,
                "project_each_step": False,
                "max_constraint_drift": 1e-12,
            },
        )
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["simulate", "--config", cfg])
        assert code == 4
        assert "drift" in err

    def test_irregular_without_velocities_rejected(self, tmp_path):
        doc = dict(TRIANGLE_EXACT, integrator={"dt": 0.001, "t_end": 0.01})
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["simulate", "--config", cfg])
        assert code == 2
        assert "regular" in err


def sweep_polygons():
    """Seeded exact n = 3..12 polygons (denominators <= 10^4) and one float polygon."""
    rng = random.Random(4242)
    polygons = []
    for n in range(3, 13):
        q = rng.randint(n, 10_000)
        polygons.append([f"{p}/{q}" for p in sorted(rng.sample(range(q), n))])
    polygons.append([0.0, 0.9, 2.5, 4.1, 5.0])
    return polygons


class TestSweep:
    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    @pytest.mark.parametrize("points", [1, 12, 600])  # 600 spans three kernel blocks
    def test_cells_equal_criterion_check(self, tmp_path, kappa, points):
        rng = random.Random(points)
        for k, angles in enumerate(sweep_polygons()):
            masses = [rng.uniform(0.5, 2.0) for _ in angles]
            doc = {"kappa": kappa, "angles": angles, "masses": masses}
            path = write_config(tmp_path, doc, f"polygon{k}.json")
            code, out, _ = run_cli(["sweep", "--config", path, "--rho-grid", str(points)])
            assert code == 0
            cfg = cli.load_config(path)
            lines = out.splitlines()
            assert len(lines) == points + 1
            for line, rho in zip(lines[1:], rho_grid(kappa, points)):
                report = criterion_check(cfg.polygon, cfg.masses, rho)
                assert line.split(",") == [
                    format_float(rho),
                    format_float(report.max_delta_spread),
                    format_float(report.max_gamma_spread),
                ]

    def test_stdout_grid(self, tmp_path):
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, out, _ = run_cli(["sweep", "--config", cfg, "--rho-grid", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rho,delta_spread,gamma_spread"
        assert len(lines) == 6
        for line in lines[1:]:
            rho, d, g = (float(x) for x in line.split(","))
            assert 0.0 < rho < 1.0
            assert d < 1e-12 and g < 1e-12

    def test_single_point_grid_uses_midpoint(self, tmp_path):
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, out, _ = run_cli(["sweep", "--config", cfg, "--rho-grid", "1"])
        assert code == 0
        assert float(out.splitlines()[1].split(",")[0]) == 0.5

    def test_hyperbolic_grid_negative(self, tmp_path):
        doc = dict(SQUARE_EXACT, kappa=-1.0)
        del doc["rho"]
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["sweep", "--config", cfg, "--rho-grid", "4"])
        assert code == 0
        for line in out.splitlines()[1:]:
            assert -2.0 < float(line.split(",")[0]) < 0.0

    def test_irregular_spread_visible(self, tmp_path):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        code, out, _ = run_cli(["sweep", "--config", cfg, "--rho-grid", "8"])
        assert code == 0
        spreads = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert max(spreads) > 1e-6

    def test_out_file_and_summary(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, SQUARE_EXACT)
        code, out, _ = run_cli(
            ["sweep", "--config", cfg, "--rho-grid", "3", "--out", str(out_csv)]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == 3
        assert len(out_csv.read_text().splitlines()) == 4

    def test_thread_pool_deterministic(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        argv = ["sweep", "--config", cfg, "--rho-grid", "12"]
        monkeypatch.delenv("CURVED_NBODY_THREADS", raising=False)
        _, serial, _ = run_cli(argv)
        monkeypatch.setenv("CURVED_NBODY_THREADS", "4")
        _, pooled, _ = run_cli(argv)
        assert serial == pooled


def package_env():
    """Subprocess environment that imports the curvednbody under test."""
    env = dict(os.environ)
    root = str(Path(curvednbody.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        # Run the curved-nbody command exactly as declared in pyproject.toml,
        # through the wrapper an installer would generate for it.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
        target = scripts.get("curved-nbody")
        assert target is not None, "no curved-nbody entry in [project.scripts]"
        assert re.fullmatch(r"[A-Za-z_][\w.]*:[A-Za-z_]\w*", target), target
        module, attr = target.split(":")
        exe = tmp_path / "curved-nbody"
        exe.write_text(
            f"#!{sys.executable}\nimport sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
        )
        exe.chmod(0o755)
        cfg = write_config(tmp_path, SQUARE_EXACT)
        proc = subprocess.run(
            [str(exe), "validate", "--config", cfg],
            capture_output=True,
            text=True,
            timeout=60,
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["is_regular"] is True

    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        proc = subprocess.run(
            [sys.executable, "-m", "curvednbody.cli", "criterion", "--config", cfg],
            capture_output=True,
            text=True,
            timeout=60,
            env=package_env(),
        )
        assert proc.returncode == 1
