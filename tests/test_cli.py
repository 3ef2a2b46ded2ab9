"""Command-line interface: config parsing, exit codes, output determinism."""

import ast
import enum
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from array import array
from collections import OrderedDict, namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import curvednbody
from curvednbody import ConfigError, cli, criterion_check, rho_grid
from curvednbody.jsonout import csv_text, dumps, format_float


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

    @pytest.mark.parametrize("angles", [
        ["0", "1e-1000000", "1/2"],  # an exponent would make Fraction build a huge integer
        ["0", "0.25", "1/2"],
        ["0", " 1/4", "1/2"],
    ])
    def test_angle_strings_must_be_p_over_q(self, tmp_path, angles):
        path = write_config(tmp_path, {"kappa": 1.0, "angles": angles})
        with pytest.raises(ConfigError) as info:
            cli.load_config(path)
        assert info.value.field == "angles"

    @pytest.mark.parametrize("field", [
        "kappa", "angles", "masses", "rho", "tol", "velocities",
        "integrator.dt", "integrator.t_end", "integrator.max_constraint_drift",
    ])
    def test_integer_too_large_for_a_double_rejected(self, tmp_path, field):
        doc = {
            "kappa": 1.0,
            "angles": [0.0, 2.0, 4.0],
            "masses": [1.0, 1.0, 1.0],
            "rho": 0.5,
            "tol": 1e-10,
            "velocities": [[0.0, 0.0, 0.0] for _ in range(3)],
            "integrator": {"dt": 0.001, "t_end": 0.01, "max_constraint_drift": 1e-6},
        }
        head, _, key = field.rpartition(".")
        target = doc[head] if head else doc
        if isinstance(target[key], list):
            row = target[key][0] if isinstance(target[key][0], list) else target[key]
            row[0] = 10**400
        else:
            target[key] = 10**400
        code, out, err = run_cli(["validate", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == f"config error: {field}: integer too large for a double\n"

    @pytest.mark.parametrize("content, reason", [
        (
            b'{"kappa": ' + b"1" * 5000 + b', "angles": [0.0]}',
            f"an integer has more than {sys.get_int_max_str_digits()} digits",
        ),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        (b"\xff\xfe{\x00}\x00", "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["long-integer", "deep-nesting", "not-utf-8"])
    def test_unreadable_document_names_the_file(self, tmp_path, content, reason):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        code, out, err = run_cli(["validate", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: config: invalid JSON in {str(path)!r}: {reason}")

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

    # sha256 of the whole report: exact angles, canonical angles and gaps
    # print as str(Fraction) prints them, reduced, whatever form the input had
    PINNED = {
        # irregular, unreduced inputs, already in canonical rotation
        "unreduced": (
            {"kappa": 1.0, "angles": ["0/1", "2/8", "5/7"], "masses": [1.0, 2.0, 3.0], "rho": 0.5},
            "60ac6df1a5a920eacef1781f9aa4231c370be01dec54b40bb2a0c4a0445ff94d",
        ),
        # unreduced inputs whose canonical rotation starts at the second vertex
        "rotated": (
            {"kappa": 1.0, "angles": ["0", "2/6", "3/6", "10/12"], "masses": [1.0] * 4, "rho": 0.5},
            "9a82f02d2416950d978d19dd29415e711b2e564ece7be564eba57bdc7cf06327",
        ),
        # two exact angles make no polygon: no gaps, canonical angles as given
        "two_exact": (
            {"kappa": -1.0, "angles": ["3/12", "4/6"], "masses": [1.0, 1.0], "rho": -0.5},
            "47337b54b62a3f2d5aae71b5c55f684879500b260753a8e338e4830b2907aca9",
        ),
        "float": (
            {"kappa": 1.0, "angles": [0.0, 2.0, 4.5], "masses": [1.0, 1.0, 1.0], "rho": 0.25},
            "0dd8f9bc4c571e00013904adf9a136728b9e2de198c58b92c04362f8f0e19994",
        ),
    }

    def test_exact_angles_are_integer_pairs(self, tmp_path):
        tiny = "1/" + "9" * 400  # no float can hold its denominator
        doc = {"kappa": 1.0, "angles": ["0/1", tiny, "2/8", "5/7"]}
        cfg = cli.load_config(write_config(tmp_path, doc))
        assert cfg.angles == ((0, 1), (1, 10**400 - 1), (2, 8), (5, 7))
        assert cfg.radians == tuple(float(Fraction(p, q)) * (2.0 * math.pi) for p, q in cfg.angles)

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_report_pinned(self, tmp_path, case):
        doc, stdout_sha = self.PINNED[case]
        code, out, err = run_cli(["validate", "--config", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


DROP = object()


def edited(**fields):
    """TRIANGLE_EXACT with the given fields set, or removed where the value is DROP."""
    doc = dict(TRIANGLE_EXACT, **fields)
    return {k: v for k, v in doc.items() if v is not DROP}


REGULAR_TRIANGLE = ["0", "1/3", "2/3"]


class TestConfigErrors:
    """Each rejected document or flag exits 2 with empty stdout and one stderr line."""

    @pytest.mark.parametrize("doc, argv, message", [
        pytest.param(edited(angles="0"), ["validate"],
                     "angles: expected a nonempty list", id="angles-not-a-list"),
        pytest.param(edited(angles=["0", "1/0", "1/2"]), ["validate"],
                     "angles: entry 1: '1/0' is not a valid fraction", id="angles-invalid-fraction"),
        pytest.param(edited(angles=["0/0", "1/3", "1/2"]), ["validate"],
                     "angles: entry 0: '0/0' is not a valid fraction", id="angles-zero-over-zero"),
        # more digits than int() reads under the default sys.get_int_max_str_digits()
        pytest.param(edited(angles=["0", "1" * 5000 + "/7", "1/2"]), ["validate"],
                     f"angles: entry 1: {'1' * 5000 + '/7'!r} is not a valid fraction", id="angles-too-many-digits"),
        pytest.param(edited(angles=["0", "1/2", "3/2"]), ["validate"],
                     "angles: entry 2: turn '3/2' outside [0, 1)", id="angles-turn-out-of-range"),
        pytest.param(edited(angles=["0", "1/2", "2/4"]), ["validate"],
                     "angles: entries must be strictly increasing (index 2)", id="angles-equal-turns"),
        pytest.param(edited(angles=[0.0, 1.0, 7.0]), ["validate"],
                     "angles: entry 2: radian 7.0 outside [0, 2*pi)", id="angles-radian-out-of-range"),
        pytest.param(edited(angles=["0", "1/2", "1/4"]), ["validate"],
                     "angles: entries must be strictly increasing (index 2)", id="angles-not-increasing"),
        pytest.param([1, 2], ["validate"],
                     "config: top-level document must be an object", id="document-not-an-object"),
        pytest.param(edited(kappa=DROP), ["validate"],
                     "kappa: required field missing", id="kappa-missing"),
        pytest.param(edited(angles=DROP), ["validate"],
                     "angles: required field missing", id="angles-missing"),
        pytest.param(edited(masses=1.0), ["validate"],
                     "masses: expected a list", id="masses-not-a-list"),
        pytest.param(edited(masses=[1.0, 1.0]), ["validate"],
                     "masses: expected 3 entries to match angles, got 2", id="masses-wrong-length"),
        pytest.param(edited(masses=[1.0, 0, 1.0]), ["validate"],
                     "masses: masses must be finite and positive, got 0.0", id="masses-zero"),
        pytest.param(edited(masses=[1.0, True, 1.0]), ["validate"],
                     "masses: expected a number, got True", id="masses-bool"),
        pytest.param(edited(integrator=[0.01]), ["validate"],
                     "integrator: expected an object", id="integrator-not-an-object"),
        pytest.param(edited(integrator={"dt": 0.01, "steps": 10}), ["validate"],
                     "integrator.steps: unknown field", id="integrator-unknown-key"),
        pytest.param(edited(integrator={"dt": -0.01}), ["validate"],
                     "integrator.dt: must be >= 0, got -0.01", id="integrator-negative-dt"),
        pytest.param(edited(integrator={"t_end": -1}), ["validate"],
                     "integrator.t_end: must be >= 0, got -1.0", id="integrator-negative-t-end"),
        pytest.param(edited(integrator={"project_each_step": 1}), ["validate"],
                     "integrator.project_each_step: expected a boolean", id="integrator-project-not-bool"),
        pytest.param(edited(integrator={"max_constraint_drift": 0}), ["validate"],
                     "integrator.max_constraint_drift: must be positive", id="integrator-drift-not-positive"),
        pytest.param(edited(angles=REGULAR_TRIANGLE, integrator={"dt": 0.2, "t_end": 0.1}), ["simulate"],
                     "integrator: dt 0.2 exceeds t_end 0.1", id="integrator-dt-above-t-end"),
        pytest.param(edited(angles=REGULAR_TRIANGLE, integrator={"dt": 0, "t_end": 0.01}), ["simulate"],
                     "integrator: dt must be positive to reach a positive t_end", id="integrator-zero-dt"),
        pytest.param(edited(seed=1.5), ["validate"],
                     "seed: expected an integer, got 1.5", id="seed-not-an-integer"),
        pytest.param(edited(seed=-1), ["validate"],
                     "seed: must be >= 0, got -1", id="seed-negative"),
        pytest.param(edited(), ["validate", "--seed", "-1"],
                     "seed: must be >= 0, got -1", id="seed-flag-negative"),
        pytest.param(edited(velocities=[[0.0, 0.0, 0.0]]), ["validate"],
                     "velocities: expected a list of 3 [vx, vy, vz] rows", id="velocities-wrong-row-count"),
        pytest.param(edited(velocities=[[0.0, 0.0]] * 3), ["validate"],
                     "velocities: row 0: expected [vx, vy, vz]", id="velocities-row-wrong-length"),
        pytest.param(edited(angles=["0", "1/2"], masses=[1.0, 1.0]), ["criterion"],
                     "angles: this command needs a polygon with at least 3 vertices",
                     id="criterion-two-angles"),
        pytest.param(edited(angles=[0.0, 1.0, 2.0]), ["feasibility"],
                     'angles: feasibility search requires exact "p/q" turn angles',
                     id="feasibility-radian-angles"),
        pytest.param(edited(), ["sweep", "--rho-grid", "0"],
                     "rho-grid: must be >= 1, got 0", id="sweep-empty-grid"),
    ])
    def test_rejected(self, tmp_path, doc, argv, message):
        path = write_config(tmp_path, doc)
        code, out, err = run_cli([argv[0], "--config", path, *argv[1:]])
        assert (code, out, err) == (2, "", f"config error: {message}\n")


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

    def test_far_hyperbolic_rho_is_a_domain_error(self, tmp_path):
        # (2 - c*rho)^(3/2) overflows a double here; certify and feasibility
        # take no power of the base, so they still decide
        cfg = write_config(tmp_path, {"kappa": -1.0, "angles": ["0/1", "1/5", "1/2"], "masses": [1.0] * 3})
        code, out, err = run_cli(["criterion", "--config", cfg, "--rho=-1e300"])
        assert (code, out) == (2, "")
        assert err.startswith("error: kernel base 2 - c*rho = ") and "overflows" in err
        assert run_cli(["certify", "--config", cfg, "--rho=-1e300"])[0] == 0
        assert run_cli(["feasibility", "--config", cfg, "--rho=-1e300"])[0] == 1

    @pytest.mark.parametrize("command", ["validate", "criterion", "sweep"])
    def test_chord_rounding_to_zero_names_the_angles(self, tmp_path, command):
        # 1 - cos of a 1e-10-turn separation is 0.0: every command that
        # forms float chords reports the pair the same way
        cfg = write_config(tmp_path, dict(TRIANGLE_EXACT, angles=["0/1", "1/10000000000", "1/2"]))
        code, out, err = run_cli([command, "--config", cfg])
        assert (code, out) == (2, "")
        assert err == "error: angles 6.283185307179587e-10 and 0.0 coincide modulo a full turn\n"


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

    @pytest.mark.parametrize("kappa", [1.0, -1.0])
    @pytest.mark.parametrize("flag", ["inf", "-inf", "nan"])
    def test_non_finite_flag_rejected(self, tmp_path, command, kappa, flag):
        doc = dict(TRIANGLE_EXACT, kappa=kappa, rho=0.5 if kappa > 0 else -1.5)
        cfg = write_config(tmp_path, doc)
        # argparse would read a separate "-inf" as an option
        code, out, err = run_cli([command, "--config", cfg, f"--rho={flag}"])
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

    @pytest.mark.parametrize(
        "last, code, case",
        [(None, 0, "case1"), ("9999999997/10000000000", 0, "case2v"),
         ("9999999998/10000000000", 2, None)],
    )
    def test_witness_chord_rounding_to_zero(self, tmp_path, last, code, case):
        # the (3,1) chord 1 - cos(2*pi * 3e-10) rounds to 0.0; only a gamma
        # witness form (case2u here) divides by it
        angles = ["0/1", "1/10000000000", "3/10000000000", "1/2"] + ([last] if last else [])
        cfg = write_config(tmp_path, {"kappa": 1.0, "angles": angles})
        got, out, err = run_cli(["certify", "--config", cfg])
        assert got == code
        if case is None:
            assert out == "" and re.fullmatch(r"error: angles \S+ and 0\.0 coincide modulo a full turn\n", err)
        else:
            assert json.loads(out)["case"] == case and err == ""


    def test_turn_denominator_beyond_float_range(self, tmp_path):
        # a 400-digit denominator is no float; the class angles divide the
        # integers before they become floats
        cfg = write_config(tmp_path, {"kappa": 1.0, "angles": ["0", "1/" + "9" * 400, "1/2"]})
        code, out, err = run_cli(["certify", "--config", cfg])
        assert (code, err) == (0, "")
        assert json.loads(out)["case"] == "case1"
        code, out, err = run_cli(["feasibility", "--config", cfg, "--rho", "0.5"])
        assert (code, err) == (1, "")
        assert json.loads(out)["feasible"] is False


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

    # sha256 of stdout and CSV.  The CSV digests come from the per-step state
    # implementation that the array-backed trajectory replaced.  The stdout
    # digests are those of the earlier numpy-matmul drift under OpenBLAS's
    # non-FMA kernels (OPENBLAS_CORETYPE=Prescott), whose rounding the
    # plain-float drift reproduces under every kernel
    PINNED = {
        "solved_rotation": (
            {
                "kappa": 1.0,
                "angles": ["0/1", "1/3", "2/3"],
                "masses": [1.0, 1.0, 1.0],
                "rho": 0.36,
                "integrator": {"dt": 0.001, "t_end": 0.02},
            },
            "847147effa562fcd2e1884bc78c2371c7524212a3850de889d12878a3f0572ef",
            "6cd6e005651bd719eadbbc8e654155a6b2318d38a23c78a4991864d93633191d",
        ),
        "explicit_hyperbolic": (
            {
                "kappa": -1.0,
                "angles": [0.0, 2.0, 4.0],
                "masses": [1.0, 2.0, 1.5],
                "rho": -0.3,
                "velocities": [[0.0, 0.3, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                "integrator": {"dt": 0.002, "t_end": 0.1},
            },
            "7812596b4b688c4251286dd76c3f9a1b82dd870fb6599f12166d30df83aaee70",
            "9ca88df43652f839b92fb298c9a9142b94e03dfcd8dad25c89c718f1965677ca",
        ),
        # the shape of perfbench's cli-mix simulate call: a solved rotation
        # of a turned regular triangle on the hyperboloid, 300 steps
        "solved_rotation_hyperbolic": (
            {
                "kappa": -1.0,
                "angles": ["17/1080", "377/1080", "737/1080"],
                "masses": [1.25, 1.25, 1.25],
                "rho": -0.42,
                "integrator": {"dt": 0.001, "t_end": 0.3},
            },
            "d4e763addb4b66f9cc3d2c86e8def075f7323b69e15573a788900df1f8afff98",
            "8b9987b53a5c1f731ac866def1746b794d0b03e3fa1d2261039a18925d9cb655",
        ),
        # exact-turn angles through the explicit-velocity branch; each
        # velocity is tangent at its body (a parallel plus a meridian part)
        "explicit_exact_turns": (
            {
                "kappa": 1.0,
                "angles": ["0/1", "2/7", "3/5"],
                "masses": [1.0, 0.5, 2.0],
                "rho": 0.4,
                "velocities": [
                    [0.0, 0.2, 0.0],
                    [0.12334738736004214, -0.09102429363335766, 0.09486832980505137],
                    [-0.03133309346012952, -0.022764824932750734, -0.0316227766016838],
                ],
                "integrator": {"dt": 0.002, "t_end": 0.1},
            },
            "3ed5b56ddb839f500bebd272b54f9ca184530d69cadbd787314633e6990408e5",
            "7cf5876c6cf920a5a6e654fd60d53ef0875ed4b718c4c5c5dc19e3f312d20756",
        ),
        # the shape of perfbench's rigid-rotation n = 8 case: a solved
        # rotation of a regular octagon on the hyperboloid, 300 steps
        "solved_rotation_octagon": (
            {
                "kappa": -1.0,
                "angles": [f"{k}/8" for k in range(8)],
                "masses": [1.0] * 8,
                "rho": -0.64,
                "integrator": {"dt": 0.001, "t_end": 0.3},
            },
            "bd235211bdb17151a201982e9f1ec8fdefa3d162084e8f4feba7f3449c3e433f",
            "183c94038d809c368170b82f64a48979fcf8c004b031b4db52688d9e0e9708c7",
        ),
        # five bodies stepped without projection; each velocity runs along
        # its body's parallel
        "explicit_unprojected": (
            {
                "kappa": 1.0,
                "angles": [0.0, 1.1, 2.5, 3.9, 5.2],
                "masses": [1.0, 0.7, 1.3, 0.9, 1.1],
                "rho": 0.3,
                "velocities": [
                    [0.0, 0.25, 0.0],
                    [0.08912073600614355, -0.04535961214255774, 0.0],
                    [-0.08977082161559348, -0.12017154233204005, 0.0],
                    [0.03438830795919869, -0.03629661521000701, 0.0],
                    [-0.17669093114403064, -0.09370333426007543, 0.0],
                ],
                "integrator": {"dt": 0.002, "t_end": 0.1, "project_each_step": False},
            },
            "49fe55a77c6fc622542e89215a37df1c88a40217a96d7203700dcff209dfc4a4",
            "7cf6835d1187b3de79191beb36b0445b60c7af90e3201ebc64dc412ff5df80ba",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_pinned(self, tmp_path, monkeypatch, case):
        doc, stdout_sha, csv_sha = self.PINNED[case]
        monkeypatch.chdir(tmp_path)  # a relative --out keeps stdout path-free
        write_config(tmp_path, doc)
        code, out, _ = run_cli(["simulate", "--config", "cfg.json", "--out", "traj.csv"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
        assert hashlib.sha256((tmp_path / "traj.csv").read_bytes()).hexdigest() == csv_sha

    def test_stdout_independent_of_blas_kernel(self, tmp_path):
        # OpenBLAS picks its kernel for the CPU at run time, and kernels with
        # and without FMA round a matmul differently; no printed digit and no
        # CSV byte may depend on that choice
        script = (
            "import hashlib, sys\n"
            "from curvednbody.cli import main\n"
            "for cfg in sys.argv[1:]:\n"
            "    assert main(['simulate', '--config', cfg, '--out', cfg + '.csv']) == 0\n"
            "    with open(cfg + '.csv', 'rb') as fh:\n"
            "        print(hashlib.sha256(fh.read()).hexdigest())\n"
        )
        cases = sorted(self.PINNED)
        outputs = {}
        for core in (None, "Prescott", "Nehalem"):
            env = {k: v for k, v in package_env().items() if k != "OPENBLAS_CORETYPE"}
            if core is not None:
                env["OPENBLAS_CORETYPE"] = core
            # the same relative names under every kernel keep the "out" field equal
            run = tmp_path / str(core)
            run.mkdir()
            for case in cases:
                write_config(run, self.PINNED[case][0], f"{case}.json")
            proc = subprocess.run(
                [sys.executable, "-c", script, *(f"{case}.json" for case in cases)],
                capture_output=True, text=True, timeout=60, env=env, cwd=run,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[core] = proc.stdout
        assert outputs[None].count('"command": "simulate"') == len(cases)
        for case in cases:
            assert self.PINNED[case][2] in outputs[None]
        assert outputs["Prescott"] == outputs[None]
        assert outputs["Nehalem"] == outputs[None]

    def test_missing_dt_rejected(self, tmp_path):
        doc = dict(GEODESIC)
        del doc["integrator"]
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["simulate", "--config", cfg])
        assert code == 2
        assert "dt" in err

    def test_step_count_too_large_to_store(self, tmp_path):
        doc = dict(GEODESIC, integrator={"dt": 1e-300, "t_end": 1.0})
        code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == "error: t_end / dt = 1e+300 steps are too many to store\n"

    def test_trajectory_beyond_memory_is_a_config_error(self, tmp_path):
        # 1e9 samples need about 8 GiB for the times alone; the child's address
        # space is capped at 2 GiB, so the preallocation fails before any step
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        doc = dict(GEODESIC, integrator={"dt": 1e-9, "t_end": 1.0})
        proc = subprocess.run(
            [sys.executable, "-m", "curvednbody.cli", "simulate", "--config", write_config(tmp_path, doc)],
            capture_output=True,
            text=True,
            timeout=60,
            env=package_env(),
            preexec_fn=cap,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: t_end / dt = 1e+09 steps are too many to store\n"

    @pytest.mark.parametrize("kappa, radius", [(1e-300, "7.071067811865475e+149"),
                                               (1e300, "7.071067811865476e-151")])
    def test_rate_beyond_float_range(self, tmp_path, kappa, radius):
        # rho = 0.5 is valid at any kappa > 0, but r^3 overflows or underflows here
        doc = {"kappa": kappa, "angles": REGULAR_TRIANGLE, "masses": [1.0] * 3, "rho": 0.5,
               "integrator": {"dt": 0.001, "t_end": 0.01}}
        code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == f"error: radius {radius} puts the rate sqrt(delta_1 / r^3) outside the float range\n"

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
        assert re.match(r"error: drift guard abort at t=\S+: ", err)

    def test_far_hyperbolic_branch_passes_the_drift_guard(self, tmp_path):
        # at rho = -1e12 each body has |q|^2 = 2e12 + 1, so kappa q.q - 1
        # cancels terms of that size and keeps a rounding residual of about
        # 1e-4; the guard judges it at that scale, as BodySystem does
        doc = {
            "kappa": -1.0,
            "angles": [0.0, 2.0, 4.0],
            "masses": [1.0, 1.0, 1.0],
            "rho": -1e12,
            "velocities": [[0.0, 0.0, 0.0]] * 3,
            "integrator": {"dt": 0.001, "t_end": 0.01},
        }
        code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        assert json.loads(out)["steps"] == 10

    def test_far_hyperbolic_tangent_passes_the_checks(self, tmp_path):
        # Minkowski-unit radial velocities at rho = -1e8: q.v cancels terms of
        # size |q| |v| = 2e8 and keeps a rounding residual of about 1e-8, which
        # BodySystem and the guard judge at that scale
        r, z = 1e4, math.sqrt(1.0 + 1e8)
        angles = [0.1, 2.0, 4.0]
        doc = {
            "kappa": -1.0,
            "angles": angles,
            "masses": [1.0, 1.0, 1.0],
            "rho": -1e8,
            "velocities": [[z * math.cos(t), z * math.sin(t), r] for t in angles],
            "integrator": {"dt": 0.001, "t_end": 0.01},
        }
        code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        assert json.loads(out)["steps"] == 10

    def test_collision_reports_its_time(self, tmp_path):
        # two bodies 0.05 rad apart, moving toward each other, meet mid-run
        a = 0.05
        doc = {
            "kappa": 1.0,
            "angles": [0.0, a],
            "masses": [1.0, 1.0],
            "rho": 0.36,
            "velocities": [[0.0, 1.0, 0.0], [math.sin(a), -math.cos(a), 0.0]],
            "integrator": {"dt": 5e-4, "t_end": 1.0},
        }
        code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert re.match(
            r"error at t=0\.0545: pair denominator \S+ of bodies 0 and 1 below singularity threshold", err
        )

    def test_projection_failure_reports_its_time_and_body(self, tmp_path):
        # one fast body on the hyperboloid: a single large step carries it
        # to a point with kappa * (p . p) < 0, which no rescale can project
        doc = {
            "kappa": -1.0,
            "angles": [0.0],
            "masses": [1.0],
            "rho": -1.0,
            "velocities": [[0.0, 5.0, 0.0]],
            "integrator": {"dt": 0.5, "t_end": 0.5},
        }
        code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == (
            "error at t=0.5: point of body 0 not projectable onto surface with kappa=-1.0: "
            "kappa*(p.p)=-1.2756115038497566\n"
        )

    @pytest.mark.parametrize("kappa, rho", [(-1e19, -0.5), (-1e22, -0.5), (1e210, 0.5)])
    def test_pair_force_overflow_reports_its_time(self, tmp_path, kappa, rho):
        # at kappa = -1e19 and -1e22 the first step diverges until a pair
        # denominator's 3/2 power leaves the float range; at 1e210 the
        # factor |kappa|^(3/2) does, for bodies at rest
        doc = {
            "kappa": kappa,
            "angles": ["0/1", "1/3", "2/3"],
            "masses": [1.0, 1.0, 1.0],
            "rho": rho,
            "integrator": {"dt": 1e-3, "t_end": 2e-3},
        }
        if kappa > 0:
            doc = dict(doc, angles=[0.0, 2.0, 4.0], velocities=[[0.0, 0.0, 0.0]] * 3)
        code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error at t=0\.001: pair force out of the float range: .*\n", err)

    @pytest.mark.parametrize("kappa, rho", [(-1.0, -1e104), (-1e210, -1e5)])
    def test_rigid_pair_force_overflow_is_an_error(self, tmp_path, kappa, rho):
        # solve_omega's check of the full field overflows before the first
        # step, so the message names no time: at rho = -1e104 the 3/2 power of
        # the far pairs' denominators overflows, at kappa = -1e210 |kappa|^(3/2)
        doc = {
            "kappa": kappa,
            "angles": REGULAR_TRIANGLE,
            "masses": [1.0, 1.0, 1.0],
            "rho": rho,
            "integrator": {"dt": 1e-3, "t_end": 2e-3},
        }
        code, out, err = run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err == (
            "error: pair force out of the float range: "
            "|kappa|^(3/2) or a pair denominator's 3/2 power overflows\n"
        )

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
    @pytest.mark.parametrize("points", [1, 12, 600])
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

    def test_grid_beyond_memory_is_a_config_error(self, tmp_path):
        # 10^9 grid points need tens of GiB as Python floats; the child's
        # address space is capped at 256 MiB, so building the grid runs out
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

        proc = subprocess.run(
            [sys.executable, "-m", "curvednbody.cli", "sweep", "--config",
             write_config(tmp_path, SQUARE_EXACT), "--rho-grid", "1000000000"],
            capture_output=True,
            text=True,
            timeout=60,
            env=package_env(),
            preexec_fn=cap,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "config error: rho-grid: 1000000000 points are too many to store\n"

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

    def test_rerun_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        argv = ["sweep", "--config", cfg, "--rho-grid", "12"]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("target, reason", [
        ("missing/x.csv", "No such file or directory"),
        ("adir", "Is a directory"),
    ])
    def test_unwritable_out_is_a_config_error(self, tmp_path, monkeypatch, command, target, reason):
        # the CSV is written before any report, and the message names the
        # path given, not the temporary file written beside it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        doc = dict(TRIANGLE_EXACT, angles=["0/1", "1/3", "2/3"], rho=0.36,
                   integrator={"dt": 0.001, "t_end": 0.005})
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli([command, "--config", cfg, "--out", target])
        assert (code, out) == (2, "")
        assert err == f"config error: out: cannot write {target!r}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "cfg.json"]
        assert list((tmp_path / "adir").iterdir()) == []

    @pytest.mark.parametrize(
        "umask, mode", [pytest.param(0o022, 0o644, id="022"), pytest.param(0o077, 0o600, id="077")]
    )
    def test_out_file_mode_follows_umask(self, tmp_path, umask, mode):
        # a new file gets the mode open(path, "w") would give it, and a
        # replaced file keeps the mode it had, as echo > file leaves it
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        out = tmp_path / "sweep.csv"
        script = (
            "import os, sys\n"
            "os.umask(int(sys.argv[1], 8))\n"
            "from curvednbody.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        argv = ["%o" % umask, "sweep", "--config", cfg, "--rho-grid", "3", "--out", str(out)]
        for _ in range(2):
            fresh_python(script, *argv)
            assert out.stat().st_mode & 0o777 == mode
        for kept in (0o600, 0o664):
            out.chmod(kept)
            fresh_python(script, *argv)
            assert out.stat().st_mode & 0o777 == kept
        out.unlink()
        fresh_python(script, *argv)
        assert out.stat().st_mode & 0o777 == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sweep.csv"]

    def test_symlinked_out_is_written_through(self, tmp_path):
        # as open(path, "w") does: the link stays, its target gets the bytes
        # and keeps its mode
        cfg = write_config(tmp_path, TRIANGLE_EXACT)
        plain = tmp_path / "plain.csv"
        assert run_cli(["sweep", "--config", cfg, "--rho-grid", "3", "--out", str(plain)])[0] == 0
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        assert run_cli(["sweep", "--config", cfg, "--rho-grid", "3", "--out", str(link)])[0] == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == plain.read_bytes()
        assert target.stat().st_mode & 0o777 == 0o640
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["cfg.json", "link.csv", "plain.csv", "target.csv"]


def package_env():
    """Subprocess environment that imports the curvednbody under test."""
    env = dict(os.environ)
    root = str(Path(curvednbody.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def fresh_python(script, *args):
    """stdout of a fresh interpreter running script, which must exit cleanly."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def fresh_main(runs, modules):
    """Run the subcommands in one fresh interpreter after `import curvednbody`.

    Returns [exit code, then whether each of modules is loaded] after the
    import (exit code None) and after each run.
    """
    script = (
        "import contextlib, io, json, sys\n"
        "import curvednbody\n"
        "from curvednbody.cli import main\n"
        "modules = json.loads(sys.argv[2])\n"
        "seen = [[None] + [m in sys.modules for m in modules]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    seen.append([code] + [m in sys.modules for m in modules])\n"
        "print(json.dumps(seen))\n"
    )
    return json.loads(fresh_python(script, json.dumps(runs), json.dumps(modules)))


class TestImports:
    @staticmethod
    def subcommands(tmp_path):
        polygon = write_config(tmp_path, TRIANGLE_EXACT)
        rotation = write_config(
            tmp_path,
            {
                "kappa": 1.0,
                "angles": ["0/1", "1/3", "2/3"],
                "masses": [1.0, 1.0, 1.0],
                "rho": 0.36,
                "integrator": {"dt": 0.001, "t_end": 0.01},
            },
            name="rotation.json",
        )
        return {
            "validate": ["validate", "--config", polygon],
            "criterion": ["criterion", "--config", polygon],
            "sweep": ["sweep", "--config", polygon, "--rho-grid", "5"],
            "simulate": ["simulate", "--config", rotation, "--out", str(tmp_path / "traj.csv")],
            "certify": ["certify", "--config", polygon],
            "feasibility": ["feasibility", "--config", polygon],
        }

    def test_no_subcommand_loads_scipy(self, tmp_path):
        # scipy is a test dependency only: a fresh interpreter must not load
        # it for the import or for any of the six subcommands
        argv = self.subcommands(tmp_path)
        runs = [argv[k] for k in ("validate", "criterion", "sweep", "simulate", "certify", "feasibility")]
        assert fresh_main(runs, ["scipy"]) == [
            [None, False],
            [0, False],  # validate
            [1, False],  # criterion: the triangle is irregular
            [0, False],  # sweep
            [0, False],  # simulate, through solve_omega
            [0, False],  # certify, through the exact mass search
            [1, False],  # feasibility: no positive masses
        ]

    def test_no_subcommand_loads_numpy(self, tmp_path):
        # the package import and every subcommand leave numpy unloaded;
        # simulate alone loads the dynamics module
        argv = self.subcommands(tmp_path)
        runs = [argv[k] for k in ("validate", "certify", "feasibility", "criterion", "sweep", "simulate")]
        assert fresh_main(runs, ["numpy", "curvednbody.dynamics"]) == [
            [None, False, False],
            [0, False, False],  # validate
            [0, False, False],  # certify
            [1, False, False],  # feasibility
            [1, False, False],  # criterion
            [0, False, False],  # sweep
            [0, False, True],  # simulate
        ]

    def test_no_subcommand_loads_dataclasses(self, tmp_path):
        # the value types are frozen classes of their own: neither the package
        # import nor any subcommand loads dataclasses, or inspect beneath it
        argv = self.subcommands(tmp_path)
        runs = [argv[k] for k in ("validate", "certify", "feasibility", "criterion", "sweep", "simulate")]
        assert fresh_main(runs, ["dataclasses", "inspect"]) == [
            [None, False, False],
            [0, False, False],  # validate
            [0, False, False],  # certify
            [1, False, False],  # feasibility
            [1, False, False],  # criterion
            [0, False, False],  # sweep
            [0, False, False],  # simulate
        ]

    def test_no_subcommand_loads_fractions(self, tmp_path):
        # exact angles are read as integer pairs and printed from residues:
        # neither the package import nor any subcommand loads fractions, or
        # decimal, which fractions imports on some versions
        argv = self.subcommands(tmp_path)
        runs = [argv[k] for k in ("validate", "certify", "feasibility", "criterion", "sweep", "simulate")]
        assert fresh_main(runs, ["fractions", "decimal"]) == [
            [None, False, False],
            [0, False, False],  # validate
            [0, False, False],  # certify
            [1, False, False],  # feasibility
            [1, False, False],  # criterion
            [0, False, False],  # sweep
            [0, False, False],  # simulate
        ]

    def test_dynamics_import_loads_no_numpy(self):
        # numpy loads only when a library caller asks for an array
        script = (
            "import sys\n"
            "import curvednbody.dynamics\n"
            "print('numpy' in sys.modules)\n"
        )
        assert fresh_python(script) == "False\n"

    def test_only_certify_and_feasibility_load_certificate(self, tmp_path):
        # the package import, validate, criterion, sweep and simulate leave
        # the certificate module unloaded; certify loads it
        argv = self.subcommands(tmp_path)
        runs = [argv[k] for k in ("validate", "criterion", "sweep", "simulate", "certify")]
        assert fresh_main(runs, ["curvednbody.certificate", "numpy"]) == [
            [None, False, False],
            [0, False, False],  # validate
            [1, False, False],  # criterion
            [0, False, False],  # sweep
            [0, False, False],  # simulate
            [0, True, False],  # certify
        ]
        runs = [argv["feasibility"]]
        assert fresh_main(runs, ["curvednbody.certificate"]) == [[None, False], [1, True]]


class TestLazyNames:
    """The package root resolves its lazy names on first use (PEP 562)."""

    def test_every_public_name_is_its_defining_object(self):
        script = (
            "import importlib, json\n"
            "import curvednbody as pkg\n"
            "listed = set(dir(pkg))\n"
            "wrong = []\n"
            "for name in pkg.__all__[1:]:\n"
            "    obj = getattr(pkg, name)\n"
            "    home = obj.__module__\n"
            "    if not home.startswith('curvednbody.') or "
            "getattr(importlib.import_module(home), name) is not obj:\n"
            "        wrong.append(name)\n"
            "try:\n"
            "    pkg.no_such_name\n"
            "    unknown = None\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "print(json.dumps([pkg.__all__[0], sorted(set(pkg.__all__) - listed), wrong, unknown]))\n"
        )
        first, unlisted, wrong, unknown = json.loads(fresh_python(script))
        assert first == "__version__"
        assert unlisted == []
        assert wrong == []
        assert unknown == "module 'curvednbody' has no attribute 'no_such_name'"

    def test_star_import(self):
        script = (
            "import json\n"
            "from curvednbody import *\n"
            "import curvednbody\n"
            "print(json.dumps([n for n in curvednbody.__all__ if n not in globals()]))\n"
        )
        assert json.loads(fresh_python(script)) == []
        assert len(set(curvednbody.__all__)) == len(curvednbody.__all__)
        # a lazy module's star import gives exactly its entry in _LAZY_NAMES
        for module, names in curvednbody._LAZY_NAMES.items():
            script = (
                f"from curvednbody.{module} import *\n"
                "names = sorted(n for n in globals() if not n.startswith('__'))\n"
                "import json\n"
                "print(json.dumps(names))\n"
            )
            assert json.loads(fresh_python(script)) == sorted(names), module

    def test_dir_lists_names_not_yet_loaded(self):
        script = (
            "import json, sys\n"
            "import curvednbody\n"
            "print(json.dumps(['certify' in dir(curvednbody), 'curvednbody.certificate' in sys.modules]))\n"
        )
        assert json.loads(fresh_python(script)) == [True, False]

    def test_lists_agree(self):
        # test_star_import checks that the root list has no duplicates
        eager = curvednbody.errors.__all__ + curvednbody.polygon.__all__
        lazy = [n for names in curvednbody._LAZY_NAMES.values() for n in names]
        assert curvednbody.__all__ == ["__version__", *eager, *lazy]


class TestBenchmarkNames:
    def test_benchmark_names_are_public(self):
        # perfbench/run.py stops before measuring when a name it calls has
        # left its module's __all__; catch that here, not in a benchmark run
        run_py = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
        public = next(
            ast.literal_eval(node.value)
            for node in ast.parse(run_py.read_text()).body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "PUBLIC" for t in node.targets)
        )
        assert public
        for modname, names in public.items():
            exported = importlib.import_module(modname).__all__
            assert [n for n in names if n not in exported] == [], modname


class TestCsvText:
    def test_float_cells(self):
        rows = [[0.5, np.float64(0.1)], [math.nan, -math.inf]]
        assert csv_text(["a", "b"], rows) == "a,b\n0.5,0.10000000000000001\nnan,nan\n"

    def test_rows_follow_the_per_cell_rule(self):
        # each cell on its own: %.17g when finite, else nan; rows of any
        # length, the header's or not, and non-finite cells among finite ones
        rng = random.Random(37)
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                   1.7976931348623157e308, -1.7976931348623157e308, 0, 7, -12, 10**17 + 1, 2**53 + 1]
        header = ["t", "x", "y", "z"]
        rows = []
        for _ in range(400):
            size = rng.choice([0, 1, 3, 4, 4, 4, 5, 19])
            row = [rng.choice(special) if rng.random() < 0.2 else rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-320, 300)
                   for _ in range(size)]
            rows.append(tuple(row) if rng.random() < 0.5 else row)
        def cell(x):
            return "%.17g" % x if math.isfinite(x) else "nan"

        expected = "\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows]) + "\n"
        text = csv_text(header, iter(rows))
        assert text == expected
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "62364beff9a8a903bad4651d73846c7f8a4997f1386f29603c7c2016f9f7c9a7")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    def __str__(self):
        return "not the text"


Pair = namedtuple("Pair", "x y")


class TestDumps:
    """Exact bytes of every branch of the JSON renderer."""

    @pytest.mark.parametrize(
        "value, text",
        [
            (None, "null"),
            (True, "true"),
            (False, "false"),
            (np.bool_(True), "true"),
            (np.bool_(False), "false"),
            (0, "0"),
            (-12, "-12"),
            (np.int64(-7), "-7"),
            (-0.0, "-0"),
            (0.1, "0.10000000000000001"),
            (1e-300, "1e-300"),
            (1.0 / 3.0, "0.33333333333333331"),
            (math.nan, "null"),
            (math.inf, "null"),
            (-math.inf, "null"),
            (np.float64(0.1), "0.10000000000000001"),
            (np.float64(math.inf), "null"),
            (Fraction(3, 7), '"3/7"'),
            (Fraction(2), '"2"'),
            (Fraction(-1, 2), '"-1/2"'),
            # values of other types, converted to a plain one first
            pytest.param(Level.HIGH, "2", id="IntEnum"),
            pytest.param(np.float32(0.1), "0.10000000149011612", id="float32"),
            pytest.param(np.array(0.25), "0.25", id="0-d array"),
            pytest.param(Pair(1, 0.5), "[\n  1,\n  0.5\n]", id="NamedTuple"),
            pytest.param(OrderedDict(b=1, a=2), '{\n  "a": 2,\n  "b": 1\n}', id="OrderedDict"),
            pytest.param(np.array([-3, 7], dtype=np.int8), "[\n  -3,\n  7\n]", id="int8 array"),
            pytest.param(np.array([True, False]), "[\n  true,\n  false\n]", id="bool_ array"),
            pytest.param(array("d", [0.1, -2.0]), "[\n  0.10000000000000001,\n  -2\n]", id="array('d')"),
        ],
    )
    def test_scalars(self, value, text):
        assert dumps(value) == text + "\n"

    @pytest.mark.parametrize(
        "value, text",
        [
            ("", '""'),
            ('say "hi"', '"say \\"hi\\""'),
            ("back\\slash", '"back\\\\slash"'),
            ("a\nb\tc\r\x01\x1f\x7f", '"a\\nb\\tc\\r\\u0001\\u001f\\u007f"'),
            ("\b\f", '"\\b\\f"'),
            ("caf\u00e9 \u03c1", '"caf\\u00e9 \\u03c1"'),
            ("\U0001d70c", '"\\ud835\\udf0c"'),
            pytest.param(Label('s\u00e9 "q"'), '"s\\u00e9 \\"q\\""', id="str subclass"),
        ],
    )
    def test_strings(self, value, text):
        assert dumps(value) == text + "\n"

    def test_empty_containers(self):
        for value, text in (({}, "{}"), ([], "[]"), ((), "[]"), (np.array([]), "[]")):
            assert dumps(value) == text + "\n"

    def test_nested(self):
        doc = {"b": [1, {"c": (), "d": None}], "a": {}, "e": ("x", [2.5])}
        assert dumps(doc) == (
            "{\n"
            '  "a": {},\n'
            '  "b": [\n'
            "    1,\n"
            "    {\n"
            '      "c": [],\n'
            '      "d": null\n'
            "    }\n"
            "  ],\n"
            '  "e": [\n'
            '    "x",\n'
            "    [\n"
            "      2.5\n"
            "    ]\n"
            "  ]\n"
            "}\n"
        )

    def test_arrays(self):
        assert dumps(np.array([1.5, 0.1])) == "[\n  1.5,\n  0.10000000000000001\n]\n"
        assert dumps(np.array([[1, 2], [3, 4]])) == (
            "[\n  [\n    1,\n    2\n  ],\n  [\n    3,\n    4\n  ]\n]\n"
        )
        assert dumps({"m": np.array([True, False])}) == (
            '{\n  "m": [\n    true,\n    false\n  ]\n}\n'
        )

    def test_keys_sorted_and_quoted(self):
        doc = {"b": 1, "a": 2, "B": 3, "aa": 4, "\u00e9": 5, 'q"': 6}
        assert dumps(doc) == (
            '{\n  "B": 3,\n  "a": 2,\n  "aa": 4,\n  "b": 1,\n  "q\\"": 6,\n  "\\u00e9": 5\n}\n'
        )

    def test_subclasses_render_as_their_base(self):
        class Label(str):
            pass

        Pair = namedtuple("Pair", "x y")
        doc = OrderedDict([("z", Label("s\u00e9")), (Label("y"), Pair(1, 0.5))])
        assert dumps(doc) == (
            '{\n  "y": [\n    1,\n    0.5\n  ],\n  "z": "s\\u00e9"\n}\n'
        )

    def test_subclasses_without_numpy(self):
        # the isinstance chain must not need numpy when no numpy value exists
        script = (
            "import enum, json, sys\n"
            "from collections import OrderedDict, namedtuple\n"
            "from curvednbody.jsonout import dumps\n"
            "Level = enum.IntEnum('Level', 'LOW HIGH')\n"
            "Real = type('Real', (float,), {})\n"
            "Pair = namedtuple('Pair', 'x y')\n"
            "doc = OrderedDict([('a', Level.HIGH), ('b', Real(0.1)), ('c', Pair(True, None))])\n"
            "print(json.dumps([dumps(doc), 'numpy' in sys.modules]))\n"
        )
        assert json.loads(fresh_python(script)) == [
            '{\n  "a": 2,\n  "b": 0.10000000000000001,\n  "c": [\n    true,\n    null\n  ]\n}\n',
            False,
        ]

    def test_rejects_non_string_keys(self):
        for doc in ({1: "a"}, {"a": {None: 1}}, {"a": 1, 2: "b"}):
            with pytest.raises(TypeError, match="^JSON object keys must be strings$"):
                dumps(doc)

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError, match="^cannot serialize set$"):
            dumps({1, 2})
        with pytest.raises(TypeError, match="^cannot serialize set$"):
            dumps({"a": [set()]})
        with pytest.raises(TypeError, match="^cannot serialize object$"):
            dumps([object()])
        with pytest.raises(TypeError, match="^cannot serialize complex$"):
            dumps({"z": 1j})
        with pytest.raises(TypeError, match="^cannot serialize complex$"):
            dumps(np.complex128(1j))  # its tolist() is a complex


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

    def test_version_is_stated_once(self):
        # pyproject.toml reads the version from the package, which states it
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        doc = tomllib.loads(pyproject.read_text())
        assert "version" not in doc["project"]
        assert "version" in doc["project"]["dynamic"]
        assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "curvednbody.__version__"}
        assert re.fullmatch(r"\d+\.\d+\.\d+", curvednbody.__version__)

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
