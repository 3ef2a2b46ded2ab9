"""Batch command-line front end.

Subcommands share a single JSON configuration document.  Angles are either
"p/q" strings (exact turn fractions, required for certification) or plain
numbers (radians, float mode); the two cannot be mixed.  All reports go to
stdout as canonical JSON, CSV goes to --out when given, and every output
file is written to a temp sibling and renamed so failures never leave a
partial file.

Exit codes: 0 success / satisfied / feasible / certificate, 1 criterion not
satisfied or masses infeasible, 2 configuration or domain errors, 3 certify
called on a regular polygon, 4 drift-guard abort during simulation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certificate import certify, mass_feasibility
from .criterion import (
    TWO_PI,
    MassVector,
    PolygonConfig,
    Rho,
    _spreads,
    canonicalize,
    chord_c,
    criterion_check,
    cyclic_gaps,
    delta_gamma,
    is_regular,
    rho_grid,
    validate_rho_for_kappa,
)
from .dynamics import (
    BodySystem,
    IntegratorConfig,
    RelativeEquilibrium,
    build_polygon_state,
    integrate,
    solve_omega,
)
from .errors import (
    ConfigError,
    ConstraintDriftError,
    CurvedNBodyError,
    RegularPolygonError,
)
from .geometry import Curvature
from .jsonout import csv_text, dumps, write_text_atomic

__all__ = ["RunConfig", "load_config", "main"]

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_CONFIG = 2
EXIT_REGULAR = 3
EXIT_DRIFT = 4

_KNOWN_KEYS = {
    "kappa",
    "angles",
    "masses",
    "rho",
    "integrator",
    "tol",
    "seed",
    "velocities",
}
_KNOWN_INTEGRATOR_KEYS = {"dt", "t_end", "project_each_step", "max_constraint_drift"}
_SWEEP_BLOCK = 256  # rho values per delta_gamma call: bounds its (block, n, n) tables


def _as_real(value, field: str) -> float:
    # bool is an int subclass; a bare true/false is never a number here
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(field, f"expected a finite number, got {value!r}")
    return v


def _parse_rho(value, kappa: float) -> float | None:
    """A rho from the config or --rho, checked against the curvature branch."""
    if value is None:
        return None
    try:
        rho = Rho(value).value
        validate_rho_for_kappa(rho, kappa)
    except ValueError as exc:
        raise ConfigError("rho", str(exc)) from None
    return rho


def _parse_tol(value) -> float:
    """A tolerance from the config or --tol: finite and positive."""
    tol = _as_real(value, "tol")
    if tol <= 0.0:
        raise ConfigError("tol", f"must be positive, got {tol!r}")
    return tol


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated configuration document."""

    curvature: Curvature
    representation: str
    angles: tuple
    polygon: PolygonConfig | None
    masses: MassVector | None
    rho: float | None
    dt: float | None
    t_end: float | None
    project_each_step: bool
    max_constraint_drift: float
    tol: float
    seed: int
    velocities: tuple | None

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def radians(self) -> tuple[float, ...]:
        if self.representation == "exact":
            return tuple(float(a) * TWO_PI for a in self.angles)
        return self.angles


def _parse_angles(raw) -> tuple[str, tuple]:
    if not isinstance(raw, list) or len(raw) < 1:
        raise ConfigError("angles", "expected a nonempty list")
    exact = all(isinstance(a, str) for a in raw)
    floats = all(not isinstance(a, bool) and isinstance(a, (int, float)) for a in raw)
    if not exact and not floats:
        raise ConfigError("angles", "entries must be all \"p/q\" strings or all numbers")
    if exact:
        turns = []
        for i, a in enumerate(raw):
            try:
                f = Fraction(a)
            except (ValueError, ZeroDivisionError):
                raise ConfigError("angles", f"entry {i}: {a!r} is not a valid fraction") from None
            if not (0 <= f < 1):
                raise ConfigError("angles", f"entry {i}: turn {a!r} outside [0, 1)")
            turns.append(f)
        vals: tuple = tuple(turns)
        rep = "exact"
    else:
        rads = []
        for i, a in enumerate(raw):
            v = _as_real(a, "angles")
            if not (0.0 <= v < TWO_PI):
                raise ConfigError("angles", f"entry {i}: radian {v!r} outside [0, 2*pi)")
            rads.append(v)
        vals = tuple(rads)
        rep = "float"
    for i in range(1, len(vals)):
        if not vals[i] > vals[i - 1]:
            raise ConfigError("angles", f"entries must be strictly increasing (index {i})")
    return rep, vals


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path!r}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config", "top-level document must be an object")
    for key in doc:
        if key not in _KNOWN_KEYS:
            raise ConfigError(str(key), "unknown field")

    if "kappa" not in doc:
        raise ConfigError("kappa", "required field missing")
    try:
        curvature = Curvature(_as_real(doc["kappa"], "kappa"))
    except ValueError as exc:
        raise ConfigError("kappa", str(exc)) from None

    if "angles" not in doc:
        raise ConfigError("angles", "required field missing")
    rep, angles = _parse_angles(doc["angles"])
    polygon = None
    if len(angles) >= 3:
        try:
            if rep == "exact":
                polygon = PolygonConfig.from_turns(angles)
            else:
                polygon = PolygonConfig.from_radians(angles)
        except ValueError as exc:
            raise ConfigError("angles", str(exc)) from None

    masses = None
    if doc.get("masses") is not None:
        raw_m = doc["masses"]
        if not isinstance(raw_m, list):
            raise ConfigError("masses", "expected a list")
        if len(raw_m) != len(angles):
            raise ConfigError(
                "masses", f"expected {len(angles)} entries to match angles, got {len(raw_m)}"
            )
        try:
            masses = MassVector(tuple(_as_real(m, "masses") for m in raw_m))
        except ValueError as exc:
            raise ConfigError("masses", str(exc)) from None

    rho = None
    if doc.get("rho") is not None:
        rho = _parse_rho(_as_real(doc["rho"], "rho"), curvature.kappa)

    dt = t_end = None
    project = True
    max_drift = 1e-6
    if doc.get("integrator") is not None:
        integ = doc["integrator"]
        if not isinstance(integ, dict):
            raise ConfigError("integrator", "expected an object")
        for key in integ:
            if key not in _KNOWN_INTEGRATOR_KEYS:
                raise ConfigError(f"integrator.{key}", "unknown field")
        if "dt" in integ:
            dt = _as_real(integ["dt"], "integrator.dt")
            if dt < 0.0:
                raise ConfigError("integrator.dt", f"must be >= 0, got {dt!r}")
        if "t_end" in integ:
            t_end = _as_real(integ["t_end"], "integrator.t_end")
            if t_end < 0.0:
                raise ConfigError("integrator.t_end", f"must be >= 0, got {t_end!r}")
        if "project_each_step" in integ:
            if not isinstance(integ["project_each_step"], bool):
                raise ConfigError("integrator.project_each_step", "expected a boolean")
            project = integ["project_each_step"]
        if "max_constraint_drift" in integ:
            max_drift = _as_real(integ["max_constraint_drift"], "integrator.max_constraint_drift")
            if max_drift <= 0.0:
                raise ConfigError("integrator.max_constraint_drift", "must be positive")

    tol = 1e-10
    if doc.get("tol") is not None:
        tol = _parse_tol(doc["tol"])

    seed = 0
    if doc.get("seed") is not None:
        if isinstance(doc["seed"], bool) or not isinstance(doc["seed"], int):
            raise ConfigError("seed", f"expected an integer, got {doc['seed']!r}")
        seed = doc["seed"]
        if seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {seed!r}")

    velocities = None
    if doc.get("velocities") is not None:
        raw_v = doc["velocities"]
        if not isinstance(raw_v, list) or len(raw_v) != len(angles):
            raise ConfigError("velocities", f"expected a list of {len(angles)} [vx, vy, vz] rows")
        rows = []
        for i, row in enumerate(raw_v):
            if not isinstance(row, list) or len(row) != 3:
                raise ConfigError("velocities", f"row {i}: expected [vx, vy, vz]")
            rows.append(tuple(_as_real(x, "velocities") for x in row))
        velocities = tuple(rows)

    return RunConfig(
        curvature=curvature,
        representation=rep,
        angles=angles,
        polygon=polygon,
        masses=masses,
        rho=rho,
        dt=dt,
        t_end=t_end,
        project_each_step=project,
        max_constraint_drift=max_drift,
        tol=tol,
        seed=seed,
        velocities=velocities,
    )


def _resolve(field: str, flag, configured, default=None):
    """The flag if given, else the configured value, else the default."""
    for value in (flag, configured, default):
        if value is not None:
            return value
    raise ConfigError(field, "required by this command but missing")


def _require_polygon(cfg: RunConfig) -> PolygonConfig:
    if cfg.polygon is None:
        raise ConfigError("angles", "this command needs a polygon with at least 3 vertices")
    return cfg.polygon


def _emit(report: dict) -> None:
    sys.stdout.write(dumps(report))


def cmd_validate(cfg: RunConfig) -> int:
    rads = cfg.radians
    pair_c = [
        [i + 1, j + 1, chord_c(rads[j], rads[i])]
        for i in range(cfg.n)
        for j in range(i + 1, cfg.n)
    ]
    if cfg.polygon is not None:
        canonical = list(canonicalize(cfg.polygon).angles)
        gaps = list(cyclic_gaps(cfg.polygon))
        regular = is_regular(cfg.polygon)
    else:
        canonical = list(cfg.angles)
        gaps = None
        regular = None
    _emit(
        {
            "command": "validate",
            "n": cfg.n,
            "representation": cfg.representation,
            "kappa": cfg.curvature.kappa,
            "sigma": cfg.curvature.sigma,
            "angles": list(cfg.angles),
            "canonical_angles": canonical,
            "gaps": gaps,
            "pair_c": pair_c,
            "is_regular": regular,
            "masses": None if cfg.masses is None else cfg.masses.as_array(),
            "rho": cfg.rho,
            "tol": cfg.tol,
            "seed": cfg.seed,
        }
    )
    return EXIT_OK


def cmd_criterion(cfg: RunConfig, rho_flag, tol_flag) -> int:
    polygon = _require_polygon(cfg)
    masses = _resolve("masses", None, cfg.masses)
    rho = _resolve("rho", _parse_rho(rho_flag, cfg.curvature.kappa), cfg.rho)
    tol = cfg.tol if tol_flag is None else _parse_tol(tol_flag)
    report = criterion_check(polygon, masses, rho, tol=tol)
    _emit(
        {
            "command": "criterion",
            "rho": rho,
            "tol": tol,
            "deltas": report.deltas,
            "gammas": report.gammas,
            "max_delta_spread": report.max_delta_spread,
            "max_gamma_spread": report.max_gamma_spread,
            "threshold": report.threshold,
            "satisfied": report.satisfied,
        }
    )
    return EXIT_OK if report.satisfied else EXIT_UNSATISFIED


def cmd_certify(cfg: RunConfig, rho_flag) -> int:
    polygon = _require_polygon(cfg)
    if cfg.representation != "exact":
        raise ConfigError("angles", "certification requires exact \"p/q\" turn angles")
    kappa = cfg.curvature.kappa
    rho = _resolve("rho", _parse_rho(rho_flag, kappa), cfg.rho, 0.5 if kappa > 0 else -1.0)
    try:
        cert = certify(polygon, rho=rho)
    except RegularPolygonError:
        _emit(
            {
                "command": "certify",
                "regular": True,
                "certificate": None,
                "message": "regular polygon: the nonexistence certificate targets "
                "irregular polygons only",
            }
        )
        return EXIT_REGULAR
    doc = cert.to_json_dict()
    doc["command"] = "certify"
    doc["regular"] = False
    _emit(doc)
    return EXIT_OK


def cmd_feasibility(cfg: RunConfig, rho_flag) -> int:
    polygon = _require_polygon(cfg)
    if cfg.representation != "exact":
        raise ConfigError("angles", "feasibility search requires exact \"p/q\" turn angles")
    rho = _resolve("rho", _parse_rho(rho_flag, cfg.curvature.kappa), cfg.rho)
    result = mass_feasibility(polygon, rho)
    doc = result.to_json_dict()
    doc["command"] = "feasibility"
    _emit(doc)
    return EXIT_OK if result.feasible else EXIT_UNSATISFIED


def _place_on_circle(radians, r: float, z: float) -> np.ndarray:
    theta = np.asarray(radians, dtype=float)
    return np.column_stack(
        (r * np.cos(theta), r * np.sin(theta), np.full(theta.shape, z))
    )


def _pair_c_matrix(state: BodySystem) -> np.ndarray:
    c = state.curvature
    metric = np.array([1.0, 1.0, float(c.sigma)])
    w = c.kappa * (state.positions @ (state.positions * metric).T)
    return 1.0 - w


def cmd_simulate(cfg: RunConfig, dt_flag, t_end_flag, out_path) -> int:
    masses = _resolve("masses", None, cfg.masses)
    rho = _resolve("rho", None, cfg.rho)
    dt = _resolve("integrator.dt", dt_flag, cfg.dt)
    t_end = _resolve("integrator.t_end", t_end_flag, cfg.t_end)
    try:
        icfg = IntegratorConfig(
            dt=dt,
            t_end=t_end,
            project_each_step=cfg.project_each_step,
            max_constraint_drift=cfg.max_constraint_drift,
        )
    except ValueError as exc:
        raise ConfigError("integrator", str(exc)) from None

    c = cfg.curvature
    r = math.sqrt(rho / c.kappa)
    omega_dot = None
    if cfg.velocities is None:
        # solve_omega has already built and checked this same state
        polygon = _require_polygon(cfg)
        omega_dot = solve_omega(polygon, masses, r, c)
        rigid = RelativeEquilibrium.from_radius(polygon, r, omega_dot, c)
        state = build_polygon_state(rigid, masses, c)
    else:
        z = math.sqrt(c.sigma / c.kappa - c.sigma * r * r)
        positions = _place_on_circle(cfg.radians, r, z)
        velocities = np.array(cfg.velocities, dtype=float)
        try:
            state = BodySystem(c, masses.as_array(), positions, velocities)
        except ValueError as exc:
            raise ConfigError("velocities", str(exc)) from None

    traj = integrate(state, icfg)

    c0 = _pair_c_matrix(traj.states[0])
    off = ~np.eye(state.n, dtype=bool)
    max_c_drift = 0.0
    if state.n > 1:
        for s in traj.states[1:]:
            drift = float(np.max(np.abs(_pair_c_matrix(s) - c0)[off]))
            max_c_drift = max(max_c_drift, drift)

    if out_path is not None:
        header = ["t"]
        for i in range(1, state.n + 1):
            header += [f"x{i}", f"y{i}", f"z{i}", f"vx{i}", f"vy{i}", f"vz{i}"]
        rows = []
        for t, s in zip(traj.times, traj.states):
            row = [t]
            for i in range(state.n):
                row += list(s.positions[i]) + list(s.velocities[i])
            rows.append(row)
        write_text_atomic(out_path, csv_text(header, rows))

    _emit(
        {
            "command": "simulate",
            "n": state.n,
            "dt": icfg.dt,
            "t_end": icfg.t_end,
            "steps": len(traj.times) - 1,
            "omega_dot": omega_dot,
            "max_surface_residual": max(d.max_surface_residual for d in traj.diagnostics),
            "max_tangency_residual": max(d.max_tangency_residual for d in traj.diagnostics),
            "min_pair_denominator": min(d.min_pair_denominator for d in traj.diagnostics),
            "max_c_drift": max_c_drift,
            "out": out_path,
        }
    )
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, grid_count: int, out_path) -> int:
    polygon = _require_polygon(cfg)
    masses = _resolve("masses", None, cfg.masses)
    if grid_count < 1:
        raise ConfigError("rho-grid", f"must be >= 1, got {grid_count}")
    grid = rho_grid(cfg.curvature.kappa, grid_count)
    d_spreads, g_spreads = [], []
    for start in range(0, len(grid), _SWEEP_BLOCK):
        block = np.array(grid[start : start + _SWEEP_BLOCK])
        d, g = _spreads(*delta_gamma(polygon, masses, block))
        d_spreads += d.tolist()
        g_spreads += g.tolist()
    text = csv_text(["rho", "delta_spread", "gamma_spread"], zip(grid, d_spreads, g_spreads))
    if out_path is not None:
        write_text_atomic(out_path, text)
        _emit(
            {
                "command": "sweep",
                "points": len(grid),
                "max_delta_spread": max(d_spreads),
                "max_gamma_spread": max(g_spreads),
                "out": out_path,
            }
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curved-nbody",
        description="Polygonal configurations and dynamics on constant-curvature surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        return p

    add("validate", "parse the configuration and echo derived quantities")
    p = add("criterion", "evaluate the delta/gamma balance criterion")
    p.add_argument("--rho", type=float, default=None, help="override the config rho")
    p.add_argument("--tol", type=float, default=None, help="override the config tolerance")
    p = add("certify", "emit a nonexistence certificate for an irregular polygon")
    p.add_argument("--rho", type=float, default=None, help="rho for the feasibility cross-check")
    p = add("feasibility", "search for positive masses satisfying the grouped equations")
    p.add_argument("--rho", type=float, default=None, help="override the config rho")
    p = add("simulate", "integrate the equations of motion")
    p.add_argument("--dt", type=float, default=None, help="override the integrator step")
    p.add_argument("--t-end", type=float, default=None, help="override the final time")
    p.add_argument("--out", default=None, help="trajectory CSV path")
    p = add("sweep", "evaluate the criterion across a rho grid")
    p.add_argument("--rho-grid", type=int, default=20, help="number of grid points")
    p.add_argument("--out", default=None, help="sweep CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed", f"must be >= 0, got {args.seed}")
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "criterion":
            return cmd_criterion(cfg, args.rho, args.tol)
        if args.command == "certify":
            return cmd_certify(cfg, args.rho)
        if args.command == "feasibility":
            return cmd_feasibility(cfg, args.rho)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.dt, args.t_end, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.rho_grid, args.out)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except ConstraintDriftError as exc:
        where = "" if exc.time is None else f" at t={exc.time!r}"
        print(f"error: drift guard abort{where}: {exc}", file=sys.stderr)
        return EXIT_DRIFT
    except (CurvedNBodyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
