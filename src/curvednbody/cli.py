"""Batch command-line front end.

Subcommands share a single JSON configuration document.  Angles are either
"p/q" strings (exact turn fractions, required for certification) or plain
numbers (radians, float mode); the two cannot be mixed.  All reports go to
stdout as canonical JSON, CSV goes to --out when given, and every output
file is written to a temp sibling and renamed so failures never leave a
partial file.

Each subcommand imports only what it runs: certify and feasibility load the
certificate module, simulate loads dynamics, and criterion and sweep run the
scalar kernel of `criterion`.  No subcommand loads numpy, or `fractions`:
exact angles are read as integer (numerator, denominator) pairs and printed
from integer residues.

Exit codes: 0 success / satisfied / feasible / certificate, 1 criterion not
satisfied or masses infeasible, 2 configuration or domain errors, 3 certify
called on a regular polygon, 4 drift-guard abort during simulation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

from .errors import (
    ConfigError,
    ConstraintDriftError,
    CurvedNBodyError,
    RegularPolygonError,
)
from .jsonout import csv_text, dumps, write_text_atomic
from .polygon import (
    TWO_PI,
    Curvature,
    PolygonConfig,
    _gap_residues,
    _masses,
    _Record,
    _turn_strings,
    canonicalize,
    chord_c,
    cyclic_gaps,
    is_regular,
    rho_grid,
    validate_rho_for_kappa,
)

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


def _as_real(value, field: str) -> float:
    # bool is an int subclass; a bare true/false is never a number here
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ConfigError(field, "integer too large for a double") from None
    if not math.isfinite(v):
        raise ConfigError(field, f"expected a finite number, got {value!r}")
    return v


def _parse_rho(value, kappa: float) -> float | None:
    """A rho from the config or --rho, checked against the curvature branch."""
    if value is None:
        return None
    try:
        return validate_rho_for_kappa(value, kappa)
    except ValueError as exc:
        raise ConfigError("rho", str(exc)) from None


def _parse_tol(value) -> float:
    """A tolerance from the config or --tol: finite and positive."""
    tol = _as_real(value, "tol")
    if tol <= 0.0:
        raise ConfigError("tol", f"must be positive, got {tol!r}")
    return tol


def _parse_seed(value) -> int:
    """A seed from the config or --seed: an integer >= 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("seed", f"expected an integer, got {value!r}")
    if value < 0:
        raise ConfigError("seed", f"must be >= 0, got {value!r}")
    return value


class RunConfig(_Record):
    """Parsed and validated configuration document.

    angles holds an exact config's turns as the (numerator, denominator)
    integer pairs of its "p/q" strings, unreduced, and a float config's
    radians as floats.
    """

    _fields = (
        "curvature", "representation", "angles", "polygon", "masses", "rho", "dt", "t_end",
        "project_each_step", "max_constraint_drift", "tol", "seed", "velocities",
    )

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def radians(self) -> tuple[float, ...]:
        if self.representation == "exact":
            # p / q rounds the same rational as float(Fraction(p, q)), once
            return tuple((p / q) * TWO_PI for p, q in self.angles)
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
            # int() alone would also take signs, spaces, underscores and non-ASCII digits
            if not re.fullmatch(r"[0-9]+(/[0-9]+)?", a):
                raise ConfigError("angles", f"entry {i}: {a!r} is not a \"p/q\" string")
            p, _, q = a.partition("/")
            try:
                p, q = int(p), int(q or 1)
                if not q:
                    raise ValueError
            except ValueError:  # a zero denominator, or more digits than int reads
                raise ConfigError("angles", f"entry {i}: {a!r} is not a valid fraction") from None
            if not p < q:
                raise ConfigError("angles", f"entry {i}: turn {a!r} outside [0, 1)")
            turns.append((p, q))
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
        a, b = vals[i - 1], vals[i]
        # turns compare p_i / q_i with p_{i-1} / q_{i-1} cross-multiplied
        if not (b[0] * a[1] > a[0] * b[1] if exact else b > a):
            raise ConfigError("angles", f"entries must be strictly increasing (index {i})")
    return rep, vals


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"invalid JSON in {path!r}: {exc}") from None
    except ValueError:  # json converts integers with int(), which caps their length
        limit = sys.get_int_max_str_digits()
        raise ConfigError(
            "config", f"invalid JSON in {path!r}: an integer has more than {limit} digits"
        ) from None
    except RecursionError:
        raise ConfigError("config", f"invalid JSON in {path!r}: nested too deeply") from None
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
        # _parse_angles has applied the constructor's range and order checks;
        # exact angles go in as the "p/q" strings it checked
        polygon = PolygonConfig(doc["angles"] if rep == "exact" else angles, rep)

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
            masses = _masses(_as_real(m, "masses") for m in raw_m)
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

    seed = 0 if doc.get("seed") is None else _parse_seed(doc["seed"])

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


def _write_out(path: str, text: str) -> None:
    # the message names the given path, never the temporary file beside it
    try:
        write_text_atomic(path, text)
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        raise ConfigError("out", f"cannot write {path!r}: {reason}") from None


def cmd_validate(cfg: RunConfig, args) -> int:
    rads = cfg.radians
    pair_c = [
        [i + 1, j + 1, chord_c(rads[j], rads[i])]
        for i in range(cfg.n)
        for j in range(i + 1, cfg.n)
    ]
    if cfg.representation == "exact":
        # each turn prints as str(Fraction) prints it, from integer residues
        full = math.lcm(*[q for _, q in cfg.angles])
        angles = _turn_strings([p * (full // q) for p, q in cfg.angles], full)
    else:
        angles = list(cfg.angles)
    polygon = cfg.polygon
    canonical, gaps, regular = angles, None, None
    if polygon is not None:
        if polygon.is_exact:
            res, full = polygon.residues
            canonical = _turn_strings(*canonicalize(polygon).residues)
            gaps = _turn_strings(_gap_residues(res, full), full)
        else:
            canonical, gaps = list(canonicalize(polygon).angles), list(cyclic_gaps(polygon))
        regular = is_regular(polygon)
    _emit(
        {
            "command": "validate",
            "n": cfg.n,
            "representation": cfg.representation,
            "kappa": cfg.curvature.kappa,
            "sigma": cfg.curvature.sigma,
            "angles": angles,
            "canonical_angles": canonical,
            "gaps": gaps,
            "pair_c": pair_c,
            "is_regular": regular,
            "masses": None if cfg.masses is None else list(cfg.masses),
            "rho": cfg.rho,
            "tol": cfg.tol,
            "seed": cfg.seed,
        }
    )
    return EXIT_OK


def cmd_criterion(cfg: RunConfig, args) -> int:
    from .criterion import criterion_check

    polygon = _require_polygon(cfg)
    masses = _resolve("masses", None, cfg.masses)
    rho = _resolve("rho", _parse_rho(args.rho, cfg.curvature.kappa), cfg.rho)
    tol = cfg.tol if args.tol is None else _parse_tol(args.tol)
    report = criterion_check(polygon, masses, rho, tol=tol)
    _emit({"command": "criterion", "rho": rho, "tol": tol, **vars(report)})
    return EXIT_OK if report.satisfied else EXIT_UNSATISFIED


def cmd_certify(cfg: RunConfig, args) -> int:
    from .certificate import certify

    polygon = _require_polygon(cfg)
    if cfg.representation != "exact":
        raise ConfigError("angles", "certification requires exact \"p/q\" turn angles")
    kappa = cfg.curvature.kappa
    rho = _resolve("rho", _parse_rho(args.rho, kappa), cfg.rho, 0.5 if kappa > 0 else -1.0)
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


def cmd_feasibility(cfg: RunConfig, args) -> int:
    from .certificate import mass_feasibility

    polygon = _require_polygon(cfg)
    if cfg.representation != "exact":
        raise ConfigError("angles", "feasibility search requires exact \"p/q\" turn angles")
    rho = _resolve("rho", _parse_rho(args.rho, cfg.curvature.kappa), cfg.rho)
    result = mass_feasibility(polygon, rho)
    doc = result.to_json_dict()
    doc["command"] = "feasibility"
    _emit(doc)
    return EXIT_OK if result.feasible else EXIT_UNSATISFIED


def cmd_simulate(cfg: RunConfig, args) -> int:
    from .dynamics import (
        BodySystem,
        IntegratorConfig,
        RelativeEquilibrium,
        build_polygon_state,
        integrate,
        solve_omega,
    )

    masses = _resolve("masses", None, cfg.masses)
    rho = _resolve("rho", None, cfg.rho)
    dt = _resolve("integrator.dt", args.dt, cfg.dt)
    t_end = _resolve("integrator.t_end", args.t_end, cfg.t_end)
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
        positions = [(r * math.cos(t), r * math.sin(t), z) for t in cfg.radians]
        try:
            state = BodySystem(c, masses, positions, cfg.velocities)
        except ValueError as exc:
            raise ConfigError("velocities", str(exc)) from None

    traj = integrate(state, icfg)
    n = state.n
    # the flat buffers hold k = 3n coordinates a sample, x, y, z of each body in turn
    k = 3 * n
    T, P, W, D = traj.time_buf, traj.position_buf, traj.velocity_buf, traj.diagnostic_buf

    # pair c = 1 - kappa (x_i x_j + y_i y_j + z_i (sigma z_j)), summed in that
    # order on plain floats, so that no BLAS kernel chooses the rounding
    kappa, sigma = c.kappa, c.sigma

    def pair_c(coords):
        it = iter(coords)
        pairs = itertools.combinations(zip(it, it, it), 2)
        return [1.0 - kappa * (a[0] * b[0] + a[1] * b[1] + a[2] * (sigma * b[2])) for a, b in pairs]

    start = pair_c(P[:k])
    max_c_drift = max(
        (abs(x - x0) for i in range(0, len(P), k) for x, x0 in zip(pair_c(P[i : i + k]), start)),
        default=0.0,
    )

    if args.out is not None:
        # per sample: t, then x, y, z, vx, vy, vz of each body in turn
        fields = ("x", "y", "z", "vx", "vy", "vz")
        header = ["t"] + [f"{a}{i}" for i in range(1, n + 1) for a in fields]

        def rows():
            for s, t in enumerate(T):
                row = [t]
                for j in range(s * k, s * k + k, 3):
                    row += P[j : j + 3]
                    row += W[j : j + 3]
                yield row

        _write_out(args.out, csv_text(header, rows()))

    _emit(
        {
            "command": "simulate",
            "n": n,
            "dt": icfg.dt,
            "t_end": icfg.t_end,
            "steps": len(T) - 1,
            "omega_dot": omega_dot,
            "max_surface_residual": max(D[0::3]),
            "max_tangency_residual": max(D[1::3]),
            "min_pair_denominator": min(D[2::3]),
            "max_c_drift": max_c_drift,
            "out": args.out,
        }
    )
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    from .criterion import _pair_table, _spread, _sums

    polygon = _require_polygon(cfg)
    masses = _resolve("masses", None, cfg.masses)
    if args.rho_grid < 1:
        raise ConfigError("rho-grid", f"must be >= 1, got {args.rho_grid}")
    table = _pair_table(polygon)
    try:
        grid = rho_grid(cfg.curvature.kappa, args.rho_grid)
        d_spreads, g_spreads = [], []
        for rho in grid:
            deltas, gammas = _sums(table, masses, rho)
            d_spreads.append(_spread(deltas))
            g_spreads.append(_spread(gammas))
        text = csv_text(["rho", "delta_spread", "gamma_spread"], zip(grid, d_spreads, g_spreads))
    except MemoryError:
        raise ConfigError("rho-grid", f"{args.rho_grid} points are too many to store") from None
    if args.out is not None:
        _write_out(args.out, text)
        _emit(
            {
                "command": "sweep",
                "points": len(grid),
                "max_delta_spread": max(d_spreads),
                "max_gamma_spread": max(g_spreads),
                "out": args.out,
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

    def add(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(run=run)
        return p

    add("validate", cmd_validate, "parse the configuration and echo derived quantities")
    p = add("criterion", cmd_criterion, "evaluate the delta/gamma balance criterion")
    p.add_argument("--rho", type=float, default=None, help="override the config rho")
    p.add_argument("--tol", type=float, default=None, help="override the config tolerance")
    p = add("certify", cmd_certify, "emit a nonexistence certificate for an irregular polygon")
    p.add_argument("--rho", type=float, default=None, help="rho for the feasibility cross-check")
    p = add("feasibility", cmd_feasibility, "search for positive masses satisfying the grouped equations")
    p.add_argument("--rho", type=float, default=None, help="override the config rho")
    p = add("simulate", cmd_simulate, "integrate the equations of motion")
    p.add_argument("--dt", type=float, default=None, help="override the integrator step")
    p.add_argument("--t-end", type=float, default=None, help="override the final time")
    p.add_argument("--out", default=None, help="trajectory CSV path")
    p = add("sweep", cmd_sweep, "evaluate the criterion across a rho grid")
    p.add_argument("--rho-grid", type=int, default=20, help="number of grid points")
    p.add_argument("--out", default=None, help="sweep CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = RunConfig(**{**vars(cfg), "seed": _parse_seed(args.seed)})
        return args.run(cfg, args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (CurvedNBodyError, ValueError) as exc:
        # a simulation error carries the time it happened, if it happened mid-run
        where = "" if getattr(exc, "time", None) is None else f" at t={exc.time!r}"
        if isinstance(exc, ConstraintDriftError):
            print(f"error: drift guard abort{where}: {exc}", file=sys.stderr)
            return EXIT_DRIFT
        print(f"error{where}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
