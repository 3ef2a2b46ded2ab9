"""The three workloads: one item at a time, each output checked by its gates.

A workload object holds its seeded input pool and the digest of every
output it has produced.  `item(k, tracer)` runs pool entry k mod pool size,
raises GateError when an output is wrong, and returns the (class, units,
seconds) contributions of the item to the small and large classes.  With a
tracer it also records spans around the calls into each package module and
replays the child calls a span is known to make, so that self times can be
taken by subtraction; nothing inside the package is patched.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from inputs import (
    RIGID_CASES,
    RIGID_DT,
    ROTATION_RHOS,
    certify_pool,
    cli_pool,
    input_hash,
    rigid_pool,
)

CASE_TAGS = ("case1", "case2u", "case2v", "case3")
CLI_KINDS = ("validate", "criterion", "certify", "feasibility", "simulate", "sweep")


# Nominal times of the two reference tasks; scaled timings are expressed at
# the machine speed where the tasks take exactly these.
SLICE_NOMINAL_S = 1.0e-3
CHILD_NOMINAL_S = 0.15


def reference_slice() -> float:
    """Seconds taken by a fixed mix of Fraction, 3x3-array and JSON work.

    The mix resembles the in-process workloads but calls no package code,
    so its time follows only how fast the shared machine runs at the
    moment.  It must never change: it defines the speed timings are
    scaled to.
    """
    t0 = time.perf_counter()
    f = Fraction(0)
    for k in range(1, 150):
        f += Fraction(k, 360 + k)
    a = np.ones((3, 3))
    for _ in range(150):
        a = (a @ a.T) * 1e-3 + 1.0
    json.dumps({str(i): i * 0.5 for i in range(150)})
    return time.perf_counter() - t0


def reference_child(env: dict, cwd: Path) -> float:
    """Seconds for a fresh interpreter to import numpy.

    The reference for measurements of child processes, whose cost is mostly
    interpreter start and imports, which an in-process slice tracks poorly.
    It must never change either.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env,
                   capture_output=True, check=True, timeout=120)
    return time.perf_counter() - t0


class GateError(Exception):
    """An output failed a correctness gate; its item counts as failed."""


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


class Tracer:
    """Span durations kept in memory, keyed by span name."""

    def __init__(self):
        self.spans: dict[str, list[float]] = defaultdict(list)

    def timed(self, name, fn, *args):
        """Call fn(*args); record the duration under name unless name is None."""
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        if name is not None:
            self.spans[name].append(dt)
        return out, dt

    def add(self, name: str, seconds: float) -> None:
        self.spans[name].append(seconds)

    def median(self, name: str, scale: float) -> float:
        """Median duration times scale; 0 when no call succeeded."""
        spans = self.spans.get(name)
        return statistics.median(spans) * scale if spans else 0.0


class Workload:
    """Common bookkeeping: pool, output digests and the gate expectations."""

    name = ""
    cycle = 1  # items in one full pass over the workload's call mix
    reference_nominal_s = SLICE_NOMINAL_S

    def __init__(self, api, seed: int, tiny: bool, workdir: Path, env: dict):
        self.api = api
        self.tiny = tiny
        self.workdir = workdir
        self.env = env
        self.digests: dict = {}
        self.pool = self.setup(seed)
        self.input_sha256 = input_hash(self.pool)

    def reference(self) -> float:
        """Time of the reference task that brackets this workload's items."""
        return reference_slice()

    def check_digest(self, key, payload: bytes) -> None:
        """Every rerun of an input, traced or not, must give the same bytes."""
        digest = hashlib.sha256(payload).hexdigest()
        first = self.digests.setdefault(key, digest)
        gate(first == digest, f"output for input {key!r} differs from its first run")

    def finish(self, tracer: Tracer) -> None:
        """Traced-run work that is not timed per item."""

    def layer_metrics(self, tracer: Tracer) -> dict:
        return {}


class CertifyBatch(Workload):
    name = "certify-batch"
    cycle = 10

    def setup(self, seed):
        self.expect_regular_feasible = True
        self.cases: dict[int, str] = {}
        return certify_pool(seed, 20 if self.tiny else 500)

    def item(self, k, tracer):
        api = self.api
        t0 = time.perf_counter()
        key = k % len(self.pool)
        spec = self.pool[key]
        poly = api.PolygonConfig.from_turns(spec["turns"])
        regular = spec["kind"] == "regular"
        doc = {}
        if not regular:
            try:
                cert = self._certify(poly, tracer)
            except api.DisagreementError as exc:
                raise GateError(f"certificate and LP disagree: {exc}") from None
            gate(cert.case_tag in CASE_TAGS, f"unknown case tag {cert.case_tag!r}")
            self.cases[key] = cert.case_tag
            doc["certificate"] = cert.to_json_dict()
            gate(doc["certificate"]["feasibility"]["verdict"] == "infeasible", "certificate verdict")
        verdicts = {}
        for rho in ROTATION_RHOS:
            res = self._feasibility(poly, rho, tracer)
            if regular:
                gate(res.feasible == self.expect_regular_feasible, f"regular polygon LP verdict at rho={rho}")
                m = np.asarray(res.masses)
                gate(float(np.max(np.abs(m - m[0]))) <= 1e-9 * m[0], f"unequal masses at rho={rho}")
            else:
                gate(not res.feasible, f"irregular polygon LP feasible at rho={rho}")
            verdicts["%.17g" % rho] = res.to_json_dict()
        doc["feasibility"] = verdicts
        if tracer is None:
            text = api.dumps(doc)
        else:
            text, _ = tracer.timed("jsonout.dumps", api.dumps, doc)
        self.check_digest(key, text.encode())
        klass = None if regular else spec["kind"]
        return [(klass, 1, time.perf_counter() - t0)]

    def _feasibility(self, poly, rho, tracer):
        api = self.api
        if tracer is None:
            return api.mass_feasibility(poly, rho)
        res, t = tracer.timed("certificate.mass_feasibility", api.mass_feasibility, poly, rho)
        canon, t_canon = tracer.timed("criterion.canonicalize", api.canonicalize, poly)
        _, t_groups = tracer.timed("certificate.base_groups", api.base_groups, canon, rho)
        tracer.add("certificate.mass_feasibility.self", t - t_canon - t_groups)
        return res

    def _certify(self, poly, tracer):
        api = self.api
        if tracer is None:
            return api.certify(poly, 0.5)
        cert, t = tracer.timed("certificate.certify", api.certify, poly, 0.5)
        canon, t_canon = tracer.timed("criterion.canonicalize", api.canonicalize, poly)
        tracer.timed("criterion.cyclic_gaps", api.cyclic_gaps, canon)
        j, t_j = tracer.timed("certificate.find_contradiction_j", api.find_contradiction_j, canon)
        _, t_case = tracer.timed("certificate.classify_case", api.classify_case, canon, j)
        _, t_feas = tracer.timed(None, api.mass_feasibility, canon, 0.5)
        tracer.add("certificate.certify.self", t - t_canon - t_j - t_case - t_feas)
        return cert

    def finish(self, tracer):
        # Case counts cover the whole pool, so they depend on the seed only.
        for key, spec in enumerate(self.pool):
            if spec["kind"] != "regular" and key not in self.cases:
                poly = self.api.PolygonConfig.from_turns(spec["turns"])
                try:
                    self.cases[key] = self.api.certify(poly, 0.5).case_tag
                except Exception:  # the census only counts; the items' gates judge
                    pass

    def layer_metrics(self, tr):
        out = {
            "criterion.canonicalize.us": (tr.median("criterion.canonicalize", 1e6), "us"),
            "criterion.cyclic_gaps.us": (tr.median("criterion.cyclic_gaps", 1e6), "us"),
            "certificate.base_groups.us": (tr.median("certificate.base_groups", 1e6), "us"),
            "certificate.find_contradiction_j.us": (
                tr.median("certificate.find_contradiction_j", 1e6), "us"),
            "certificate.classify_case.us": (tr.median("certificate.classify_case", 1e6), "us"),
            "certificate.mass_feasibility.us": (tr.median("certificate.mass_feasibility", 1e6), "us"),
            "certificate.mass_feasibility.self_us": (
                tr.median("certificate.mass_feasibility.self", 1e6), "us"),
            "certificate.certify.us": (tr.median("certificate.certify", 1e6), "us"),
            "certificate.certify.self_us": (tr.median("certificate.certify.self", 1e6), "us"),
            "jsonout.dumps.us": (tr.median("jsonout.dumps", 1e6), "us"),
        }
        tags = list(self.cases.values())
        for tag in CASE_TAGS:
            out[f"certificate.cases.{tag}"] = (tags.count(tag), "count")
        return out


class RigidRotation(Workload):
    name = "rigid-rotation"
    cycle = 1

    def setup(self, seed):
        self.steps = 20 if self.tiny else 1000
        self.sample_every = 10 if self.tiny else 100
        self.tolerances = {"c_drift": 1e-6, "residual": 1e-10, "spread": 1e-8}
        return rigid_pool(seed, 8)

    def _initial(self, case, spec, tracer):
        api = self.api
        n, kappa, r = RIGID_CASES[case]
        c = api.Curvature(kappa)
        poly = api.PolygonConfig.from_turns([Fraction(i, n) for i in range(n)])
        masses = (spec["mass"],) * n
        if tracer is None:
            omega = api.solve_omega(poly, masses, r, c)
        else:
            omega, _ = tracer.timed("dynamics.solve_omega", api.solve_omega, poly, masses, r, c)
        req = api.RelativeEquilibrium.from_radius(poly, r, omega, c)
        return c, masses, omega, api.build_polygon_state(req, masses, c, spec["phase"])

    def item(self, k, tracer):
        key = k % len(self.pool)
        return [self._case(case, key, tracer) for case in RIGID_CASES]

    def _case(self, case, key, tracer):
        api = self.api
        tol = self.tolerances
        c, masses, omega, state = self._initial(case, self.pool[key][case], tracer)
        icfg = api.IntegratorConfig(dt=RIGID_DT, t_end=self.steps * RIGID_DT)
        t0 = time.perf_counter()
        traj = api.integrate(state, icfg)
        t_integrate = time.perf_counter() - t0

        gate(len(traj.times) == self.steps + 1, f"{case}: {len(traj.times) - 1} steps")
        Q = np.array([s.positions for s in traj.states])
        metric = np.array([1.0, 1.0, float(c.sigma)])
        C = 1.0 - c.kappa * np.einsum("tik,tjk->tij", Q, Q * metric)
        off = ~np.eye(Q.shape[1], dtype=bool)
        drift = float(np.max(np.abs(C - C[0])[:, off]))
        gate(drift < tol["c_drift"], f"{case}: pairwise c drift {drift!r}")
        surf = max(d.max_surface_residual for d in traj.diagnostics)
        tang = max(d.max_tangency_residual for d in traj.diagnostics)
        gate(max(surf, tang) < tol["residual"], f"{case}: residuals {surf!r}, {tang!r}")
        sampled = traj.states[:: self.sample_every]
        for s in sampled:
            theta = np.arctan2(s.positions[:, 1], s.positions[:, 0])
            alpha = np.sort(np.mod(theta - theta[0], 2.0 * math.pi))
            rho = c.kappa * float(np.mean(s.positions[:, 0] ** 2 + s.positions[:, 1] ** 2))
            rep = api.criterion_check(api.PolygonConfig.from_radians(tuple(alpha)), masses, rho)
            spread = max(rep.max_delta_spread, rep.max_gamma_spread)
            gate(spread < tol["spread"], f"{case}: criterion spread {spread!r}")
        last = traj.states[-1]
        self.check_digest(
            (case, key), repr(omega).encode() + last.positions.tobytes() + last.velocities.tobytes()
        )

        if tracer is not None:
            for s in sampled:
                tracer.timed(f"dynamics.step.{case}", api.step, s, icfg)
                tracer.timed(f"dynamics.acceleration.{case}", api.acceleration, s)
                tracer.timed("dynamics.diagnostics", api.diagnostics, s)
                tracer.timed("geometry.project_point", api.project_point, s.positions, c)
                tracer.timed("geometry.project_tangent", api.project_tangent, s.positions, s.velocities, c)
        return ("small" if case == "n3" else "large", self.steps, t_integrate)

    def finish(self, tracer):
        # Memory retained per stored sample: the trajectory is alive while
        # tracemalloc reads its current size.
        *_, state = self._initial("n3", self.pool[0]["n3"], None)
        icfg = self.api.IntegratorConfig(dt=RIGID_DT, t_end=self.steps * RIGID_DT)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traj = self.api.integrate(state, icfg)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        self.kb_per_sample = held / len(traj.times) / 1024.0

    def layer_metrics(self, tr):
        out = {
            "dynamics.diagnostics.us": (tr.median("dynamics.diagnostics", 1e6), "us"),
            "dynamics.solve_omega.ms": (tr.median("dynamics.solve_omega", 1e3), "ms"),
            "dynamics.integrate.kb_per_sample": (self.kb_per_sample, "kB"),
            "geometry.project_point.us": (tr.median("geometry.project_point", 1e6), "us"),
            "geometry.project_tangent.us": (tr.median("geometry.project_tangent", 1e6), "us"),
        }
        for case in RIGID_CASES:
            out[f"dynamics.step.us.{case}"] = (tr.median(f"dynamics.step.{case}", 1e6), "us")
            out[f"dynamics.acceleration.us.{case}"] = (
                tr.median(f"dynamics.acceleration.{case}", 1e6), "us")
        return out


class CliMix(Workload):
    """Fresh `python -m curvednbody.cli` processes, one at a time."""

    name = "cli-mix"
    cycle = len(CLI_KINDS)
    reference_nominal_s = CHILD_NOMINAL_S

    def reference(self):
        return reference_child(self.env, self.workdir)

    def setup(self, seed):
        self.sim_steps = 20 if self.tiny else 300
        self.grid = 50 if self.tiny else 2000
        self.expect_rc = {
            "validate": 0,
            "criterion": 1,  # an irregular polygon balances for no masses
            "certify": 0,
            "feasibility": 1,
            "simulate": 0,
            "sweep": 0,
        }
        pool = cli_pool(seed, 2, self.sim_steps)
        for i, entry in enumerate(pool):
            for name, doc in entry.items():
                (self.workdir / f"{i}-{name}.json").write_text(json.dumps(doc))
        return pool

    def _argv(self, kind, i):
        writes = kind in ("simulate", "sweep")
        config = str(self.workdir / f"{i}-{kind if writes else 'polygon'}.json")
        argv = [kind, "--config", config]
        if kind == "sweep":
            argv += ["--rho-grid", str(self.grid)]
        out = self.workdir / f"{i}-{kind}.csv" if writes else None
        if out is not None:
            argv += ["--out", str(out)]
        return argv, config, out

    def item(self, k, tracer):
        api = self.api
        kind = CLI_KINDS[k % len(CLI_KINDS)]
        i = (k // len(CLI_KINDS)) % len(self.pool)
        argv, config, out = self._argv(kind, i)
        if out is not None and out.exists():
            out.unlink()  # a stale file from an earlier call must not pass the gate
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "curvednbody.cli", *argv],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        wall = time.perf_counter() - t0
        gate(
            proc.returncode == self.expect_rc[kind],
            f"{kind}: exit {proc.returncode}, stderr {proc.stderr.decode()[-300:]!r}",
        )
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            raise GateError(f"{kind}: stdout is not JSON") from None
        out_bytes = b"" if out is None else out.read_bytes()
        self._check(kind, self.pool[i], doc, out_bytes.decode())
        self.check_digest((kind, i), proc.stdout + out_bytes)

        if tracer is not None:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc, t_main = tracer.timed(f"cli.main.{kind}", api.main, argv)
            gate(rc == proc.returncode, f"{kind}: in-process exit {rc}")
            gate(buf.getvalue().encode() == proc.stdout, f"{kind}: stdout differs under tracing")
            tracer.add("cli.startup", wall - t_main)
            tracer.timed("cli.load_config", api.load_config, config)
            if kind == "sweep":
                self._replay_sweep(self.pool[i]["sweep"], tracer)
            if kind == "simulate":
                lines = out_bytes.decode().splitlines()
                rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
                _, t = tracer.timed(None, api.csv_text, lines[0].split(","), rows)
                tracer.add("jsonout.csv_text.per_row", t / len(rows))
        return [("small" if out is None else "large", 1, wall)]

    def _check(self, kind, entry, doc, csv):
        gate(doc.get("command", kind) == kind, f"{kind}: wrong command echo")
        n = len(entry["polygon"]["angles"])
        if kind == "validate":
            gate(doc["n"] == n and doc["is_regular"] is False, "validate: n or regularity")
        elif kind == "criterion":
            gate(doc["satisfied"] is False, "criterion: irregular polygon reported balanced")
        elif kind == "certify":
            gate(doc["case"] in CASE_TAGS, f"certify: case {doc.get('case')!r}")
            gate(doc["feasibility"]["verdict"] == "infeasible", "certify: LP verdict")
        elif kind == "feasibility":
            gate(doc["feasible"] is False, "feasibility: irregular polygon feasible")
        elif kind == "simulate":
            gate(doc["steps"] == self.sim_steps, f"simulate: {doc['steps']} steps")
            gate(doc["max_c_drift"] < 1e-6, f"simulate: c drift {doc['max_c_drift']!r}")
            gate(doc["max_surface_residual"] < 1e-10, "simulate: surface residual")
            self._check_csv(csv, 1 + 6 * 3, self.sim_steps + 1, kind)
        else:
            gate(doc["points"] == self.grid, f"sweep: {doc['points']} points")
            self._check_csv(csv, 3, self.grid, kind)

    @staticmethod
    def _check_csv(text, columns, rows, kind):
        lines = text.splitlines()
        gate(len(lines) == rows + 1, f"{kind}: {len(lines) - 1} CSV rows, want {rows}")
        for line in lines[1:]:
            cells = line.split(",")
            gate(len(cells) == columns, f"{kind}: CSV row with {len(cells)} cells")
            try:
                [float(x) for x in cells]
            except ValueError:
                raise GateError(f"{kind}: CSV cell is not a number") from None

    def _replay_sweep(self, doc, tracer):
        api = self.api
        poly = api.PolygonConfig.from_turns(doc["angles"])
        masses = tuple(doc["masses"])
        grid = api.rho_grid(doc["kappa"], self.grid)
        for rho in grid[:: max(1, len(grid) // 100)]:
            tracer.timed("criterion.criterion_check", api.criterion_check, poly, masses, rho)
            tracer.timed("criterion.delta_gamma", api.delta_gamma, poly, masses, rho)

    def layer_metrics(self, tr):
        out = {
            "criterion.delta_gamma.us": (tr.median("criterion.delta_gamma", 1e6), "us"),
            "criterion.criterion_check.us": (tr.median("criterion.criterion_check", 1e6), "us"),
            "jsonout.csv_text.us_per_row": (tr.median("jsonout.csv_text.per_row", 1e6), "us"),
            "cli.load_config.us": (tr.median("cli.load_config", 1e6), "us"),
            "cli.startup_ms": (tr.median("cli.startup", 1e3), "ms"),
        }
        for kind in CLI_KINDS:
            out[f"cli.main.ms.{kind}"] = (tr.median(f"cli.main.{kind}", 1e3), "ms")
        return out


WORKLOADS = {w.name: w for w in (CertifyBatch, RigidRotation, CliMix)}
