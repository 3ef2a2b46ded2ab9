"""Benchmark for curved-nbody: three seeded workloads, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 30 --trace 0

The package is imported from this checkout's src/ and nowhere else.
`--trace 0` measures the named workload untraced for --seconds and reports
the end-to-end metrics; `--trace 1` reports the per-layer metrics from
traced passes over all three workloads (the named one gets half the time)
together with the tracing overhead.  The last line of stdout is the result
JSON; the line before it records the environment, the input hashes, the
tail percentile with its sample count and the first errors.  `--tiny`
shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# One BLAS/OpenMP thread, set before numpy loads here and inherited by every
# child.  CURVED_NBODY_THREADS stays unset so the package uses its default.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CURVED_NBODY_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curvednbody"

# The benchmark calls only these names, each of which must be in its
# module's __all__, so internal refactors cannot break it silently.
PUBLIC = {
    "curvednbody": (
        "Curvature", "DisagreementError", "IntegratorConfig", "PolygonConfig",
        "RelativeEquilibrium", "acceleration", "base_groups", "build_polygon_state",
        "canonicalize", "certify", "classify_case", "criterion_check", "cyclic_gaps",
        "delta_gamma", "diagnostics", "find_contradiction_j", "integrate",
        "mass_feasibility", "project_point", "project_tangent", "rho_grid",
        "solve_omega", "step",
    ),
    "curvednbody.jsonout": ("dumps", "csv_text"),
    "curvednbody.cli": ("load_config", "main"),
}

# The names the end-to-end metrics carry on each workload.
ALIASES = {
    "certify-batch": {
        "polygons_per_s": "items_per_s",
        "polygon_p50_ms": "item_p50_ms",
        "polygon_tail_ms": "item_tail_ms",
    },
    "rigid-rotation": {"rk4_steps_per_s.n3": "small_per_s", "rk4_steps_per_s.n8": "large_per_s"},
    "cli-mix": {"cli_p50_ms": "item_p50_ms", "cli_tail_ms": "item_tail_ms"},
}

SETUP_IMPORTS = 3

# Other tenants of the machine change its speed by up to 2x within minutes,
# and CPU time follows wall time, so every timing is scaled to a fixed
# machine speed: each item (and each setup import) is bracketed by two runs
# of a fixed reference task that calls no package code, and its time is
# divided by the mean of the two reference times over the reference's
# nominal time (workloads.reference_slice for in-process items,
# workloads.reference_child for child processes).  Raw values are on the
# summary line.


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_api() -> SimpleNamespace:
    """Import the package from this checkout and collect the public names used."""
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no package source at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    names = {}
    for modname, wanted in PUBLIC.items():
        mod = importlib.import_module(modname)
        if PACKAGE not in Path(mod.__file__).resolve().parents:
            raise BenchError(f"{modname} imported from {mod.__file__}, not from {PACKAGE}")
        missing = [n for n in wanted if n not in getattr(mod, "__all__", ())]
        if missing:
            raise BenchError(f"{modname}.__all__ lacks {missing}")
        names.update({n: getattr(mod, n) for n in wanted})
    return SimpleNamespace(**names)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(PACKAGE.parent))


class Bracket:
    """Machine-speed factors from a reference task run between measurements."""

    def __init__(self, reference, nominal_s: float):
        self.reference = reference
        self.nominal_s = nominal_s
        self.last = reference()
        self.factors: list[float] = []

    def factor(self) -> float:
        """Factor of the measurement just ended; above 1 on a slow machine."""
        now = self.reference()
        factor = (self.last + now) / (2.0 * self.nominal_s)
        self.last = now
        self.factors.append(factor)
        return factor


def measure_setup(env: dict, workdir: Path, count: int, bracket: Bracket) -> tuple[float, float]:
    """Scaled and raw median wall time of a fresh interpreter importing the package."""
    code = "import curvednbody, sys; sys.stdout.write(curvednbody.__file__)"
    scaled, raw = [], []
    for i in range(count + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=workdir, env=env, capture_output=True, timeout=120
        )
        dt = time.perf_counter() - t0
        factor = bracket.factor()
        if proc.returncode != 0 or Path(proc.stdout.decode()).resolve() != PACKAGE / "__init__.py":
            raise BenchError(f"child import failed or resolved elsewhere: {proc.stdout!r} {proc.stderr!r}")
        if i:  # the first import may still be compiling bytecode
            scaled.append(dt / factor)
            raw.append(dt)
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Phase:
    """Outcome of one closed-loop pass, with times scaled to machine speed.

    `block_rates` holds items per second over consecutive full passes of
    the workload's mix, and `class_totals` the units and scaled seconds of
    the small and large contributions.  A class rate is a ratio of sums,
    not a median: a class can mix two kinds of call whose costs differ, and
    a median over it would jump between them as the count of each varies.
    """

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    raw_latencies: list = field(default_factory=list)
    block_rates: list = field(default_factory=list)
    class_totals: dict = field(default_factory=dict)  # class -> [units, seconds]
    factors: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def rate(self) -> float:
        return statistics.median(self.block_rates) if self.block_rates else 0.0

    def class_rate(self, klass: str) -> float:
        units, secs = self.class_totals.get(klass, (0, 0.0))
        return units / secs if secs > 0 else 0.0


def run_phase(wl, seconds: float, tracer, min_items: int, workloads) -> Phase:
    """Closed loop: the next item starts when the previous one is done.

    A block is a full pass over the workload's mix; a partial block at the
    deadline enters the latencies but not the block rates.
    """
    phase = Phase()
    bracket = Bracket(wl.reference, wl.reference_nominal_s)
    phase.factors = bracket.factors
    deadline = time.perf_counter() + seconds
    block_ok, block_time = 0, 0.0
    while phase.attempted < min_items or time.perf_counter() < deadline:
        k = phase.attempted
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            parts = wl.item(k, tracer)
        except workloads.GateError as exc:
            phase.errors.append(f"{wl.name} item {k}: {exc}")
            parts = None
        except Exception as exc:  # a raising item is a failed item, never a crash
            phase.errors.append(f"{wl.name} item {k}: {type(exc).__name__}: {exc}")
            parts = None
        dt = time.perf_counter() - t0
        factor = bracket.factor()
        if parts is None:
            phase.failed += 1
        else:
            phase.latencies.append(dt / factor)
            phase.raw_latencies.append(dt)
            block_ok += 1
            block_time += dt / factor
            for klass, units, secs in parts:
                totals = phase.class_totals.setdefault(klass, [0, 0.0])
                totals[0] += units
                totals[1] += secs / factor
        if phase.attempted % wl.cycle == 0:
            if block_ok:
                phase.block_rates.append(block_ok / block_time)
            block_ok, block_time = 0, 0.0
    return phase


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 0


def quantile(sorted_values: list, p: float) -> float:
    """Linear interpolation between closest ranks."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def end_to_end(name: str, phase: Phase, setup: tuple[float, float]) -> tuple[dict, dict]:
    lat = sorted(phase.latencies)
    raw_lat = sorted(phase.raw_latencies)
    p_tail = tail_percentile(len(lat))
    who = resource.RUSAGE_CHILDREN if name == "cli-mix" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (phase.rate(), "1/s"),
        "item_p50_ms": (quantile(lat, 50) * 1e3, "ms"),
        "item_tail_ms": (quantile(lat, p_tail) * 1e3, "ms"),
        "small_per_s": (phase.class_rate("small"), "1/s"),
        "large_per_s": (phase.class_rate("large"), "1/s"),
    }
    info = {
        "samples": len(lat),
        "tail_percentile": p_tail,
        "machine_factor_median": statistics.median(phase.factors) if phase.factors else None,
        "raw": {
            "setup_s": setup[1],
            "item_p50_ms": quantile(raw_lat, 50) * 1e3,
            "item_tail_ms": quantile(raw_lat, p_tail) * 1e3,
        },
        "aliases": {alias: metrics[m][0] for alias, m in ALIASES[name].items()},
    }
    return metrics, info


def run(args) -> tuple[dict, dict, int, int]:
    api = load_api()
    import workloads  # after load_api: numpy must see the pinned thread counts

    env = child_env()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    phases = []
    info: dict = {"input_sha256": {}}
    try:
        if args.trace == 0:
            bracket = Bracket(lambda: workloads.reference_child(env, workdir),
                              workloads.CHILD_NOMINAL_S)
            setup = measure_setup(env, workdir, 1 if args.tiny else SETUP_IMPORTS, bracket)
            wl = workloads.WORKLOADS[args.workload](api, args.seed, args.tiny, workdir, env)
            info["input_sha256"][wl.name] = wl.input_sha256
            phases.append(run_phase(wl, 0.0, None, 1, workloads))  # warm-up, still gated
            phases.append(run_phase(wl, args.seconds, None, wl.cycle, workloads))
            metrics, more = end_to_end(wl.name, phases[-1], setup)
            info.update(more)
        else:
            tracer = workloads.Tracer()
            metrics = {}
            order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
            for name in order:
                share = args.seconds * (0.5 if name == args.workload else 0.25)
                wl = workloads.WORKLOADS[name](api, args.seed, args.tiny, workdir, env)
                info["input_sha256"][name] = wl.input_sha256
                plain = run_phase(wl, share / 2, None, wl.cycle, workloads)
                traced = run_phase(wl, share / 2, tracer, wl.cycle, workloads)
                phases += [plain, traced]
                wl.finish(tracer)
                factor = statistics.median(traced.factors)
                for key, (value, unit) in wl.layer_metrics(tracer).items():
                    metrics[key] = (value / factor if unit in ("us", "ms") else value, unit)
                ratio = traced.rate() / plain.rate() if plain.rate() > 0 else 0.0
                metrics[f"trace.throughput_ratio.{name}"] = (ratio, "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    info["failed_frac"] = failed / attempted if attempted else 1.0
    info["errors"] = [e for p in phases for e in p.errors][:5]
    return metrics, info, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    try:
        metrics, info, attempted, failed = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, **info, "env": environment()}
    print(json.dumps(summary, sort_keys=True))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
