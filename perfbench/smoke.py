"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke.py

It checks that
1. a tiny run of every workload, traced and untraced, passes all its gates
   and emits exactly the metric names and units declared in BENCHMARK.json;
2. a deliberately wrong expected value makes a gate fail its item, on
   every workload, while the right value passes the same item;
3. in a directory holding only BENCHMARK.json and the benchmark's files the
   benchmark exits nonzero without printing a result.
Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def check_metric_names() -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for w in BENCH["workloads"]:
            proc = _run_bench(run.ROOT, w["name"], trace)
            if proc.returncode != 0:
                problems.append(f"{w['name']} trace {trace}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                diff = sorted(set(got.items()) ^ set(want.items()))
                problems.append(f"{w['name']} trace {trace}: metrics differ from BENCHMARK.json: {diff}")
            if not result["correct"]:
                problems.append(f"{w['name']} trace {trace}: {proc.stdout.splitlines()[-2]}")
    return problems


# Per workload: how to break one expectation, and an item whose gate uses it.
BREAKERS = {
    "certify-batch": (lambda wl: setattr(wl, "expect_regular_feasible", False), 9),  # first regular
    "rigid-rotation": (lambda wl: wl.tolerances.update(c_drift=0.0), 0),
    "cli-mix": (lambda wl: wl.expect_rc.update(feasibility=0), 3),  # the feasibility call
}


def check_broken_gates() -> list[str]:
    api = run.load_api()
    import workloads

    problems = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=run.ROOT) as tmp:
        for name, (breaker, k) in BREAKERS.items():
            wl = workloads.WORKLOADS[name](api, 1, True, Path(tmp), run.child_env())
            if run.run_phase(wl, 0.0, None, k + 1, workloads).failed:
                problems.append(f"{name}: items 0..{k} fail with the right expectations")
                continue
            breaker(wl)
            try:
                wl.item(k, None)
            except workloads.GateError:
                continue
            problems.append(f"{name}: item {k} passed a deliberately wrong expectation")
    return problems


def check_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".perfbench-bare-", dir=run.ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_bench(bare, BENCH["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = check_metric_names() + check_broken_gates() + check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
