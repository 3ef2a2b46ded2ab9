"""Seeded inputs for the three workloads.

Every input is plain data (turn strings, floats, JSON documents) built here
from the workload seed, so the program under test only ever receives the
generated inputs and a change to the program cannot change them.  Each
workload draws from its own random stream, named after the workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

# Small irregular polygons cycle through these maximum denominators: the small
# ones make the u and v pairings of the case analysis common, so every case
# tag shows up; 360 is the denominator of acceptance item 2.
SMALL_DENOMINATORS = (12, 24, 60, 360)
LARGE_DENOMINATOR = 10_000
ROTATION_RHOS = (0.25, 0.5, 0.75, -1.0)


def _stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def input_hash(pool) -> str:
    """sha256 of the canonical JSON of a workload's input pool."""
    text = json.dumps(pool, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _irregular_turns(rng: random.Random, n: int, max_den: int) -> list[str]:
    while True:
        q = rng.randint(n, max_den)
        turns = [Fraction(p, q) for p in sorted(rng.sample(range(q), n))]
        gaps = [b - a for a, b in zip(turns, turns[1:])] + [1 - turns[-1] + turns[0]]
        if len(set(gaps)) > 1:
            return [str(t) for t in turns]


def _regular_turns(rng: random.Random, n: int) -> list[str]:
    offset = Fraction(rng.randrange(360), 360 * n)
    return [str(offset + Fraction(k, n)) for k in range(n)]


def certify_pool(seed: int, size: int) -> list[dict]:
    """Polygons in a fixed ten-slot pattern: 7 small, 2 large, 1 regular.

    The pattern fixes the mix of the pool, so the seed changes the angles
    and never the share of expensive polygons.
    """
    rng = _stream("certify-batch", seed)
    pool = []
    counts = {"small": 0, "large": 0, "regular": 0}
    for k in range(size):
        slot = k % 10
        kind = "small" if slot < 7 else "large" if slot < 9 else "regular"
        c = counts[kind]
        counts[kind] += 1
        if kind == "small":
            n = 3 + c % 4
            turns = _irregular_turns(rng, n, SMALL_DENOMINATORS[(c // 4) % 4])
        elif kind == "large":
            turns = _irregular_turns(rng, 7 + c % 6, LARGE_DENOMINATOR)
        else:
            turns = _regular_turns(rng, 3 + c % 10)
        pool.append({"kind": kind, "turns": turns})
    return pool


# The two rigid-rotation cases: (n, kappa, r).  n = 3 on the sphere is the
# configuration of acceptance item 8; n = 8 on the hyperboloid is the paper's
# largest polygon, so a kernel that favours small n cannot hide a slowdown.
RIGID_CASES = {"n3": (3, 1.0, 0.6), "n8": (8, -1.0, 0.8)}
RIGID_DT = 1e-3


def rigid_pool(seed: int, size: int) -> list[dict]:
    """Per item, both cases with a seeded common mass and rotation phase."""
    rng = _stream("rigid-rotation", seed)
    pool = []
    for _ in range(size):
        item = {}
        for name in RIGID_CASES:
            item[name] = {"mass": rng.uniform(0.5, 2.0), "phase": rng.uniform(0.0, 2.0 * math.pi)}
        pool.append(item)
    return pool


def cli_pool(seed: int, size: int, sim_steps: int) -> list[dict]:
    """Configuration documents for the CLI calls, alternating the curvature sign."""
    rng = _stream("cli-mix", seed)
    pool = []
    for k in range(size):
        kappa = 1.0 if k % 2 == 0 else -1.0
        n = 4 + k % 2  # fixed per entry, so the seed never changes the cost mix
        rho = rng.uniform(0.2, 0.8) * (1.0 if kappa > 0 else -2.0)
        polygon = {
            "kappa": kappa,
            "angles": _irregular_turns(rng, n, 360),
            "masses": [1.0] * n,
            "rho": rho,
            "seed": rng.randrange(1000),
        }
        r = rng.uniform(0.4, 0.8)
        simulate = {
            "kappa": kappa,
            "angles": _regular_turns(rng, 3),
            "masses": [rng.uniform(0.5, 2.0)] * 3,
            "rho": kappa * r * r,
            "integrator": {"dt": RIGID_DT, "t_end": sim_steps * RIGID_DT},
        }
        sweep = dict(polygon, masses=[rng.uniform(0.5, 2.0) for _ in range(n)])
        pool.append({"polygon": polygon, "simulate": simulate, "sweep": sweep})
    return pool
