"""Shared helpers for building random on-surface states and polygons."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from curvednbody import BodySystem, Curvature, PolygonConfig, cyclic_gaps, is_regular, project_tangent


def random_surface_points(rng: np.random.Generator, n: int, c: Curvature) -> np.ndarray:
    """n points on the surface, resampled until pair denominators are safe."""
    while True:
        if c.kappa > 0:
            raw = rng.normal(size=(n, 3))
            norms = np.linalg.norm(raw, axis=1, keepdims=True)
            q = raw / norms / math.sqrt(c.kappa)
        else:
            xy = rng.normal(scale=0.8, size=(n, 2))
            zsq = xy[:, 0] ** 2 + xy[:, 1] ** 2 + 1.0 / abs(c.kappa)
            q = np.column_stack((xy, np.sqrt(zsq)))
        metric = np.array([1.0, 1.0, c.sigma])
        w = c.kappa * (q @ (q * metric).T)
        np.fill_diagonal(w, 0.0)
        d = c.sigma * (1.0 - w * w)
        np.fill_diagonal(d, 1.0)
        if n == 1 or np.min(np.abs(d)) > 1e-6:
            return q


def random_state(rng: np.random.Generator, n: int, c: Curvature) -> BodySystem:
    q = random_surface_points(rng, n, c)
    v = project_tangent(q, rng.normal(size=(n, 3)), c)
    m = rng.uniform(0.5, 2.0, size=n)
    return BodySystem(c, m, q, v)


def random_irregular_polygon(rng: random.Random, n: int, max_denominator: int = 360) -> PolygonConfig:
    """Random exact irregular polygon with turn denominators <= max_denominator.

    The only n distinct multiples of 1/n form the regular polygon, so an
    irregular one needs a denominator above n.
    """
    if n < 3 or max_denominator <= n:
        raise ValueError("need n >= 3 and max_denominator > n")
    while True:
        q = rng.randint(n, max_denominator)
        numerators = sorted(rng.sample(range(q), n))
        cfg = PolygonConfig.from_turns(Fraction(p, q) for p in numerators)
        if not is_regular(cfg):
            return cfg


def random_scalene_triangle(rng: random.Random, max_denominator: int = 360) -> PolygonConfig:
    """Random exact triangle with three pairwise distinct cyclic gaps.

    Three distinct positive gaps of a turn, multiples of 1/q, sum to at least
    (1 + 2 + 3)/q, so the denominator must reach 6.
    """
    if max_denominator < 6:
        raise ValueError("three distinct gaps need max_denominator >= 6")
    while True:
        cfg = random_irregular_polygon(rng, 3, max_denominator)
        g = cyclic_gaps(cfg)
        if g[0] != g[1] and g[1] != g[2] and g[0] != g[2]:
            return cfg


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def pyrng():
    return random.Random(20240817)
