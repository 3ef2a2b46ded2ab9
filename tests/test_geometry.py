"""The curvature sign and the two projections onto the surface and its tangent planes.

project_point and project_tangent repeat the projection arithmetic of an RK4
step; TestProjectionPin in test_dynamics.py checks them bit for bit against
the step's reference projection, so these properties hold for every step
that projects.
"""

import math
import re

import numpy as np
import pytest

from curvednbody import (
    Curvature,
    NonProjectableError,
    project_point,
    project_tangent,
)


def vec3(x, y, z):
    return np.array([x, y, z], dtype=float)


def sigma_inner(a, b, sigma):
    return a[0] * b[0] + a[1] * b[1] + sigma * (a[2] * b[2])


def test_curvature_signs():
    for kappa, sigma in ((1.0, 1.0), (-2.5, -1.0)):
        assert type(Curvature(kappa).sigma) is float
        assert Curvature(kappa).sigma == sigma


@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, -math.inf])
def test_curvature_rejects_degenerate(bad):
    with pytest.raises(ValueError):
        Curvature(bad)


def test_project_point_examples():
    np.testing.assert_allclose(
        project_point(vec3(2, 0, 0), Curvature(1.0)), [1, 0, 0], atol=1e-15
    )
    # hyperboloid: kappa*(p.p) = -1*(-4) = 4, scale by 1/2
    np.testing.assert_allclose(
        project_point(vec3(0, 0, 2), Curvature(-1.0)), [0, 0, 1], atol=1e-15
    )


def test_project_point_fixes_residual_and_is_idempotent(rng):
    c = Curvature(2.0)
    for _ in range(100):
        p = rng.normal(size=3) * rng.uniform(0.1, 5.0)
        q = project_point(p, c)
        # 4 ulps around 1.0
        assert abs(c.kappa * sigma_inner(q, q, c.sigma) - 1.0) <= 4 * math.ulp(1.0)
        np.testing.assert_allclose(project_point(q, c), q, rtol=1e-15)


def test_project_point_on_surface_unchanged():
    c = Curvature(1.0)
    p = vec3(0.6, 0.0, 0.8)
    np.testing.assert_allclose(project_point(p, c), p, rtol=0, atol=1e-16)


def test_project_point_rejects_nonprojectable():
    with pytest.raises(NonProjectableError):
        project_point(vec3(0, 0, 0), Curvature(1.0))
    # lightlike and spacelike directions cannot be scaled onto the hyperboloid
    with pytest.raises(NonProjectableError):
        project_point(vec3(1, 0, 1), Curvature(-1.0))
    with pytest.raises(NonProjectableError):
        project_point(vec3(1, 0, 0), Curvature(-1.0))


def test_project_tangent_examples():
    np.testing.assert_allclose(
        project_tangent(vec3(1, 0, 0), vec3(1, 1, 0), Curvature(1.0)), [0, 1, 0], atol=1e-16
    )
    # p.v = -1 on the hyperboloid, so kappa*(p.v) = 1 and v - p = (1,0,0)
    np.testing.assert_allclose(
        project_tangent(vec3(0, 0, 1), vec3(1, 0, 1), Curvature(-1.0)), [1, 0, 0], atol=1e-16
    )


def test_project_tangent_orthogonal_and_idempotent(rng):
    for kappa in (1.0, -1.0, 3.0, -0.25):
        c = Curvature(kappa)
        for _ in range(50):
            raw = rng.normal(size=3)
            if kappa < 0:
                raw = np.array([raw[0], raw[1], math.hypot(raw[0], raw[1]) + 1.0])
            p = project_point(raw, c)
            v = rng.normal(size=3) * rng.uniform(0.1, 10.0)
            t = project_tangent(p, v, c)
            scale = np.linalg.norm(p) * np.linalg.norm(v)
            assert abs(sigma_inner(p, t, c.sigma)) < 1e-14 * (1.0 + scale)
            np.testing.assert_allclose(project_tangent(p, t, c), t, rtol=1e-13, atol=1e-13)


def test_project_tangent_leaves_tangent_unchanged():
    c = Curvature(1.0)
    p = vec3(1, 0, 0)
    v = vec3(0, 2, -3)
    np.testing.assert_allclose(project_tangent(p, v, c), v, rtol=0, atol=0)


def test_projections_act_row_by_row(rng):
    # arrays of shape (..., 3) are projected one row at a time, and
    # project_tangent broadcasts the points against the velocities
    for c in (Curvature(1.5), Curvature(-0.5)):
        raw = rng.normal(size=(2, 4, 3))
        if c.kappa < 0:
            raw[..., 2] = np.hypot(raw[..., 0], raw[..., 1]) + 1.0
        p = project_point(raw, c)
        assert p.shape == raw.shape
        for idx in np.ndindex(2, 4):
            np.testing.assert_array_equal(p[idx], project_point(raw[idx], c))
        v = rng.normal(size=(2, 4, 3))
        t = project_tangent(p[0, 0], v, c)
        assert t.shape == v.shape
        for idx in np.ndindex(2, 4):
            np.testing.assert_array_equal(t[idx], project_tangent(p[0, 0], v[idx], c))


@pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 3, 4), ()])
def test_projections_reject_a_last_axis_other_than_3(shape):
    # a (3, 2) array holds six numbers, which must not be regrouped as two points
    bad, good = np.ones(shape), vec3(1, 0, 0)
    c = Curvature(1.0)
    with pytest.raises(ValueError, match=re.escape(f"p must have shape (..., 3), got {shape}")):
        project_point(bad, c)
    with pytest.raises(ValueError, match=re.escape(f"p must have shape (..., 3), got {shape}")):
        project_tangent(bad, good, c)
    with pytest.raises(ValueError, match=re.escape(f"v must have shape (..., 3), got {shape}")):
        project_tangent(good, bad, c)
