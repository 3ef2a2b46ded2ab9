"""Constraint-preserving integration and relative-equilibrium solving."""

import json
import math
import random
import re
import tracemalloc
from array import array
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from curvednbody import (
    BodySystem,
    ConfigError,
    ConstraintDriftError,
    Curvature,
    CurvedNBodyError,
    IntegratorConfig,
    InternalConsistencyError,
    NoBalanceError,
    NonProjectableError,
    PolygonConfig,
    RelativeEquilibrium,
    SingularConfigurationError,
    acceleration,
    build_polygon_state,
    delta_gamma,
    diagnostics,
    integrate,
    project_point,
    project_tangent,
    solve_omega,
    step,
)
from curvednbody import dynamics
from curvednbody.cli import load_config
from curvednbody.dynamics import SINGULAR_TOL, _accel, _closest, _speed_terms

SPHERE = Curvature(1.0)
HYPER = Curvature(-1.0)


def sigma_inner(a, b, sigma):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + sigma * (a[..., 2] * b[..., 2])


def pair_acceleration(q_i, q_j, m_j, c):
    """Attraction exerted on a body at q_i by mass m_j at q_j, one pair in numpy."""
    w = c.kappa * sigma_inner(q_i, q_j, c.sigma)
    denom = c.sigma * (1.0 - w * w)
    if not denom >= SINGULAR_TOL:
        raise SingularConfigurationError(
            f"pair denominator {denom!r} below threshold (collision or antipodal pair)"
        )
    return m_j * abs(c.kappa) ** 1.5 * (q_j - w * q_i) / denom**1.5


def make_system(c, positions, velocities, masses):
    return BodySystem(
        curvature=c,
        positions=np.asarray(positions, dtype=float),
        velocities=np.asarray(velocities, dtype=float),
        masses=np.asarray(masses, dtype=float),
    )


class TestBodySystem:
    def test_rejects_off_surface(self):
        with pytest.raises(ValueError):
            make_system(SPHERE, [[1.1, 0, 0]], [[0, 0, 0]], [1.0])

    def test_rejects_non_tangent_velocity(self):
        with pytest.raises(ValueError):
            make_system(SPHERE, [[1, 0, 0]], [[0.5, 0, 0]], [1.0])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            make_system(SPHERE, [[1, 0, 0]], [[0, 1, 0]], [0.0])

    def test_rejects_collision(self):
        with pytest.raises(SingularConfigurationError):
            make_system(
                SPHERE,
                [[1, 0, 0], [1, 0, 0]],
                [[0, 0, 0], [0, 0, 0]],
                [1.0, 1.0],
            )

    def test_rejects_antipodal_pair(self):
        with pytest.raises(SingularConfigurationError):
            make_system(
                SPHERE,
                [[1, 0, 0], [-1, 0, 0]],
                [[0, 0, 0], [0, 0, 0]],
                [1.0, 1.0],
            )

    def test_arrays_read_only(self):
        system = make_system(SPHERE, [[1, 0, 0]], [[0, 1, 0]], [1.0])
        with pytest.raises(ValueError):
            system.positions[0, 0] = 2.0

    def test_single_body_hyperbolic(self):
        system = make_system(HYPER, [[0, 0, 1]], [[0.3, 0.4, 0]], [2.0])
        assert system.n == 1

    @pytest.mark.parametrize("masses", [5.0, [[1.0]], []])
    def test_masses_must_be_a_nonempty_vector(self, masses):
        with pytest.raises(ValueError, match="masses must be a nonempty vector"):
            BodySystem(SPHERE, masses, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])

    def test_pair_beyond_the_singularity_rejected(self):
        # 4e-11 off the unit sphere, well inside the surface tolerance, the
        # pair's w = q_i . q_j exceeds 1 and its denominator 1 - w^2 is
        # -1.6e-10; every step rejects that signed value, so validation must
        q = [[1 + 4e-11, 0.0, 0.0], [1 + 4e-11, 1e-12, 0.0]]
        d, i, j = _closest(q, 1.0, 1.0)
        assert -2e-10 < d < -1e-10 and (i, j) == (0, 1)
        message = "^pair denominator -1\\.[0-9e-]+ of bodies 0 and 1 below singularity threshold "
        with pytest.raises(SingularConfigurationError, match=message):
            make_system(SPHERE, q, [[0, 0, 0], [0, 0, 0]], [1.0, 1.0])

    def test_closest_pair_is_signed_minimum(self):
        assert _closest([(0.0, 0.0, 1.0)], -1.0, -1.0) == (math.inf, None, None)
        system = make_system(
            SPHERE, [[1, 0, 0], [0, 1, 0], [0.6, 0.8, 0]], [[0, 0, 0]] * 3, [1.0] * 3
        )
        # w = 0, 0.6 and 0.8: the closest pair, bodies 2 and 3, has 1 - 0.64
        assert diagnostics(system).min_pair_denominator == 1.0 - 0.8 * 0.8


    def test_far_hyperbolic_branch_accepted(self):
        # kappa q.q - 1 cancels terms of size r^2 out here, so an absolute
        # surface tolerance would reject states solve_omega itself builds
        poly = PolygonConfig.from_turns((Fraction(0), Fraction(1, 3), Fraction(2, 3)))
        for r in (1000.0, 1e4):
            w = solve_omega(poly, (1.0,) * 3, r, HYPER)
            req = RelativeEquilibrium.from_radius(poly, r, w, HYPER)
            system = build_polygon_state(req, (1.0,) * 3, HYPER)
            traj = integrate(system, IntegratorConfig(dt=1e-3, t_end=5e-3))
            assert len(traj.times) == 6

    def test_far_hyperbolic_tangent_accepted(self):
        # a Minkowski-unit radial velocity at rho = -1e8: q.v cancels terms of
        # size |q| |v| = 2e8, and an absolute 1e-10 bound rejected this exactly
        # tangent velocity at 37 of these 64 angles; a tilt off tangency of
        # 1e-8 of its size is still rejected
        r = 1e4
        z = math.sqrt(1.0 + r * r)
        for k in range(64):
            t = 2.0 * math.pi * k / 64
            q = [[r * math.cos(t), r * math.sin(t), z]]
            v = [z * math.cos(t), z * math.sin(t), r]
            make_system(HYPER, q, [v], [1.0])
            with pytest.raises(ValueError, match="tangency residual"):
                make_system(HYPER, q, [[v[0], v[1], r * (1.0 + 1e-8)]], [1.0])

    def test_far_hyperbolic_off_surface_rejected(self):
        r = 1000.0
        z = math.sqrt(1.0 + r * r) * (1.0 + 1e-8)
        with pytest.raises(ValueError, match="surface residual"):
            make_system(HYPER, [[r, 0, z]], [[0, 0, 0]], [1.0])
        with pytest.raises(ValueError, match="surface residual"):
            make_system(HYPER, [[0, 0, 1.0 + 1e-9]], [[0, 0, 0]], [1.0])

    def test_nan_surface_residual_rejected(self):
        # x^2 - z^2 = 8e320 is nowhere near the hyperboloid, but both squares
        # overflow, so kappa q.q - 1 is inf - inf = NaN at the scale inf
        with pytest.raises(ValueError) as err:
            BodySystem(Curvature(-1.0), [1], [[3e160, 0, 1e160]], [[0, 0, 0]])
        assert str(err.value) == "surface residual nan exceeds 1e-10 of scale inf"

    @pytest.mark.parametrize(
        "positions",
        [[[1e160, 0, 1e100]], [[1e160, 0, 1e150], [1e150, 0, 1e160]]],
    )
    def test_overflowed_surface_scale_rejected(self, positions):
        # x^2 overflows, so kappa q.q - 1 is inf at the scale inf, and
        # inf <= 1e-10 * inf would hold: an allowance must be finite
        with pytest.raises(ValueError) as err:
            BodySystem(Curvature(-1.0), [1] * len(positions), positions, [[0, 0, 0]] * len(positions))
        assert str(err.value) == "surface residual inf exceeds 1e-10 of scale inf"

    def test_overflowed_tangency_scale_rejected(self):
        # |q| |v| overflows, so this velocity, nowhere near tangent at (1, 0, 0),
        # would pass 1.7e308 <= 1e-10 * inf
        with pytest.raises(ValueError) as err:
            make_system(SPHERE, [[1, 0, 0]], [[1.7e308, 1.7e308, 0]], [1.0])
        assert str(err.value) == "tangency residual 1.7e+308 exceeds 1e-10 of scale inf"


class TestPairAcceleration:
    def test_unit_sphere_quarter_turn(self):
        a = pair_acceleration(
            np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 1.0, SPHERE
        )
        np.testing.assert_allclose(a, [0.0, 1.0, 0.0], atol=1e-15)

    def test_scaling_with_curvature(self):
        # kappa = 4: radius-1/2 sphere, same angular separation
        c = Curvature(4.0)
        a = pair_acceleration(
            np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.0]), 1.0, c
        )
        np.testing.assert_allclose(a, [0.0, 4.0, 0.0], atol=1e-14)

    def test_mass_linearity(self):
        qi = np.array([1.0, 0.0, 0.0])
        qj = np.array([0.0, 0.8, 0.6])
        one = pair_acceleration(qi, qj, 1.0, SPHERE)
        three = pair_acceleration(qi, qj, 3.0, SPHERE)
        np.testing.assert_allclose(three, 3.0 * one, rtol=1e-15)

    def test_antipodal_rejected(self):
        with pytest.raises(SingularConfigurationError):
            pair_acceleration(
                np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), 1.0, SPHERE
            )

    def test_hyperbolic_attraction(self):
        qi = np.array([0.0, 0.0, 1.0])
        qj = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
        a = pair_acceleration(qi, qj, 1.0, HYPER)
        # pulls toward qj along the surface: positive x component
        assert a[0] > 0.0


class TestAcceleration:
    def test_single_body_is_pure_curvature_term(self):
        system = make_system(SPHERE, [[1, 0, 0]], [[0, 2, 0]], [1.0])
        a = acceleration(system)
        np.testing.assert_allclose(a, [[-4.0, 0.0, 0.0]], atol=1e-14)

    def test_single_body_hyperbolic_sign(self):
        system = make_system(HYPER, [[0, 0, 1]], [[2, 0, 0]], [1.0])
        a = acceleration(system)
        # kappa * (qdot o qdot) = -4, so the term is +4 q
        np.testing.assert_allclose(a, [[0.0, 0.0, 4.0]], atol=1e-14)

    def test_two_bodies_at_rest(self):
        system = make_system(
            SPHERE,
            [[1, 0, 0], [0, 1, 0]],
            [[0, 0, 0], [0, 0, 0]],
            [1.0, 1.0],
        )
        a = acceleration(system)
        np.testing.assert_allclose(a[0], [0.0, 1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(a[1], [1.0, 0.0, 0.0], atol=1e-14)

    def test_rotational_equivariance(self, rng):
        theta = 0.83
        R = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        q = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, -1.0, 0.0]])
        v = np.array([[0.0, 0.5, 0.0], [0.3, 0.0, 0.0], [0.1, 0.0, 0.2]])
        m = np.array([1.0, 2.0, 0.5])
        base = make_system(SPHERE, q, v, m)
        rotated = make_system(SPHERE, q @ R.T, v @ R.T, m)
        np.testing.assert_allclose(
            acceleration(rotated), acceleration(base) @ R.T, atol=1e-12
        )

    def test_matches_sum_of_pair_accelerations(self, rng):
        from conftest import random_state

        for c in (SPHERE, HYPER):
            for n in (2, 5, 8):
                system = random_state(rng, n, c)
                q, v, m = system.positions, system.velocities, system.masses
                vsq = (v * v * [1.0, 1.0, c.sigma]).sum(axis=1)
                expect = [
                    -c.kappa * vsq[i] * q[i]
                    + sum(pair_acceleration(q[i], q[j], m[j], c) for j in range(n) if j != i)
                    for i in range(n)
                ]
                np.testing.assert_allclose(acceleration(system), expect, rtol=1e-12, atol=1e-12)

    def test_curvature_factor_overflow_is_singular(self):
        # |kappa|^(3/2) leaves the float range above about 1e205, for two
        # bodies at rest as for any other state
        kappa = 1e210
        r = math.sqrt(0.5 / kappa)
        z = math.sqrt(1.0 / kappa - r * r)
        system = make_system(
            Curvature(kappa), [[r, 0, z], [-0.6 * r, 0.8 * r, z]], [[0, 0, 0]] * 2, [1.0, 1.0]
        )
        with pytest.raises(SingularConfigurationError, match="pair force out of the float range"):
            acceleration(system)

    def test_random_states_satisfy_compatibility(self, rng):
        from conftest import random_state

        for c in (SPHERE, HYPER):
            for _ in range(20):
                system = random_state(rng, 3, c)
                acceleration(system)  # would raise on violation


class TestStep:
    def test_zero_dt_is_identity(self):
        system = make_system(SPHERE, [[1, 0, 0]], [[0, 1, 0]], [1.0])
        cfg = IntegratorConfig(dt=0.0, t_end=0.0)
        after = step(system, cfg)
        np.testing.assert_array_equal(after.positions, system.positions)
        np.testing.assert_array_equal(after.velocities, system.velocities)

    def test_symmetric_pair_stays_symmetric(self):
        d = 0.7
        z = math.sqrt(1 - d * d)
        v = 0.4
        system = make_system(
            SPHERE,
            [[d, 0, z], [-d, 0, z]],
            [[0, v, 0], [0, -v, 0]],
            [1.0, 1.0],
        )
        cfg = IntegratorConfig(dt=1e-3, t_end=1e-3)
        after = step(system, cfg)
        np.testing.assert_allclose(
            after.positions[0] * [-1, -1, 1], after.positions[1], atol=1e-14
        )


# The RK4 step composed from whole-list passes, on a pair loop with the int
# metric sign that updates both bodies of a pair in the lists: the reference
# the integrator must match bit for bit, errors included.  It calls no
# `dynamics` function.
def ref_accel(Q, V, m, kappa, sigma):
    """The pair loop with the int metric sign, both bodies' sums updated in the lists."""
    try:
        n = len(Q)
        scale = abs(kappa) ** 1.5
        s = [-kappa * (vx * vx + vy * vy + sigma * (vz * vz)) for vx, vy, vz in V]
        ax = [0.0] * n
        ay = [0.0] * n
        az = [0.0] * n
        for i in range(n - 1):
            xi, yi, zi = Q[i]
            mi = m[i]
            for j in range(i + 1, n):
                xj, yj, zj = Q[j]
                w = kappa * (xi * xj + yi * yj + sigma * (zi * zj))
                d = sigma * (1.0 - w * w)
                if not d >= SINGULAR_TOL:
                    raise SingularConfigurationError(
                        f"pair denominator {d!r} of bodies {i} and {j} below singularity "
                        "threshold (collision or antipodal pair)"
                    )
                g = scale / d**1.5
                p = g * m[j]
                ax[i] += p * xj
                ay[i] += p * yj
                az[i] += p * zj
                s[i] -= p * w
                p = g * mi
                ax[j] += p * xi
                ay[j] += p * yi
                az[j] += p * zi
                s[j] -= p * w
        return [
            (a + f * x, b + f * y, e + f * z)
            for a, b, e, f, (x, y, z) in zip(ax, ay, az, s, Q)
        ]
    except OverflowError:
        raise SingularConfigurationError(
            "pair force out of the float range: "
            "|kappa|^(3/2) or a pair denominator's 3/2 power overflows"
        ) from None


def ref_axpy(X, h, Y):
    return [(x + h * u, y + h * v, z + h * w) for (x, y, z), (u, v, w) in zip(X, Y)]


def ref_project_points(Q, kappa, sigma, time):
    out = []
    for i, (x, y, z) in enumerate(Q):
        k = kappa * (x * x + y * y + sigma * (z * z))
        if k <= 0.0:
            raise NonProjectableError(
                f"point of body {i} not projectable onto surface with kappa={kappa}: kappa*(p.p)={k!r}",
                time=time,
            )
        k = math.sqrt(k)
        out.append((x / k, y / k, z / k))
    return out


def ref_project_tangents(Q, V, kappa, sigma):
    out = []
    for (x, y, z), (u, v, w) in zip(Q, V):
        k = kappa * (x * u + y * v + sigma * (z * w))
        out.append((u - k * x, v - k * y, w - k * z))
    return out


def ref_residuals(Q, V, kappa, sigma):
    surf = [abs(kappa * (x * x + y * y + sigma * (z * z)) - 1.0) for x, y, z in Q]
    tang = [abs(x * u + y * v + sigma * (z * w)) for (x, y, z), (u, v, w) in zip(Q, V)]
    return surf, tang


def ref_closest(Q, kappa, sigma):
    """The smallest pair denominator and its bodies i < j, the first such pair on a tie."""
    out = math.inf, None, None
    for i in range(len(Q) - 1):
        xi, yi, zi = Q[i]
        for j, (xj, yj, zj) in enumerate(Q[i + 1 :], i + 1):
            w = kappa * (xi * xj + yi * yj + sigma * (zi * zj))
            d = sigma * (1.0 - w * w)
            if d < out[0]:
                out = d, i, j
    return out


def ref_advance(Q, V, m, c, dt, cfg, time=None):
    kappa, sigma = c.kappa, c.sigma
    h = 0.5 * dt
    try:
        a1 = ref_accel(Q, V, m, kappa, sigma)
        Qh = ref_axpy(Q, h, V)
        a2 = ref_accel(Qh, ref_axpy(V, h, a1), m, kappa, sigma)
        a3 = ref_accel(ref_axpy(Qh, 0.25 * dt * dt, a1), ref_axpy(V, h, a2), m, kappa, sigma)
        Qd = ref_axpy(Q, dt, V)
        a4 = ref_accel(ref_axpy(Qd, 0.5 * dt * dt, a2), ref_axpy(V, dt, a3), m, kappa, sigma)
    except SingularConfigurationError as exc:
        raise SingularConfigurationError(str(exc), time=time) from None
    Qn = ref_axpy(Qd, dt * dt / 6.0, [
        (p1 + p2 + p3, q1 + q2 + q3, r1 + r2 + r3)
        for (p1, q1, r1), (p2, q2, r2), (p3, q3, r3) in zip(a1, a2, a3)
    ])
    Vn = ref_axpy(V, dt / 6.0, [
        (p1 + 2.0 * p2 + 2.0 * p3 + p4, q1 + 2.0 * q2 + 2.0 * q3 + q4, r1 + 2.0 * r2 + 2.0 * r3 + r4)
        for (p1, q1, r1), (p2, q2, r2), (p3, q3, r3), (p4, q4, r4) in zip(a1, a2, a3, a4)
    ])
    if cfg.project_each_step:
        Qn = ref_project_points(Qn, kappa, sigma, time)
        Vn = ref_project_tangents(Qn, Vn, kappa, sigma)
    bound = cfg.max_constraint_drift
    surf, tang = ref_residuals(Qn, Vn, kappa, sigma)
    for i, (sr, tr, q, v) in enumerate(zip(surf, tang, Qn, Vn)):
        # each residual is judged at the scale of the terms it cancels
        x, y, z = q
        scale = max(1.0, abs(kappa) * (x * x + y * y + z * z))
        tscale = max(1.0, math.hypot(*q) * math.hypot(*v))
        if not (sr <= bound * scale and tr <= bound * tscale):
            raise ConstraintDriftError(
                f"constraint residuals of body {i} (surface {sr!r}, tangency {tr!r}) "
                f"exceed drift bound {bound}",
                time=time,
            )
    dmin, i, j = ref_closest(Qn, kappa, sigma)
    if not dmin >= SINGULAR_TOL:
        raise SingularConfigurationError(
            f"pair denominator {dmin!r} of bodies {i} and {j} below singularity threshold "
            "(collision or antipodal pair)",
            time=time,
        )
    return Qn, Vn, (max(surf), max(tang), dmin)


def doubles(rows):
    return array("d", [x for row in rows for x in row]).tobytes()


def outcome(run):
    """What run() returns, or the type, message and time of the error it raises."""
    try:
        return run()
    except CurvedNBodyError as exc:
        return type(exc), str(exc), exc.time


class TestStepOracle:
    # (dt, velocity scale): a calm run, and two whose steps are too coarse
    # for their speeds, so that projection, drift and pair errors occur
    REGIMES = ((2.0**-7, 1.0), (0.5, 6.0), (2.0, 6.0))
    STEPS = 12

    def runs(self, kappa, project):
        from conftest import random_state

        c = Curvature(kappa)
        rng = np.random.default_rng([2025, int(kappa * 100) % 1000, project])
        for n in range(1, 9):
            for dt, scale in self.REGIMES:
                base = random_state(rng, n, c)
                system = BodySystem(c, base.masses, base.positions, scale * base.velocities)
                # dt is a power of two, so every step time k * dt is exact
                yield system, IntegratorConfig(dt=dt, t_end=self.STEPS * dt, project_each_step=project)

    def reference(self, system, cfg):
        """The time, position, velocity and diagnostic buffers of integrate, from ref_advance."""
        c, m = system.curvature, system.mass_values
        Q, V = system.positions.tolist(), system.velocities.tolist()
        surf, tang = ref_residuals(Q, V, c.kappa, c.sigma)
        T, P, W, D = [0.0], Q, V, [(max(surf), max(tang), ref_closest(Q, c.kappa, c.sigma)[0])]
        for k in range(1, self.STEPS + 1):
            Q, V, d = ref_advance(Q, V, m, c, cfg.dt, cfg, time=k * cfg.dt)
            T.append(k * cfg.dt)
            P, W = P + Q, W + V
            D.append(d)
        return array("d", T).tobytes(), doubles(P), doubles(W), doubles(D)

    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.37, -2.5])
    def test_pair_kernels_match_reference(self, kappa):
        """`_accel` and `_closest` against the reference loops, bit for bit, errors included."""
        c = Curvature(kappa)
        cases = []
        for project in (True, False):
            for system, _ in self.runs(kappa, project):
                Q, V, m = system.positions.tolist(), system.velocities.tolist(), system.mass_values
                cases.append((Q, V, m, None))
                n = len(Q)
                if n > 1:
                    # body j moved onto body i, then to its antipode (w = -1; a
                    # kernel input off the hyperboloid's sheet); every other pair
                    # keeps a denominator of the valid state.  (n - 2, n - 1) is
                    # the last row, after which the last body is emitted
                    for i, j in sorted({(n // 3, n - 1), (n - 2, n - 1)}):
                        for row in (Q[i], [-e for e in Q[i]]):
                            cases.append((Q[:j] + [row], V, m, (i, j)))
        for Q, V, m, pair in cases:
            # the oracles keep the int sign of the older loops; the kernels take c.sigma
            sigma = int(c.sigma)
            want = outcome(lambda: doubles(ref_accel(Q, V, m, kappa, sigma)))
            got = outcome(lambda: doubles(_accel(Q, _speed_terms(V, kappa, c.sigma), m, kappa, c.sigma)))
            assert got == want
            assert repr(_closest(Q, kappa, c.sigma)) == repr(ref_closest(Q, kappa, sigma))
            if pair is None:
                assert isinstance(want, bytes)
            else:
                assert want[0] is SingularConfigurationError
                assert f" of bodies {pair[0]} and {pair[1]} below singularity threshold " in want[1]

    @pytest.mark.parametrize("project", [True, False])
    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.37, -2.5])
    def test_step_and_integrate_match_reference(self, kappa, project):
        seen = set()
        for system, cfg in self.runs(kappa, project):
            def stepped():
                after = step(system, cfg)
                return after.position_buf.tobytes(), after.velocity_buf.tobytes()

            def ref_stepped():
                Q, V = system.positions.tolist(), system.velocities.tolist()
                Q, V, _ = ref_advance(Q, V, system.mass_values, system.curvature, cfg.dt, cfg)
                return doubles(Q), doubles(V)

            def integrated():
                traj = integrate(system, cfg)
                bufs = traj.time_buf, traj.position_buf, traj.velocity_buf, traj.diagnostic_buf
                return tuple(b.tobytes() for b in bufs)

            assert outcome(stepped) == outcome(ref_stepped)
            got = outcome(integrated)
            assert got == outcome(lambda: self.reference(system, cfg))
            seen.add(got[0] if isinstance(got[0], type) else None)
        # every outcome ran: success, and each error these settings can reach;
        # only the hyperboloid has points that no rescale projects
        expected = {None, SingularConfigurationError, ConstraintDriftError}
        assert seen == expected | ({NonProjectableError} if project and kappa < 0 else set())


class TestProjectionPin:
    """The public projections are the step's reference projection, bit for bit."""

    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.37, -2.5, 1e6, -1e-6])
    def test_projections_match_reference(self, kappa):
        c = Curvature(kappa)
        rng = np.random.default_rng([26, int(abs(kappa) * 100) % 1000, kappa > 0])
        seen = set()
        for shape in ((3,), (5, 3), (2, 4, 3)):
            for _ in range(20):
                p = rng.normal(size=shape) * rng.uniform(0.1, 5.0)
                if kappa < 0 and rng.uniform() < 0.7:
                    # timelike points project onto the hyperboloid, the rest do not
                    p[..., 2] = np.hypot(p[..., 0], p[..., 1]) + rng.uniform(0.01, 1.0)
                v = rng.normal(size=shape) * rng.uniform(0.1, 10.0)
                Q, V = p.reshape(-1, 3).tolist(), v.reshape(-1, 3).tolist()
                try:
                    expected = doubles(ref_project_points(Q, kappa, c.sigma, None))
                except NonProjectableError as exc:
                    # the step's message also names the body
                    with pytest.raises(NonProjectableError) as err:
                        project_point(p, c)
                    assert str(err.value) == re.sub(r" of body \d+", "", str(exc))
                    seen.add("nonprojectable")
                else:
                    assert project_point(p, c).tobytes() == expected
                    seen.add("projected")
                got = project_tangent(p, v, c).tobytes()
                assert got == doubles(ref_project_tangents(Q, V, kappa, c.sigma))
        assert seen == ({"projected", "nonprojectable"} if kappa < 0 else {"projected"})


class TestOrderOfAccuracy:
    """Observed order 4 against the exact rigid rotation of a regular polygon.

    One period T = 2 pi / omega at solve_omega's rate brings every body back
    to its start, so the largest coordinate difference there is the global
    error of the integrator, which classical RK4 makes O(dt^4): halving dt
    should divide it by about 16.  Without projection the ratios measured at
    dt = T/50, T/100, T/200 and T/400 were 17.7, 16.8, 16.4 (kappa = 1, n = 3,
    r = 0.6) and 16.3, 16.3, 16.2 (kappa = -1, n = 8, r = 0.8), falling
    towards 16; the band allows one unit more on each side of that range,
    which a method of order 3 (ratio 8) or 5 (ratio 32) misses.  With
    projection the errors at T/400 were 2.5e-9 and 4.9e-8; the bounds allow
    twice that.

    A rotation about the z axis has no z acceleration, so the third case
    tilts the n = 3 sphere rotation by 0.7 rad about the x axis, an isometry
    of the sphere that puts the motion into all three rows; one period
    brings it back to its tilted start.  Its ratios were 17.5, 16.8 and
    16.4, and its projected error at T/400 2.2e-9.  Doubling the last
    stage's term in the z velocity sum brings its ratios to about 1.
    """

    BAND = (15.0, 19.0)
    DIVISIONS = (50, 100, 200, 400)

    @staticmethod
    def period_errors(kappa, n, r, project, tilt=0.0):
        c = Curvature(kappa)
        poly, masses = regular_polygon(n), (1.0,) * n
        w = solve_omega(poly, masses, r, c)
        system = build_polygon_state(RelativeEquilibrium.from_radius(poly, r, w, c), masses, c)
        if tilt:
            ct, st = math.cos(tilt), math.sin(tilt)
            rotated = [[[x, ct * y - st * z, st * y + ct * z] for x, y, z in rows.tolist()]
                       for rows in (system.positions, system.velocities)]
            system = BodySystem(c, masses, *rotated)
        period = 2.0 * math.pi / w
        errors = []
        for k in TestOrderOfAccuracy.DIVISIONS:
            # the drift guard is not under test; unprojected coarse runs drift past 1e-6
            cfg = IntegratorConfig(
                dt=period / k, t_end=period, project_each_step=project, max_constraint_drift=1.0
            )
            traj = integrate(system, cfg)
            assert len(traj.time_buf) == k + 1
            end = traj.position_buf[-3 * n :]
            errors.append(max(abs(a - b) for a, b in zip(end, system.position_buf)))
        return errors

    @pytest.mark.parametrize("kappa, n, r, bound, tilt", [
        pytest.param(1.0, 3, 0.6, 5e-9, 0.0, id="1.0-3-0.6-5e-09"),
        pytest.param(-1.0, 8, 0.8, 1e-7, 0.0, id="-1.0-8-0.8-1e-07"),
        pytest.param(1.0, 3, 0.6, 5e-9, 0.7, id="1.0-3-0.6-5e-09-tilted"),
    ])
    def test_error_falls_at_fourth_order(self, kappa, n, r, bound, tilt):
        errors = self.period_errors(kappa, n, r, False, tilt)
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        lo, hi = self.BAND
        assert all(lo <= x <= hi for x in ratios), ratios
        assert self.period_errors(kappa, n, r, True, tilt)[-1] <= bound


class TestIntegrate:
    def test_trajectory_includes_initial_state(self):
        system = make_system(SPHERE, [[1, 0, 0]], [[0, 0.1, 0]], [1.0])
        traj = integrate(system, IntegratorConfig(dt=0.5, t_end=1.0))
        assert traj.times[0] == 0.0
        assert len(traj.times) == len(traj.states) == 3
        np.testing.assert_array_equal(traj.states[0].positions, system.positions)

    def test_lands_exactly_on_t_end(self):
        system = make_system(SPHERE, [[1, 0, 0]], [[0, 0.1, 0]], [1.0])
        traj = integrate(system, IntegratorConfig(dt=1e-3, t_end=2 * math.pi))
        assert traj.times[-1] == 2 * math.pi

    @pytest.mark.parametrize("dt, count", [(1e-300, "1e+300"), (5e-324, "inf")])
    def test_step_count_too_large_to_store(self, dt, count):
        # refused before any sample array is allocated
        system = make_system(SPHERE, [[1, 0, 0]], [[0, 0.1, 0]], [1.0])
        with pytest.raises(ValueError) as err:
            integrate(system, IntegratorConfig(dt=dt, t_end=1.0))
        assert str(err.value) == f"t_end / dt = {count} steps are too many to store"

    def test_geodesic_great_circle_closure(self):
        system = make_system(SPHERE, [[1, 0, 0]], [[0, 1, 0]], [1.0])
        cfg = IntegratorConfig(dt=1e-3, t_end=2 * math.pi)
        traj = integrate(system, cfg)
        final = traj.states[-1]
        assert np.max(np.abs(final.positions - system.positions)) < 1e-6
        assert max(d.max_surface_residual for d in traj.diagnostics) < 1e-10
        assert max(d.max_tangency_residual for d in traj.diagnostics) < 1e-10

    def test_time_reversal(self):
        system = make_system(
            SPHERE,
            [[1, 0, 0], [0, 1, 0]],
            [[0, 0, 0.3], [0, 0, -0.2]],
            [1.0, 1.5],
        )
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0)
        fwd = integrate(system, cfg).states[-1]
        flipped = make_system(
            SPHERE, fwd.positions, -fwd.velocities, system.masses
        )
        back = integrate(flipped, cfg).states[-1]
        assert np.max(np.abs(back.positions - system.positions)) < 1e-6
        assert np.max(np.abs(back.velocities + system.velocities)) < 1e-6

    def test_drift_abort_reports_time(self):
        system = make_system(
            SPHERE,
            [[1, 0, 0], [0, 1, 0]],
            [[0, 0, 0.3], [0, 0, -0.2]],
            [1.0, 1.0],
        )
        cfg = IntegratorConfig(
            dt=0.05, t_end=50.0, project_each_step=False, max_constraint_drift=1e-12
        )
        with pytest.raises(ConstraintDriftError) as err:
            integrate(system, cfg)
        assert err.value.time > 0.0

    def test_drift_guard_rejects_an_overflowed_scale(self):
        # one unprojected step carries this body to |kappa| |q|^2 = inf, where
        # the surface residual is inf and inf <= 1e-6 * inf would hold
        c = Curvature(-1e100)
        q = [-259126676292.41122, -162046691465.86176, 305623566796.4502]
        v = [2.638507194531691e121, 1.6500090511725324e121, -3.1119527767218407e121]
        system = BodySystem(c, [1.0], [q], [v])
        dt = 4.409912790289184e19
        with pytest.raises(ConstraintDriftError) as err:
            integrate(system, IntegratorConfig(dt, dt, project_each_step=False))
        assert str(err.value).startswith(
            "constraint residuals of body 0 (surface inf, tangency 0.0) exceed drift bound 1e-06"
        )
        assert err.value.time == dt

    def test_close_approach_aborts_with_time(self):
        # two heavy bodies released from rest fall toward each other
        eps = 0.15
        system = make_system(
            SPHERE,
            [
                [math.cos(eps), math.sin(eps), 0.0],
                [math.cos(eps), -math.sin(eps), 0.0],
            ],
            [[0, 0, 0], [0, 0, 0]],
            [50.0, 50.0],
        )
        cfg = IntegratorConfig(dt=5e-3, t_end=10.0)
        with pytest.raises(SingularConfigurationError) as err:
            integrate(system, cfg)
        assert err.value.time is not None and err.value.time > 0.0


def regular_polygon(n):
    from curvednbody import PolygonConfig

    return PolygonConfig.from_radians(tuple(2 * math.pi * k / n for k in range(n)))


class TestMassCheck:
    """load_config, BodySystem and solve_omega check masses with one function."""

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_same_rejection(self, tmp_path, value):
        masses = (1.0, value, 1.0)
        expect = f"masses must be finite and positive, got {value!r}"
        q = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(ValueError) as body:
            BodySystem(SPHERE, masses, q, [[0.0] * 3] * 3)
        with pytest.raises(ValueError) as omega:
            solve_omega(regular_polygon(3), masses, 0.5, SPHERE)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kappa": 1.0, "angles": ["0", "1/3", "2/3"], "masses": masses}))
        with pytest.raises(ConfigError) as config:
            load_config(str(path))
        assert str(body.value) == str(omega.value) == expect
        # the config's number parser, shared by every numeric field, refuses
        # NaN and Infinity before the mass check sees them
        if math.isfinite(value):
            assert str(config.value) == f"config error: masses: {expect}"
        else:
            assert str(config.value) == f"config error: masses: expected a finite number, got {value!r}"

    def test_any_sequence_gives_the_same_floats(self, tmp_path):
        values = [0.5, 1, 2.25]
        q = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kappa": 1.0, "angles": ["0", "1/3", "2/3"], "masses": values}))
        expect = load_config(str(path)).masses
        assert expect == (0.5, 1.0, 2.25) and all(type(m) is float for m in expect)
        rates = set()
        for make in (list, tuple, iter, np.array):
            got = BodySystem(SPHERE, make(values), q, [[0.0] * 3] * 3).mass_values
            assert got == expect and all(type(m) is float for m in got)
            rates.add(solve_omega(regular_polygon(3), make([1.5] * 3), 0.5, SPHERE))
        assert len(rates) == 1

    @pytest.mark.parametrize("text", ["111", b"111", bytearray(b"111")])
    def test_text_is_no_mass_vector(self, text):
        # iterated, "111" would read as the masses 1, 1, 1 and b"111" as 49, 49, 49
        q = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        calls = [
            lambda: BodySystem(SPHERE, text, q, [[0.0] * 3] * 3),
            lambda: solve_omega(regular_polygon(3), text, 0.5, SPHERE),
            lambda: delta_gamma(regular_polygon(3), text, 0.5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^masses must be a nonempty vector of numbers$"):
                call()


class TestBuildPolygonState:
    def test_static_square(self):
        req = RelativeEquilibrium.from_radius(regular_polygon(4), 0.6, 0.0, SPHERE)
        system = build_polygon_state(req, (1.0,) * 4, SPHERE)
        np.testing.assert_allclose(system.velocities, 0.0, atol=1e-15)
        np.testing.assert_allclose(system.positions[:, 2], 0.8, rtol=1e-14)
        for q in system.positions:
            assert abs(sigma_inner(q, q, SPHERE.sigma) - 1.0) < 1e-14

    def test_rigid_rotation_speeds(self):
        w = 1.7
        req = RelativeEquilibrium.from_radius(regular_polygon(3), 0.6, w, SPHERE)
        system = build_polygon_state(req, (1.0,) * 3, SPHERE)
        speeds = np.linalg.norm(system.velocities, axis=1)
        np.testing.assert_allclose(speeds, 0.6 * w, rtol=1e-14)

    def test_phase_offset_rotates_polygon(self):
        req = RelativeEquilibrium.from_radius(regular_polygon(3), 0.5, 0.0, SPHERE)
        base = build_polygon_state(req, (1.0,) * 3, SPHERE)
        quarter = build_polygon_state(req, (1.0,) * 3, SPHERE, omega0=0.5 * math.pi)
        np.testing.assert_allclose(
            quarter.positions[0], [-base.positions[0][1], base.positions[0][0], base.positions[0][2]],
            atol=1e-15,
        )

    def test_radius_beyond_sphere_rejected(self):
        with pytest.raises(ValueError):
            RelativeEquilibrium.from_radius(regular_polygon(3), 1.2, 0.0, SPHERE)

    def test_rows_equal_numpy_trig(self, pyrng):
        # the pinned simulate CSVs were written from numpy's cos and sin of
        # these angles, so numpy is the oracle for the math.cos/math.sin rows:
        # exact turns with denominators up to 10^4, phases in +-1000
        for k in range(300):
            c = SPHERE if k % 2 else HYPER
            q = pyrng.randint(12, 10_000)
            n = pyrng.randint(3, 12)
            turns = tuple(Fraction(p, q) for p in sorted(pyrng.sample(range(q), n)))
            r, w, omega0 = pyrng.uniform(0.1, 0.9), pyrng.uniform(-3.0, 3.0), pyrng.uniform(-1e3, 1e3)
            req = RelativeEquilibrium.from_radius(PolygonConfig.from_turns(turns), r, w, c)
            system = build_polygon_state(req, (1.0,) * n, c, omega0)
            theta = np.array(req.polygon.radians) + omega0
            np.testing.assert_array_equal(
                system.positions, np.column_stack((r * np.cos(theta), r * np.sin(theta), np.full(n, req.z)))
            )
            np.testing.assert_array_equal(
                system.velocities, np.column_stack((-r * w * np.sin(theta), r * w * np.cos(theta), np.zeros(n)))
            )


def assert_full_balance(poly, masses, r, w, c):
    # a rigid rotation at rate w has kinematic acceleration -w^2 (x, y, 0);
    # the dynamical field must reproduce it exactly
    req = RelativeEquilibrium.from_radius(poly, r, w, c)
    system = build_polygon_state(req, masses, c)
    acc = acceleration(system)
    expect = -(w**2) * system.positions * np.array([1.0, 1.0, 0.0])
    scale = max(1.0, np.max(np.abs(acc)))
    assert np.max(np.abs(acc - expect)) <= 1e-9 * scale


class TestSolveOmega:
    def test_spherical_triangle_reference_value(self):
        w = solve_omega(regular_polygon(3), (1.0,) * 3, 0.6, SPHERE)
        assert w == pytest.approx(2.070144521752146, rel=1e-12)

    def test_hyperbolic_triangle_reference_value(self):
        w = solve_omega(regular_polygon(3), (1.0,) * 3, 0.6, HYPER)
        assert w == pytest.approx(1.3665956060662887, rel=1e-12)

    def test_balance_closes_full_field(self):
        for c, n in ((SPHERE, 5), (HYPER, 4)):
            poly = regular_polygon(n)
            masses = (2.0,) * n
            assert_full_balance(poly, masses, 0.45, solve_omega(poly, masses, 0.45, c), c)

    def test_mass_scaling(self):
        poly = regular_polygon(3)
        w1 = solve_omega(poly, (1.0,) * 3, 0.5, SPHERE)
        w2 = solve_omega(poly, (2.0,) * 3, 0.5, SPHERE)
        assert w2**2 / w1**2 == pytest.approx(2.0, rel=1e-11)

    def test_irregular_polygon_rejected(self):
        from curvednbody import PolygonConfig

        poly = PolygonConfig.from_radians((0.0, 0.5 * math.pi, math.pi))
        with pytest.raises(NoBalanceError):
            solve_omega(poly, (1.0,) * 3, 0.5, SPHERE)

    def test_unequal_masses_rejected(self):
        with pytest.raises(NoBalanceError):
            solve_omega(regular_polygon(3), (1.0, 1.0, 2.0), 0.5, SPHERE)

    def test_equator_rejected(self):
        with pytest.raises(NoBalanceError):
            solve_omega(regular_polygon(3), (1.0,) * 3, 1.0, SPHERE)

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_invalid_masses_rejected(self, value):
        # equal but not positive or not finite: the mass check, no warning
        with pytest.raises(ValueError, match="masses must be finite and positive"):
            solve_omega(regular_polygon(3), (value,) * 3, 0.5, SPHERE)

    @pytest.mark.parametrize("r", [-0.5, 0.0, math.nan, math.inf])
    def test_invalid_radius_rejected(self, r):
        # checked before the kernel sees rho = kappa r^2
        for c in (SPHERE, HYPER):
            with pytest.raises(ValueError, match="radius must be positive"):
                solve_omega(regular_polygon(3), (1.0,) * 3, r, c)

    @pytest.mark.parametrize("kappa, rho", [(-1.0, -1e104), (-1e210, -1e5)])
    def test_pair_force_overflow_is_singular(self, kappa, rho):
        # the rate is a finite float, but the full field that checks it is
        # not: far pairs' 3/2 powers, or |kappa|^(3/2), leave the float range
        poly = PolygonConfig.from_turns((Fraction(0), Fraction(1, 3), Fraction(2, 3)))
        with pytest.raises(SingularConfigurationError, match="^pair force out of the float range: "):
            solve_omega(poly, (1.0,) * 3, math.sqrt(rho / kappa), Curvature(kappa))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_near_equator_matches_mpmath(self, n):
        # rho = 1 - 1.1e-12, just inside the equator guard.  The reference
        # balances the radial force of the equations of motion in 50 digits:
        # f0 + r (1 - rho) omega^2 = 0, f0 the radial pair force on body 1 at
        # rest.  In doubles f0 has lost about 12 digits to cancellation; the
        # rate must still be good to 1e-14, a few rounding errors of
        # sqrt(delta_1 / r^3).
        poly = regular_polygon(n)
        r = math.sqrt(1.0 - 1.1e-12)
        with mpmath.workdps(50):
            rm = mpmath.mpf(r)
            z = mpmath.sqrt(1 - rm * rm)
            q = [(rm * mpmath.cos(a), rm * mpmath.sin(a), z) for a in map(mpmath.mpf, poly.radians)]
            f0 = mpmath.mpf(0)
            for qj in q[1:]:
                w = sum(x * y for x, y in zip(q[0], qj))
                radial = (qj[0] * q[0][0] + qj[1] * q[0][1]) / rm - w * rm
                f0 += radial / (1 - w * w) ** 1.5
            ref = float(mpmath.sqrt(-f0 / (rm * (1 - rm * rm))))
        assert solve_omega(poly, (1.0,) * n, r, SPHERE) == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("kappa", [1.0, -1.0, 2.0, -3.0])
    def test_closed_form_matches_bracketed_root(self, kappa):
        # the root-finding the closed form replaced: double a bracket on the
        # radial residual of the public field until it changes sign, then
        # brentq inside it
        c = Curvature(kappa)

        def radial_residual(poly, masses, r, w):
            req = RelativeEquilibrium.from_radius(poly, r, w, c)
            system = build_polygon_state(req, masses, c)
            ax, ay, _ = acceleration(system)[0]
            x, y, _ = system.positions[0]
            return (ax * x + ay * y) / r + r * w * w

        if kappa > 0.0:
            radii = [t / math.sqrt(kappa) for t in (0.05, 0.45, 0.8, 0.999)]
        else:
            radii = [0.05, 0.6, 2.0, 5.0]
        for n in range(3, 13):
            poly = regular_polygon(n)
            masses = np.full(n, 1.5)
            for r in radii:
                w = solve_omega(poly, masses, r, c)
                f = lambda x: radial_residual(poly, masses, r, x)
                hi = 1.0
                while f(hi) <= 0.0:
                    hi *= 2.0
                ref = brentq(f, 0.0, hi, xtol=1e-14, rtol=8.9e-16)
                assert w == pytest.approx(ref, rel=1e-12), (n, r)
                assert_full_balance(poly, masses, r, w, c)


class TestInvariantRaises:
    """Raises that guard an invariant the code above them already keeps.

    Valid input cannot reach them, so each test breaks the invariant: a
    record built with inconsistent fields, or a kernel replaced for the
    duration of the test.
    """

    def test_height_inconsistent_with_radius(self):
        req = RelativeEquilibrium(regular_polygon(3), 0.6, 1.0, 0.5)  # the height at r = 0.6 is 0.8
        with pytest.raises(ValueError) as err:
            build_polygon_state(req, (1.0,) * 3, SPHERE)
        assert str(err.value) == "height 0.5 inconsistent with radius 0.6 at kappa 1.0"

    def test_rate_failing_the_full_balance(self, monkeypatch):
        accel = dynamics._accel
        monkeypatch.setattr(
            dynamics,
            "_accel",
            lambda Q, s, m, kappa, sigma: [tuple(2.0 * e for e in row) for row in accel(Q, s, m, kappa, sigma)],
        )
        with pytest.raises(NoBalanceError) as err:
            solve_omega(regular_polygon(3), (1.0,) * 3, 0.6, SPHERE)
        assert str(err.value) == (
            "closed-form rate does not satisfy the full force balance; no rigid rotation at this radius"
        )

    def test_acceleration_off_the_constraint(self, monkeypatch):
        # at rest q . a must vanish; a = q gives q . q = 1 on the unit sphere
        system = make_system(SPHERE, np.eye(3), np.zeros((3, 3)), [1.0] * 3)
        monkeypatch.setattr(dynamics, "_accel", lambda Q, s, m, kappa, sigma: list(Q))
        with pytest.raises(InternalConsistencyError) as err:
            acceleration(system)
        assert str(err.value) == "constraint compatibility violated: max residual 1.0"

    def test_singular_pair_after_a_step_carries_its_time(self, monkeypatch):
        system = make_system(SPHERE, np.eye(3), np.zeros((3, 3)), [1.0] * 3)
        monkeypatch.setattr(dynamics, "_closest", lambda Q, kappa, sigma: (0.0, 1, 2))
        with pytest.raises(SingularConfigurationError) as err:
            integrate(system, IntegratorConfig(dt=0.01, t_end=0.02))
        assert str(err.value) == (
            "pair denominator 0.0 of bodies 1 and 2 below singularity threshold (collision or antipodal pair)"
        )
        assert err.value.time == 0.01


class TestCriterionAtRest:
    def test_field_at_rest_is_delta_gamma(self):
        # A polygon at rest on its circle: w = kappa q_i . q_j = 1 - rho c, so
        # the pair field at body i has radial part -(1 - rho) delta_i / r^2 and
        # tangential part gamma_i / r^2.  The tolerances come from the worst
        # conditioning drawn: denominators <= 1000 put the closest chord at
        # c >= 1 - cos(2 pi / 1000) = 2.0e-5, and 0.05 <= |rho|, 1 - rho.
        # Then 1 - w^2 (in acceleration) and c (in delta_gamma) carry
        # relative errors near u (1/|rho| + 1/(1 - rho)) / c = 1.2e-10,
        # u = 2^-53, and the closest pair's tangential term is larger than
        # its radial one by s/c, up to about 320, which gives 3.7e-8.  Over
        # 20000 cases the errors reached 1.5e-10 and 5.1e-8; the bounds below
        # leave a factor of about 10.
        rng = random.Random(2011)
        for _ in range(500):
            n = rng.randint(3, 12)
            q = rng.randint(n + 1, 1000)
            poly = PolygonConfig.from_turns(Fraction(p, q) for p in sorted(rng.sample(range(q), n)))
            masses = [rng.uniform(0.1, 10.0) for _ in range(n)]
            c = Curvature(rng.choice([1.0, -1.0, 2.0, -3.0, 0.5]))
            rho = rng.uniform(0.05, 0.95) if c.kappa > 0 else -rng.uniform(0.05, 10.0)
            r = math.sqrt(rho / c.kappa)
            rho = c.kappa * r * r
            req = RelativeEquilibrium.from_radius(poly, r, 0.0, c)
            acc = acceleration(build_polygon_state(req, masses, c))
            theta = np.array(poly.radians)
            radial = acc[:, 0] * np.cos(theta) + acc[:, 1] * np.sin(theta)
            tangential = acc[:, 1] * np.cos(theta) - acc[:, 0] * np.sin(theta)
            deltas, gammas = (np.asarray(v) for v in delta_gamma(poly, masses, rho))
            scale = (1.0 - rho) * deltas / r**2
            assert np.all(np.abs(radial + scale) <= 1e-9 * scale), (poly.turns, c.kappa, rho)
            assert np.all(np.abs(tangential - gammas / r**2) <= 5e-7 * scale), (
                poly.turns,
                c.kappa,
                rho,
            )


class TestDiagnostics:
    def test_fresh_state_clean(self):
        system = make_system(
            SPHERE,
            [[1, 0, 0], [0, 1, 0]],
            [[0, 0, 0.3], [0, 0, -0.2]],
            [1.0, 1.0],
        )
        report = diagnostics(system)
        assert report.max_surface_residual < 1e-12
        assert report.max_tangency_residual < 1e-12
        assert report.min_pair_denominator == pytest.approx(1.0, rel=1e-12)

    def test_long_geodesic_keeps_residuals_small(self):
        system = make_system(HYPER, [[0, 0, 1]], [[0.5, 0, 0]], [1.0])
        traj = integrate(system, IntegratorConfig(dt=1e-3, t_end=10.0))
        assert max(d.max_surface_residual for d in traj.diagnostics) < 1e-10
        assert max(d.max_tangency_residual for d in traj.diagnostics) < 1e-10


def rotating_triangle(steps):
    poly = PolygonConfig.from_turns(tuple(Fraction(k, 3) for k in range(3)))
    r = 0.6
    w = solve_omega(poly, (1.0,) * 3, r, SPHERE)
    req = RelativeEquilibrium.from_radius(poly, r, w, SPHERE)
    return build_polygon_state(req, (1.0,) * 3, SPHERE), IntegratorConfig(dt=1e-3, t_end=steps * 1e-3)


class TestTrajectoryArrays:
    def test_shapes_and_read_only(self):
        system, cfg = rotating_triangle(20)
        traj = integrate(system, cfg)
        assert traj.times.shape == (21,)
        assert traj.positions.shape == traj.velocities.shape == (21, 3, 3)
        assert traj.diagnostic_rows.shape == (21, 3)
        for arr in (traj.times, traj.positions, traj.velocities, traj.diagnostic_rows):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert traj.times[-1] == cfg.t_end

    def test_views_match_rows(self):
        system, cfg = rotating_triangle(20)
        traj = integrate(system, cfg)
        assert len(traj.states) == len(traj.diagnostics) == 21
        np.testing.assert_array_equal(traj.states[0].positions, system.positions)
        np.testing.assert_array_equal(traj.states[0].velocities, system.velocities)
        first = diagnostics(system)
        assert tuple(traj.diagnostic_rows[0]) == (
            first.max_surface_residual,
            first.max_tangency_residual,
            first.min_pair_denominator,
        )
        for k, (state, diag) in enumerate(zip(traj.states, traj.diagnostics)):
            assert state.curvature == SPHERE
            np.testing.assert_array_equal(state.masses, system.masses)
            np.testing.assert_array_equal(state.positions, traj.positions[k])
            np.testing.assert_array_equal(state.velocities, traj.velocities[k])
            # row views of the trajectory, not copies
            assert np.shares_memory(state.positions, traj.positions)
            assert not state.positions.flags.writeable
            assert tuple(traj.diagnostic_rows[k]) == (
                diag.max_surface_residual,
                diag.max_tangency_residual,
                diag.min_pair_denominator,
            )
        # built once and kept
        assert traj.states is traj.states
        assert traj.diagnostics is traj.diagnostics

    def test_views_step_like_step(self):
        system, cfg = rotating_triangle(3)
        traj = integrate(system, cfg)
        after = step(system, IntegratorConfig(dt=1e-3, t_end=1e-3))
        np.testing.assert_array_equal(traj.states[1].positions, after.positions)
        np.testing.assert_array_equal(traj.states[1].velocities, after.velocities)

    def test_retained_memory_per_sample(self):
        # 1000 RK4 steps of a rotating triangle: the arrays hold 176 bytes a
        # sample (t, 2 x 9 coordinates, 3 diagnostics); a per-step state
        # object would hold several times that
        system, cfg = rotating_triangle(1000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traj = integrate(system, cfg)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 1001
        assert held / len(traj.times) / 1024.0 <= 0.25
