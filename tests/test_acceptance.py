"""End-to-end acceptance suite.

One test per contract item, in order, each printing a PASS/FAIL banner in
addition to the usual pytest verdict line.  The two batch items cache their
serialized output so the determinism item can rerun them and compare bytes.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from curvednbody import (
    BodySystem,
    Curvature,
    IntegratorConfig,
    PolygonConfig,
    acceleration,
    certify,
    criterion_check,
    decompose,
    integrate,
    mass_feasibility,
    mu_derivative,
    rho_grid,
    solve_omega,
)
from curvednbody.jsonout import dumps

from conftest import random_irregular_polygon, random_scalene_triangle, random_state

_BATCH_CACHE: dict[str, str] = {}


@contextmanager
def banner(num, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({desc}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({desc}): PASS")


def regular_exact(n):
    return PolygonConfig.from_turns(tuple(Fraction(k, n) for k in range(n)))


def test_criterion_1_regular_polygon_symmetry():
    with banner(1, "regular polygons satisfy the balance criterion"):
        start = time.perf_counter()
        for kappa in (1.0, -1.0):
            for n in range(3, 9):
                poly = regular_exact(n)
                masses = (1.0,) * n
                for rho in rho_grid(kappa, 20):
                    rep = criterion_check(poly, masses, rho)
                    thr = 1e-12 * (1.0 + abs(rep.deltas[0]))
                    assert rep.max_delta_spread <= thr, (kappa, n, rho)
                    assert max(abs(g) for g in rep.gammas) <= thr, (kappa, n, rho)
        assert time.perf_counter() - start < 1.0


def _irregular_batch():
    """1000 seeded irregular polygons: certificate plus four feasibility runs."""
    rng = random.Random(0)
    docs = []
    for _ in range(1000):
        n = 3 + rng.randrange(4)
        poly = random_irregular_polygon(rng, n, 360)
        cert = certify(poly, rho=0.5)  # raises on any route disagreement
        verdicts = {}
        for rho in (0.25, 0.5, 0.75, -1.0):
            res = mass_feasibility(poly, rho)
            assert not res.feasible, (poly.angles, rho)
            verdicts["%.17g" % rho] = res.to_json_dict()
        docs.append({"certificate": cert.to_json_dict(), "feasibility": verdicts})
    return dumps(docs)


def test_criterion_2_irregular_certificates_batch():
    with banner(2, "1000 random irregular polygons certified infeasible"):
        start = time.perf_counter()
        _BATCH_CACHE["irregular"] = _irregular_batch()
        assert time.perf_counter() - start < 30.0


def _triangle_batch():
    """200 scalene and 200 equilateral seeded triangles through the LP route."""
    rng = random.Random(1)
    docs = []
    for _ in range(200):
        poly = random_scalene_triangle(rng, 360)
        rho = 0.25 + 0.5 * rng.random()
        res = mass_feasibility(poly, rho)
        assert not res.feasible, (poly.angles, rho)
        docs.append(
            {"angles": [str(a) for a in poly.angles], "rho": rho, "result": res.to_json_dict()}
        )
    for _ in range(200):
        offset = Fraction(rng.randrange(120), 360)
        poly = PolygonConfig.from_turns(
            (offset, offset + Fraction(1, 3), offset + Fraction(2, 3))
        )
        rho = 0.25 + 0.5 * rng.random()
        res = mass_feasibility(poly, rho)
        assert res.feasible, (poly.angles, rho)
        m = np.asarray(res.masses)
        assert np.max(np.abs(m - m[0])) <= 1e-9 * m[0]
        docs.append(
            {"angles": [str(a) for a in poly.angles], "rho": rho, "result": res.to_json_dict()}
        )
    return dumps(docs)


def test_criterion_3_triangle_feasibility_split():
    with banner(3, "scalene infeasible, equilateral feasible"):
        start = time.perf_counter()
        _BATCH_CACHE["triangles"] = _triangle_batch()
        assert time.perf_counter() - start < 5.0


def test_criterion_4_derivative_matches_finite_differences():
    with banner(4, "closed-form derivative vs central differences"):
        start = time.perf_counter()
        rng = random.Random(4)
        samples = 0
        while samples < 100:
            c = rng.uniform(0.05, 2.0)
            rho = rng.uniform(-2.0, 0.9)
            base = 2.0 - c * rho
            h = 0.005 * base / c
            if base - 2.0 * h * c < 0.3:
                continue
            for k in range(1, 5):
                f = lambda x: mu_derivative(c, x, k - 1)
                fd = (
                    -f(rho + 2 * h) + 8 * f(rho + h) - 8 * f(rho - h) + f(rho - 2 * h)
                ) / (12 * h)
                closed = mu_derivative(c, rho, k)
                assert abs(closed - fd) <= 1e-6 * abs(closed), (c, rho, k)
            samples += 1
        assert time.perf_counter() - start < 1.0


def test_criterion_5_decomposition_identity():
    with banner(5, "a*g^k reproduces the derivative kernel"):
        rng = random.Random(5)
        for _ in range(100):
            c = rng.uniform(0.01, 2.0)
            rho = rng.uniform(-2.0, 0.95)
            a, g = decompose(c, rho)
            base = 2.0 - c * rho
            for k in range(7):
                want = c ** (0.5 + k) / base ** (1.5 + k)
                assert abs(a * g**k - want) <= 1e-12 * abs(want), (c, rho, k)


def test_criterion_6_constraint_compatibility():
    with banner(6, "acceleration compatible with the surface constraint"):
        rng = np.random.default_rng(6)
        for kappa in (1.0, -1.0):
            c = Curvature(kappa)
            for _ in range(500):
                sys_ = random_state(rng, 3, c)
                A = acceleration(sys_)
                metric = np.array([1.0, 1.0, c.sigma])
                q, v = sys_.positions, sys_.velocities
                resid = (q * A * metric).sum(axis=1) + (v * v * metric).sum(axis=1)
                assert float(np.max(np.abs(resid))) <= 1e-9


def test_criterion_7_geodesic_closure():
    with banner(7, "unit-speed great circle closes after 2*pi"):
        start = time.perf_counter()
        c = Curvature(1.0)
        sys_ = BodySystem(
            c,
            np.array([1.0]),
            np.array([[1.0, 0.0, 0.0]]),
            np.array([[0.0, 1.0, 0.0]]),
        )
        traj = integrate(sys_, IntegratorConfig(dt=1e-3, t_end=2 * math.pi))
        closure = float(np.max(np.abs(traj.states[-1].positions - sys_.positions)))
        assert closure < 1e-6
        assert max(d.max_surface_residual for d in traj.diagnostics) < 1e-10
        assert max(d.max_tangency_residual for d in traj.diagnostics) < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_8_equilibrium_persistence():
    with banner(8, "rotating triangle keeps its shape for 10 periods"):
        start = time.perf_counter()
        c = Curvature(1.0)
        r = 0.6
        poly = regular_exact(3)
        masses = (1.0, 1.0, 1.0)
        w = solve_omega(poly, masses, r, c)
        z = math.sqrt(1.0 - r * r)
        theta = np.array([2.0 * math.pi * k / 3.0 for k in range(3)])
        Q = np.column_stack((r * np.cos(theta), r * np.sin(theta), np.full(3, z)))
        V = np.column_stack((-r * w * np.sin(theta), r * w * np.cos(theta), np.zeros(3)))
        sys_ = BodySystem(c, np.asarray(masses), Q, V)
        t_end = 10.0 * 2.0 * math.pi / w
        traj = integrate(sys_, IntegratorConfig(dt=1e-3, t_end=t_end))

        metric = np.array([1.0, 1.0, 1.0])
        off = ~np.eye(3, dtype=bool)

        def c_matrix(state):
            wmat = state.positions @ (state.positions * metric).T
            return 1.0 - wmat

        c0 = c_matrix(traj.states[0])
        max_drift = max(
            float(np.max(np.abs((c_matrix(s) - c0))[off])) for s in traj.states[1:]
        )
        assert max_drift < 1e-6

        for s in traj.states[::50]:
            alpha = np.sort(np.mod(np.arctan2(s.positions[:, 1], s.positions[:, 0]), 2 * math.pi))
            r2 = float(np.mean(s.positions[:, 0] ** 2 + s.positions[:, 1] ** 2))
            rep = criterion_check(PolygonConfig.from_radians(tuple(alpha)), masses, r2)
            assert rep.max_delta_spread < 1e-8
            assert rep.max_gamma_spread < 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_9_batch_determinism():
    with banner(9, "batch reruns are byte-identical"):
        first_irregular = _BATCH_CACHE.get("irregular") or _irregular_batch()
        first_triangles = _BATCH_CACHE.get("triangles") or _triangle_batch()
        assert _irregular_batch() == first_irregular
        assert _triangle_batch() == first_triangles
