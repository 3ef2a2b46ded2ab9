"""Polygon representations, the mu/nu kernels, and the balance criterion."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from curvednbody import (
    CoincidentAngleError,
    KernelDomainError,
    MassVector,
    PolygonConfig,
    Rho,
    canonicalize,
    chord_c,
    chord_s,
    criterion_check,
    cyclic_gaps,
    delta_gamma,
    is_regular,
    mu,
    nu,
    random_irregular_polygon,
    random_scalene_triangle,
    rho_grid,
    turn_class,
    validate_rho_for_kappa,
)

TWO_PI = 2.0 * math.pi


def turns(*t):
    return PolygonConfig.from_turns(tuple(F(x) for x in t))


class TestPolygonConfig:
    def test_exact_roundtrip(self):
        cfg = turns(0, "1/4", "1/2")
        assert cfg.is_exact
        assert cfg.n == 3
        assert cfg.turns == (F(0), F(1, 4), F(1, 2))
        assert cfg.radians == (0.0, math.pi / 2, math.pi)

    def test_float_mode(self):
        cfg = PolygonConfig.from_radians((0.0, 1.0, 2.0))
        assert not cfg.is_exact
        assert cfg.radians == (0.0, 1.0, 2.0)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            PolygonConfig.from_radians((0.0, 1.0))

    def test_rejects_disorder_and_range(self):
        with pytest.raises(ValueError):
            PolygonConfig.from_radians((0.0, 2.0, 1.0))
        with pytest.raises(ValueError):
            PolygonConfig.from_radians((0.0, 1.0, TWO_PI))
        with pytest.raises(ValueError):
            turns(0, "1/2", "5/4")
        with pytest.raises(ValueError):
            turns(0, "1/4", "1/4")


def test_mass_vector_positive():
    assert MassVector((1.0, 2.0)).as_array().tolist() == [1.0, 2.0]
    for bad in ((1.0, 0.0), (1.0, -3.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            MassVector(bad)


class TestRho:
    def test_valid_range(self):
        assert Rho(0.5).value == 0.5
        assert Rho(-7.0).value == -7.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, math.nan, math.inf])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            Rho(bad)

    def test_from_kappa_radius(self):
        assert Rho.from_kappa_radius(1.0, 0.6).value == pytest.approx(0.36)
        assert Rho.from_kappa_radius(-1.0, 0.6).value == pytest.approx(-0.36)

    def test_branch_validation(self):
        assert validate_rho_for_kappa(0.5, 1.0) == 0.5
        assert validate_rho_for_kappa(-2.0, -1.0) == -2.0
        with pytest.raises(ValueError):
            validate_rho_for_kappa(-0.5, 1.0)
        with pytest.raises(ValueError):
            validate_rho_for_kappa(0.5, -1.0)


def test_chord_c_values():
    assert chord_c(math.pi / 2, 0.0) == pytest.approx(1.0)
    assert chord_c(math.pi, 0.0) == pytest.approx(2.0)
    assert chord_c(2 * math.pi / 3, 0.0) == pytest.approx(1.5)
    with pytest.raises(CoincidentAngleError):
        chord_c(1.25, 1.25)


def test_chord_s_values():
    assert chord_s(math.pi / 2, 0.0) == pytest.approx(1.0)
    assert chord_s(math.pi, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert chord_s(0.3, 1.7) == -chord_s(1.7, 0.3)


class TestKernels:
    def test_mu_values(self):
        assert mu(2.0, 0.0) == pytest.approx(0.25, rel=1e-15)
        assert mu(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
        # frozen high-precision reference for c=3/2, rho=1/2
        assert mu(1.5, 0.5) == pytest.approx(0.5842373946721772, rel=1e-14)

    def test_mu_positive_and_symmetric_in_chord(self, pyrng):
        for _ in range(200):
            d = pyrng.uniform(0.01, TWO_PI - 0.01)
            rho = pyrng.choice([pyrng.uniform(0.01, 0.99), -pyrng.uniform(0.01, 3.0)])
            c1 = chord_c(d, 0.0)
            c2 = chord_c(0.0, d)
            assert c1 == c2
            assert mu(c1, rho) > 0.0

    def test_mu_domain_errors(self):
        with pytest.raises(KernelDomainError):
            mu(2.5, 0.5)
        with pytest.raises(KernelDomainError):
            mu(-1.0, 0.5)
        with pytest.raises(KernelDomainError):
            mu(2.0, 1.0)  # base 2 - 2*1 = 0

    def test_nu_values(self):
        assert nu(2.0, 0.0, 0.3) == 0.0
        assert nu(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_nu_is_tangent_ratio_times_mu(self, pyrng):
        for _ in range(100):
            d = pyrng.uniform(0.05, TWO_PI - 0.05)
            rho = pyrng.uniform(-2.0, 0.9)
            if rho == 0.0:
                continue
            c, s = chord_c(d, 0.0), chord_s(d, 0.0)
            assert nu(c, s, rho) == pytest.approx((s / c) * mu(c, rho), rel=1e-14, abs=1e-16)


class TestDeltaGamma:
    def test_square_equal_masses(self):
        sq = turns(0, "1/4", "1/2", "3/4")
        d, g = delta_gamma(sq, MassVector((1.0,) * 4), 0.0)
        np.testing.assert_allclose(d, 0.9571067811865475, rtol=1e-14)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_uneven_triangle(self):
        tri = PolygonConfig.from_radians((0.0, math.pi / 2, math.pi))
        d, _ = delta_gamma(tri, MassVector((1.0,) * 3), 0.0)
        assert d[0] == pytest.approx(0.6035533905932738, rel=1e-14)
        assert d[1] == pytest.approx(0.7071067811865476, rel=1e-14)
        assert d[2] == pytest.approx(d[0], rel=1e-14)

    def test_mass_scaling_is_linear(self, pyrng):
        cfg = turns(0, "1/5", "1/2")
        m = MassVector((1.2, 0.7, 2.0))
        lam = 3.25
        d1, g1 = delta_gamma(cfg, m, 0.4)
        d2, g2 = delta_gamma(cfg, MassVector(tuple(lam * x for x in (1.2, 0.7, 2.0))), 0.4)
        np.testing.assert_allclose(d2, lam * np.asarray(d1), rtol=1e-13)
        np.testing.assert_allclose(g2, lam * np.asarray(g1), rtol=1e-13, atol=1e-15)

    def test_rotation_invariance(self, pyrng):
        """Adding a constant to every angle permutes bodies but keeps values."""
        base = (0.1, 0.9, 2.4, 4.0)
        m = (1.0, 2.0, 0.5, 1.5)
        d0, g0 = delta_gamma(PolygonConfig.from_radians(base), MassVector(m), 0.3)
        for _ in range(20):
            shift = pyrng.uniform(0.0, TWO_PI)
            ang = sorted((a + shift) % TWO_PI for a in base)
            perm = sorted(range(4), key=lambda i: (base[i] + shift) % TWO_PI)
            cfg = PolygonConfig.from_radians(tuple(ang))
            d, g = delta_gamma(cfg, MassVector(tuple(m[i] for i in perm)), 0.3)
            np.testing.assert_allclose(d, [d0[i] for i in perm], rtol=0, atol=1e-13)
            np.testing.assert_allclose(g, [g0[i] for i in perm], rtol=0, atol=1e-13)

    def test_deltas_strictly_positive(self, pyrng):
        rng = random.Random(7)
        for _ in range(50):
            cfg = random_irregular_polygon(rng, 3 + rng.randrange(3))
            m = MassVector(tuple(rng.uniform(0.1, 5.0) for _ in range(cfg.n)))
            rho = rng.choice([rng.uniform(0.05, 0.95), -rng.uniform(0.05, 4.0)])
            d, _ = delta_gamma(cfg, m, rho)
            assert np.all(np.asarray(d) > 0.0)

    def test_rho_array_rows_equal_scalar_calls(self):
        rng = random.Random(31)
        polygons = [random_irregular_polygon(rng, n, 10_000) for n in range(3, 13)]
        polygons.append(PolygonConfig.from_radians((0.0, 0.9, 2.5, 4.1, 5.0)))
        for cfg in polygons:
            m = MassVector(tuple(rng.uniform(0.5, 2.0) for _ in range(cfg.n)))
            for kappa in (1.0, -1.0):
                rhos = np.array(rho_grid(kappa, 600))
                deltas, gammas = delta_gamma(cfg, m, rhos)
                assert deltas.shape == gammas.shape == (600, cfg.n)
                rows = [delta_gamma(cfg, m, float(r)) for r in rhos]
                np.testing.assert_array_equal(deltas, np.stack([d for d, _ in rows]))
                np.testing.assert_array_equal(gammas, np.stack([g for _, g in rows]))

    def test_rho_array_domain_checked(self):
        tri = turns(0, "1/3", "1/2")
        with pytest.raises(KernelDomainError):
            delta_gamma(tri, (1.0, 1.0, 1.0), np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            delta_gamma(tri, (1.0, 1.0, 1.0), np.full((2, 2), 0.5))


class TestCriterionCheck:
    def test_regular_satisfied_everywhere(self):
        for n in (3, 5, 7):
            cfg = PolygonConfig.from_turns(tuple(F(k, n) for k in range(n)))
            m = MassVector((1.0,) * n)
            for kappa in (1.0, -1.0):
                for rho in rho_grid(kappa, 7):
                    rep = criterion_check(cfg, m, rho, tol=1e-12)
                    assert rep.satisfied

    def test_uneven_triangle_not_satisfied(self):
        tri = PolygonConfig.from_radians((0.0, math.pi / 2, math.pi))
        rep = criterion_check(tri, MassVector((1.0,) * 3), 0.0)
        assert not rep.satisfied
        assert rep.max_delta_spread == pytest.approx(0.10355339059327378, rel=1e-12)

    def test_infinite_tolerance_always_passes(self):
        tri = PolygonConfig.from_radians((0.0, math.pi / 2, math.pi))
        rep = criterion_check(tri, MassVector((1.0,) * 3), 0.5, tol=math.inf)
        assert rep.satisfied

    def test_threshold_scales_with_delta(self):
        tri = turns(0, "1/4", "1/2")
        rep = criterion_check(tri, MassVector((1.0,) * 3), 0.5, tol=1e-10)
        assert rep.threshold == pytest.approx(1e-10 * (1.0 + abs(rep.deltas[0])))


class TestCanonicalize:
    def test_float_example(self):
        cfg = PolygonConfig.from_radians((0.0, math.pi, 1.5 * math.pi))
        out = canonicalize(cfg)
        np.testing.assert_allclose(out.radians, (0.0, math.pi / 2, math.pi), atol=1e-15)

    def test_exact_example(self):
        out = canonicalize(turns(0, "1/4", "3/4"))
        assert out.turns == (F(0), F(1, 4), F(1, 2))

    def test_idempotent_and_first_gap_minimal(self, pyrng):
        rng = random.Random(3)
        for _ in range(100):
            cfg = random_irregular_polygon(rng, 3 + rng.randrange(4))
            can = canonicalize(cfg)
            assert canonicalize(can).turns == can.turns
            gaps = cyclic_gaps(can)
            assert gaps[0] == min(gaps)

    def test_preserves_chord_multiset(self, pyrng):
        rng = random.Random(11)
        for _ in range(50):
            cfg = random_irregular_polygon(rng, 5)
            can = canonicalize(cfg)

            def chords(p):
                r = p.radians
                return sorted(
                    chord_c(r[j], r[i]) for i in range(p.n) for j in range(i + 1, p.n)
                )

            np.testing.assert_allclose(chords(cfg), chords(can), atol=1e-13)

    def test_regular_unchanged(self):
        reg = turns(0, "1/4", "1/2", "3/4")
        assert canonicalize(reg).turns == reg.turns

    def test_matches_rotation_reference(self):
        # Reference: sort every rotation (a - start) mod full, keep the
        # minimal first gap, break ties lexicographically.
        def reference(angles, full):
            rotations = [tuple(sorted((a - s) % full for a in angles)) for s in angles]
            first = min(t[1] for t in rotations)
            return min(t for t in rotations if t[1] == first)

        rng = random.Random(41)
        polys = [random_irregular_polygon(rng, n, 10**4) for n in range(3, 13) for _ in range(5)]
        polys.append(turns(0, "1/7", "3/11", "5/13", "7/17"))
        for n in range(3, 13):
            polys.append(PolygonConfig.from_turns(tuple(F(k, n) for k in range(n))))
            mixed = {F(rng.randrange(q), q) for q in (rng.randint(2, 10**4) for _ in range(n))}
            if len(mixed) >= 3:
                polys.append(PolygonConfig.from_turns(sorted(mixed)))
        for poly in list(polys):
            offset = F(rng.randrange(997), 997)
            polys.append(PolygonConfig.from_turns(sorted((a + offset) % 1 for a in poly.turns)))
        for poly in polys:
            assert canonicalize(poly).turns == reference(poly.turns, F(1))
            rad = PolygonConfig.from_radians(poly.radians)
            assert canonicalize(rad).angles == reference(rad.angles, TWO_PI)


def test_is_regular():
    assert is_regular(PolygonConfig.from_radians((0.0, TWO_PI / 3, 2 * TWO_PI / 3)))
    assert not is_regular(PolygonConfig.from_radians((0.0, math.pi / 2, math.pi)))
    assert is_regular(turns(0, "1/4", "1/2", "3/4"))
    assert not is_regular(turns(0, "1/4", "1/2", "5/8"))


def test_turn_class_folds_reflection():
    assert turn_class(F(3, 4)) == F(1, 4)
    assert turn_class(F(1, 4)) == F(1, 4)
    assert turn_class(F(1, 2)) == F(1, 2)
    assert turn_class(F(9, 8)) == F(1, 8)


class TestRhoGrid:
    def test_positive_branch_interior(self):
        g = rho_grid(1.0, 20)
        assert len(g) == 20
        assert all(0.0 < x < 1.0 for x in g)

    def test_negative_branch_interior(self):
        g = rho_grid(-1.0, 20)
        assert len(g) == 20
        assert all(-2.0 < x < 0.0 for x in g)

    def test_single_point_is_midpoint(self):
        assert rho_grid(1.0, 1) == (0.5,)
        assert rho_grid(-1.0, 1) == (-1.0,)


class TestRandomPolygons:
    def test_irregular_generator(self):
        rng = random.Random(0)
        for _ in range(100):
            cfg = random_irregular_polygon(rng, 4, max_denominator=360)
            assert cfg.is_exact
            assert cfg.n == 4
            assert not is_regular(cfg)
            assert all(f.denominator <= 360 for f in cfg.turns)

    def test_scalene_generator_has_distinct_gaps(self):
        rng = random.Random(1)
        for _ in range(100):
            cfg = random_scalene_triangle(rng)
            gaps = cyclic_gaps(cfg)
            assert len(set(gaps)) == 3
