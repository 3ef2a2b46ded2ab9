"""Polygon representations, the chord and mu kernels, and the balance criterion."""

import itertools
import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from curvednbody import (
    CoincidentAngleError,
    KernelDomainError,
    PolygonConfig,
    canonicalize,
    chord_c,
    criterion_check,
    cyclic_gaps,
    delta_gamma,
    is_regular,
    mu_derivative,
    rho_grid,
    validate_rho_for_kappa,
)
from curvednbody import criterion
from curvednbody.polygon import _masses

from conftest import random_irregular_polygon, random_scalene_triangle

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
    assert _masses((1.0, 2.0)) == (1.0, 2.0)
    for bad in ((1.0, 0.0), (1.0, -3.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            _masses(bad)


class TestRho:
    """The rho domain, which validate_rho_for_kappa alone checks."""

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, math.nan, math.inf])
    def test_rejected(self, bad):
        # no branch admits these: every valid rho is finite, nonzero and < 1
        for kappa in (1.0, -1.0):
            with pytest.raises(ValueError):
                validate_rho_for_kappa(bad, kappa)

    def test_branch_validation(self):
        assert validate_rho_for_kappa(0.5, 1.0) == 0.5
        assert validate_rho_for_kappa(-2.0, -1.0) == -2.0
        with pytest.raises(ValueError):
            validate_rho_for_kappa(-0.5, 1.0)
        with pytest.raises(ValueError):
            validate_rho_for_kappa(0.5, -1.0)
        with pytest.raises(ValueError, match="finite"):
            validate_rho_for_kappa(-math.inf, -1.0)


def test_chord_c_values():
    assert chord_c(math.pi / 2, 0.0) == pytest.approx(1.0)
    assert chord_c(math.pi, 0.0) == pytest.approx(2.0)
    assert chord_c(2 * math.pi / 3, 0.0) == pytest.approx(1.5)
    with pytest.raises(CoincidentAngleError):
        chord_c(1.25, 1.25)


class TestKernels:
    """mu, the attraction kernel, is mu_derivative at order 0."""

    def test_mu_values(self):
        assert mu_derivative(2.0, 0.0, 0) == pytest.approx(0.25, rel=1e-15)
        assert mu_derivative(1.0, 1.0, 0) == pytest.approx(1.0, rel=1e-15)
        # frozen high-precision reference for c=3/2, rho=1/2
        assert mu_derivative(1.5, 0.5, 0) == pytest.approx(0.5842373946721772, rel=1e-14)

    def test_mu_positive_and_symmetric_in_chord(self, pyrng):
        for _ in range(200):
            d = pyrng.uniform(0.01, TWO_PI - 0.01)
            rho = pyrng.choice([pyrng.uniform(0.01, 0.99), -pyrng.uniform(0.01, 3.0)])
            c1 = chord_c(d, 0.0)
            c2 = chord_c(0.0, d)
            assert c1 == c2
            assert mu_derivative(c1, rho, 0) > 0.0

    def test_mu_domain_errors(self):
        with pytest.raises(KernelDomainError):
            mu_derivative(2.5, 0.5, 0)
        with pytest.raises(KernelDomainError):
            mu_derivative(-1.0, 0.5, 0)
        with pytest.raises(KernelDomainError):
            mu_derivative(2.0, 1.0, 0)  # base 2 - 2*1 = 0
        for rho in (math.nan, math.inf, -math.inf):  # base NaN, -inf, inf
            with pytest.raises(KernelDomainError):
                mu_derivative(1.0, rho, 0)


class TestDeltaGamma:
    def test_square_equal_masses(self):
        sq = turns(0, "1/4", "1/2", "3/4")
        d, g = delta_gamma(sq, (1.0,) * 4, 0.0)
        np.testing.assert_allclose(d, 0.9571067811865475, rtol=1e-14)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_uneven_triangle(self):
        tri = PolygonConfig.from_radians((0.0, math.pi / 2, math.pi))
        d, _ = delta_gamma(tri, (1.0,) * 3, 0.0)
        assert d[0] == pytest.approx(0.6035533905932738, rel=1e-14)
        assert d[1] == pytest.approx(0.7071067811865476, rel=1e-14)
        assert d[2] == pytest.approx(d[0], rel=1e-14)

    def test_mass_scaling_is_linear(self, pyrng):
        cfg = turns(0, "1/5", "1/2")
        m = (1.2, 0.7, 2.0)
        lam = 3.25
        d1, g1 = delta_gamma(cfg, m, 0.4)
        d2, g2 = delta_gamma(cfg, tuple(lam * x for x in (1.2, 0.7, 2.0)), 0.4)
        np.testing.assert_allclose(d2, lam * np.asarray(d1), rtol=1e-13)
        np.testing.assert_allclose(g2, lam * np.asarray(g1), rtol=1e-13, atol=1e-15)

    def test_rotation_invariance(self, pyrng):
        """Adding a constant to every angle permutes bodies but keeps values."""
        base = (0.1, 0.9, 2.4, 4.0)
        m = (1.0, 2.0, 0.5, 1.5)
        d0, g0 = delta_gamma(PolygonConfig.from_radians(base), m, 0.3)
        for _ in range(20):
            shift = pyrng.uniform(0.0, TWO_PI)
            ang = sorted((a + shift) % TWO_PI for a in base)
            perm = sorted(range(4), key=lambda i: (base[i] + shift) % TWO_PI)
            cfg = PolygonConfig.from_radians(tuple(ang))
            d, g = delta_gamma(cfg, tuple(m[i] for i in perm), 0.3)
            np.testing.assert_allclose(d, [d0[i] for i in perm], rtol=0, atol=1e-13)
            np.testing.assert_allclose(g, [g0[i] for i in perm], rtol=0, atol=1e-13)

    def test_deltas_strictly_positive(self, pyrng):
        rng = random.Random(7)
        for _ in range(50):
            cfg = random_irregular_polygon(rng, 3 + rng.randrange(3))
            m = tuple(rng.uniform(0.1, 5.0) for _ in range(cfg.n))
            rho = rng.choice([rng.uniform(0.05, 0.95), -rng.uniform(0.05, 4.0)])
            d, _ = delta_gamma(cfg, m, rho)
            assert np.all(np.asarray(d) > 0.0)

    def test_rho_array_rows_equal_scalar_calls(self):
        # a sweep builds the pair table once and runs the kernel at each rho;
        # every row must equal a fresh scalar call
        rng = random.Random(31)
        polygons = [random_irregular_polygon(rng, n, 10_000) for n in range(3, 13)]
        polygons.append(PolygonConfig.from_radians((0.0, 0.9, 2.5, 4.1, 5.0)))
        for cfg in polygons:
            m = tuple(rng.uniform(0.5, 2.0) for _ in range(cfg.n))
            table = criterion._pair_table(cfg)
            for kappa in (1.0, -1.0):
                rhos = rho_grid(kappa, 600)
                sweep = [criterion._sums(table, m, r) for r in rhos]
                deltas = np.array([d for d, _ in sweep])
                gammas = np.array([g for _, g in sweep])
                assert deltas.shape == gammas.shape == (600, cfg.n)
                rows = [delta_gamma(cfg, m, r) for r in rhos]
                np.testing.assert_array_equal(deltas, np.stack([d for d, _ in rows]))
                np.testing.assert_array_equal(gammas, np.stack([g for _, g in rows]))

    def test_rho_array_domain_checked(self):
        tri = turns(0, "1/3", "1/2")
        with pytest.raises(KernelDomainError):
            for rho in (0.5, 1.5):
                delta_gamma(tri, (1.0, 1.0, 1.0), rho)
        # at -1e300 the base is finite but its 3/2 power overflows a double
        for bad in (math.nan, math.inf, -math.inf, -1e300):
            with pytest.raises(KernelDomainError):
                delta_gamma(tri, (1.0, 1.0, 1.0), bad)
            with pytest.raises(KernelDomainError):
                for rho in (0.5, bad):
                    delta_gamma(tri, (1.0, 1.0, 1.0), rho)
        # rho is one scalar: an array of them is refused, not broadcast
        for rhos in (np.array([0.5, 0.25]), np.full((2, 2), 0.5)):
            with pytest.raises(TypeError):
                delta_gamma(tri, (1.0, 1.0, 1.0), rhos)


class TestCriterionCheck:
    def test_regular_satisfied_everywhere(self):
        for n in (3, 5, 7):
            cfg = PolygonConfig.from_turns(tuple(F(k, n) for k in range(n)))
            m = (1.0,) * n
            for kappa in (1.0, -1.0):
                for rho in rho_grid(kappa, 7):
                    rep = criterion_check(cfg, m, rho, tol=1e-12)
                    assert rep.satisfied

    def test_uneven_triangle_not_satisfied(self):
        tri = PolygonConfig.from_radians((0.0, math.pi / 2, math.pi))
        rep = criterion_check(tri, (1.0,) * 3, 0.0)
        assert not rep.satisfied
        assert rep.max_delta_spread == pytest.approx(0.10355339059327378, rel=1e-12)

    def test_threshold_scales_with_delta(self):
        tri = turns(0, "1/4", "1/2")
        rep = criterion_check(tri, (1.0,) * 3, 0.5, tol=1e-10)
        assert rep.threshold == pytest.approx(1e-10 * (1.0 + abs(rep.deltas[0])))

    def test_nan_spread_never_satisfied(self):
        # opposite masses near 1e308 overflow to +inf and -inf in body 3's
        # delta alone; its NaN must not vanish from the spread, even under a
        # tolerance near the largest double
        cfg = PolygonConfig.from_radians((0.0, 3.0, 3.2, 3.4))
        rep = criterion_check(cfg, (1.0, 1e308, 1.0, -1e308), 0.5, tol=1.7e308)
        assert [math.isfinite(d) for d in rep.deltas] == [True, True, False, True]
        assert math.isnan(rep.max_delta_spread)
        assert not rep.satisfied

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -0.0, -1.0, -math.inf, math.inf])
    def test_tolerance_must_be_positive(self, tol):
        # a square with equal masses balances; a bad tol must raise, not
        # report it unsatisfied.  An infinite tol would pass every spread,
        # irregular polygons included
        square = turns(0, "1/4", "1/2", "3/4")
        with pytest.raises(ValueError, match="tol must be positive"):
            criterion_check(square, (1.0,) * 4, 0.5, tol=tol)


U = 2.0**-53  # unit roundoff of a float


def delta_gamma_oracle(cfg, masses, rho):
    """delta_i and gamma_i in 50-digit mpmath at the kernel's float inputs.

    Each comes with a first-order bound on the float kernel's rounding error,
    summed term by term.  Computing c = 1 - cos d leaves an absolute error
    of about u in c, so a relative error e_c = u (|1 - c| / c + 1); the base
    2 - c rho inherits it amplified by |c rho| / base; s = sin d inherits
    the rounding of d = alpha_j - alpha_i, e_s = u (|d| / |s| + 1).  mu is
    c^(-1/2) base^(-3/2) and nu is s c^(-3/2) base^(-3/2), so their
    relative errors are e_c / 2 + 3/2 e_b and e_s + 3/2 e_c + 3/2 e_b, plus
    one u for each of the kernel's roundings after that (sqrt, pow, the
    products, the division, the mass product) and n - 2 more for summing
    n - 1 terms in order.
    """
    with mpmath.workdps(50):
        a = [mpmath.mpf(x) for x in cfg.radians]
        out = []
        for i in range(cfg.n):
            delta = gamma = bound_d = bound_g = mpmath.mpf(0)
            for j in range(cfg.n):
                if j == i:
                    continue
                d = a[j] - a[i]
                c, s = 1 - mpmath.cos(d), mpmath.sin(d)
                base = 2 - c * rho
                mu_term = masses[j] / (mpmath.sqrt(c) * base**1.5)
                nu_term = mu_term * s / c
                e_c = (abs(1 - c) / c + 1) * U
                e_b = abs(c * rho) / base * (e_c + U) + U
                e_s = (abs(d) / abs(s) + 1) * U
                delta += mu_term
                gamma += nu_term
                bound_d += abs(mu_term) * (e_c / 2 + 1.5 * e_b + (cfg.n + 4) * U)
                bound_g += abs(nu_term) * (e_s + 1.5 * e_c + 1.5 * e_b + (cfg.n + 5) * U)
            out.append((delta, gamma, bound_d, bound_g))
        return out


class TestDeltaGammaOracle:
    """delta_gamma against 50-digit mpmath where its pair terms are ill-conditioned.

    Each place starts from a regular n-gon with every angle jittered by at
    most a tenth of a gap, so all chords but the planted one are well
    conditioned (c >= 0.048 for n <= 12).  The float kernel must stay
    within the first-order bound of `delta_gamma_oracle`.  The largest
    error-to-bound ratio is 0.61 on these draws (0.64 over 200 polygons
    per place), and a sine rounded to 13 digits fails every place.
    The bound relative to delta is about 2.8e-12 near a collision (u / c
    with c = 2e-5), 4e-13 near the equator (u |c rho| / base with base
    near 0.002) and a few 1e-15 in the two well-conditioned places.
    """

    TURN = 2.0 * math.pi

    def jittered(self, rng, n):
        return [self.TURN * (k + rng.uniform(-0.1, 0.1)) / n for k in range(n)]

    def check(self, rng, angles, rho):
        cfg = PolygonConfig.from_radians(tuple(sorted(a % self.TURN for a in angles)))
        masses = [rng.uniform(0.1, 10.0) for _ in range(cfg.n)]
        deltas, gammas = delta_gamma(cfg, masses, rho)
        for i, (delta, gamma, bound_d, bound_g) in enumerate(delta_gamma_oracle(cfg, masses, rho)):
            assert abs(deltas[i] - delta) <= bound_d, (cfg.radians, rho, i)
            assert abs(gammas[i] - gamma) <= bound_g, (cfg.radians, rho, i)

    @staticmethod
    def either_branch(rng):
        return rng.choice([rng.uniform(0.05, 0.95), -rng.uniform(0.05, 10.0)])

    def test_closest_gap_a_thousandth_turn(self):
        rng = random.Random(1)
        for _ in range(40):
            a = self.jittered(rng, rng.randint(3, 11))
            self.check(rng, a + [a[0] + 1e-3 * self.TURN], self.either_branch(rng))

    def test_near_antipodal_pair(self):
        # odd n keeps the antipode of a[0] at least 0.3 gaps from any vertex
        rng = random.Random(2)
        for _ in range(40):
            a = self.jittered(rng, 2 * rng.randint(1, 5) + 1)
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -3.0)
            self.check(rng, a + [a[0] + math.pi + offset], self.either_branch(rng))

    def test_near_equator(self):
        # rho = 0.999 with a near-antipodal pair: base 2 - c rho near 0.002
        rng = random.Random(3)
        for _ in range(40):
            a = self.jittered(rng, 2 * rng.randint(1, 5) + 1)
            self.check(rng, a + [a[0] + math.pi + rng.uniform(-1e-3, 1e-3)], 0.999)

    def test_far_hyperbolic_branch(self):
        rng = random.Random(4)
        for _ in range(40):
            self.check(rng, self.jittered(rng, rng.randint(3, 12)), -10.0)


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

    def test_canonical_input_returned_as_is(self):
        for cfg in (turns(0, "1/8", "3/8", "3/4"),
                    PolygonConfig.from_radians((0.0, 1.0, 3.0))):
            assert canonicalize(cfg) is cfg
        rotated = turns("1/8", "1/4", "1/2", "7/8")
        out = canonicalize(rotated)
        assert out is not rotated and out == turns(0, "1/8", "3/8", "3/4")

    def test_float_wrap_below_full_turn(self):
        # (1.0 - 1.0000000000000004) mod 2*pi rounds up to 2*pi itself
        cfg = PolygonConfig.from_radians((1.0, 1.0000000000000004, 1.0000000000000007))
        out = canonicalize(cfg)
        assert out.angles[-1] < TWO_PI
        assert canonicalize(out) is out

    def test_residues(self):
        assert turns("1/6", "1/4", "1/2").residues == ((2, 3, 6), 12)
        # the rotation (0, 2, 4)/8 reduces to the residues of (0, 1/4, 1/2)
        assert turns("1/8", "3/8", "7/8").canonical_residues == ((0, 1, 2), 4)
        assert turns(0, "1/4", "1/2").canonical_residues == ((0, 1, 2), 4)
        cfg = PolygonConfig.from_radians((0.0, 1.0, 2.0))
        for attr in ("residues", "canonical_residues"):
            with pytest.raises(ValueError, match="needs exact rational turn angles"):
                getattr(cfg, attr)

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

    @staticmethod
    def every_small_polygon():
        """Each n-subset of the residues modulo q, q = 3..12, n = 3..q, with its
        canonical residues scaled back to modulus q: 7,814 polygons."""
        for q in range(3, 13):
            for n in range(3, q + 1):
                for subset in itertools.combinations(range(q), n):
                    res, full = PolygonConfig.from_turns([f"{r}/{q}" for r in subset]).canonical_residues
                    yield q, n, subset, tuple(r * (q // full) for r in res)

    def test_rotation_classes_number_the_necklaces(self):
        # Burnside's lemma (Gilbert & Riordan 1961): rotation splits the
        # n-subsets of Z_q into (1/q) sum_{d | gcd(q, n)} phi(d) C(q/d, n/d) classes
        def phi(d):
            return sum(math.gcd(d, k) == 1 for k in range(1, d + 1))

        classes = {}
        for q, n, _, canonical in self.every_small_polygon():
            classes.setdefault((q, n), set()).add(canonical)
        for (q, n), found in classes.items():
            divisors = [d for d in range(1, n + 1) if q % d == 0 and n % d == 0]
            assert len(found) * q == sum(phi(d) * math.comb(q // d, n // d) for d in divisors), (q, n)

    def test_least_rotation_of_the_gap_sequence(self):
        # the canonical rotation starts where the cyclic gap sequence is
        # lexicographically least, which the partial sums of the gaps keep
        for q, n, subset, canonical in self.every_small_polygon():
            gaps = [(b - a) % q for a, b in zip(subset, subset[1:] + subset[:1])]
            least = min(gaps[k:] + gaps[:k] for k in range(n))
            assert canonical == tuple(itertools.accumulate(least[:-1], initial=0)), subset


def test_is_regular():
    assert is_regular(PolygonConfig.from_radians((0.0, TWO_PI / 3, 2 * TWO_PI / 3)))
    assert not is_regular(PolygonConfig.from_radians((0.0, math.pi / 2, math.pi)))
    assert is_regular(turns(0, "1/4", "1/2", "3/4"))
    assert not is_regular(turns(0, "1/4", "1/2", "5/8"))


def gap_regular(cfg):
    """Reference: every cyclic gap is exactly 1/n."""
    return all(g == F(1, cfg.n) for g in cyclic_gaps(cfg))


def rotated(cfg, offset):
    return PolygonConfig.from_turns(sorted((a + offset) % 1 for a in cfg.turns))


class TestResidues:
    """Integer turn residues against their Fraction definitions."""

    @staticmethod
    def polygons():
        rng = random.Random(59)
        polys = [
            turns("1/8", "3/8", "7/8"),
            turns(0, "1/4", "1/2"),
            turns("1/6", "1/2", "5/6"),
            turns("1/10", "3/10", "7/10", "9/10"),
        ]
        for n in range(3, 10):
            for q in (2 * n + 2, 60, 10**4):
                polys.append(random_irregular_polygon(rng, n, q))
            polys.append(PolygonConfig.from_turns(F(k, n) for k in range(n)))
        return polys + [rotated(p, F(rng.randrange(1, 97), 97)) for p in polys]

    def test_residues_are_the_lcm_formula(self):
        for p in self.polygons():
            full = math.lcm(*(a.denominator for a in p.turns))
            assert p.residues == (tuple(int(a * full) for a in p.turns), full)

    def test_canonical_polygon_carries_its_residues(self):
        for p in self.polygons():
            can = canonicalize(p)
            fresh = PolygonConfig(can.angles, "exact")
            assert can.canonical_residues == can.residues == fresh.canonical_residues
            assert fresh.residues == can.residues

    def test_is_regular_matches_gap_definition(self):
        polys = [
            # regular with an offset, so L is a multiple of n but not n
            PolygonConfig.from_turns(F(1, 7) + F(k, 3) for k in range(3)),
            PolygonConfig.from_turns(F(1, 10) + F(k, 4) for k in range(4)),
            PolygonConfig.from_turns(F(5, 72) + F(k, 6) for k in range(6)),
            # irregular although n divides L
            turns(0, "1/6", "1/2"),
            turns(0, "1/3", "1/2"),
            turns(0, "1/8", "1/2", "3/4"),
            turns(0, "1/4", "1/2", "5/8"),
            turns("1/12", "5/12", "2/3"),
            turns(0, "1/9", "1/3"),
        ]
        polys += self.polygons()
        polys += [rotated(p, F(k, 11)) for p in polys for k in (1, 5)]
        assert sum(gap_regular(p) for p in polys) >= 10
        for p in polys:
            assert is_regular(p) == gap_regular(p), p.turns

    @pytest.mark.parametrize(
        "angles, message",
        [
            ((F(-1, 3), F(0), F(1, 2)), "turn angle -1/3 outside [0, 1)"),
            ((0, F(1, 2), 1), "turn angle 1 outside [0, 1)"),
            ((0, "1/2", "3/2"), "turn angle 3/2 outside [0, 1)"),
            ((0, "1/4", "1/4"), "angles must be strictly increasing, got 1/4 >= 1/4"),
            ((0, "1/2", "1/4"), "angles must be strictly increasing, got 1/2 >= 1/4"),
            ((0, "1/2", 0.25), "angles must be strictly increasing, got 1/2 >= 1/4"),
            ((0.5, "1/3", 0), "angles must be strictly increasing, got 1/2 >= 1/3"),
            ((0, 0.5, 1.25), "turn angle 5/4 outside [0, 1)"),
        ],
    )
    def test_validation_messages(self, angles, message):
        for build in (lambda: PolygonConfig(angles, "exact"),
                      lambda: PolygonConfig.from_turns(angles)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "angle, split",
        [
            # decimal digits, "/" and nonzero decimal digits: read with int
            ("2/4", True),
            ("007/10", True),
            ("0", True),
            ("\u0661/\u0663", True),  # ARABIC-INDIC ONE / THREE
            # every other form goes through Fraction, errors included
            (" 1/3", False),
            ("+1/3", False),
            ("1_0/30", False),  # an error before Python 3.11, 1/3 from it on
            ("0.25", False),
            ("1e-1", False),
            ("-1/3", False),
            ("\u00b2/3", False),  # SUPERSCRIPT TWO: a digit, not a decimal one
            ("1/0", False),
            ("0/0", False),
            ("1" * 5000 + "/3", False),  # more digits than int reads
        ],
    )
    def test_angle_forms_read_as_fraction_reads_them(self, monkeypatch, angle, split):
        def outcome(build):
            try:
                return build()
            except Exception as exc:  # the error is part of the outcome compared
                return type(exc), str(exc)

        built = [0]
        new = F.__new__

        def counting(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        for angles in ((angle, "4/5", "9/10"), ("1/20", angle, "9/10")):
            expected = outcome(lambda: PolygonConfig.from_turns([F(a) for a in angles]))
            built[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(F, "__new__", staticmethod(counting))
                got = outcome(lambda: PolygonConfig(angles, "exact"))
            if isinstance(expected, PolygonConfig):
                assert (got.residues, got.turns) == (expected.residues, expected.turns)
                # a split angle builds no Fraction
                assert (built[0] == 0) == split
            else:
                assert got == expected

    def test_mixed_exact_inputs(self):
        cfg = PolygonConfig((0, "1/4", 0.5, F(3, 4)), "exact")
        assert cfg.turns == (F(0), F(1, 4), F(1, 2), F(3, 4))
        assert all(type(a) is F for a in cfg.turns)
        assert cfg.residues == ((0, 1, 2, 3), 4)
        assert PolygonConfig.from_turns(iter(["1/5", "2/5", "4/5"])).residues == ((1, 2, 4), 5)


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


class BoundedRandom(random.Random):
    """Seeded Random that fails after a fixed number of draws.

    A generator whose rejection loop can never succeed then fails its test
    instead of spinning forever.
    """

    def __init__(self, seed, draws=10_000):
        self.draws_left = draws
        super().__init__(seed)

    def getrandbits(self, k):
        self.draws_left -= 1
        if self.draws_left < 0:
            raise AssertionError("generator did not return within its draw budget")
        return super().getrandbits(k)


class TestRandomPolygons:
    def test_irregular_generator(self):
        rng = random.Random(0)
        for _ in range(100):
            cfg = random_irregular_polygon(rng, 4, max_denominator=360)
            assert cfg.is_exact
            assert cfg.n == 4
            assert not is_regular(cfg)
            assert all(f.denominator <= 360 for f in cfg.turns)

    def test_irregular_generator_needs_a_denominator_above_n(self):
        for n in (3, 5, 12):
            with pytest.raises(ValueError, match="max_denominator > n"):
                random_irregular_polygon(BoundedRandom(n), n, n)
            cfg = random_irregular_polygon(BoundedRandom(n), n, n + 1)
            assert not is_regular(cfg)

    def test_scalene_generator_needs_denominator_six(self):
        for d in (3, 4, 5):
            with pytest.raises(ValueError, match="max_denominator >= 6"):
                random_scalene_triangle(BoundedRandom(d), d)
        assert len(set(cyclic_gaps(random_scalene_triangle(BoundedRandom(6), 6)))) == 3

    def test_scalene_generator_has_distinct_gaps(self):
        rng = random.Random(1)
        for _ in range(100):
            cfg = random_scalene_triangle(rng)
            gaps = cyclic_gaps(cfg)
            assert len(set(gaps)) == 3
