"""Polygonal configurations and their scalar pair kernels, without numpy.

A polygon of n >= 3 bodies sits on a circle of radius r at angles
alpha_1 < ... < alpha_n on the surface of curvature kappa.  With
rho = kappa * r^2, define for each ordered pair

    c_ji = 1 - cos(alpha_j - alpha_i)            in (0, 2]
    s_ji = sin(alpha_j - alpha_i)
    mu_ji = 1 / (c_ji^(1/2) * (2 - c_ji rho)^(3/2))
    nu_ji = s_ji / (c_ji^(3/2) * (2 - c_ji rho)^(3/2))

The float chord of two radian angles is `chord_c`, the one check of the
domain (c in (0, 2], base 2 - c rho finite and positive) is
`_check_kernel_domain`, `_kernel_power` also checks that a power of the
base does not overflow, and the criterion pass evaluates mu and nu.

Angles carry one of two representations: exact rational fractions of a turn,
used by the certification machinery, or float radians, used for simulation
interop.  Everything here is plain Python (integers, Fractions and floats),
as are the certificate and the criterion kernels built on it; only the
simulation layer, `dynamics`, loads numpy.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CoincidentAngleError, KernelDomainError

__all__ = [
    "Curvature",
    "PolygonConfig",
    "MassVector",
    "chord_c",
    "canonicalize",
    "is_regular",
    "cyclic_gaps",
    "validate_rho_for_kappa",
    "rho_grid",
    "random_irregular_polygon",
    "random_scalene_triangle",
]

TWO_PI = 2.0 * math.pi
# Float polygons count as regular when every gap is within this of 2*pi/n.
_GAP_TOL = 1e-9


@dataclass(frozen=True)
class Curvature:
    """Nonzero curvature of the surface; carries the metric sign with it.

    The surface is kappa * (x^2 + y^2 + sigma*z^2) = 1: for kappa > 0 the
    sphere of radius 1/sqrt(kappa) with sigma = +1, for kappa < 0 the upper
    sheet of a hyperboloid with sigma = -1.
    """

    kappa: float

    def __post_init__(self):
        k = self.kappa
        if not isinstance(k, (int, float)) or not math.isfinite(k) or k == 0.0:
            raise ValueError(f"curvature must be a finite nonzero real, got {k!r}")
        object.__setattr__(self, "kappa", float(k))

    @property
    def sigma(self) -> int:
        """Metric sign of the z-axis: +1 for kappa > 0, -1 for kappa < 0."""
        return 1 if self.kappa > 0 else -1


@dataclass(frozen=True)
class PolygonConfig:
    """Ordered angles of an inscribed polygon, exact (turns) or float (radians).

    Exact angles are Fractions in [0, 1) interpreted as fractions of a full
    turn; float angles are radians in [0, 2*pi).  Both must be strictly
    increasing with n >= 3.
    """

    angles: tuple
    representation: str  # "exact" | "float"

    def __post_init__(self):
        if self.representation not in ("exact", "float"):
            raise ValueError(f"unknown representation {self.representation!r}")
        if len(self.angles) < 3:
            raise ValueError(f"polygon needs at least 3 angles, got {len(self.angles)}")
        if self.representation == "exact":
            vals = tuple(a if type(a) is Fraction else Fraction(a) for a in self.angles)
            for a in vals:
                if not 0 <= a.numerator < a.denominator:
                    raise ValueError(f"turn angle {a} outside [0, 1)")
            full = math.lcm(*(a.denominator for a in vals))
            res = tuple(a.numerator * (full // a.denominator) for a in vals)
            object.__setattr__(self, "_residues", (res, full))
            order = res
        else:
            vals = tuple(float(a) for a in self.angles)
            for a in vals:
                if not math.isfinite(a) or not (0.0 <= a < TWO_PI):
                    raise ValueError(f"radian angle {a!r} outside [0, 2*pi)")
            object.__setattr__(self, "_residues", None)
            order = vals
        for k in range(len(vals) - 1):
            if not order[k] < order[k + 1]:
                raise ValueError(
                    f"angles must be strictly increasing, got {vals[k]} >= {vals[k + 1]}"
                )
        object.__setattr__(self, "angles", vals)

    @classmethod
    def from_turns(cls, turns) -> "PolygonConfig":
        return cls(tuple(turns), "exact")

    @classmethod
    def from_radians(cls, radians) -> "PolygonConfig":
        return cls(tuple(float(a) for a in radians), "float")

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def is_exact(self) -> bool:
        return self.representation == "exact"

    @property
    def turns(self) -> tuple[Fraction, ...]:
        if not self.is_exact:
            raise ValueError("float-mode polygon has no exact turn angles")
        return self.angles

    @property
    def radians(self) -> tuple[float, ...]:
        if self.is_exact:
            return tuple(TWO_PI * float(a) for a in self.angles)
        return self.angles

    @property
    def residues(self) -> tuple[tuple[int, ...], int]:
        """Exact turns as integer residues r_k = alpha_k * L modulo L.

        L is the lcm of the angle denominators, so turn arithmetic becomes
        exact integer arithmetic, and no factor of L divides every residue.
        The residues are computed once, when the polygon is built.
        """
        if self._residues is None:
            raise ValueError("this operation needs exact rational turn angles")
        return self._residues

    @functools.cached_property
    def canonical_residues(self) -> tuple[tuple[int, ...], int]:
        """Residues of the canonical polygon, gcd-reduced: equal for every rotation."""
        res, full = self.residues
        best = _min_rotation(res, full)
        g = math.gcd(full, *best)
        return tuple(r // g for r in best), full // g


@dataclass(frozen=True)
class MassVector:
    """Strictly positive body masses."""

    masses: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(m) for m in self.masses)
        if not vals:
            raise ValueError("mass vector must be nonempty")
        for m in vals:
            if not math.isfinite(m) or m <= 0.0:
                raise ValueError(f"masses must be finite and positive, got {m!r}")
        object.__setattr__(self, "masses", vals)

    def __len__(self) -> int:
        return len(self.masses)


def validate_rho_for_kappa(rho: float, kappa: float) -> float:
    """Check the scaled squared radius rho = kappa * r^2; return it as a float.

    Every valid rho is finite, nonzero and below 1, and its sign follows the
    curvature: the positive branch (sphere) lives in (0, 1), the equator
    rho = 1 excluded; the negative branch (hyperboloid) is unbounded below.
    """
    v = float(rho)
    if not math.isfinite(v):
        raise ValueError(f"rho must be finite, got {v!r}")
    if kappa > 0 and not (0.0 < v < 1.0):
        raise ValueError(f"kappa > 0 requires 0 < rho < 1, got {v!r}")
    if kappa < 0 and not (v < 0.0):
        raise ValueError(f"kappa < 0 requires rho < 0, got {v!r}")
    return v


def chord_c(alpha_j: float, alpha_i: float) -> float:
    """c = 1 - cos(alpha_j - alpha_i); zero only at coincident angles."""
    c = 1.0 - math.cos(alpha_j - alpha_i)
    if c == 0.0:
        raise CoincidentAngleError(
            f"angles {alpha_j!r} and {alpha_i!r} coincide modulo a full turn"
        )
    return c


def _check_kernel_domain(c: float, rho: float) -> float:
    if not (0.0 < c <= 2.0):
        raise KernelDomainError(f"chord value c={c!r} outside (0, 2]")
    base = 2.0 - c * rho
    # a NaN or infinite rho makes the base NaN or infinite, never in range
    if not 0.0 < base < math.inf:
        raise KernelDomainError(f"kernel base 2 - c*rho = {base!r} is not finite and positive")
    return base


def _kernel_power(c: float, rho: float, p: float = 1.5) -> tuple[float, float]:
    """The checked kernel base 2 - c*rho and its p-th power, which must not overflow."""
    base = _check_kernel_domain(c, rho)
    try:
        return base, base**p
    except OverflowError:
        raise KernelDomainError(
            f"kernel base 2 - c*rho = {base!r} overflows its {Fraction(p)} power"
        ) from None


def _min_rotation(values, full):
    """The rotation of values modulo full that canonicalize describes."""
    candidates = [tuple(sorted((v - start) % full for v in values)) for start in values]
    min_first_gap = min(t[1] for t in candidates)
    return min(t for t in candidates if t[1] == min_first_gap)


def canonicalize(cfg: PolygonConfig) -> PolygonConfig:
    """Rotate and relabel so the first gap is a minimal cyclic gap.

    Among rotations achieving the minimal first gap the lexicographically
    smallest angle tuple wins.  That tie-break matters: it is what guarantees
    the certificate search below always finds its witness index among
    j = 3..n for an irregular polygon.  Exact angles are compared as integer
    residues modulo their common denominator.  A polygon already in canonical
    rotation is returned as it is.
    """
    if cfg.is_exact:
        res, full = cfg.canonical_residues
        if res == cfg.residues[0]:
            return cfg
        canon = PolygonConfig(tuple(Fraction(r, full) for r in res), "exact")
        # its residues are the gcd-reduced canonical ones, and a canonical
        # rotation is its own minimal rotation
        object.__setattr__(canon, "canonical_residues", (res, full))
        return canon
    # (v - start) mod 2*pi can round up to 2*pi itself
    best = tuple(min(a, math.nextafter(TWO_PI, 0)) for a in _min_rotation(cfg.angles, TWO_PI))
    return cfg if best == cfg.angles else PolygonConfig(best, "float")


def cyclic_gaps(cfg: PolygonConfig) -> tuple:
    """Gaps alpha_{i+1} - alpha_i including the wrap gap back to alpha_1."""
    full = Fraction(1) if cfg.is_exact else TWO_PI
    a = cfg.angles
    return tuple(a[i + 1] - a[i] for i in range(len(a) - 1)) + (full - a[-1] + a[0],)


def is_regular(cfg: PolygonConfig) -> bool:
    """All cyclic gaps equal (exactly in exact mode, within _GAP_TOL in float mode).

    Exact polygons compare residues: every gap is L/n iff n divides L and
    r_k - r_0 = k * L/n.
    """
    if cfg.is_exact:
        res, full = cfg.residues
        step, rem = divmod(full, cfg.n)
        return rem == 0 and all(r - res[0] == k * step for k, r in enumerate(res))
    gaps = cyclic_gaps(cfg)
    target = TWO_PI / cfg.n
    return all(abs(float(g) - target) <= _GAP_TOL for g in gaps)


def rho_grid(kappa: float, count: int) -> tuple[float, ...]:
    """Evenly spaced interior grid of the valid rho domain.

    kappa > 0 uses the open interval (0, 1).  The negative branch is
    unbounded below, so the grid covers the representative interval (-2, 0);
    a single point lands on the domain midpoint (0.5 or -1).
    """
    if count < 1:
        raise ValueError("grid needs at least one point")
    span = 1.0 if kappa > 0 else -2.0
    return tuple(span * (k + 1) / (count + 1) for k in range(count))


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
