"""Balance criterion for polygonal homographic motion on a curved surface.

A polygon of n >= 3 bodies sits on a circle of radius r at angles
alpha_1 < ... < alpha_n.  With rho = kappa * r^2, define for each ordered pair

    c_ji = 1 - cos(alpha_j - alpha_i)            in (0, 2]
    s_ji = sin(alpha_j - alpha_i)
    mu_ji = 1 / (c_ji^(1/2) * (2 - c_ji rho)^(3/2))
    nu_ji = s_ji / (c_ji^(3/2) * (2 - c_ji rho)^(3/2))

The motion criterion asks that delta_i = sum_j m_j mu_ji agree across i and
that gamma_i = sum_j m_j nu_ji agree across i (they then vanish by
antisymmetry).  Angles carry one of two representations: exact rational
fractions of a turn, used by the certification machinery, or float radians,
used for simulation interop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CoincidentAngleError, KernelDomainError

__all__ = [
    "PolygonConfig",
    "MassVector",
    "Rho",
    "CriterionReport",
    "chord_c",
    "chord_s",
    "mu",
    "nu",
    "delta_gamma",
    "criterion_check",
    "canonicalize",
    "is_regular",
    "cyclic_gaps",
    "turn_class",
    "validate_rho_for_kappa",
    "rho_grid",
    "random_irregular_polygon",
    "random_scalene_triangle",
]

TWO_PI = 2.0 * math.pi


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
            vals = tuple(Fraction(a) for a in self.angles)
            for a in vals:
                if not (0 <= a < 1):
                    raise ValueError(f"turn angle {a} outside [0, 1)")
        else:
            vals = tuple(float(a) for a in self.angles)
            for a in vals:
                if not math.isfinite(a) or not (0.0 <= a < TWO_PI):
                    raise ValueError(f"radian angle {a!r} outside [0, 2*pi)")
        for lo, hi in zip(vals, vals[1:]):
            if not lo < hi:
                raise ValueError(f"angles must be strictly increasing, got {lo} >= {hi}")
        object.__setattr__(self, "angles", vals)

    @classmethod
    def from_turns(cls, turns) -> "PolygonConfig":
        return cls(tuple(Fraction(t) for t in turns), "exact")

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

    def as_array(self) -> np.ndarray:
        return np.array(self.masses, dtype=float)


@dataclass(frozen=True)
class Rho:
    """Scaled squared radius rho = kappa * r^2.

    Every valid rho is nonzero and below 1: the positive branch (sphere)
    lives in (0, 1), the equator rho = 1 excluded; the negative branch
    (hyperboloid) is unbounded below.  Which branch applies depends on the
    curvature sign; see validate_rho_for_kappa.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v) or v == 0.0 or v >= 1.0:
            raise ValueError(f"rho must be finite, nonzero and < 1, got {v!r}")
        object.__setattr__(self, "value", v)

    @classmethod
    def from_kappa_radius(cls, kappa: float, r: float) -> "Rho":
        return cls(float(kappa) * float(r) ** 2)


def validate_rho_for_kappa(rho: "Rho | float", kappa: float) -> float:
    """Check the sign of rho against the curvature branch; return the value."""
    v = rho.value if isinstance(rho, Rho) else float(rho)
    if kappa > 0 and not (0.0 < v < 1.0):
        raise ValueError(f"kappa > 0 requires 0 < rho < 1, got {v!r}")
    if kappa < 0 and not (v < 0.0):
        raise ValueError(f"kappa < 0 requires rho < 0, got {v!r}")
    return v


def _rho_value(rho) -> float:
    return rho.value if isinstance(rho, Rho) else float(rho)


def chord_c(alpha_j: float, alpha_i: float) -> float:
    """c = 1 - cos(alpha_j - alpha_i); zero only at coincident angles."""
    c = 1.0 - math.cos(alpha_j - alpha_i)
    if c == 0.0:
        raise CoincidentAngleError(
            f"angles {alpha_j!r} and {alpha_i!r} coincide modulo a full turn"
        )
    return c


def chord_s(alpha_j: float, alpha_i: float) -> float:
    """s = sin(alpha_j - alpha_i)."""
    return math.sin(alpha_j - alpha_i)


def _check_kernel_domain(c: float, rho: float) -> float:
    if not (0.0 < c <= 2.0):
        raise KernelDomainError(f"chord value c={c!r} outside (0, 2]")
    base = 2.0 - c * rho
    if base <= 0.0:
        raise KernelDomainError(f"nonpositive kernel base 2 - c*rho = {base!r}")
    return base


def mu(c: float, rho) -> float:
    """Attraction kernel 1 / (c^(1/2) (2 - c rho)^(3/2))."""
    r = _rho_value(rho)
    base = _check_kernel_domain(c, r)
    return 1.0 / (math.sqrt(c) * base**1.5)


def nu(c: float, s: float, rho) -> float:
    """Tangential kernel s / (c^(3/2) (2 - c rho)^(3/2)) = (s/c) * mu."""
    r = _rho_value(rho)
    base = _check_kernel_domain(c, r)
    return s / (c**1.5 * base**1.5)


def _pair_tables(cfg: PolygonConfig, rho: np.ndarray):
    """Pairwise c and s tables (rho-free), the base 2 - c*rho per rho, and the mask."""
    a = np.array(cfg.radians, dtype=float)
    d = a[:, None] - a[None, :]  # d[j, i] = alpha_j - alpha_i
    c = 1.0 - np.cos(d)
    s = np.sin(d)
    off = ~np.eye(cfg.n, dtype=bool)
    if np.any(c[off] == 0.0):
        raise CoincidentAngleError("two polygon angles coincide modulo a full turn")
    base = 2.0 - c * rho[..., None, None]
    if np.min(base[..., off]) <= 0.0:
        raise KernelDomainError("nonpositive kernel base for some pair")
    return c, s, base, off


def delta_gamma(cfg: PolygonConfig, masses, rho) -> tuple[np.ndarray, np.ndarray]:
    """Per-body sums delta_i = sum_j m_j mu_ji and gamma_i = sum_j m_j nu_ji.

    A scalar rho gives two (n,) arrays; a 1-D array of rho gives two
    (len(rho), n) arrays whose rows equal the scalar results.
    """
    m = masses.as_array() if isinstance(masses, MassVector) else np.asarray(masses, dtype=float)
    if m.shape != (cfg.n,):
        raise ValueError(f"expected {cfg.n} masses, got shape {m.shape}")
    r = np.asarray(rho.value if isinstance(rho, Rho) else rho, dtype=float)
    if r.ndim > 1:
        raise ValueError(f"rho must be a scalar or a 1-D array, got shape {r.shape}")
    c, s, base, off = _pair_tables(cfg, r)
    cs = np.where(off, c, 1.0)  # diagonal placeholder, masked out below
    bs = np.where(off, base, 1.0)
    mu_t = np.where(off, 1.0 / (np.sqrt(cs) * bs**1.5), 0.0)
    nu_t = np.where(off, s / (cs**1.5 * bs**1.5), 0.0)
    deltas = m @ mu_t  # delta_i = sum_j m_j mu[j, i]
    gammas = m @ nu_t
    return deltas, gammas


def _spreads(deltas: np.ndarray, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest |delta_i - delta_1| and |gamma_i - gamma_1| over the last axis."""
    return (
        np.max(np.abs(deltas - deltas[..., :1]), axis=-1),
        np.max(np.abs(gammas - gammas[..., :1]), axis=-1),
    )


@dataclass(frozen=True)
class CriterionReport:
    """delta/gamma values with their spreads against body 1."""

    deltas: tuple[float, ...]
    gammas: tuple[float, ...]
    max_delta_spread: float
    max_gamma_spread: float
    threshold: float
    satisfied: bool


def criterion_check(cfg: PolygonConfig, masses, rho, tol: float = 1e-10) -> CriterionReport:
    """Evaluate the balance criterion with spread tolerance tol * (1 + |delta_1|)."""
    deltas, gammas = delta_gamma(cfg, masses, rho)
    d_spread, g_spread = (float(x) for x in _spreads(deltas, gammas))
    threshold = tol * (1.0 + abs(float(deltas[0])))
    return CriterionReport(
        deltas=tuple(float(x) for x in deltas),
        gammas=tuple(float(x) for x in gammas),
        max_delta_spread=d_spread,
        max_gamma_spread=g_spread,
        threshold=threshold,
        satisfied=d_spread <= threshold and g_spread <= threshold,
    )


def _turn_residues(cfg: PolygonConfig) -> tuple[tuple[int, ...], int]:
    """Exact turns as integer residues r_k = alpha_k * L modulo L.

    L is the lcm of the angle denominators, so sums, differences and
    comparisons of turns become exact integer arithmetic.
    """
    turns = cfg.turns
    full = math.lcm(*(a.denominator for a in turns))
    return tuple(a.numerator * (full // a.denominator) for a in turns), full


def canonicalize(cfg: PolygonConfig) -> PolygonConfig:
    """Rotate and relabel so the first gap is a minimal cyclic gap.

    Among rotations achieving the minimal first gap the lexicographically
    smallest angle tuple wins.  That tie-break matters: it is what guarantees
    the certificate search below always finds its witness index among
    j = 3..n for an irregular polygon.  Exact angles are compared as integer
    residues modulo their common denominator.
    """
    if cfg.is_exact:
        values, full = _turn_residues(cfg)
    else:
        values, full = cfg.angles, TWO_PI
    candidates = [tuple(sorted((v - start) % full for v in values)) for start in values]
    min_first_gap = min(t[1] for t in candidates)
    best = min(t for t in candidates if t[1] == min_first_gap)
    if cfg.is_exact:
        best = tuple(Fraction(r, full) for r in best)
    return PolygonConfig(best, cfg.representation)


def cyclic_gaps(cfg: PolygonConfig) -> tuple:
    """Gaps alpha_{i+1} - alpha_i including the wrap gap back to alpha_1."""
    full = Fraction(1) if cfg.is_exact else TWO_PI
    a = cfg.angles
    return tuple(a[i + 1] - a[i] for i in range(len(a) - 1)) + (full - a[-1] + a[0],)


def is_regular(cfg: PolygonConfig, tol: float = 1e-9) -> bool:
    """All cyclic gaps equal (exactly in exact mode, within tol in float mode)."""
    gaps = cyclic_gaps(cfg)
    if cfg.is_exact:
        target = Fraction(1, cfg.n)
        return all(g == target for g in gaps)
    target = TWO_PI / cfg.n
    return all(abs(float(g) - target) <= tol for g in gaps)


def turn_class(delta: Fraction) -> Fraction:
    """Canonical representative of +/-delta mod 1; determines c exactly.

    Two turn separations share a chord value c = 1 - cos(2*pi*delta) exactly
    when their classes agree, so grouping by this key needs no tolerance.
    """
    d = delta % 1
    return min(d, 1 - d)


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
    """Random exact irregular polygon with turn denominators <= max_denominator."""
    if n < 3 or max_denominator < n:
        raise ValueError("need n >= 3 and max_denominator >= n")
    while True:
        q = rng.randint(n, max_denominator)
        numerators = sorted(rng.sample(range(q), n))
        cfg = PolygonConfig.from_turns(Fraction(p, q) for p in numerators)
        if not is_regular(cfg):
            return cfg


def random_scalene_triangle(rng: random.Random, max_denominator: int = 360) -> PolygonConfig:
    """Random exact triangle with three pairwise distinct cyclic gaps."""
    while True:
        cfg = random_irregular_polygon(rng, 3, max_denominator)
        g = cyclic_gaps(cfg)
        if g[0] != g[1] and g[1] != g[2] and g[0] != g[2]:
            return cfg
