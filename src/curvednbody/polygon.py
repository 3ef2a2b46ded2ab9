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
base neither overflows nor underflows to zero, and the criterion pass
evaluates mu and nu.

Angles carry one of two representations: exact fractions of a turn, held as
integer residues and used by the certification machinery, or float radians,
used for simulation.  Everything here is plain Python (integers and
floats), as are the certificate, the criterion kernels built on it and the
integrator in `dynamics`; numpy loads only when a library caller asks
`dynamics` for an array.  `fractions` loads only where a Fraction is built:
for an angle that is not split as text, for `PolygonConfig.turns`, for
`cyclic_gaps` of an exact polygon and for the texts of some errors.
"""

from __future__ import annotations

import functools
import math
from operator import attrgetter

from .errors import CoincidentAngleError, KernelDomainError

__all__ = [
    "Curvature",
    "PolygonConfig",
    "chord_c",
    "canonicalize",
    "is_regular",
    "cyclic_gaps",
    "validate_rho_for_kappa",
    "rho_grid",
]

TWO_PI = 2.0 * math.pi
# Float polygons count as regular when every gap is within this of 2*pi/n.
_GAP_TOL = 1e-9


class _Record:
    """Base of the package's frozen value types.

    A subclass names its fields in order in `_fields`, the defaults of
    trailing ones in `_defaults`, and those its repr leaves out in `_hidden`.
    The constructor takes the fields by position or keyword and hands them
    to `_store`, the one place that stores fields: it keeps them in the
    instance `__dict__`, where `functools.cached_property` also keeps its
    values.  A subclass that checks or converts its fields does so in its
    own `__init__`, then calls the base one; `_trusted`, and code that
    builds many records of field values known to be valid, call `_store`
    on a bare instance, unchecked.
    No attribute can be set or deleted afterwards.  Two records are equal,
    and hash alike, when they are of the same class and their fields are equal.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            values = {**self._defaults, **kwargs}
            if len(args) > len(fields) or not kwargs.keys() <= set(rest) <= values.keys():
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args += tuple(values[f] for f in rest)
        self._store(args)

    def _store(self, values):
        """Keep the field values, in order, in the instance `__dict__`; returns the instance."""
        d = self.__dict__  # item by item: cheaper than update(zip(...)) at a few fields
        for f, a in zip(self._fields, values):
            d[f] = a
        return self

    @classmethod
    def _trusted(cls, *values):
        """An instance holding the given field values in order, unchecked."""
        return object.__new__(cls)._store(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        cls = type(self)
        if type(other) is not cls:
            return NotImplemented
        return cls._key(self) == cls._key(other)

    def __hash__(self):
        return hash(type(self)._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields if f not in self._hidden)
        return f"{type(self).__qualname__}({shown})"


class Curvature(_Record):
    """Nonzero curvature of the surface; carries the metric sign with it.

    The surface is kappa * (x^2 + y^2 + sigma*z^2) = 1: for kappa > 0 the
    sphere of radius 1/sqrt(kappa) with sigma = +1, for kappa < 0 the upper
    sheet of a hyperboloid with sigma = -1.  sigma is the float 1.0 or
    -1.0, so every product with it is an exact float product.
    """

    _fields = ("kappa",)

    def __init__(self, kappa: float):
        if not isinstance(kappa, (int, float)) or not math.isfinite(kappa) or kappa == 0.0:
            raise ValueError(f"curvature must be a finite nonzero real, got {kappa!r}")
        super().__init__(float(kappa))

    @property
    def sigma(self) -> float:
        """Metric sign of the z-axis: +1 for kappa > 0, -1 for kappa < 0."""
        return 1.0 if self.kappa > 0 else -1.0


class PolygonConfig(_Record):
    """Ordered angles of an inscribed polygon, exact (turns) or float (radians).

    Exact angles are rationals in [0, 1) interpreted as fractions of a full
    turn; float angles are radians in [0, 2*pi).  Both must be strictly
    increasing with n >= 3.  Each exact angle is read once as a numerator
    and a denominator (see `_turn_pair`): a str of decimal digits, or of
    digits, "/" and a nonzero denominator in digits, is split and read with
    `int`, and no Fraction is built; any other form goes through `Fraction`,
    which is imported for it and names what it cannot read.  An exact
    polygon stores only its integer turn residues (see `residues`) and
    builds its Fraction angles when `turns` is first read.
    """

    # representation: "exact" | "float"; _value: the residues of an exact
    # polygon, the radians of a float one
    _fields = ("representation", "_value")

    def __init__(self, angles, representation: str):
        if representation not in ("exact", "float"):
            raise ValueError(f"unknown representation {representation!r}")
        if len(angles) < 3:
            raise ValueError(f"polygon needs at least 3 angles, got {len(angles)}")
        exact = representation == "exact"
        if exact:
            pairs = [_turn_pair(a) for a in angles]
            for p, q in pairs:
                if not 0 <= p < q:
                    raise ValueError(f"turn angle {_turn_strings((p,), q)[0]} outside [0, 1)")
            full = math.lcm(*[q for _, q in pairs])
            order = tuple(p * (full // q) for p, q in pairs)
            # unreduced pairs scale the residues and their modulus alike
            g = math.gcd(full, *order)
            value = (order, full) if g == 1 else (tuple(r // g for r in order), full // g)
        else:
            order = value = tuple(float(a) for a in angles)
            for a in order:
                if not math.isfinite(a) or not (0.0 <= a < TWO_PI):
                    raise ValueError(f"radian angle {a!r} outside [0, 2*pi)")
        for k in range(len(order) - 1):
            if not order[k] < order[k + 1]:
                a, b = _turn_strings(order[k:k + 2], full) if exact else order[k:k + 2]
                raise ValueError(f"angles must be strictly increasing, got {a} >= {b}")
        super().__init__(representation, value)

    def __repr__(self):
        return f"PolygonConfig(angles={self.angles!r}, representation={self.representation!r})"

    @classmethod
    def from_turns(cls, turns) -> "PolygonConfig":
        return cls(tuple(turns), "exact")

    @classmethod
    def from_radians(cls, radians) -> "PolygonConfig":
        return cls(tuple(float(a) for a in radians), "float")

    @property
    def angles(self) -> tuple:
        return self.turns if self.is_exact else self._value

    @property
    def n(self) -> int:
        return len(self._value[0] if self.is_exact else self._value)

    @property
    def is_exact(self) -> bool:
        return self.representation == "exact"

    @functools.cached_property
    def turns(self) -> tuple[Fraction, ...]:
        if not self.is_exact:
            raise ValueError("float-mode polygon has no exact turn angles")
        from fractions import Fraction

        res, full = self._value
        return tuple(Fraction(r, full) for r in res)

    @property
    def radians(self) -> tuple[float, ...]:
        if not self.is_exact:
            return self._value
        # r / full rounds the same rational as float(Fraction(r, full)), once
        res, full = self._value
        return tuple(TWO_PI * (r / full) for r in res)

    @property
    def residues(self) -> tuple[tuple[int, ...], int]:
        """Exact turns as integer residues r_k = alpha_k * L modulo L.

        L is the lcm of the angle denominators, so turn arithmetic becomes
        exact integer arithmetic, and no factor of L divides every residue.
        They are the stored form of an exact polygon.
        """
        if not self.is_exact:
            raise ValueError("this operation needs exact rational turn angles")
        return self._value

    @functools.cached_property
    def canonical_residues(self) -> tuple[tuple[int, ...], int]:
        """Residues of the canonical polygon, gcd-reduced: equal for every rotation."""
        res, full = self.residues
        best = _min_rotation(res, full)
        g = math.gcd(full, *best)
        return tuple(r // g for r in best), full // g


def _turn_pair(a) -> tuple[int, int]:
    """An exact turn angle as the (numerator, denominator) that Fraction(a) parses, unreduced.

    Text that PolygonConfig splits is read with int; every other form, and
    a part with more digits than int reads, goes through Fraction.
    """
    if type(a) is str:
        p, slash, q = a.partition("/")
        if p.isdecimal() and (q.isdecimal() or not slash):
            try:
                p, q = int(p), int(q) if slash else 1
            except ValueError:  # beyond sys.get_int_max_str_digits()
                pass
            else:
                if q:
                    return p, q
    from fractions import Fraction

    f = a if type(a) is Fraction else Fraction(a)
    return f.numerator, f.denominator


def _turn_strings(res, full: int) -> list[str]:
    """str(Fraction(r, full)) of each integer r in res, for full > 0, without building a Fraction."""
    gcds = [math.gcd(r, full) for r in res]
    return [str(r // g) if g == full else f"{r // g}/{full // g}" for r, g in zip(res, gcds)]


def _mass_floats(values) -> tuple[float, ...]:
    """Masses of any sign as a nonempty tuple of floats; text, whose characters iterate, is none."""
    if not isinstance(values, (str, bytes, bytearray)):
        try:
            vals = tuple(float(m) for m in (values.tolist() if hasattr(values, "tolist") else values))
        except TypeError:  # not iterable, or an entry that is no number
            vals = ()
        if vals:
            return vals
    raise ValueError("masses must be a nonempty vector of numbers")


def _masses(values) -> tuple[float, ...]:
    """Body masses as a nonempty tuple of floats, each in (0, inf): the one check of masses."""
    vals = _mass_floats(values)
    for m in vals:
        if not 0.0 < m < math.inf:
            raise ValueError(f"masses must be finite and positive, got {m!r}")
    return vals


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
    """The checked kernel base 2 - c*rho and its p-th power, which must be a nonzero float."""
    base = _check_kernel_domain(c, rho)
    try:
        power = base**p
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        from fractions import Fraction

        way = "underflows" if power == 0.0 else "overflows"
        raise KernelDomainError(f"kernel base 2 - c*rho = {base!r} {way} its {Fraction(p)} power")
    return base, power


def _min_rotation(values, full):
    """The rotation of values modulo full that canonicalize describes."""
    # only a start whose following gap is minimal can win; rotating a sorted
    # cycle keeps it sorted, and rounding a float difference keeps its order
    n = len(values)
    gaps = [(values[(k + 1) % n] - values[k]) % full for k in range(n)]
    first = min(gaps)
    return min(
        tuple((v - values[k]) % full for v in values[k:] + values[:k])
        for k in range(n)
        if gaps[k] == first
    )


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
        if res != cfg.residues[0]:
            # gcd-reduced canonical residues are valid, and their own canonical ones
            cfg = PolygonConfig._trusted("exact", (res, full))
            cfg.__dict__["canonical_residues"] = cfg._value
        return cfg
    # (v - start) mod 2*pi can round up to 2*pi itself
    best = tuple(min(a, math.nextafter(TWO_PI, 0)) for a in _min_rotation(cfg.angles, TWO_PI))
    return cfg if best == cfg.angles else PolygonConfig(best, "float")


def cyclic_gaps(cfg: PolygonConfig) -> tuple:
    """Gaps alpha_{i+1} - alpha_i including the wrap gap back to alpha_1."""
    if cfg.is_exact:
        from fractions import Fraction

        res, full = cfg.residues
        return tuple(Fraction(g, full) for g in _gap_residues(res, full))
    a = cfg.angles
    return tuple(a[i + 1] - a[i] for i in range(len(a) - 1)) + (TWO_PI - a[-1] + a[0],)


def _gap_residues(res, full: int) -> list[int]:
    """The cyclic gaps of the residues res modulo full, as residues."""
    return [(b - a) % full for a, b in zip(res, res[1:] + res[:1])]


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
