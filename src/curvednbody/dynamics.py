"""Equations of motion and integration on the curved surfaces.

Bodies obey the ambient second-order system

    a_i = sum_{j != i} m_j |kappa|^(3/2) [q_j - (kappa q_i . q_j) q_i]
                       / [sigma - sigma (kappa q_i . q_j)^2]^(3/2)
          - kappa (v_i . v_i) q_i

with the signed dot product of the surface metric.  The pair part is tangent
at q_i and the trailing term is the geodesic curvature term, so on the surface
q_i . a_i + v_i . v_i = 0 holds identically.  Integration is classical RK4
with an optional per-step projection back onto the surface and tangent
bundle, plus a drift guard.

At rest on the circle of radius r, with rho = kappa r^2, the field at body i
has radial part -(1 - rho) delta_i / r^2 and tangential part gamma_i / r^2,
with delta and gamma from `criterion.delta_gamma`: all delta_i equal and all
gamma_i zero is the rigid-rotation condition.  `solve_omega` takes the rate
of a regular equal-mass polygon from it in closed form,
omega^2 = delta_1 / r^3.

The step is Python source that one emitter writes (`_Templates`): each of
its operations is a statement template, written once, and the emitter
writes it out in two forms, with sigma folded into the text as the sign of
each z term.  The unrolled form (`_kernel_source`, built by `_kernel` once
per body count up to `_UNROLL_MAX` and sign) is straight-line code on local
floats; the loop form (`_loop_source`, built by `_loops` once per sign)
runs the same templates inside loops over the rows.  The loop form steps
larger systems and serves the one-shot callers: `acceleration` and
`solve_omega` take its field (`_field`), `BodySystem` and `diagnostics` its
closest pair.  Its pair loops visit each pair i < j once, row by row, keep
body i's sums in locals over its row and emit body i when its row ends, so
each body's sums take their terms in ascending index order; the unrolled
form does the same operations in the same order, so the two agree bit for
bit, errors included.  The field reads the velocities only as the speed
terms -kappa (v_i . v_i).  A step builds each stage's positions and speed
terms, then one pass over the bodies combines the stages, projects each
point and then its velocity back onto the surface and tangent bundle, and
measures both residuals against the drift bound; a pass over the pairs
closes the step, and a pair past the singularity threshold there or in
`BodySystem` raises the field's error, which names the bodies.
`integrate` and `step` each make one call that runs all their steps
(`_runner`).  The public projections `project_point` and `project_tangent`
repeat the step's projection arithmetic, in its order of operations, on
arrays of shape (..., 3).

States and trajectories keep their numbers in flat buffers of doubles
(stdlib `array('d')` behind read-only memoryviews), coordinates as x, y, z
of each body in turn.  Their array attributes are read-only numpy views of
those buffers, built on first access, as are a trajectory's `states`, whose
arrays are row views of its own.  numpy is imported only then, or when
`acceleration` or a projection is called; `simulate` does neither.
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from itertools import chain
from sys import maxsize

from . import _LAZY_NAMES
from .criterion import delta_gamma
from .errors import (
    ConstraintDriftError,
    InternalConsistencyError,
    NoBalanceError,
    NonProjectableError,
    SingularConfigurationError,
)
from .polygon import Curvature, PolygonConfig, _masses, _Record, is_regular

__all__ = _LAZY_NAMES["dynamics"]

SINGULAR_TOL = 1e-12
STATE_TOL = 1e-10


def _residuals(Q, V, kappa, sigma):
    """Per-body surface residuals |kappa q.q - 1| and tangency residuals |q.v|."""
    surf = [abs(kappa * (x * x + y * y + sigma * (z * z)) - 1.0) for x, y, z in Q]
    tang = [abs(x * u + y * v + sigma * (z * w)) for (x, y, z), (u, v, w) in zip(Q, V)]
    return surf, tang


def _singular(d, i, j, time=None):
    """The error for bodies i and j, whose pair denominator d fails SINGULAR_TOL."""
    return SingularConfigurationError(
        f"pair denominator {d!r} of bodies {i} and {j} below singularity threshold "
        "(collision or antipodal pair)",
        time=time,
    )


_OVERFLOW = (
    "pair force out of the float range: "
    "|kappa|^(3/2) or a pair denominator's 3/2 power overflows"
)


def _unprojectable(i, kappa, k, time):
    """The error for body i, whose point kappa * (p.p) = k no positive rescale projects."""
    return NonProjectableError(
        f"point of body {i} not projectable onto surface with kappa={kappa}: kappa*(p.p)={k!r}",
        time=time,
    )


def _drifted(i, sr, tr, bound, time):
    """The error for body i, whose residuals after a step exceed the drift bound."""
    return ConstraintDriftError(
        f"constraint residuals of body {i} (surface {sr!r}, tangency {tr!r}) "
        f"exceed drift bound {bound}",
        time=time,
    )


def _buffer(values) -> memoryview:
    """Read-only buffer of the given doubles."""
    return memoryview(array("d", values)).toreadonly()


def _rows(buf) -> list:
    """The (x, y, z) rows of a flat buffer of coordinates."""
    it = iter(buf)
    return list(zip(it, it, it))


def _frozen(buf, *shape):
    """Numpy array of the given shape over a read-only buffer of doubles, not a copy."""
    import numpy as np

    return np.frombuffer(buf, dtype=float).reshape(shape)


def _float_rows(values, n: int):
    """n (x, y, z) rows of floats from an array-like; None for any other shape."""
    rows = values.tolist() if hasattr(values, "tolist") else values
    try:
        if len(rows) == n and all(len(row) == 3 for row in rows):
            return [(float(x), float(y), float(z)) for x, y, z in rows]
    except TypeError:  # no length, or an entry that is no number
        pass
    return None


def _floats(sys: "BodySystem"):
    """Positions and velocities as lists of (x, y, z) rows, and the masses."""
    return _rows(sys.position_buf), _rows(sys.velocity_buf), sys.mass_values


class BodySystem(_Record):
    """Validated state: bodies on the surface with tangent velocities.

    The masses are kept as a tuple of floats and the coordinates as flat
    read-only buffers; `masses`, `positions` and `velocities` are read-only
    arrays over them, built on first access.  States compare by identity.
    """

    _fields = ("curvature", "mass_values", "position_buf", "velocity_buf")
    _hidden = _fields[1:]
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, curvature: Curvature, masses, positions, velocities):
        m = _masses(masses)
        n = len(m)
        Q, V = _float_rows(positions, n), _float_rows(velocities, n)
        if Q is None or V is None:
            raise ValueError(f"positions/velocities must have shape ({n}, 3)")
        if not all(math.isfinite(x) for row in Q + V for x in row):
            raise ValueError("state contains non-finite entries")
        c = curvature
        surf, tang = _residuals(Q, V, c.kappa, c.sigma)
        # kappa q.q - 1 and q.v cancel terms of size |kappa| |q|^2 and |q| |v|
        # (Euclidean norms), which grow as r^2 and r out along the hyperboloid;
        # not-le, as in the step's drift guard, so that a NaN residual fails too,
        # and the allowance must be finite: at an overflowed scale inf <= 1e-10 * inf
        for res, (x, y, z) in zip(surf, Q):
            scale = abs(c.kappa) * (x * x + y * y + z * z)
            if not res <= STATE_TOL * scale < math.inf:
                raise ValueError(f"surface residual {res!r} exceeds {STATE_TOL} of scale {scale!r}")
        for res, q, v in zip(tang, Q, V):
            scale = max(1.0, math.hypot(*q) * math.hypot(*v))
            if not res <= STATE_TOL * scale < math.inf:
                raise ValueError(f"tangency residual {res!r} exceeds {STATE_TOL} of scale {scale!r}")
        d, i, j = _loops(c.sigma).closest(Q, c.kappa)
        if not d >= SINGULAR_TOL:
            raise _singular(d, i, j)
        super().__init__(curvature, m, *(_buffer(chain.from_iterable(rows)) for rows in (Q, V)))

    @property
    def n(self) -> int:
        return len(self.mass_values)

    @functools.cached_property
    def masses(self):
        return _frozen(memoryview(array("d", self.mass_values)).toreadonly(), self.n)

    @functools.cached_property
    def positions(self):
        return _frozen(self.position_buf, self.n, 3)

    @functools.cached_property
    def velocities(self):
        return _frozen(self.velocity_buf, self.n, 3)


class IntegratorConfig(_Record):
    """Fixed-step RK4 settings with projection and drift guard."""

    _fields = ("dt", "t_end", "project_each_step", "max_constraint_drift")
    _defaults = {"project_each_step": True, "max_constraint_drift": 1e-6}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not (math.isfinite(self.dt) and self.dt >= 0.0):
            raise ValueError(f"dt must be finite and >= 0, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if self.t_end > 0.0 and self.dt == 0.0:
            raise ValueError("dt must be positive to reach a positive t_end")
        if self.t_end > 0.0 and self.dt > self.t_end:
            raise ValueError(f"dt {self.dt!r} exceeds t_end {self.t_end!r}")
        if not self.max_constraint_drift > 0.0:
            raise ValueError("max_constraint_drift must be positive")


class DiagnosticsReport(_Record):
    """Constraint residuals and the closest pair denominator of a state."""

    _fields = ("max_surface_residual", "max_tangency_residual", "min_pair_denominator")


class Trajectory(_Record):
    """Every sample of an integration, the initial one included.

    The samples sit in flat read-only buffers of doubles, one sample after
    another: `time_buf` one time each, `position_buf` and `velocity_buf`
    x, y, z of each body in turn, `diagnostic_buf` the fields of
    DiagnosticsReport in order.  `times`, `positions`, `velocities` and
    `diagnostic_rows` are read-only numpy views of them with one row per
    sample, and `states` and `diagnostics` present the samples as objects,
    each state's arrays being rows of `positions` and `velocities`; each
    attribute is built on first access and then kept.  Trajectories compare
    by identity.
    """

    _fields = ("curvature", "mass_values", "time_buf", "position_buf", "velocity_buf", "diagnostic_buf")
    _hidden = _fields[1:]
    __eq__, __hash__ = object.__eq__, object.__hash__

    @functools.cached_property
    def masses(self):
        return _frozen(memoryview(array("d", self.mass_values)).toreadonly(), len(self.mass_values))

    @functools.cached_property
    def times(self):
        return _frozen(self.time_buf, len(self.time_buf))

    @functools.cached_property
    def positions(self):
        return _frozen(self.position_buf, len(self.time_buf), len(self.mass_values), 3)

    @functools.cached_property
    def velocities(self):
        return _frozen(self.velocity_buf, len(self.time_buf), len(self.mass_values), 3)

    @functools.cached_property
    def diagnostic_rows(self):
        return _frozen(self.diagnostic_buf, len(self.time_buf), 3)

    @functools.cached_property
    def states(self) -> tuple[BodySystem, ...]:
        c, m, k = self.curvature, self.mass_values, 3 * len(self.mass_values)
        P, W, masses = self.position_buf, self.velocity_buf, self.masses
        new, store = object.__new__, BodySystem._store
        states = []
        for i, q, v in zip(range(0, len(P), k), self.positions, self.velocities):
            state = store(new(BodySystem), (c, m, P[i : i + k], W[i : i + k]))
            # its arrays are the trajectory's own and its row views, which
            # cost less to take here than to build from its buffers on access
            d = state.__dict__
            d["masses"], d["positions"], d["velocities"] = masses, q, v
            states.append(state)
        return tuple(states)

    @functools.cached_property
    def diagnostics(self) -> tuple[DiagnosticsReport, ...]:
        new, store, rows = object.__new__, DiagnosticsReport._store, iter(self.diagnostic_buf)
        return tuple([store(new(DiagnosticsReport), row) for row in zip(rows, rows, rows)])


def _vectors(a, name: str):
    """a as a float array of shape (..., 3); ValueError naming its shape otherwise."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"{name} must have shape (..., 3), got {a.shape}")
    return a


def project_point(p, c: Curvature):
    """Radially rescale p, one point or rows of shape (..., 3), onto the surface.

    Raises NonProjectableError when kappa * (p . p) <= 0, which signals a
    diverged trajectory rather than roundoff: no positive rescale can reach
    the surface from such a point.
    """
    import numpy as np

    p = _vectors(p, "p")
    kappa, sigma = c.kappa, c.sigma
    out = []
    for x, y, z in p.reshape(-1, 3).tolist():
        k = kappa * (x * x + y * y + sigma * (z * z))
        if k <= 0.0:
            raise NonProjectableError(
                f"point not projectable onto surface with kappa={kappa}: kappa*(p.p)={k!r}"
            )
        k = math.sqrt(k)
        out.append((x / k, y / k, z / k))
    return np.array(out).reshape(p.shape)


def project_tangent(p, v, c: Curvature):
    """Remove from v its component along the surface normal at p.

    p and v, each of shape (..., 3), broadcast against each other.  For p on
    the surface the result w satisfies p . w = 0 (signed product), and
    projecting twice changes nothing.
    """
    p, v = _vectors(p, "p"), _vectors(v, "v")
    pv = p * v
    k = c.kappa * (pv[..., 0] + pv[..., 1] + c.sigma * pv[..., 2])
    return v - k[..., None] * p


def acceleration(sys: BodySystem):
    """Accelerations of all bodies, rows aligned with the state arrays, from the loop form's field (`_field`)."""
    import numpy as np

    c = sys.curvature
    sigma = c.sigma
    Q, V, m = _floats(sys)
    A = _field(Q, V, m, c)
    # On-surface compatibility q . a = -(v . v); BodySystem guarantees the
    # surface residual that makes this identity hold.
    worst = max(
        abs((x * p + y * q + sigma * (z * r)) + (u * u + v * v + sigma * (w * w)))
        for (x, y, z), (u, v, w), (p, q, r) in zip(Q, V, A)
    )
    if worst > 1e-9 * (1.0 + max(abs(e) for row in A for e in row)):
        raise InternalConsistencyError(f"constraint compatibility violated: max residual {worst!r}")
    return np.array(A)


def diagnostics(sys: BodySystem) -> DiagnosticsReport:
    """Residuals and closest pair denominator of the given state."""
    c = sys.curvature
    Q, V, _ = _floats(sys)
    surf, tang = _residuals(Q, V, c.kappa, c.sigma)
    return DiagnosticsReport(max(surf), max(tang), _loops(c.sigma).closest(Q, c.kappa)[0])


# Body counts up to this one step through the unrolled form (`_kernel`), the
# rest through the loop form (`_loops`).  Time does not set the cut-off: the
# unrolled step is faster at every count (2.3x at n = 3, 1.3x at n = 16, 1.2x
# at n = 48) and repays its build after 140 to 490 steps, a number that grows
# only slowly with n (Python 3.11 on a 2-core Intel Xeon).  Memory does:
# compiling the source, which grows as n^2, raises the peak RSS of a fresh
# process that integrates a regular polygon, against the loops, by 0.37-0.95
# MB at n = 8, 0.43-1.14 MB at n = 9, 1.9-3.4 MB at n = 12 (CPython
# 3.10-3.13) and 78 MB at n = 64 (3.11).  That comparison sets the cut-off:
# 8 is the largest count whose build stays under 1 MB on each of them.  It
# is what a run pays beyond the loops it replaces.  Against a fresh process
# that only imports this module, the n = 8 build alone adds more, 0.75 /
# 0.95 / 1.38 / 1.63 MB on 3.10 / 3.11 / 3.12 / 3.13.
_UNROLL_MAX = 8

# The names of each body's values, as a row of a list in the loop form: its
# point, velocity, half-step point and the accelerations of stages 1 to 4
_ROWS = {
    "Q": "x{i}, y{i}, z{i}", "V": "u{i}, v{i}, w{i}", "H": "hx{i}, hy{i}, hz{i}",
    **{f"A{s}": f"p{s}_{{i}}, q{s}_{{i}}, r{s}_{{i}}" for s in range(1, 5)},
}
# the half-step point, where stage 2 takes the field
_HALF = "x{i} + h * u{i}, y{i} + h * v{i}, z{i} + h * w{i}"
# stages 2 to 4: the size by which the velocity steps from the stage before,
# the points where the stage takes the field (a row name, or an expression of
# the rows the last field names)
_STAGES = (
    (2, "h", "H", ""),
    (3, "h", "hx{i} + hh * p1_{i}, hy{i} + hh * q1_{i}, hz{i} + hh * r1_{i}", "H A1"),
    (4, "dt", "x{i} + dt * u{i} + dd * p2_{i}, y{i} + dt * v{i} + dd * q2_{i}, z{i} + dt * w{i} + dd * r2_{i}",
     "Q V A2"),
)
_SIZES = "h, hh, dd, cq, cv = 0.5 * dt, 0.25 * dt * dt, 0.5 * dt * dt, dt * dt / 6.0, dt / 6.0"


def _names(row: str, i) -> tuple:
    return tuple(_ROWS[row].format(i=i).split(", "))


def _indent(lines, depth: int) -> list:
    return ["    " * depth + line for line in lines]


class _Templates:
    """Each operation of the RK4 step, once, as Python source for metric sign sigma.

    A template names a body by a token i, which the unrolled form sets to
    the body's index and the loop form to its loop variable: its values are
    named as in `_ROWS`, its sums ax{i}, ay{i}, az{i} and s{i} and its mass
    m{i}.  A pair's bodies are (index, sums) tokens, the sums token being
    "[j]" for the loop form's body j, whose sums and mass are list items.
    sigma, +1.0 or -1.0, is folded into the text: each signed dot product
    adds or subtracts its z term, and a pair denominator is 1 - w^2 or its
    negation.  Both are the products with sigma, exactly.
    """

    def __init__(self, sigma: float):
        self.sign = "+" if sigma > 0.0 else "-"
        # -(1 - w^2) rather than w^2 - 1, which would turn the -0.0 of a pair at
        # the singularity into 0.0 in its error text
        self.denominator = "1.0 - w * w" if sigma > 0.0 else "-(1.0 - w * w)"

    def dot(self, a, b) -> str:
        """The signed dot product of the triples of names a and b."""
        return f"{a[0]} * {b[0]} + {a[1]} * {b[1]} {self.sign} {a[2]} * {b[2]}"

    def speed(self, u, v, w) -> str:
        """The speed term -kappa (v . v) of the velocity u, v, w; nk is -kappa."""
        return f"nk * ({self.dot((u, v, w), (u, v, w))})"

    def stage(self, i, size, s) -> tuple:
        """Body i's velocity stepped by size times its stage-s acceleration, as e, f, g, and its speed term."""
        velocity = ", ".join(f"{d} + {size} * {p}" for d, p in zip(_names("V", i), _names(f"A{s}", i)))
        return velocity, self.speed("e", "f", "g")

    def pair(self, i, j) -> list:
        """w = kappa q_i . q_j and the pair denominator d of bodies i and j."""
        return [f"w = kappa * ({self.dot(_names('Q', i), _names('Q', j))})", f"d = {self.denominator}"]

    def force(self, i, j, ops) -> list:
        """The singular test of the pair of (index, sums) tokens i and j, then its terms in both bodies' sums.

        s{i} collects -kappa (v_i . v_i) - sum_j P_ij w_ij, the factor of
        q_i.  Body i's sums take the pair's terms first; ops gives, for i and
        j, the operator of a position sum's term, "+=" or "= 0.0 +" for a
        sum's first term.
        """
        lines = self.pair(i[0], j[0]) + [
            # not-ge rather than lt: a stage overshooting past the antipode
            # makes d negative or NaN, and those must abort just like a tiny d
            "if not d >= SINGULAR_TOL:",
            f"    raise _singular(d, {i[0]}, {j[0]})",
            "g = scale / d**1.5",
        ]
        for (_, a), (b, sb), op in ((i, j, ops[0]), (j, i, ops[1])):
            lines.append(f"p = g * m{sb}")
            lines += [f"a{c}{a} {op} p * {c}{b}" for c in "xyz"]
            lines.append(f"s{a} -= p * w")
        return lines

    @staticmethod
    def emit(i, started=True) -> str:
        """Body i's acceleration, from its sums once they hold every term (0.0 for a sum with none)."""
        return ", ".join(f"{f'a{c}{i}' if started else '0.0'} + s{i} * {c}{i}" for c in "xyz")

    def update(self, i) -> list:
        """Body i's RK4 combination, projection and residuals, and its drift test."""
        x, y, z, u, v, w = pos_vel = _names("Q", i) + _names("V", i)
        pos, vel = pos_vel[:3], pos_vel[3:]
        a1, a2, a3, a4 = (_names(f"A{s}", i) for s in range(1, 5))
        positions = ", ".join(f"{c} + dt * {d} + cq * ({p} + {q} + {r})" for c, d, p, q, r in zip(pos, vel, a1, a2, a3))
        velocities = ", ".join(
            f"{d} + cv * ({p} + 2.0 * {q} + 2.0 * {r} + {s})" for d, p, q, r, s in zip(vel, a1, a2, a3, a4)
        )
        return [
            f"{x}, {y}, {z} = {positions}",
            f"{u}, {v}, {w} = {velocities}",
            "if project:",
            f"    k = kappa * ({self.dot(pos, pos)})",
            "    if k <= 0.0:",
            f"        raise _unprojectable({i}, kappa, k, time)",
            "    k = sqrt(k)",
            f"    {x}, {y}, {z} = {x} / k, {y} / k, {z} / k",
            f"    k = kappa * ({self.dot(pos, vel)})",
            f"    {u}, {v}, {w} = {u} - k * {x}, {v} - k * {y}, {w} - k * {z}",
            f"sr = abs(kappa * ({self.dot(pos, pos)}) - 1.0)",
            f"tr = abs({self.dot(pos, vel)})",
            "if sr > smax:",
            "    smax = sr",
            "if tr > tmax:",
            "    tmax = tr",
            # not-le so that a NaN residual aborts too; as in BodySystem, a bound the
            # residual exceeds is scaled by the size of the terms the residual
            # cancels, and a scaled bound must be finite
            "if drift is None and not (",
            f"    (sr <= bound or sr <= bound * (akappa * ({x} * {x} + {y} * {y} + {z} * {z})) < inf)",
            f"    and (tr <= bound or tr <= bound * (hypot({x}, {y}, {z}) * hypot({u}, {v}, {w})) < inf)",
            "):",
            f"    drift = {i}, sr, tr",
        ]

    def closer(self, i, j) -> list:
        """The closing pass's pair i, j against the smallest denominator dmin so far."""
        return self.pair(i, j) + ["if d < dmin:", f"    dmin, bi, bj = d, {i}, {j}"]

    @staticmethod
    def kernel(start, params, pairs, result) -> list:
        """`make_accel` around one form's pair lines: the one place a pair force out of the float range is an error."""
        return [
            "def make_accel(m, kappa):",
            start,
            "",
            f"    def accel({params}):",
            "        try:",
            "            scale = abs(kappa) ** 1.5",
            *pairs,
            f"            return {result}",
            # a huge |kappa|, a far pair on the hyperboloid or a diverging step
            "        except OverflowError:",
            "            raise SingularConfigurationError(_OVERFLOW) from None",
            "",
            "    return accel",
        ]

    @staticmethod
    def run(make, start, stages, update, close, store) -> list:
        """The run of `_runner` around one form's lines for each part of the step.

        Errors carry the time of their step; a projection failure of any body comes before a drift abort.
        """
        return [
            *make,
            "    def run(dt, last, final, t_end, project, bound, T, P, W, D):",
            *start,
            "        nk, akappa, sqrt, hypot, inf = -kappa, abs(kappa), math.sqrt, math.hypot, math.inf",
            f"        {_SIZES}",
            "        for sample in range(1, last + 1):",
            # every step but the last has size dt, so its time is exact
            "            if sample < last:",
            "                time = sample * dt",
            "            else:",
            "                time, dt = t_end, final",
            f"                {_SIZES}",
            "            try:",
            *stages,
            "            except SingularConfigurationError as exc:",
            "                raise SingularConfigurationError(str(exc), time=time) from None",
            "            smax = tmax = 0.0",
            "            drift = None",
            *update,
            "            if drift is not None:",
            "                raise _drifted(*drift, bound, time)",
            "            dmin = inf",
            *close,
            "            if not dmin >= SINGULAR_TOL:",
            "                raise _singular(dmin, bi, bj, time)",
            "            T[sample] = time",
            *store,
            "            put3(D, 24 * sample, smax, tmax, dmin)",
            "",
            "    return run",
        ]


def _kernel_source(n: int, sigma: float) -> str:
    """The unrolled form: Python source of the RK4 run for n bodies and metric sign sigma, on local floats.

    Two functions, separated by two blank lines.  `make_accel(m, kappa)`
    returns `accel(x0, y0, z0, x1, ..., s0, s1, ...)`, which takes a stage's
    coordinates and speed terms and returns its accelerations flat.
    `make_run(accel, kappa)` returns the run of `_runner`: one loop over the
    steps around straight-line code, with the state in locals between steps.
    Each template is written out once per body or pair.
    """
    t = _Templates(sigma)
    bodies = range(n)
    pairs = [(i, j) for i in bodies for j in range(i + 1, n)]

    def each(fmt):
        return ", ".join(fmt.format(i=i) for i in bodies)

    # body i's sums are ax{i}, ay{i}, az{i} and s{i}; the first term of ax{i}
    # is added to 0.0, as in the loop form's lists of zeros
    blocks, started = [], set()
    for i, j in pairs:
        ops = ["+=" if a in started else "= 0.0 +" for a in (i, j)]
        started.update((i, j))
        blocks += _indent(t.force((i, i), (j, j), ops), 3)
    accel = t.kernel(
        f"    {each('m{i}')}, = m",
        f"{each(_ROWS['Q'])}, {each('s{i}')}",
        blocks,
        ", ".join(t.emit(i, i in started) for i in bodies),
    )

    # stage k's accelerations are p{k}_{i}, q{k}_{i}, r{k}_{i}; stage k + 1
    # takes the speed terms t{i} of V + size * a_k.  The combination
    # overwrites x{i} ... w{i} with the new state
    xs, us = each(_ROWS["Q"]), each(_ROWS["V"])
    stages = [
        f"                {each(_ROWS['A1'])}, = accel({xs}, {', '.join(t.speed(*_names('V', i)) for i in bodies)})",
        *(f"                {_ROWS['H'].format(i=i)} = {_HALF.format(i=i)}" for i in bodies),
    ]
    for k, size, positions, _ in _STAGES:
        for i in bodies:
            velocity, speed = t.stage(i, size, k - 1)
            stages += [f"                e, f, g = {velocity}", f"                t{i} = {speed}"]
        where = each(_ROWS.get(positions, positions))
        stages.append(f"                {each(_ROWS[f'A{k}'])}, = accel({where}, {each('t{i}')})")
    rk4 = t.run(
        # the packers are default arguments, built once when the unit runs
        [f"def make_run(accel, kappa, put=struct.Struct('{3 * n}d').pack_into, put3=struct.Struct('3d').pack_into):"],
        [f"        {xs}, = P[:{3 * n}]", f"        {us}, = W[:{3 * n}]"],
        stages,
        [line for i in bodies for line in _indent(t.update(i), 3)],
        [line for i, j in pairs for line in _indent(t.closer(i, j), 3)],
        [f"            put(P, {24 * n} * sample, {xs})", f"            put(W, {24 * n} * sample, {us})"],
    )
    return "\n".join(accel) + "\n\n\n" + "\n".join(rk4) + "\n"


def _loop_source(sigma: float) -> str:
    """The loop form: Python source of the RK4 run for any body count and metric sign sigma.

    Four functions, separated by two blank lines: `make_accel(m, kappa)`
    returns `accel(Q, s)`, which maps a stage's (x, y, z) rows and speed
    terms to its acceleration rows; `speed_terms(V, kappa)`; `closest(Q,
    kappa)`, the smallest pair denominator with its bodies i < j ((inf,
    None, None) for one body); `make_run(accel, kappa, n)`, the run of
    `_runner` for n bodies.  Each template runs once inside loops over the
    rows; body i's sums stay in locals over its row, the later bodies' in lists.
    """
    t = _Templates(sigma)

    def over(lists):
        """The loop targets and the iterable of body i's rows of the named lists."""
        lists = lists.split()
        if len(lists) == 1:
            return _ROWS[lists[0]].format(i="i"), lists[0]
        return ", ".join(f"({_ROWS[a].format(i='i')})" for a in lists), f"zip({', '.join(lists)})"

    def rows(expr, lists, then=""):
        """The list of expr, a template, for each body, over the rows of the named lists."""
        targets, iterable = over(lists)
        return f"[{expr.format(i='i')} for {targets} in {iterable}{then}]"

    def pairs(row, pair, end=()):
        """Lines that run pair for each pair i < j, row by row, with row and end before and after a row's pairs.

        The last row has no pairs; it runs only when end has lines, as in
        `accel`, which emits the last body there.
        """
        return [
            f"for i in range({'n' if end else 'n - 1'}):",
            "    xi, yi, zi = Q[i]",
            *_indent(row, 1),
            "    for j in range(i + 1, n):",
            "        xj, yj, zj = Q[j]",
            *_indent(pair, 2),
            *_indent(end, 1),
        ]

    speeds = rows(t.speed(*_names("V", "i")), "V")
    accel = t.kernel("    n = len(m)", "Q, s", [
        "            ax, ay, az, A = [0.0] * n, [0.0] * n, [0.0] * n, []",
        *_indent(pairs(
            ["mi, axi, ayi, azi, si = m[i], ax[i], ay[i], az[i], s[i]"],
            t.force(("i", "i"), ("j", "[j]"), ("+=", "+=")),
            [f"A.append(({t.emit('i')}))"],
        ), 3),
    ], "A")
    speed_terms = ["def speed_terms(V, kappa):", "    nk = -kappa", f"    return {speeds}"]
    closest = [
        "def closest(Q, kappa):",
        "    n, dmin, bi, bj = len(Q), math.inf, None, None",
        *_indent(pairs([], t.closer("i", "j")), 1),
        "    return dmin, bi, bj",
    ]
    stages = [f"                A1 = accel(Q, {speeds})", f"                H = {rows(f'({_HALF})', 'Q V')}"]
    for k, size, positions, lists in _STAGES:
        where = positions if positions in _ROWS else rows(f"({positions})", lists)
        velocity, speed = t.stage("i", size, k - 1)
        terms = rows(speed, f"V A{k - 1}", f" for e, f, g in (({velocity}),)")
        stages.append(f"                A{k} = accel({where}, {terms})")
    update = [
        "            Qn, Vn = [], []",
        "            for i, ({}) in enumerate({}):".format(*over("Q V A1 A2 A3 A4")),
        *_indent(t.update("i"), 4),
        "                Qn += xi, yi, zi",
        "                Vn += ui, vi, wi",
        "            Q, V = _rows(Qn), _rows(Vn)",
    ]
    rk4 = t.run(
        [
            "def make_run(accel, kappa, n, put3=struct.Struct('3d').pack_into):",
            "    put, stride = struct.Struct(f'{3 * n}d').pack_into, 24 * n",
            "",
        ],
        ["        Q, V = _rows(P[:3 * n]), _rows(W[:3 * n])"],
        stages,
        update,
        _indent(pairs([], t.closer("i", "j")), 3),
        ["            put(P, stride * sample, *Qn)", "            put(W, stride * sample, *Vn)"],
    )
    return "\n\n\n".join("\n".join(unit) for unit in (accel, speed_terms, closest, rk4)) + "\n"


class _compiled:
    """The functions that source defines, each compiled as a code unit of its own when first read.

    One code unit per function: the compiler's peak memory grows faster
    than its unit; with Python 3.11, building the n = 3 and n = 8 steps as
    one unit each raised a fresh process's peak RSS by 1.5 MB, as two units
    each by 0.35 MB.  A function no caller reads is never compiled: a run
    of up to `_UNROLL_MAX` bodies reads the loop form's field and closest
    pair, never its `make_run`.
    """

    def __init__(self, source: str, filename: str):
        # each unit is "def name(...", separated by two blank lines
        self._units = {unit[4:unit.index("(")]: unit for unit in source.split("\n\n\n")}
        self._filename = filename

    def __getattr__(self, name):
        try:
            unit = self._units[name]
        except KeyError:
            raise AttributeError(name) from None
        made = {}
        exec(compile(unit, self._filename, "exec"), globals(), made)
        self.__dict__[name] = made[name]  # later reads find it without __getattr__
        return made[name]


@functools.lru_cache(maxsize=None)
def _kernel(n: int, sigma: float) -> _compiled:
    """`make_accel` and `make_run` of `_kernel_source(n, sigma)`, compiled once per n and sigma."""
    return _compiled(_kernel_source(n, sigma), f"<rk4 step n={n}>")


@functools.lru_cache(maxsize=None)
def _loops(sigma: float) -> _compiled:
    """The functions of `_loop_source(sigma)`, each compiled once per sign when first read."""
    return _compiled(_loop_source(sigma), f"<rk4 loops sigma={sigma}>")


def _field(Q, V, m, c: Curvature) -> list:
    """The acceleration rows of bodies at rows Q with velocity rows V: the loop form's kernel."""
    loops = _loops(c.sigma)
    return loops.make_accel(m, c.kappa)(Q, loops.speed_terms(V, c.kappa))


def _runner(sys: BodySystem):
    """The RK4 run for sys's bodies, masses and curvature.

    Called as run(dt, last, final, t_end, project, bound, T, P, W, D), it
    steps from sample 0 of the position and velocity buffers P and W: steps
    k = 1 to last - 1 have size dt and time k * dt, step `last` has size
    `final` and time `t_end`.  Step k writes its time to T[k], its
    coordinates to sample k of P and W, and its largest surface and
    tangency residuals and closest pair denominator to row k of D; an error
    carries the time of its step.
    """
    c, m = sys.curvature, sys.mass_values
    if sys.n <= _UNROLL_MAX:
        k = _kernel(sys.n, c.sigma)
        return k.make_run(k.make_accel(m, c.kappa), c.kappa)
    k = _loops(c.sigma)
    return k.make_run(k.make_accel(m, c.kappa), c.kappa, sys.n)


def step(sys: BodySystem, cfg: IntegratorConfig) -> BodySystem:
    """Advance one RK4 step of size cfg.dt; dt = 0 returns the state unchanged."""
    if cfg.dt == 0.0:
        return sys
    n3 = 3 * sys.n
    P, W = (array("d", buf.tobytes()) * 2 for buf in (sys.position_buf, sys.velocity_buf))
    # a run of one step at the time None, which its errors carry and a list stores
    T, D = [0.0, None], array("d", [0.0]) * 6
    _runner(sys)(cfg.dt, 1, cfg.dt, None, cfg.project_each_step, cfg.max_constraint_drift, T, P, W, D)
    # unchecked: the drift guard has bounded the residuals BodySystem checks
    Q, V = (memoryview(b[n3:]).toreadonly() for b in (P, W))
    return BodySystem._trusted(sys.curvature, sys.mass_values, Q, V)


def integrate(sys: BodySystem, cfg: IntegratorConfig) -> Trajectory:
    """Step from 0 to exactly t_end, sampling every state.

    Full steps of size dt, plus one shorter final step when t_end is not a
    step multiple.  The trajectory holds the initial sample and one per
    step.  A step count whose samples could not be stored raises ValueError
    before any step.  Errors abort with the failing time attached.
    """
    last, final, count = 0, cfg.dt, 0.0
    n = sys.n
    if cfg.t_end > 0.0:
        count = cfg.t_end / cfg.dt  # inf when dt is tiny enough
        # times, positions, velocities and diagnostics: 6n + 4 doubles a sample
        if (count + 2) * 8 * (6 * n + 4) > maxsize:
            raise ValueError(f"t_end / dt = {count:g} steps are too many to store")
        nfull = int(math.floor(count + 1e-9))
        remainder = cfg.t_end - nfull * cfg.dt
        last = nfull
        if remainder > 1e-9 * cfg.dt:
            last, final = nfull + 1, remainder
    try:
        # allocated in full up front, so a trajectory too large for memory
        # fails before the first step
        T, D = array("d", [0.0]) * (last + 1), array("d", [0.0]) * (3 * (last + 1))
        # every sample starts as the initial state, from which the run steps
        P, W = (array("d", buf.tobytes()) * (last + 1) for buf in (sys.position_buf, sys.velocity_buf))
    except MemoryError:
        raise ValueError(f"t_end / dt = {count:g} steps are too many to store") from None
    d = diagnostics(sys)
    D[0], D[1], D[2] = d.max_surface_residual, d.max_tangency_residual, d.min_pair_denominator
    if last:
        _runner(sys)(cfg.dt, last, final, cfg.t_end, cfg.project_each_step, cfg.max_constraint_drift, T, P, W, D)
    bufs = (memoryview(b).toreadonly() for b in (T, P, W, D))
    return Trajectory(sys.curvature, sys.mass_values, *bufs)


class RelativeEquilibrium(_Record):
    """Polygon rotating rigidly at height z with angular rate omega_dot."""

    _fields = ("polygon", "r", "omega_dot", "z")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"radius must be positive, got {self.r!r}")
        if not math.isfinite(self.omega_dot):
            raise ValueError("omega_dot must be finite")
        if not (math.isfinite(self.z) and self.z >= 0.0):
            raise ValueError(f"height must be finite and >= 0, got {self.z!r}")

    @classmethod
    def from_radius(cls, polygon: PolygonConfig, r: float, omega_dot: float, c: Curvature):
        """Compute the height from r, taking the nonnegative root."""
        zsq = c.sigma / c.kappa - c.sigma * r * r
        if zsq < 0.0:
            raise ValueError(f"radius {r!r} out of range for kappa {c.kappa!r}")
        return cls(polygon, float(r), float(omega_dot), math.sqrt(zsq))


def build_polygon_state(
    req: RelativeEquilibrium, masses, c: Curvature, omega0: float = 0.0
) -> BodySystem:
    """Place the polygon on its circle with rigid-rotation velocities."""
    zsq = c.sigma / c.kappa - c.sigma * req.r * req.r
    if zsq < -1e-12 or abs(req.z * req.z - max(zsq, 0.0)) > 1e-10 * (1.0 + req.z * req.z):
        raise ValueError(
            f"height {req.z!r} inconsistent with radius {req.r!r} at kappa {c.kappa!r}"
        )
    theta = [a + omega0 for a in req.polygon.radians]
    r, w, z = req.r, req.omega_dot, req.z
    Q = [(r * math.cos(t), r * math.sin(t), z) for t in theta]
    V = [(-r * w * math.sin(t), r * w * math.cos(t), 0.0) for t in theta]
    return BodySystem(c, masses, Q, V)


def solve_omega(polygon: PolygonConfig, masses, r: float, c: Curvature) -> float:
    """Angular rate making the polygon a rigidly rotating solution.

    Only regular polygons with equal masses balance this way; anything else
    raises NoBalanceError, as does a radius on or beyond the equator for
    kappa > 0, where every rate balances; a radius that is not positive and
    finite, or whose rate is not a positive finite float, raises ValueError.
    At rest the field at body 1 is -(1 - rho) delta_1 / r^2 along the radius;
    the rate adds -kappa (v . v) q_1 with v . v = (r omega)^2, whose radial
    part is -rho r omega^2.  Balancing the sum against the kinematic
    -r omega^2 leaves omega^2 = delta_1 / r^3, which the full acceleration
    field of the loop form (`_field`) then checks independently; that field
    raises for an overflowing pair.
    """
    m = _masses(masses)
    if not is_regular(polygon):
        raise NoBalanceError("radial balance requires a regular polygon")
    if max(abs(x - m[0]) for x in m) > 1e-12 * m[0]:
        raise NoBalanceError("radial balance requires equal masses")
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be positive, got {r!r}")
    rho = c.kappa * r * r
    if c.kappa > 0.0 and rho >= 1.0 - 1e-12:
        # On the equator the radial equation degenerates: every rate balances.
        raise NoBalanceError(f"no unique rotation rate at rho {rho!r} (equator or beyond)")
    deltas, _ = delta_gamma(polygon, m, rho)
    try:
        omega = math.sqrt(deltas[0] / r**3)
    except (OverflowError, ZeroDivisionError):  # r^3 out of float range
        omega = math.nan
    if not 0.0 < omega < math.inf:
        raise ValueError(f"radius {r!r} puts the rate sqrt(delta_1 / r^3) outside the float range")
    req = RelativeEquilibrium.from_radius(polygon, r, omega, c)
    Q, V, m = _floats(build_polygon_state(req, m, c))
    A = _field(Q, V, m, c)
    # uniform rotation about the z axis accelerates each body by -omega^2 (x, y, 0)
    w2 = omega * omega
    kin = [(-w2 * x, -w2 * y, 0.0) for x, y, _ in Q]
    scale = max(1.0, max(abs(e) for row in kin for e in row))
    if max(abs(a - k) for ra, rk in zip(A, kin) for a, k in zip(ra, rk)) > 1e-9 * scale:
        raise NoBalanceError(
            "closed-form rate does not satisfy the full force balance; "
            "no rigid rotation at this radius"
        )
    return omega
