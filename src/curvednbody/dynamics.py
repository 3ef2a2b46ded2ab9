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

The surface formulas are kernels on plain float rows: `_accel` evaluates
the field for the integrator, `acceleration` and the independent check in
`solve_omega`; `_residuals` and `_closest` measure the constraints of a
state.  The pair kernels `_accel` and `_closest` visit each pair i < j once,
row by row, and each body's sums take their terms in ascending index order.
They form sigma z_i once per row: sigma (z_i z_j) and (sigma z_i) z_j are
the same double.  `_accel` reads the velocities only as the terms
-kappa (v_i . v_i) of `_speed_terms`, and emits body i's acceleration as
soon as row i ends, when its sums hold every term; the last body, which has
no row, is emitted after the loop.  `_closest` also names the pair of its
minimum, so a pair at or past the singularity threshold after a step or in
`BodySystem` raises `_accel`'s error, which names the bodies and the
denominator.  An RK4 step builds each stage's positions
directly and only the speed terms of its velocities, no velocity rows; then
one pass over the bodies combines the stages, projects each point and then
its velocity back onto the surface and tangent bundle, and measures both
residuals against the drift bound; `_closest` closes the step.  Each pass
visits each body or pair once; for the handful of bodies in a polygon that
costs less than numpy's per-call overhead.  The public projections
`project_point` and `project_tangent` repeat the step's projection
arithmetic, in its order of operations, on arrays of shape (..., 3).

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


def _closest(Q, kappa, sigma):
    """Smallest pair denominator sigma * (1 - w^2), w = kappa q_i . q_j, and its bodies i < j.

    (inf, None, None) for one body.
    """
    out = math.inf
    bi = bj = None
    n = len(Q)
    for i in range(n - 1):
        xi, yi, zi = Q[i]
        szi = sigma * zi
        for j in range(i + 1, n):
            xj, yj, zj = Q[j]
            w = kappa * (xi * xj + yi * yj + szi * zj)
            d = sigma * (1.0 - w * w)
            if d < out:
                out, bi, bj = d, i, j
    return out, bi, bj


def _singular(d, i, j, time=None):
    """The error for bodies i and j, whose pair denominator d fails SINGULAR_TOL."""
    return SingularConfigurationError(
        f"pair denominator {d!r} of bodies {i} and {j} below singularity threshold "
        "(collision or antipodal pair)",
        time=time,
    )


def _speed_terms(V, kappa, sigma):
    """-kappa (v . v) of each velocity row: all that `_accel` reads of the velocities."""
    return [-kappa * (u * u + v * v + sigma * (w * w)) for u, v, w in V]


def _stage_speed_terms(V, h, A, kappa, sigma):
    """`_speed_terms` of the stage velocities V + h A, building no rows."""
    return [
        -kappa * (x * x + y * y + sigma * (z * z))
        for (u, v, w), (p, q, r) in zip(V, A)
        for x, y, z in ((u + h * p, v + h * q, w + h * r),)
    ]


def _accel(Q, s, m, kappa, sigma):
    """Acceleration of every body; raises near collisions and antipodes.

    Works on plain floats: Q is a sequence of (x, y, z) rows, s the list of
    `_speed_terms`, which the kernel overwrites, and m the masses.  Each pair
    is visited once and feeds both of its bodies.  This is the one place a
    pair force out of the float range becomes an error.
    """
    try:
        n = len(Q)
        scale = abs(kappa) ** 1.5
        # s_i collects -kappa (v_i . v_i) - sum_j P_ij w_ij, the factor of q_i
        ax = [0.0] * n
        ay = [0.0] * n
        az = [0.0] * n
        A = []
        for i in range(n - 1):
            xi, yi, zi = Q[i]
            mi, szi = m[i], sigma * zi
            # body i's sums stay in locals over its row; each still takes its
            # terms in ascending index order, those of rows before i first
            sx, sy, sz, si = ax[i], ay[i], az[i], s[i]
            for j in range(i + 1, n):
                xj, yj, zj = Q[j]
                w = kappa * (xi * xj + yi * yj + szi * zj)
                d = sigma * (1.0 - w * w)
                # not-ge rather than lt: a stage overshooting past the antipode
                # makes d negative or NaN, and those must abort just like a tiny d
                if not d >= SINGULAR_TOL:
                    raise _singular(d, i, j)
                g = scale / d**1.5
                p = g * m[j]
                sx += p * xj
                sy += p * yj
                sz += p * zj
                si -= p * w
                p = g * mi
                ax[j] += p * xi
                ay[j] += p * yi
                az[j] += p * zi
                s[j] -= p * w
            # every term of body i is in once its row ends
            A.append((sx + si * xi, sy + si * yi, sz + si * zi))
        x, y, z = Q[-1]
        si = s[-1]
        A.append((ax[-1] + si * x, ay[-1] + si * y, az[-1] + si * z))
        return A
    except OverflowError:
        # a huge |kappa|, a far pair on the hyperboloid or a diverging step
        raise SingularConfigurationError(
            "pair force out of the float range: "
            "|kappa|^(3/2) or a pair denominator's 3/2 power overflows"
        ) from None


def _buffer(values) -> memoryview:
    """Read-only buffer of doubles holding the given (x, y, z) rows in turn."""
    return memoryview(array("d", chain.from_iterable(values))).toreadonly()


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
        d, i, j = _closest(Q, c.kappa, c.sigma)
        if not d >= SINGULAR_TOL:
            raise _singular(d, i, j)
        super().__init__(curvature, m, _buffer(Q), _buffer(V))

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
        states = []
        for i, q, v in zip(range(0, len(P), k), self.positions, self.velocities):
            state = BodySystem._trusted(c, m, P[i : i + k], W[i : i + k])
            # its arrays are the trajectory's own and its row views, which
            # cost less to take here than to build from its buffers on access
            state.__dict__.update(masses=masses, positions=q, velocities=v)
            states.append(state)
        return tuple(states)

    @functools.cached_property
    def diagnostics(self) -> tuple[DiagnosticsReport, ...]:
        D = self.diagnostic_buf
        return tuple(DiagnosticsReport(*D[i : i + 3]) for i in range(0, len(D), 3))


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
    """Accelerations of all bodies, rows aligned with the state arrays; `_accel` maps overflow."""
    import numpy as np

    c = sys.curvature
    sigma = c.sigma
    Q, V, m = _floats(sys)
    A = _accel(Q, _speed_terms(V, c.kappa, sigma), m, c.kappa, sigma)
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
    return DiagnosticsReport(max(surf), max(tang), _closest(Q, c.kappa, c.sigma)[0])


def _advance(Q, V, m, c: Curvature, dt: float, cfg: IntegratorConfig, time: float | None = None):
    """One RK4 step plus projection on float rows.

    After the four stages, one pass over the bodies combines them, projects
    the point and then the velocity, and measures both residuals; `_closest`
    closes the step.  Returns the new positions and velocities as (x, y, z)
    tuples and their diagnostics as (surface, tangency, closest pair
    denominator).  Errors carry the given time, those of `_accel` too; a
    projection failure of any body comes before a drift abort.
    """
    kappa, sigma = c.kappa, c.sigma
    h, hh, dd = 0.5 * dt, 0.25 * dt * dt, 0.5 * dt * dt
    try:
        a1 = _accel(Q, _speed_terms(V, kappa, sigma), m, kappa, sigma)
        Qh = [(x + h * u, y + h * v, z + h * w) for (x, y, z), (u, v, w) in zip(Q, V)]
        a2 = _accel(Qh, _stage_speed_terms(V, h, a1, kappa, sigma), m, kappa, sigma)
        a3 = _accel(
            [(x + hh * p, y + hh * q, z + hh * r) for (x, y, z), (p, q, r) in zip(Qh, a1)],
            _stage_speed_terms(V, h, a2, kappa, sigma),
            m, kappa, sigma,
        )
        a4 = _accel(
            [
                (x + dt * u + dd * p, y + dt * v + dd * q, z + dt * w + dd * r)
                for (x, y, z), (u, v, w), (p, q, r) in zip(Q, V, a2)
            ],
            _stage_speed_terms(V, dt, a3, kappa, sigma),
            m, kappa, sigma,
        )
    except SingularConfigurationError as exc:
        raise SingularConfigurationError(str(exc), time=time) from None
    cq, cv = dt * dt / 6.0, dt / 6.0
    project, bound, akappa = cfg.project_each_step, cfg.max_constraint_drift, abs(kappa)
    Qn, Vn = [], []
    smax = tmax = 0.0
    drift = None
    for i, ((x, y, z), (u, v, w), (p1, q1, r1), (p2, q2, r2), (p3, q3, r3), (p4, q4, r4)) in enumerate(
        zip(Q, V, a1, a2, a3, a4)
    ):
        x, y, z = (
            x + dt * u + cq * (p1 + p2 + p3),
            y + dt * v + cq * (q1 + q2 + q3),
            z + dt * w + cq * (r1 + r2 + r3),
        )
        u, v, w = (
            u + cv * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
            v + cv * (q1 + 2.0 * q2 + 2.0 * q3 + q4),
            w + cv * (r1 + 2.0 * r2 + 2.0 * r3 + r4),
        )
        if project:
            k = kappa * (x * x + y * y + sigma * (z * z))
            if k <= 0.0:
                raise NonProjectableError(
                    f"point of body {i} not projectable onto surface with kappa={kappa}: kappa*(p.p)={k!r}",
                    time=time,
                )
            k = math.sqrt(k)
            x, y, z = x / k, y / k, z / k
            k = kappa * (x * u + y * v + sigma * (z * w))
            u, v, w = u - k * x, v - k * y, w - k * z
        Qn.append((x, y, z))
        Vn.append((u, v, w))
        sr = abs(kappa * (x * x + y * y + sigma * (z * z)) - 1.0)
        tr = abs(x * u + y * v + sigma * (z * w))
        if sr > smax:
            smax = sr
        if tr > tmax:
            tmax = tr
        # not-le so that a NaN residual aborts too; as in BodySystem, a bound the
        # residual exceeds is scaled by the size of the terms the residual
        # cancels, and a scaled bound must be finite
        within = sr <= bound or sr <= bound * (akappa * (x * x + y * y + z * z)) < math.inf
        tangent = tr <= bound or tr <= bound * (math.hypot(x, y, z) * math.hypot(u, v, w)) < math.inf
        if not (within and tangent) and drift is None:
            drift = i, sr, tr
    if drift is not None:
        i, sr, tr = drift
        raise ConstraintDriftError(
            f"constraint residuals of body {i} (surface {sr!r}, tangency {tr!r}) "
            f"exceed drift bound {bound}",
            time=time,
        )
    dmin, i, j = _closest(Qn, kappa, sigma)
    if not dmin >= SINGULAR_TOL:
        raise _singular(dmin, i, j, time)
    return Qn, Vn, (smax, tmax, dmin)


def step(sys: BodySystem, cfg: IntegratorConfig) -> BodySystem:
    """Advance one RK4 step of size cfg.dt; dt = 0 returns the state unchanged."""
    if cfg.dt == 0.0:
        return sys
    Q, V, _ = _advance(*_floats(sys), sys.curvature, cfg.dt, cfg)
    # unchecked: the drift guard has bounded the residuals BodySystem checks
    return BodySystem._trusted(sys.curvature, sys.mass_values, _buffer(Q), _buffer(V))


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
    c = sys.curvature
    try:
        # allocated in full up front, so a trajectory too large for memory
        # fails before the first step
        T, P, W, D = (array("d", [0.0]) * (k * (last + 1)) for k in (1, 3 * n, 3 * n, 3))
    except MemoryError:
        raise ValueError(f"t_end / dt = {count:g} steps are too many to store") from None
    # one sample's coordinates, packed at its byte offset
    put, stride = struct.Struct(f"{3 * n}d").pack_into, 24 * n
    Q, V, m = _floats(sys)
    put(P, 0, *sys.position_buf)
    put(W, 0, *sys.velocity_buf)
    d = diagnostics(sys)
    D[0], D[1], D[2] = d.max_surface_residual, d.max_tangency_residual, d.min_pair_denominator
    for k in range(1, last + 1):
        # every non-final step has size dt, so its time is exact
        t, h = (cfg.t_end, final) if k == last else (k * cfg.dt, cfg.dt)
        Q, V, (D[3 * k], D[3 * k + 1], D[3 * k + 2]) = _advance(Q, V, m, c, h, cfg, time=t)
        T[k] = t
        put(P, k * stride, *chain.from_iterable(Q))
        put(W, k * stride, *chain.from_iterable(V))
    bufs = (memoryview(b).toreadonly() for b in (T, P, W, D))
    return Trajectory(c, sys.mass_values, *bufs)


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
    field then checks independently; `_accel` raises for an overflowing pair.
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
    A = _accel(Q, _speed_terms(V, c.kappa, c.sigma), m, c.kappa, c.sigma)
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
