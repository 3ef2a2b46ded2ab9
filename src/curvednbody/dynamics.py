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
residuals against the drift bound; a pass over the pairs closes the step.
`integrate` and `step` each make one call that runs all their steps
(`_runner`).  Up to `_UNROLL_MAX` bodies that run is Python source
generated once per body count and metric sign (`_kernel_source`, compiled
by `_kernel` when the first step of that count and sign runs): one loop over
the steps around straight-line code on local floats, which keeps the state
in locals between steps and packs each sample straight into the
trajectory's buffers.  Its pair block is one generated `accel` that each
stage calls, and sigma is folded into the text as the sign of each z term.
It performs the loops' floating-point operations in their order, so its
results and errors are theirs, bit for bit.  Its length, build time and the
memory its compilation takes grow as n^2, so above `_UNROLL_MAX` bodies the
loops of `_advance` run the steps, behind the same call.  The public
projections `project_point` and `project_tangent` repeat the step's
projection arithmetic, in its order of operations, on arrays of shape
(..., 3).

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
        raise SingularConfigurationError(_OVERFLOW) from None


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
        d, i, j = _closest(Q, c.kappa, c.sigma)
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


def _advance(m, kappa, sigma, dt, last, final, t_end, project, bound, T, P, W, D):
    """RK4 steps plus projection, as loops over the bodies and pairs.

    The run of `_runner` above `_UNROLL_MAX` bodies, where it replaces the
    generated run of `_kernel`.  After the four stages of a step, one pass
    over the bodies combines them, projects the point and then the velocity,
    and measures both residuals; `_closest` closes the step.  Errors carry
    the time of their step, those of `_accel` too; a projection failure of
    any body comes before a drift abort.
    """
    n3 = 3 * len(m)
    put, put3, stride = struct.Struct(f"{n3}d").pack_into, struct.Struct("3d").pack_into, 8 * n3
    Q, V = _rows(P[:n3]), _rows(W[:n3])
    for sample in range(1, last + 1):
        # every step but the last has size dt, so its time is exact
        time, dt = (sample * dt, dt) if sample < last else (t_end, final)
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
        akappa = abs(kappa)
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
                    raise _unprojectable(i, kappa, k, time)
                k = math.sqrt(k)
                x, y, z = x / k, y / k, z / k
                k = kappa * (x * u + y * v + sigma * (z * w))
                u, v, w = u - k * x, v - k * y, w - k * z
            Qn += x, y, z
            Vn += u, v, w
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
            raise _drifted(*drift, bound, time)
        Q, V = _rows(Qn), _rows(Vn)
        dmin, i, j = _closest(Q, kappa, sigma)
        if not dmin >= SINGULAR_TOL:
            raise _singular(dmin, i, j, time)
        T[sample] = time
        put(P, sample * stride, *Qn)
        put(W, sample * stride, *Vn)
        put3(D, 24 * sample, smax, tmax, dmin)


# Body counts up to this one step through code generated for their count
# (`_kernel`), the rest through the loops of `_advance`.  Time does not set the
# cut-off: the generated step is faster at every count (2.3x at n = 3, 1.3x at
# n = 16, 1.2x at n = 48) and repays its build after 140 to 490 steps, a number
# that grows only slowly with n (Python 3.11 on a 2-core Intel Xeon).  Memory
# does: compiling the source, which grows as n^2, raises the peak RSS of a
# fresh process that integrates a regular polygon, against the loops, by
# 0.37-0.95 MB at n = 8, 0.43-1.14 MB at n = 9, 1.9-3.4 MB at n = 12 (CPython
# 3.10-3.13) and 78 MB at n = 64 (3.11).  That comparison sets the cut-off:
# 8 is the largest count whose build stays under 1 MB on each of them.  It
# is what a run pays beyond the loops it replaces.  Against a fresh process
# that only imports this module, the n = 8 build alone adds more, 0.75 /
# 0.95 / 1.38 / 1.63 MB on 3.10 / 3.11 / 3.12 / 3.13.
_UNROLL_MAX = 8


def _kernel_source(n: int, sigma: float) -> str:
    """Python source of the RK4 run for n bodies and metric sign sigma, on local floats.

    Two functions, separated by two blank lines.  `make_accel(m, kappa)`
    returns `accel(x0, y0, z0, x1, ..., s0, s1, ...)`: `_accel` unrolled,
    taking a stage's coordinates and `_speed_terms` and returning its
    accelerations flat.  `make_run(accel, kappa)` returns the run of
    `_runner`: one loop over the steps, whose body is `_advance`'s step
    unrolled, with the state in local floats between steps.  sigma, +1.0 or
    -1.0, is folded into the text: each signed dot product adds or subtracts
    its z term, and a pair denominator is 1 - w^2 or its negation.  Both are
    the products with sigma, exactly, so each function performs the
    floating-point operations of its loops in their order, and its results
    and errors are theirs, bit for bit.
    """
    bodies = range(n)
    pairs = [(i, j) for i in bodies for j in range(i + 1, n)]
    sign = "+" if sigma > 0.0 else "-"
    # -(1 - w^2) rather than w^2 - 1, which would turn the -0.0 of a pair at
    # the singularity into 0.0 in its error text
    denominator = "1.0 - w * w" if sigma > 0.0 else "-(1.0 - w * w)"

    def each(fmt, **names):
        return ", ".join(fmt.format(i=i, **names) for i in bodies)

    def dot(a, b):
        """The signed dot product of the triples of names a and b."""
        return f"{a[0]} * {b[0]} + {a[1]} * {b[1]} {sign} {a[2]} * {b[2]}"

    def point(i):
        return f"x{i}", f"y{i}", f"z{i}"

    def speed(u, v, w):
        return f"nk * ({dot((u, v, w), (u, v, w))})"

    # accel: body i's sums are ax{i}, ay{i}, az{i} and s{i}; the first term
    # of ax{i} is added to 0.0, as in `_accel`'s lists of zeros
    accel = [
        "def make_accel(m, kappa):",
        f"    {each('m{i}')}, = m",
        "",
        f"    def accel({each('x{i}, y{i}, z{i}')}, {each('s{i}')}):",
        "        try:",
        "            scale = abs(kappa) ** 1.5",
    ]
    started = set()
    for i, j in pairs:
        accel += [
            f"            w = kappa * ({dot(point(i), point(j))})",
            f"            d = {denominator}",
            "            if not d >= SINGULAR_TOL:",
            f"                raise _singular(d, {i}, {j})",
            "            g = scale / d**1.5",
        ]
        for a, b in ((i, j), (j, i)):
            op = "+=" if a in started else "= 0.0 +"
            started.add(a)
            accel.append(f"            p = g * m{b}")
            accel += [f"            a{c}{a} {op} p * {c}{b}" for c in "xyz"]
            accel.append(f"            s{a} -= p * w")
    result = ", ".join(
        f"{f'a{c}{i}' if i in started else '0.0'} + s{i} * {c}{i}" for i in bodies for c in "xyz"
    )
    accel += [
        f"            return {result}",
        "        except OverflowError:",
        "            raise SingularConfigurationError(_OVERFLOW) from None",
        "",
        "    return accel",
    ]

    # run: stage k's accelerations are p{k}_{i}, q{k}_{i}, r{k}_{i}; stage
    # k + 1 takes the speed terms t{i} of V + size * a_k.  The combination
    # overwrites x{i} ... w{i} with the new state
    xs, us = each("x{i}, y{i}, z{i}"), each("u{i}, v{i}, w{i}")
    sizes = "h, hh, dd, cq, cv = 0.5 * dt, 0.25 * dt * dt, 0.5 * dt * dt, dt * dt / 6.0, dt / 6.0"
    rk4 = [
        # the packers are default arguments, built once when the unit runs
        f"def make_run(accel, kappa, put=struct.Struct('{3 * n}d').pack_into, "
        "put3=struct.Struct('3d').pack_into):",
        "    def run(dt, last, final, t_end, project, bound, T, P, W, D):",
        f"        {xs}, = P[:{3 * n}]",
        f"        {us}, = W[:{3 * n}]",
        "        nk, akappa, sqrt, hypot, inf = -kappa, abs(kappa), math.sqrt, math.hypot, math.inf",
        f"        {sizes}",
        "        for sample in range(1, last + 1):",
        "            if sample < last:",
        "                time = sample * dt",
        "            else:",
        "                time, dt = t_end, final",
        f"                {sizes}",
        "            try:",
        f"                {each('p1_{i}, q1_{i}, r1_{i}')}, = accel({xs}, "
        f"{', '.join(speed(f'u{i}', f'v{i}', f'w{i}') for i in bodies)})",
    ]
    rk4 += [f"                hx{i}, hy{i}, hz{i} = x{i} + h * u{i}, y{i} + h * v{i}, z{i} + h * w{i}" for i in bodies]
    stages = (
        (2, "h", each("hx{i}, hy{i}, hz{i}")),
        (3, "h", each("hx{i} + hh * p1_{i}, hy{i} + hh * q1_{i}, hz{i} + hh * r1_{i}")),
        (4, "dt", each("x{i} + dt * u{i} + dd * p2_{i}, y{i} + dt * v{i} + dd * q2_{i}, "
                       "z{i} + dt * w{i} + dd * r2_{i}")),
    )
    for k, size, positions in stages:
        for i in bodies:
            rk4 += [
                f"                e, f, g = u{i} + {size} * p{k - 1}_{i}, v{i} + {size} * q{k - 1}_{i}, "
                f"w{i} + {size} * r{k - 1}_{i}",
                f"                t{i} = {speed('e', 'f', 'g')}",
            ]
        rk4.append(f"                {each('p{k}_{i}, q{k}_{i}, r{k}_{i}', k=k)}, = accel({positions}, {each('t{i}')})")
    rk4 += [
        "            except SingularConfigurationError as exc:",
        "                raise SingularConfigurationError(str(exc), time=time) from None",
        "            smax = tmax = 0.0",
        "            drift = None",
    ]
    for i in bodies:
        x, y, z, u, v, w = (f"{c}{i}" for c in "xyzuvw")
        pos, vel = (x, y, z), (u, v, w)
        positions = ", ".join(
            f"{c}{i} + dt * {d}{i} + cq * ({p}1_{i} + {p}2_{i} + {p}3_{i})" for c, d, p in zip("xyz", "uvw", "pqr")
        )
        velocities = ", ".join(
            f"{d}{i} + cv * ({p}1_{i} + 2.0 * {p}2_{i} + 2.0 * {p}3_{i} + {p}4_{i})" for d, p in zip("uvw", "pqr")
        )
        rk4 += [
            f"            {x}, {y}, {z} = {positions}",
            f"            {u}, {v}, {w} = {velocities}",
            "            if project:",
            f"                k = kappa * ({dot(pos, pos)})",
            "                if k <= 0.0:",
            f"                    raise _unprojectable({i}, kappa, k, time)",
            "                k = sqrt(k)",
            f"                {x}, {y}, {z} = {x} / k, {y} / k, {z} / k",
            f"                k = kappa * ({dot(pos, vel)})",
            f"                {u}, {v}, {w} = {u} - k * {x}, {v} - k * {y}, {w} - k * {z}",
            f"            sr = abs(kappa * ({dot(pos, pos)}) - 1.0)",
            f"            tr = abs({dot(pos, vel)})",
            "            if sr > smax:",
            "                smax = sr",
            "            if tr > tmax:",
            "                tmax = tr",
            "            if drift is None and not (",
            f"                (sr <= bound or sr <= bound * (akappa * ({x} * {x} + {y} * {y} + {z} * {z})) < inf)",
            f"                and (tr <= bound or tr <= bound * (hypot({x}, {y}, {z}) * hypot({u}, {v}, {w})) < inf)",
            "            ):",
            f"                drift = {i}, sr, tr",
        ]
    rk4 += [
        "            if drift is not None:",
        "                raise _drifted(*drift, bound, time)",
        "            dmin = inf",
    ]
    for i, j in pairs:
        rk4 += [
            f"            w = kappa * ({dot(point(i), point(j))})",
            f"            d = {denominator}",
            "            if d < dmin:",
            f"                dmin, bi, bj = d, {i}, {j}",
        ]
    rk4 += [
        "            if not dmin >= SINGULAR_TOL:",
        "                raise _singular(dmin, bi, bj, time)",
        "            T[sample] = time",
        f"            put(P, {24 * n} * sample, {xs})",
        f"            put(W, {24 * n} * sample, {us})",
        "            put3(D, 24 * sample, smax, tmax, dmin)",
        "",
        "    return run",
    ]
    return "\n".join(accel) + "\n\n\n" + "\n".join(rk4) + "\n"


@functools.lru_cache(maxsize=None)
def _kernel(n: int, sigma: float):
    """The factory (masses, kappa) -> run of `_kernel_source(n, sigma)`, compiled once per n and sigma."""
    made = {}
    for unit in _kernel_source(n, sigma).split("\n\n\n"):
        # one code unit per function: the compiler's peak memory grows faster
        # than its unit; with Python 3.11, building the n = 3 and n = 8 steps
        # as one unit each raised a fresh process's peak RSS by 1.5 MB, as
        # two units each by 0.35 MB
        exec(compile(unit, f"<rk4 step n={n}>", "exec"), globals(), made)
    make_accel, make_run = made["make_accel"], made["make_run"]
    return lambda masses, kappa: make_run(make_accel(masses, kappa), kappa)


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
    c = sys.curvature
    if sys.n <= _UNROLL_MAX:
        return _kernel(sys.n, c.sigma)(sys.mass_values, c.kappa)
    return functools.partial(_advance, sys.mass_values, c.kappa, c.sigma)


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
