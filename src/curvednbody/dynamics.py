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

Each surface formula is written once, as a kernel on plain float rows:
`_accel` evaluates the field for the integrator, `acceleration` and the
independent check in `solve_omega`; `_residuals`, `_closest` and the two
projections measure and restore the constraints.  They visit each body or
pair once; for the handful of bodies in a polygon that costs less than
numpy's per-call overhead.  The public projections `project_point` and
`project_tangent` are array views of the integrator's projection kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .criterion import delta_gamma
from .errors import (
    ConstraintDriftError,
    InternalConsistencyError,
    NoBalanceError,
    NonProjectableError,
    SingularConfigurationError,
)
from .polygon import Curvature, MassVector, PolygonConfig, is_regular

__all__ = [
    "BodySystem",
    "IntegratorConfig",
    "RelativeEquilibrium",
    "DiagnosticsReport",
    "Trajectory",
    "project_point",
    "project_tangent",
    "acceleration",
    "step",
    "integrate",
    "build_polygon_state",
    "solve_omega",
    "diagnostics",
]

SINGULAR_TOL = 1e-12
STATE_TOL = 1e-10


def _residuals(Q, V, kappa, sigma):
    """Per-body surface residuals |kappa q.q - 1| and tangency residuals |q.v|."""
    surf = [abs(kappa * (x * x + y * y + sigma * (z * z)) - 1.0) for x, y, z in Q]
    tang = [abs(x * u + y * v + sigma * (z * w)) for (x, y, z), (u, v, w) in zip(Q, V)]
    return surf, tang


def _closest(Q, kappa, sigma):
    """Smallest pair denominator sigma * (1 - w^2), w = kappa q_i . q_j; inf for one body."""
    out = math.inf
    n = len(Q)
    for i in range(n - 1):
        xi, yi, zi = Q[i]
        for j in range(i + 1, n):
            xj, yj, zj = Q[j]
            w = kappa * (xi * xj + yi * yj + sigma * (zi * zj))
            d = sigma * (1.0 - w * w)
            if d < out:
                out = d
    return out


def _project_points(Q, kappa, sigma):
    """Rows rescaled radially onto the surface (see project_point)."""
    out = []
    for x, y, z in Q:
        k = kappa * (x * x + y * y + sigma * (z * z))
        if k <= 0.0:
            raise NonProjectableError(
                f"point not projectable onto surface with kappa={kappa}: kappa*(p.p)={k!r}"
            )
        k = math.sqrt(k)
        out.append((x / k, y / k, z / k))
    return out


def _project_tangents(Q, V, kappa, sigma):
    """Rows of V less their normal component at the rows of Q (see project_tangent)."""
    out = []
    for (x, y, z), (u, v, w) in zip(Q, V):
        k = kappa * (x * u + y * v + sigma * (z * w))
        out.append((u - k * x, v - k * y, w - k * z))
    return out


def _accel(Q, V, m, kappa, sigma):
    """Acceleration of every body; raises near collisions and antipodes.

    Works on plain floats: Q and V are sequences of (x, y, z) rows, m the
    masses.  Each pair is visited once and feeds both of its bodies.
    """
    n = len(Q)
    scale = abs(kappa) ** 1.5
    # s_i collects -kappa (v_i . v_i) - sum_j P_ij w_ij, the factor of q_i
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
            # not-ge rather than lt: a stage overshooting past the antipode
            # makes d negative or NaN, and those must abort just like a tiny d
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


def _floats(sys: "BodySystem"):
    """Positions and velocities as lists of (x, y, z) rows, and the masses."""
    return sys.positions.tolist(), sys.velocities.tolist(), sys.masses.tolist()


@dataclass(frozen=True)
class BodySystem:
    """Validated state: bodies on the surface with tangent velocities."""

    curvature: Curvature
    masses: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        m = np.array(self.masses, dtype=float)
        q = np.array(self.positions, dtype=float)
        v = np.array(self.velocities, dtype=float)
        if m.ndim != 1 or m.shape[0] < 1:
            raise ValueError(f"masses must be a nonempty vector, got shape {m.shape}")
        n = m.shape[0]
        if q.shape != (n, 3) or v.shape != (n, 3):
            raise ValueError(f"positions/velocities must have shape ({n}, 3)")
        if np.any(~np.isfinite(m)) or np.any(m <= 0.0):
            raise ValueError("masses must be finite and positive")
        if np.any(~np.isfinite(q)) or np.any(~np.isfinite(v)):
            raise ValueError("state contains non-finite entries")
        c = self.curvature
        rows = q.tolist()
        surf, tang = _residuals(rows, v.tolist(), c.kappa, c.sigma)
        # kappa q.q - 1 cancels terms of size |kappa| |q|^2, which is 1 on the
        # sphere but grows as r^2 out along the hyperboloid
        for res, (x, y, z) in zip(surf, rows):
            scale = abs(c.kappa) * (x * x + y * y + z * z)
            if res > STATE_TOL * scale:
                raise ValueError(f"surface residual {res!r} exceeds {STATE_TOL} of scale {scale!r}")
        if max(tang) > STATE_TOL:
            raise ValueError(f"tangency residual {max(tang)!r} exceeds {STATE_TOL}")
        if not _closest(rows, c.kappa, c.sigma) >= SINGULAR_TOL:
            raise SingularConfigurationError("body pair at or beyond the singularity threshold")
        for name, arr in (("masses", m), ("positions", q), ("velocities", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.masses.shape[0]

    @classmethod
    def _trusted(cls, curvature, masses, Q, V) -> "BodySystem":
        # integrator-internal: the drift guard has already bounded the
        # residuals this constructor would recheck.  Float rows become new
        # arrays; a trajectory's read-only row views are kept, not copied.
        obj = object.__new__(cls)
        object.__setattr__(obj, "curvature", curvature)
        object.__setattr__(obj, "masses", masses)
        for name, rows in (("positions", Q), ("velocities", V)):
            arr = np.asarray(rows)
            arr.setflags(write=False)
            object.__setattr__(obj, name, arr)
        return obj


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings with projection and drift guard."""

    dt: float
    t_end: float
    project_each_step: bool = True
    max_constraint_drift: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt >= 0.0):
            raise ValueError(f"dt must be finite and >= 0, got {self.dt!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if self.t_end > 0.0 and self.dt > self.t_end:
            raise ValueError(f"dt {self.dt!r} exceeds t_end {self.t_end!r}")
        if not self.max_constraint_drift > 0.0:
            raise ValueError("max_constraint_drift must be positive")


@dataclass(frozen=True)
class DiagnosticsReport:
    """Constraint residuals and the closest pair denominator of a state."""

    max_surface_residual: float
    max_tangency_residual: float
    min_pair_denominator: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Read-only arrays with one row per sample, the initial one included.

    diagnostic_rows holds the fields of DiagnosticsReport in order; `states`
    and `diagnostics` present the rows as objects, built on first access.
    """

    curvature: Curvature
    masses: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    velocities: np.ndarray = field(repr=False)
    diagnostic_rows: np.ndarray = field(repr=False)

    @functools.cached_property
    def states(self) -> tuple[BodySystem, ...]:
        c, m = self.curvature, self.masses
        return tuple(
            BodySystem._trusted(c, m, q, v) for q, v in zip(self.positions, self.velocities)
        )

    @functools.cached_property
    def diagnostics(self) -> tuple[DiagnosticsReport, ...]:
        return tuple(DiagnosticsReport(*row) for row in self.diagnostic_rows.tolist())


def project_point(p, c: Curvature) -> np.ndarray:
    """Radially rescale p, one point or rows of shape (..., 3), onto the surface.

    Raises NonProjectableError when kappa * (p . p) <= 0, which signals a
    diverged trajectory rather than roundoff: no positive rescale can reach
    the surface from such a point.
    """
    p = np.asarray(p, dtype=float)
    return np.array(_project_points(p.reshape(-1, 3).tolist(), c.kappa, c.sigma)).reshape(p.shape)


def project_tangent(p, v, c: Curvature) -> np.ndarray:
    """Remove from v its component along the surface normal at p.

    p and v broadcast against each other.  For p on the surface the result
    w satisfies p . w = 0 (signed product), and projecting twice changes
    nothing.
    """
    p, v = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(v, dtype=float))
    rows = _project_tangents(p.reshape(-1, 3).tolist(), v.reshape(-1, 3).tolist(), c.kappa, c.sigma)
    return np.array(rows).reshape(v.shape)


def acceleration(sys: BodySystem) -> np.ndarray:
    """Accelerations of all bodies, rows aligned with the state arrays."""
    c = sys.curvature
    sigma = c.sigma
    Q, V, m = _floats(sys)
    A = _accel(Q, V, m, c.kappa, sigma)
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
    return DiagnosticsReport(max(surf), max(tang), _closest(Q, c.kappa, c.sigma))


def _axpy(X, h, Y):
    """Rows x + h * y of two float row sequences."""
    return [(x + h * u, y + h * v, z + h * w) for (x, y, z), (u, v, w) in zip(X, Y)]


def _advance(Q, V, m, c: Curvature, dt: float, cfg: IntegratorConfig, time: float | None = None):
    """One RK4 step plus projection on float rows.

    Returns the new positions and velocities as (x, y, z) tuples and their
    diagnostics as (surface, tangency, closest pair denominator).  Errors
    carry the given time.
    """
    kappa, sigma = c.kappa, c.sigma
    h = 0.5 * dt
    try:
        a1 = _accel(Q, V, m, kappa, sigma)
        Qh = _axpy(Q, h, V)
        a2 = _accel(Qh, _axpy(V, h, a1), m, kappa, sigma)
        a3 = _accel(_axpy(Qh, 0.25 * dt * dt, a1), _axpy(V, h, a2), m, kappa, sigma)
        Qd = _axpy(Q, dt, V)
        a4 = _accel(_axpy(Qd, 0.5 * dt * dt, a2), _axpy(V, dt, a3), m, kappa, sigma)
    except SingularConfigurationError as exc:
        raise SingularConfigurationError(str(exc), time=time) from None
    Qn = _axpy(Qd, dt * dt / 6.0, [
        (p1 + p2 + p3, q1 + q2 + q3, r1 + r2 + r3)
        for (p1, q1, r1), (p2, q2, r2), (p3, q3, r3) in zip(a1, a2, a3)
    ])
    Vn = _axpy(V, dt / 6.0, [
        (
            p1 + 2.0 * p2 + 2.0 * p3 + p4,
            q1 + 2.0 * q2 + 2.0 * q3 + q4,
            r1 + 2.0 * r2 + 2.0 * r3 + r4,
        )
        for (p1, q1, r1), (p2, q2, r2), (p3, q3, r3), (p4, q4, r4) in zip(a1, a2, a3, a4)
    ])
    if cfg.project_each_step:
        Qn = _project_points(Qn, kappa, sigma)
        Vn = _project_tangents(Qn, Vn, kappa, sigma)
    bound = cfg.max_constraint_drift
    surf, tang = _residuals(Qn, Vn, kappa, sigma)
    for i, (sr, tr) in enumerate(zip(surf, tang)):
        # not-le so that a NaN residual aborts too
        if not (sr <= bound and tr <= bound):
            raise ConstraintDriftError(
                f"constraint residuals of body {i} (surface {sr!r}, tangency {tr!r}) "
                f"exceed drift bound {bound}",
                time=time,
            )
    dmin = _closest(Qn, kappa, sigma)
    if not dmin >= SINGULAR_TOL:
        raise SingularConfigurationError(
            "body pair at or beyond the singularity threshold", time=time
        )
    return Qn, Vn, (max(surf), max(tang), dmin)


def step(sys: BodySystem, cfg: IntegratorConfig) -> BodySystem:
    """Advance one RK4 step of size cfg.dt; dt = 0 returns the state unchanged."""
    if cfg.dt == 0.0:
        return sys
    Q, V, _ = _advance(*_floats(sys), sys.curvature, cfg.dt, cfg)
    return BodySystem._trusted(sys.curvature, sys.masses, Q, V)


def integrate(sys: BodySystem, cfg: IntegratorConfig) -> Trajectory:
    """Step from 0 to exactly t_end, sampling every state.

    Full steps of size dt, plus one shorter final step when t_end is not a
    step multiple.  The trajectory holds the initial sample and one per
    step.  A step count whose samples could not be stored raises ValueError
    before any step.  Errors abort with the failing time attached.
    """
    last, final, count = 0, cfg.dt, 0.0
    if cfg.t_end > 0.0:
        if cfg.dt == 0.0:
            raise ValueError("dt must be positive to reach a positive t_end")
        count = cfg.t_end / cfg.dt  # inf when dt is tiny enough
        # times, positions, velocities and diagnostics: 6n + 4 doubles a sample
        if (count + 2) * 8 * (6 * sys.n + 4) > np.iinfo(np.intp).max:
            raise ValueError(f"t_end / dt = {count:g} steps are too many to store")
        nfull = int(math.floor(count + 1e-9))
        remainder = cfg.t_end - nfull * cfg.dt
        last = nfull
        if remainder > 1e-9 * cfg.dt:
            last, final = nfull + 1, remainder
    c = sys.curvature
    try:
        times = np.zeros(last + 1)
        P = np.empty((last + 1, sys.n, 3))
        W = np.empty_like(P)
        D = np.empty((last + 1, 3))
    except MemoryError:
        raise ValueError(f"t_end / dt = {count:g} steps are too many to store") from None
    Q, V, m = _floats(sys)
    P[0], W[0], D[0] = Q, V, astuple(diagnostics(sys))
    for k in range(1, last + 1):
        # every non-final step has size dt, so its time is exact
        t, size = (cfg.t_end, final) if k == last else (k * cfg.dt, cfg.dt)
        Q, V, D[k] = _advance(Q, V, m, c, size, cfg, time=t)
        times[k], P[k], W[k] = t, Q, V
    for arr in (times, P, W, D):
        arr.setflags(write=False)
    return Trajectory(c, sys.masses, times, P, W, D)


@dataclass(frozen=True)
class RelativeEquilibrium:
    """Polygon rotating rigidly at height z with angular rate omega_dot."""

    polygon: PolygonConfig
    r: float
    omega_dot: float
    z: float

    def __post_init__(self):
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
    m = np.asarray(masses.masses if isinstance(masses, MassVector) else masses, dtype=float)
    theta = np.array(req.polygon.radians) + omega0
    r, w = req.r, req.omega_dot
    Q = np.column_stack((r * np.cos(theta), r * np.sin(theta), np.full(theta.shape, req.z)))
    V = np.column_stack((-r * w * np.sin(theta), r * w * np.cos(theta), np.zeros(theta.shape)))
    return BodySystem(c, m, Q, V)


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
    field then checks independently.
    """
    m = (masses if isinstance(masses, MassVector) else MassVector(masses)).masses
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
    A = _accel(Q, V, m, c.kappa, c.sigma)
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
