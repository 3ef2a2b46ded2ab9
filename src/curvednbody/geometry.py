"""Geometry of the constant-curvature surfaces kappa * (x^2 + y^2 + sigma*z^2) = 1.

For kappa > 0 the surface is the sphere of radius 1/sqrt(kappa) and sigma = +1;
for kappa < 0 it is the upper sheet of a hyperboloid and sigma = -1.  The flat
case kappa = 0 is rejected when the `Curvature` is built.  All operations work
in binary64 on ambient 3-vectors, float64 arrays of shape (3,); the helpers
also broadcast over leading axes, so (n, 3) body arrays go through the same
code.
"""

from __future__ import annotations

import numpy as np

from .errors import NonProjectableError
from .polygon import Curvature

__all__ = [
    "vec3",
    "sigma_inner",
    "surface_residual",
    "project_point",
    "project_tangent",
]

def vec3(x: float, y: float, z: float) -> np.ndarray:
    """Build an ambient 3-vector."""
    return np.array([x, y, z], dtype=float)


def sigma_inner(a: np.ndarray, b: np.ndarray, sigma: int) -> np.ndarray | float:
    """Signed inner product a_x b_x + a_y b_y + sigma * a_z b_z."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + sigma * (a[..., 2] * b[..., 2])


def surface_residual(p: np.ndarray, c: Curvature) -> np.ndarray | float:
    """kappa * (p . p) - 1; zero exactly on the surface."""
    return c.kappa * sigma_inner(p, p, c.sigma) - 1.0


def project_point(p: np.ndarray, c: Curvature) -> np.ndarray:
    """Radially rescale p onto the surface.

    Raises NonProjectableError when kappa * (p . p) <= 0, which signals a
    diverged trajectory rather than roundoff: no positive rescale can reach
    the surface from such a point.
    """
    p = np.asarray(p, dtype=float)
    s = c.kappa * sigma_inner(p, p, c.sigma)
    if np.min(s) <= 0.0:
        raise NonProjectableError(
            f"point not projectable onto surface with kappa={c.kappa}: kappa*(p.p)={np.min(s)!r}"
        )
    return p / np.sqrt(np.expand_dims(s, -1))


def project_tangent(p: np.ndarray, v: np.ndarray, c: Curvature) -> np.ndarray:
    """Remove from v its component along the surface normal at p.

    For p on the surface the result w satisfies p . w = 0 (signed product),
    and projecting twice changes nothing.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    w = c.kappa * sigma_inner(p, v, c.sigma)
    return v - np.expand_dims(w, -1) * p
