"""Balance criterion for polygonal homographic motion on a curved surface.

For a polygon on the circle of scaled radius rho (see `polygon` for the pair
quantities c, s and the kernels mu, nu), the motion criterion asks that
delta_i = sum_j m_j mu_ji agree across i and that gamma_i = sum_j m_j nu_ji
agree across i (they then vanish by antisymmetry).  These are the array
kernels: they evaluate every pair at once with numpy, for one rho or a whole
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentAngleError, KernelDomainError
from .polygon import MassVector, PolygonConfig, Rho

__all__ = ["CriterionReport", "delta_gamma", "criterion_check"]


def _pair_tables(cfg: PolygonConfig, rho: np.ndarray):
    """Pairwise c and s tables (rho-free), the base 2 - c*rho per rho, and the mask."""
    a = np.array(cfg.radians, dtype=float)
    d = a[:, None] - a[None, :]  # d[j, i] = alpha_j - alpha_i
    c = 1.0 - np.cos(d)
    s = np.sin(d)
    off = ~np.eye(cfg.n, dtype=bool)
    if np.any(c[off] == 0.0):
        raise CoincidentAngleError("two polygon angles coincide modulo a full turn")
    # a non-finite or huge rho gives NaN (0 * inf on the diagonal) or an
    # infinite base; the check below rejects it
    with np.errstate(invalid="ignore", over="ignore"):
        base = 2.0 - c * rho[..., None, None]
    b = base[..., off]
    if not np.all((0.0 < b) & (b < math.inf)):
        raise KernelDomainError("kernel base not finite and positive for some pair")
    return c, s, base, off


def delta_gamma(cfg: PolygonConfig, masses, rho) -> tuple[np.ndarray, np.ndarray]:
    """Per-body sums delta_i = sum_j m_j mu_ji and gamma_i = sum_j m_j nu_ji.

    A scalar rho gives two (n,) arrays; a 1-D array of rho gives two
    (len(rho), n) arrays whose rows equal the scalar results.
    """
    m = np.asarray(masses.masses if isinstance(masses, MassVector) else masses, dtype=float)
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
