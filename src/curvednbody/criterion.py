"""Balance criterion for polygonal homographic motion on a curved surface.

For a polygon on the circle of scaled radius rho (see `polygon` for the pair
quantities c, s and the kernels mu, nu), the motion criterion asks that
delta_i = sum_j m_j mu_ji and gamma_i = sum_j m_j nu_ji agree across i (the
gammas then vanish by antisymmetry).  The pass below is the one evaluation
of mu and nu, on plain floats: a rho-free table holds c (`chord_c`),
c^(1/2), c^(3/2) and s per unordered pair, and one pass over it checks the
kernel domain once, at the widest chord, then computes (2 - c rho)^(3/2)
once per pair for both bodies (mu is symmetric, nu antisymmetric).  A rho
sweep builds the table once and runs the pass at each point.
"""

from __future__ import annotations

import math

from . import _LAZY_NAMES
from .polygon import PolygonConfig, _Record, _kernel_power, _mass_floats, chord_c

__all__ = _LAZY_NAMES["criterion"]


def _pair_table(cfg: PolygonConfig) -> tuple[float, list[tuple]]:
    """The widest chord, and (i, j, c, c^(1/2), c^(3/2), sin(alpha_j - alpha_i)) per pair i < j."""
    a = cfg.radians
    rows = []
    for i in range(len(a) - 1):
        for j in range(i + 1, len(a)):
            c = chord_c(a[j], a[i])
            rows.append((i, j, c, math.sqrt(c), c**1.5, math.sin(a[j] - a[i])))
    return max(row[2] for row in rows), rows


def _sums(table, m, rho: float) -> tuple[list[float], list[float]]:
    """delta and gamma of every body at one rho, from a pair table."""
    widest, rows = table
    # 2 - c*rho is monotone in c: the widest chord has the smallest base for
    # rho > 0 and the largest, whose 3/2 power bounds all others, for rho < 0
    _kernel_power(widest, rho)
    deltas = [0.0] * len(m)
    gammas = [0.0] * len(m)
    for i, j, c, root_c, c_15, s in rows:
        b_15 = (2.0 - c * rho) ** 1.5
        mu_ij = 1.0 / (root_c * b_15)
        nu_ji = s / (c_15 * b_15)  # nu_ij = -nu_ji
        deltas[i] += m[j] * mu_ij
        deltas[j] += m[i] * mu_ij
        gammas[i] += m[j] * nu_ji
        gammas[j] -= m[i] * nu_ji
    return deltas, gammas


def delta_gamma(cfg: PolygonConfig, masses, rho) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-body sums delta_i = sum_j m_j mu_ji and gamma_i = sum_j m_j nu_ji at one rho."""
    m = _mass_floats(masses)
    if len(m) != cfg.n:
        raise ValueError(f"expected {cfg.n} masses, got {len(m)}")
    deltas, gammas = _sums(_pair_table(cfg), m, float(rho))
    return tuple(deltas), tuple(gammas)


def _spread(values) -> float:
    """Largest |v_i - v_1|; NaN when any difference is, so it never passes a threshold."""
    diffs = [abs(v - values[0]) for v in values]
    return math.nan if math.isnan(sum(diffs)) else max(diffs)


class CriterionReport(_Record):
    """delta/gamma values with their spreads against body 1."""

    _fields = ("deltas", "gammas", "max_delta_spread", "max_gamma_spread", "threshold", "satisfied")


def criterion_check(cfg: PolygonConfig, masses, rho, tol: float = 1e-10) -> CriterionReport:
    """Evaluate the balance criterion with spread tolerance tol * (1 + |delta_1|), tol > 0 finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    deltas, gammas = delta_gamma(cfg, masses, rho)
    d_spread, g_spread = _spread(deltas), _spread(gammas)
    threshold = tol * (1.0 + abs(deltas[0]))
    satisfied = d_spread <= threshold and g_spread <= threshold
    return CriterionReport(deltas, gammas, d_spread, g_spread, threshold, satisfied)
