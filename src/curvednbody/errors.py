"""Exception taxonomy shared across the package."""

from __future__ import annotations

__all__ = [
    "CurvedNBodyError",
    "NonProjectableError",
    "KernelDomainError",
    "CoincidentAngleError",
    "SingularConfigurationError",
    "ConstraintDriftError",
    "NoBalanceError",
    "RegularPolygonError",
    "InternalConsistencyError",
    "DisagreementError",
    "ConfigError",
]


class CurvedNBodyError(Exception):
    """Base class for all package-specific errors."""


class _StepError(CurvedNBodyError):
    """An error that carries the time of the integration step that raised it, if any."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class NonProjectableError(_StepError):
    """Point cannot be rescaled onto the surface (kappa * (p . p) <= 0)."""


class KernelDomainError(CurvedNBodyError):
    """Kernel evaluated outside its domain (bad chord, or a base not finite and positive)."""


class CoincidentAngleError(CurvedNBodyError):
    """Two polygon angles coincide modulo a full turn."""


class SingularConfigurationError(_StepError):
    """A pair denominator fell below the singularity threshold, or a pair force overflowed.

    Overflow of the pair force is mapped to this error in the generated `accel` of
    `dynamics` alone, which both forms of the step write from one template.
    """


class ConstraintDriftError(_StepError):
    """Constraint residual exceeded the configured drift bound."""


class NoBalanceError(CurvedNBodyError):
    """No nonnegative angular rate balances the radial force equation."""


class RegularPolygonError(CurvedNBodyError):
    """Certification was asked for a regular polygon, which it excludes."""


class InternalConsistencyError(CurvedNBodyError):
    """A structural fact the case analysis relies on failed to hold."""


class DisagreementError(InternalConsistencyError):
    """Case analysis and the independent feasibility search disagree."""


class ConfigError(CurvedNBodyError):
    """A run configuration field is missing or invalid."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config error: {field}: {message}")
        self.field = field
