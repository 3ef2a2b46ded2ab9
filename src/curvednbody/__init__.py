"""n-body configurations and dynamics on surfaces of constant curvature.

The package models point masses constrained to the quadric
kappa * (x^2 + y^2 + sigma * z^2) = 1 (a sphere for kappa > 0, the upper
hyperboloid sheet for kappa < 0).  It provides the equations of motion with
a constraint-preserving integrator, the delta/gamma balance criterion for
polygonal configurations, a mechanized nonexistence certificate showing that
irregular polygons admit no positive masses satisfying the criterion, an
independent exact mass-feasibility search that cross-checks the
certificate, and a batch CLI.
"""

import importlib

from . import errors, polygon
from .errors import *
from .polygon import *

# Each subcommand loads only what it runs, so the names of these modules are
# imported on first use (PEP 562): certificate and dynamics are large to
# compile.  Each module's __all__ is its entry here, which it can import
# because the package runs this file before any of its submodules.
_LAZY_NAMES = {
    "certificate": (
        "BaseGroup", "Certificate", "FeasibilityResult", "WitnessForm",
        "base_groups", "certify", "classify_case", "decompose", "find_contradiction_j",
        "mass_feasibility", "mu_derivative", "pairing_possibility1", "pairing_u", "pairing_v",
    ),
    "criterion": ("CriterionReport", "delta_gamma", "criterion_check"),
    "dynamics": (
        "BodySystem",
        "DiagnosticsReport",
        "IntegratorConfig",
        "RelativeEquilibrium",
        "Trajectory",
        "acceleration",
        "build_polygon_state",
        "diagnostics",
        "integrate",
        "project_point",
        "project_tangent",
        "solve_omega",
        "step",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY_NAMES.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_MODULE))


__version__ = "1.0.0"

__all__ = ["__version__", *errors.__all__, *polygon.__all__, *_LAZY_MODULE]
