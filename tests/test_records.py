"""The value types: frozen records with the repr, equality and checks callers rely on.

Each of the package's 13 value types is pinned here by its behaviour, not by
how it is built: its repr bytes, equality and hash within one class (object
identity for the two state containers), inequality across classes,
refusal to change or lose an attribute, keyword, positional and default
construction, lazily computed attributes that are kept once read, and the
messages of the constructors' checks and of the public functions' argument
checks.
"""

import math
from array import array
from fractions import Fraction as F

import pytest

from curvednbody import (
    BaseGroup,
    BodySystem,
    Certificate,
    CriterionReport,
    Curvature,
    DiagnosticsReport,
    FeasibilityResult,
    IntegratorConfig,
    PolygonConfig,
    RelativeEquilibrium,
    Trajectory,
    WitnessForm,
    classify_case,
    delta_gamma,
    integrate,
    pairing_possibility1,
    pairing_u,
    pairing_v,
    rho_grid,
)
from curvednbody.cli import RunConfig

SPHERE = Curvature(1.0)
TRIANGLE = PolygonConfig.from_turns(("0", "1/4", "1/2"))
TRIANGLE_REPR = (
    "PolygonConfig(angles=(Fraction(0, 1), Fraction(1, 4), Fraction(1, 2)), representation='exact')"
)
# canonical and irregular, so the certificate functions accept it
RECTANGLE = PolygonConfig.from_turns(("0", "1/8", "1/2", "5/8"))
FORM = WitnessForm("delta", (0, 0, 1), 1.0, "a_j1 * m3")
FORM_REPR = "WitnessForm(equation='delta', row=(0, 0, 1), factor=1.0, pattern='a_j1 * m3')"
CORNERS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
REST = [(0.0, 0.0, 0.0)] * 3


def bufs(*sizes):
    return tuple(memoryview(array("d", [0.0] * k)).toreadonly() for k in sizes)


# class -> (constructor keywords, the repr of that instance, keywords of an unequal one)
RECORDS = {
    Curvature: ({"kappa": 1}, "Curvature(kappa=1.0)", {"kappa": -1.0}),
    PolygonConfig: (
        {"angles": (F(0), F(1, 4), F(1, 2)), "representation": "exact"},
        TRIANGLE_REPR,
        {"angles": (F(0), F(1, 4), F(3, 4)), "representation": "exact"},
    ),
    CriterionReport: (
        {
            "deltas": (1.0, 2.0),
            "gammas": (0.0, 0.5),
            "max_delta_spread": 1.0,
            "max_gamma_spread": 0.5,
            "threshold": 1e-10,
            "satisfied": False,
        },
        "CriterionReport(deltas=(1.0, 2.0), gammas=(0.0, 0.5), max_delta_spread=1.0, "
        "max_gamma_spread=0.5, threshold=1e-10, satisfied=False)",
        {
            "deltas": (1.0, 1.0),
            "gammas": (0.0, 0.0),
            "max_delta_spread": 0.0,
            "max_gamma_spread": 0.0,
            "threshold": 1e-10,
            "satisfied": True,
        },
    ),
    BaseGroup: (
        {
            "key": F(1, 4),
            "c": 1.0,
            "a": 0.5,
            "g": 1.0,
            "members": ((2, 1),),
            "delta_form": (0.5, -0.5, 0.0),
            "gamma_form": (0.5, 0.5, 0.0),
        },
        "BaseGroup(key=Fraction(1, 4), c=1.0, a=0.5, g=1.0, members=((2, 1),), "
        "delta_form=(0.5, -0.5, 0.0), gamma_form=(0.5, 0.5, 0.0))",
        {
            "key": F(1, 4),
            "c": 1.0,
            "a": 0.5,
            "g": 1.0,
            "members": ((3, 1),),
            "delta_form": (0.5, 0.0, 0.0),
            "gamma_form": (0.5, 0.0, 0.0),
        },
    ),
    WitnessForm: (
        {"equation": "delta", "row": (0, 0, 1), "factor": 1.0, "pattern": "a_j1 * m3"},
        FORM_REPR,
        {"equation": "delta", "row": (0, 0, 2), "factor": 1.0, "pattern": "a_j1 * m3"},
    ),
    Certificate: (
        {
            "polygon": TRIANGLE,
            "canonical": TRIANGLE,
            "special_j": 3,
            "case_tag": "case1",
            "u": None,
            "v": None,
            "failing_equation": "delta",
            "witness_forms": (FORM,),
            "feasibility_rho": None,
        },
        f"Certificate(polygon={TRIANGLE_REPR}, canonical={TRIANGLE_REPR}, special_j=3, "
        f"case_tag='case1', u=None, v=None, failing_equation='delta', witness_forms=({FORM_REPR},), "
        "feasibility_rho=None)",
        {
            "polygon": TRIANGLE,
            "canonical": TRIANGLE,
            "special_j": 3,
            "case_tag": "case1",
            "u": None,
            "v": None,
            "failing_equation": "delta",
            "witness_forms": (FORM,),
            "feasibility_rho": 0.5,
        },
    ),
    FeasibilityResult: (
        {"feasible": False, "masses": None, "residual": math.inf, "rho": 0.5, "floor": 1e-9},
        "FeasibilityResult(feasible=False, masses=None, residual=inf, rho=0.5, floor=1e-09)",
        {"feasible": True, "masses": (1.0, 1.0, 1.0), "residual": 0.0, "rho": 0.5, "floor": 1e-9},
    ),
    RunConfig: (
        {
            "curvature": SPHERE,
            "representation": "exact",
            "angles": (F(0), F(1, 4), F(1, 2)),
            "polygon": TRIANGLE,
            "masses": (1.0, 1.0, 1.0),
            "rho": 0.5,
            "dt": None,
            "t_end": None,
            "project_each_step": True,
            "max_constraint_drift": 1e-6,
            "tol": 1e-10,
            "seed": 0,
            "velocities": None,
        },
        f"RunConfig(curvature=Curvature(kappa=1.0), representation='exact', "
        f"angles=(Fraction(0, 1), Fraction(1, 4), Fraction(1, 2)), polygon={TRIANGLE_REPR}, "
        "masses=(1.0, 1.0, 1.0), rho=0.5, dt=None, t_end=None, project_each_step=True, "
        "max_constraint_drift=1e-06, tol=1e-10, seed=0, velocities=None)",
        {
            "curvature": SPHERE,
            "representation": "exact",
            "angles": (F(0), F(1, 4), F(1, 2)),
            "polygon": TRIANGLE,
            "masses": (1.0, 1.0, 1.0),
            "rho": 0.5,
            "dt": None,
            "t_end": None,
            "project_each_step": True,
            "max_constraint_drift": 1e-6,
            "tol": 1e-10,
            "seed": 7,
            "velocities": None,
        },
    ),
    BodySystem: (
        {"curvature": SPHERE, "masses": (1.0, 2.0, 3.0), "positions": CORNERS, "velocities": REST},
        "BodySystem(curvature=Curvature(kappa=1.0))",
        {"curvature": SPHERE, "masses": (1.0, 1.0, 1.0), "positions": CORNERS, "velocities": REST},
    ),
    IntegratorConfig: (
        {"dt": 0.1, "t_end": 0.2, "project_each_step": True, "max_constraint_drift": 1e-6},
        "IntegratorConfig(dt=0.1, t_end=0.2, project_each_step=True, max_constraint_drift=1e-06)",
        {"dt": 0.1, "t_end": 0.2, "project_each_step": False, "max_constraint_drift": 1e-6},
    ),
    DiagnosticsReport: (
        {"max_surface_residual": 0.0, "max_tangency_residual": 1e-16, "min_pair_denominator": 0.5},
        "DiagnosticsReport(max_surface_residual=0.0, max_tangency_residual=1e-16, "
        "min_pair_denominator=0.5)",
        {"max_surface_residual": 0.0, "max_tangency_residual": 0.0, "min_pair_denominator": 0.5},
    ),
    Trajectory: (
        dict(zip(
            ("curvature", "mass_values", "time_buf", "position_buf", "velocity_buf", "diagnostic_buf"),
            (SPHERE, (1.0,), *bufs(1, 3, 3, 3)),
        )),
        "Trajectory(curvature=Curvature(kappa=1.0))",
        dict(zip(
            ("curvature", "mass_values", "time_buf", "position_buf", "velocity_buf", "diagnostic_buf"),
            (SPHERE, (2.0,), *bufs(1, 3, 3, 3)),
        )),
    ),
    RelativeEquilibrium: (
        {"polygon": TRIANGLE, "r": 0.5, "omega_dot": 1.0, "z": 0.75},
        f"RelativeEquilibrium(polygon={TRIANGLE_REPR}, r=0.5, omega_dot=1.0, z=0.75)",
        {"polygon": TRIANGLE, "r": 0.5, "omega_dot": 2.0, "z": 0.75},
    ),
}
# compared and hashed by identity: two states with equal numbers are two states
BY_IDENTITY = (BodySystem, Trajectory)
# built from other parameters than the fields they keep
OWN_INIT = (PolygonConfig, BodySystem)
CLASSES = list(RECORDS)


def build(cls, which=0):
    kwargs = RECORDS[cls][0 if which == 0 else 2]
    return cls(**kwargs)


def test_thirteen_classes():
    assert len(RECORDS) == 13


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecord:
    def test_repr(self, cls):
        assert repr(build(cls)) == RECORDS[cls][1]

    def test_keyword_and_positional_construction_agree(self, cls):
        kwargs = RECORDS[cls][0]
        a, b = cls(**kwargs), cls(*kwargs.values())
        assert repr(a) == repr(b)
        if cls not in OWN_INIT:
            for name, value in kwargs.items():
                assert getattr(a, name) == value
                assert getattr(b, name) == value

    def test_equality_and_hash_within_class(self, cls):
        a, b, other = build(cls), build(cls), build(cls, 1)
        assert a == a and not a != a
        assert hash(a) == hash(a)
        assert a != other and not a == other
        if cls in BY_IDENTITY:
            assert a != b and not a == b
            assert len({a, b}) == 2
            assert hash(a) == object.__hash__(a)
        else:
            assert a is not b
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert len({a, b, other}) == 2

    def test_unequal_across_classes(self, cls):
        a = build(cls)
        for other_cls in CLASSES:
            if other_cls is not cls:
                assert a != build(other_cls)
        assert a != tuple(RECORDS[cls][0].values())

    def test_frozen(self, cls):
        a = build(cls)
        before = repr(a)
        for name in [*RECORDS[cls][0], "extra"]:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert repr(a) == before
        assert not hasattr(a, "extra")

    def test_wrong_arguments_raise_type_error(self, cls):
        kwargs = RECORDS[cls][0]
        first = next(iter(kwargs))
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != first})
        with pytest.raises(TypeError):
            cls(**kwargs, extra=None)
        with pytest.raises(TypeError):
            cls(*kwargs.values(), None)
        with pytest.raises(TypeError):
            cls(kwargs[first], **kwargs)


def test_defaults():
    cfg = IntegratorConfig(0.1, 0.2)
    assert cfg == IntegratorConfig(dt=0.1, t_end=0.2, project_each_step=True, max_constraint_drift=1e-6)
    assert IntegratorConfig(0.1, 0.2, False) == IntegratorConfig(0.1, 0.2, project_each_step=False)
    cert = Certificate(TRIANGLE, TRIANGLE, 3, "case1", None, None, "delta", (FORM,))
    assert cert.feasibility_rho is None
    assert cert == build(Certificate)
    assert Certificate(*RECORDS[Certificate][2].values()).feasibility_rho == 0.5


def test_cached_attributes_are_kept():
    poly = PolygonConfig.from_turns(("0", "1/4", "1/2"))
    assert poly.turns is poly.turns
    assert poly.turns == (F(0), F(1, 4), F(1, 2))
    assert poly.canonical_residues is poly.canonical_residues
    assert poly == TRIANGLE and hash(poly) == hash(TRIANGLE)
    state = BodySystem(SPHERE, (1.0, 2.0, 3.0), CORNERS, REST)
    assert state.positions is state.positions
    assert state.positions.tolist() == [list(row) for row in CORNERS]
    traj = integrate(state, IntegratorConfig(0.1, 0.2))
    assert traj.states is traj.states
    assert len(traj.states) == 3
    assert traj.diagnostics[0] == DiagnosticsReport(*traj.diagnostic_buf[:3])
    assert repr(traj) == "Trajectory(curvature=Curvature(kappa=1.0))"


def test_curvature_stores_a_float():
    k = Curvature(kappa=-2)
    assert type(k.kappa) is float and k.sigma == -1
    assert k == Curvature(-2.0) and hash(k) == hash(Curvature(-2.0))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Curvature(0.0), "curvature must be a finite nonzero real, got 0.0"),
        (lambda: Curvature(math.inf), "curvature must be a finite nonzero real, got inf"),
        (lambda: Curvature("1"), "curvature must be a finite nonzero real, got '1'"),
        (lambda: PolygonConfig(("0", "1/2", "3/4"), "decimal"), "unknown representation 'decimal'"),
        (lambda: PolygonConfig(("0", "1/2"), "exact"), "polygon needs at least 3 angles, got 2"),
        (lambda: PolygonConfig(("0", "1/2", "1"), "exact"), "turn angle 1 outside [0, 1)"),
        (lambda: PolygonConfig((0.0, 1.0, 7.0), "float"), "radian angle 7.0 outside [0, 2*pi)"),
        (
            lambda: PolygonConfig(("0", "1/2", "1/4"), "exact"),
            "angles must be strictly increasing, got 1/2 >= 1/4",
        ),
        (
            lambda: PolygonConfig.from_radians((0, 1, 2)).turns,
            "float-mode polygon has no exact turn angles",
        ),
        (lambda: delta_gamma(RECTANGLE, (1.0, 1.0), 0.5), "expected 4 masses, got 2"),
        (lambda: pairing_possibility1(RECTANGLE, 1), "vertex index 1 outside 2..4"),
        (lambda: pairing_u(RECTANGLE, 2), "vertex index 2 outside 3..4"),
        (lambda: pairing_v(RECTANGLE, 5), "vertex index 5 outside 3..4"),
        (lambda: classify_case(RECTANGLE, 2), "witness index 2 outside 3..4"),
        (lambda: rho_grid(1.0, 0), "grid needs at least one point"),
        (
            lambda: BodySystem(SPHERE, (1.0, -1.0, 1.0), CORNERS, REST),
            "masses must be finite and positive, got -1.0",
        ),
        (
            lambda: BodySystem(SPHERE, (1.0, 1.0, 1.0), CORNERS[:2], REST),
            "positions/velocities must have shape (3, 3)",
        ),
        (
            lambda: BodySystem(SPHERE, (1.0,), [(1.0, 0.0, None)], REST[:1]),
            "positions/velocities must have shape (1, 3)",
        ),
        (
            lambda: BodySystem(SPHERE, (1.0, 1.0, 1.0), CORNERS, [(0.0, 0.0, math.nan)] * 3),
            "state contains non-finite entries",
        ),
        (
            lambda: BodySystem(SPHERE, (1.0, 1.0, 1.0), [(2.0, 0.0, 0.0)] + CORNERS[1:], REST),
            "surface residual 3.0 exceeds 1e-10 of scale 4.0",
        ),
        (
            lambda: BodySystem(SPHERE, (1.0, 1.0, 1.0), CORNERS, [(1.0, 0.0, 0.0)] + REST[1:]),
            "tangency residual 1.0 exceeds 1e-10 of scale 1.0",
        ),
        (lambda: IntegratorConfig(-0.1, 1.0), "dt must be finite and >= 0, got -0.1"),
        (lambda: IntegratorConfig(0.1, math.nan), "t_end must be finite and >= 0, got nan"),
        (lambda: IntegratorConfig(2.0, 1.0), "dt 2.0 exceeds t_end 1.0"),
        (lambda: IntegratorConfig(0.0, 1.0), "dt must be positive to reach a positive t_end"),
        (
            lambda: IntegratorConfig(0.1, 1.0, max_constraint_drift=0.0),
            "max_constraint_drift must be positive",
        ),
        (lambda: RelativeEquilibrium(TRIANGLE, 0.0, 1.0, 0.5), "radius must be positive, got 0.0"),
        (lambda: RelativeEquilibrium(TRIANGLE, 0.5, math.inf, 0.5), "omega_dot must be finite"),
        (
            lambda: RelativeEquilibrium(TRIANGLE, 0.5, 1.0, -1.0),
            "height must be finite and >= 0, got -1.0",
        ),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_singular_state_message():
    from curvednbody import SingularConfigurationError

    with pytest.raises(SingularConfigurationError) as info:
        BodySystem(SPHERE, (1.0, 1.0, 1.0), [CORNERS[0], CORNERS[0], CORNERS[2]], REST)
    assert str(info.value) == (
        "pair denominator 0.0 of bodies 0 and 1 below singularity threshold (collision or antipodal pair)"
    )
