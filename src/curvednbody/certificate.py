"""Nonexistence certificates for irregular polygons.

A shape-preserving orbit with non-constant size forces every rho-derivative of
the differences delta_1 - delta_2 and gamma_1 - gamma_2 to vanish.  Each
derivative is a linear combination of exponential-like terms a_ji * g_ji^k
with base g_ji = c_ji / (2 - c_ji rho); bases with distinct c are distinct,
so each group of equal-c terms must cancel on its own.  For an irregular
polygon in canonical rotation there is a vertex index j whose group cannot
cancel with positive masses, and this module mechanizes that argument:

  * base_groups scales the grouped linear forms over the masses, which are
    built once per polygon without rho, by the amplitudes at one rho,
  * find_contradiction_j locates the witness index,
  * classify_case derives the non-vanishing coefficient form(s),
  * mass_feasibility independently searches for positive masses by linear
    programming, and certify requires the two routes to agree.

Angle arithmetic on the certification path is exact (rational fractions of a
turn, held as integer residues modulo their common denominator), so group
membership and the pairing identities carry no float tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .criterion import (
    PolygonConfig,
    _check_kernel_domain,
    _rho_value,
    _turn_residues,
    canonicalize,
    cyclic_gaps,
    is_regular,
    mu,
)
from .errors import (
    AmbiguousGroupingError,
    DisagreementError,
    InternalConsistencyError,
    RegularPolygonError,
)

__all__ = [
    "MassForm",
    "GroupTerm",
    "BaseGroup",
    "CoefficientSystem",
    "WitnessForm",
    "Certificate",
    "FeasibilityResult",
    "mu_derivative",
    "decompose",
    "base_groups",
    "pairing_possibility1",
    "pairing_u",
    "pairing_v",
    "find_contradiction_j",
    "classify_case",
    "mass_feasibility",
    "certify",
]

FLOAT_MERGE_TOL = 1e-12
FLOAT_GROUP_TOL = 1e-9
# Canonical polygons whose rho-free grouped forms and LP solution are kept.
# Callers ask about one polygon at a few rho in a row (certify, then
# mass_feasibility per rho); a polygon revisited only after many others is
# rebuilt, which costs time and never changes a result.
_MEMO_POLYGONS = 32


def mu_derivative(c: float, rho, k: int) -> float:
    """k-th rho-derivative of the attraction kernel mu(c, rho).

    Differentiating c^(-1/2) * (2 - c*rho)^(-3/2) k times multiplies by
    (3/2 + l) * c at step l, so the closed form is

        prod_{l=0}^{k-1} (3/2 + l) * c^(k - 1/2) / (2 - c*rho)^(3/2 + k)

    and k = 0 reduces to mu itself.
    """
    if k < 0 or int(k) != k:
        raise ValueError(f"derivative order must be a nonnegative integer, got {k!r}")
    if k == 0:
        return mu(c, rho)
    r = _rho_value(rho)
    base = _check_kernel_domain(c, r)
    pref = 1.0
    for l in range(int(k)):
        pref *= 1.5 + l
    return pref * c ** (k - 0.5) / base ** (1.5 + k)


def decompose(c: float, rho) -> tuple[float, float]:
    """Split the derivative kernel into amplitude and base: a * g^k.

    a = c^(1/2) / (2 - c*rho)^(3/2) and g = c / (2 - c*rho), so that
    a * g^k = c^(1/2 + k) / (2 - c*rho)^(3/2 + k).  Both are positive on the
    valid domain, and g is strictly increasing in c at fixed rho, which makes
    equal bases equivalent to equal chords.
    """
    r = _rho_value(rho)
    base = _check_kernel_domain(c, r)
    return math.sqrt(c) / base**1.5, c / base


@dataclass(frozen=True)
class MassForm:
    """Linear form over the masses, one coefficient per body."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(x) for x in self.coeffs))

    @property
    def support(self) -> tuple[int, ...]:
        """1-based indices with nonzero coefficient."""
        return tuple(i + 1 for i, x in enumerate(self.coeffs) if x != 0.0)

    @property
    def is_zero(self) -> bool:
        return all(x == 0.0 for x in self.coeffs)

    @property
    def sign_definite(self) -> bool:
        """All nonzero coefficients share one strict sign (and one exists)."""
        signs = {x > 0.0 for x in self.coeffs if x != 0.0}
        return len(signs) == 1

    def value(self, masses) -> float:
        return float(np.dot(self.coeffs, np.asarray(masses, dtype=float)))

    def scaled(self, factor: float) -> "MassForm":
        return MassForm(tuple(factor * x for x in self.coeffs))

    @staticmethod
    def from_terms(n: int, terms: dict[int, float]) -> "MassForm":
        coeffs = [0.0] * n
        for idx, coeff in terms.items():
            coeffs[idx - 1] += coeff
        return MassForm(tuple(coeffs))


@dataclass(frozen=True)
class GroupTerm:
    """One ordered-pair term of a difference equation, before group scaling."""

    j: int
    i: int
    equation: str  # "delta" | "gamma"
    form: MassForm


@dataclass(frozen=True)
class BaseGroup:
    """All terms sharing one chord value c, hence one base g."""

    key: object  # exact turn class (Fraction) or representative float c
    c: float
    a: float
    g: float
    members: tuple[GroupTerm, ...]
    delta_form: MassForm  # sum of member delta forms, scaled by a
    gamma_form: MassForm


@dataclass(frozen=True)
class CoefficientSystem:
    """The grouped linear system whose joint kernel is the feasible mass set."""

    n: int
    rho: float
    groups: tuple[BaseGroup, ...]

    def equality_rows(self) -> tuple[np.ndarray, tuple[tuple[int, str], ...]]:
        """Nonzero grouped forms as matrix rows, labeled (group index, equation)."""
        rows, labels = [], []
        for gi, group in enumerate(self.groups):
            for eq, form in (("delta", group.delta_form), ("gamma", group.gamma_form)):
                if not form.is_zero:
                    rows.append(form.coeffs)
                    labels.append((gi, eq))
        if not rows:
            return np.zeros((0, self.n)), ()
        return np.array(rows, dtype=float), tuple(labels)


def _require_exact(cfg: PolygonConfig):
    if not cfg.is_exact:
        raise ValueError("this operation needs exact rational turn angles")


def _require_canonical(cfg: PolygonConfig):
    if cfg != canonicalize(cfg):
        raise ValueError("polygon must be in canonical rotation (minimal first gap)")


def _difference_terms(cfg: PolygonConfig):
    """Ordered-pair terms of the two difference equations.

    The delta difference 0 = delta_1 - delta_2 carries (m_2 - m_1) on the
    merged (2,1) term and +/- m_j on (j,1), (j,2) for j = 3..n; the gamma
    difference carries (m_1 + m_2) s_21/c_21 on (2,1) and +/- m_j s_ji/c_ji
    elsewhere.  Gamma terms with s = 0 vanish identically and are omitted.
    Exact terms carry their turn class, the Fraction min(d, 1 - d) of the
    separation d mod 1, which determines c exactly.
    """
    n = cfg.n
    rad = cfg.radians
    if cfg.is_exact:
        res, full = _turn_residues(cfg)
    out = []  # (j, i, delta_terms or None, gamma_sign_terms or None)
    pairs = [(2, 1, {2: 1.0, 1: -1.0}, {1: 1.0, 2: 1.0})]
    for j in range(3, n + 1):
        pairs.append((j, 1, {j: 1.0}, {j: 1.0}))
        pairs.append((j, 2, {j: -1.0}, {j: -1.0}))
    for j, i, dterms, gterms in pairs:
        d = rad[j - 1] - rad[i - 1]
        c = 1.0 - math.cos(d)
        s = math.sin(d)
        if cfg.is_exact:
            d_res = (res[j - 1] - res[i - 1]) % full
            klass = Fraction(min(d_res, full - d_res), full)
            exact_s_zero = 2 * d_res == full
        else:
            klass = None
            exact_s_zero = abs(s) < 1e-15
        t = 0.0 if exact_s_zero else s / c
        gamma = None if exact_s_zero else {idx: coeff * t for idx, coeff in gterms.items()}
        out.append((j, i, klass, c, dterms, gamma))
    return out


def _float_group_keys(values):
    """Cluster float c values: merge within 1e-12, demand 1e-9 separation."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    keys = [None] * len(values)
    clusters = []  # list of (representative, [indices])
    for i in order:
        if clusters and values[i] - clusters[-1][1][-1] <= FLOAT_MERGE_TOL:
            clusters[-1][1].append(values[i])
            clusters[-1][2].append(i)
        else:
            clusters.append((values[i], [values[i]], [i]))
    for (rep, vals, idxs), nxt in zip(clusters, clusters[1:] + [None]):
        if vals[-1] - vals[0] > FLOAT_MERGE_TOL:
            raise AmbiguousGroupingError(
                f"c values near {rep!r} chain across the merge tolerance"
            )
        if nxt is not None and nxt[1][0] - vals[-1] < FLOAT_GROUP_TOL:
            raise AmbiguousGroupingError(
                f"c values {vals[-1]!r} and {nxt[1][0]!r} differ by less than "
                f"{FLOAT_GROUP_TOL} but more than {FLOAT_MERGE_TOL}"
            )
        for i in idxs:
            keys[i] = rep
    return keys


@functools.lru_cache(maxsize=_MEMO_POLYGONS)
def _grouped_forms(cfg: PolygonConfig):
    """Group the difference-equation terms by chord value, in increasing c.

    Exact mode groups by the rational turn class, which decides c equality
    with no tolerance; float mode clusters c values and refuses inputs in
    the ambiguous band.  Returns (key, c, members, delta_form, gamma_form)
    per group, with forms not yet scaled by the amplitude: nothing here
    depends on rho.
    """
    terms = _difference_terms(cfg)
    n = cfg.n
    if cfg.is_exact:
        keys = [klass for (_, _, klass, _, _, _) in terms]
    else:
        keys = _float_group_keys([c for (_, _, _, c, _, _) in terms])
    grouped: dict[object, list[int]] = {}
    for idx, key in enumerate(keys):
        grouped.setdefault(key, []).append(idx)
    groups = []
    for key in sorted(grouped):
        c_rep = 1.0 - math.cos(2.0 * math.pi * float(key)) if cfg.is_exact else key
        members = []
        delta_total = MassForm((0.0,) * n)
        gamma_total = MassForm((0.0,) * n)
        for idx in grouped[key]:
            j, i, _, _, dterms, gterms = terms[idx]
            dform = MassForm.from_terms(n, dterms)
            members.append(GroupTerm(j, i, "delta", dform))
            delta_total = MassForm(tuple(x + y for x, y in zip(delta_total.coeffs, dform.coeffs)))
            if gterms is not None:
                gform = MassForm.from_terms(n, gterms)
                members.append(GroupTerm(j, i, "gamma", gform))
                gamma_total = MassForm(tuple(x + y for x, y in zip(gamma_total.coeffs, gform.coeffs)))
        groups.append((key, c_rep, tuple(members), delta_total, gamma_total))
    return tuple(groups)


@functools.lru_cache(maxsize=_MEMO_POLYGONS)
def _rho_free_masses(cfg: PolygonConfig) -> tuple[float, ...] | None:
    """Masses solving {every grouped form = 0, m_i >= 1}, or None if infeasible.

    At any rho each grouped row is its rho-free row times the amplitude
    a(c, rho) > 0, so the feasible set, and with it the verdict, is the same
    for every rho: one linear program on the unscaled rows decides them all.
    """
    rows = [
        form.coeffs
        for _, _, _, delta_form, gamma_form in _grouped_forms(cfg)
        for form in (delta_form, gamma_form)
        if not form.is_zero
    ]
    n = cfg.n
    res = linprog(
        c=np.zeros(n),
        A_eq=np.array(rows, dtype=float),
        b_eq=np.zeros(len(rows)),
        bounds=[(1.0, None)] * n,
        method="highs",
    )
    if res.status == 0:
        return tuple(float(m) for m in res.x)
    if res.status == 2:
        return None
    raise InternalConsistencyError(f"unexpected LP status {res.status}: {res.message}")


def base_groups(cfg: PolygonConfig, rho) -> CoefficientSystem:
    """Group the difference-equation terms by chord value at the given rho.

    The groups are those of _grouped_forms, which do not depend on rho; here
    each group's forms carry the shared amplitude a(c, rho) as a positive
    common factor, and the bases g must increase strictly with c.
    """
    _require_canonical(cfg)
    rho_v = _rho_value(rho)
    groups = []
    for key, c, members, delta_form, gamma_form in _grouped_forms(cfg):
        a, g = decompose(c, rho_v)
        groups.append(
            BaseGroup(
                key=key,
                c=c,
                a=a,
                g=g,
                members=members,
                delta_form=delta_form.scaled(a),
                gamma_form=gamma_form.scaled(a),
            )
        )
    for prev, cur in zip(groups, groups[1:]):
        if not prev.g < cur.g:
            raise InternalConsistencyError(
                "base map not strictly increasing across groups; "
                f"g({prev.c}) = {prev.g} vs g({cur.c}) = {cur.g}"
            )
    return CoefficientSystem(n=cfg.n, rho=rho_v, groups=tuple(groups))


def _vertex_lookup(cfg: PolygonConfig) -> tuple[tuple[int, ...], int, dict[int, int]]:
    """Turn residues, their modulus, and the 1-based vertex at each residue."""
    res, full = _turn_residues(cfg)
    return res, full, {r: k + 1 for k, r in enumerate(res)}


def pairing_possibility1(cfg: PolygonConfig, j: int) -> int | None:
    """Vertex u with alpha_u = alpha_j + (alpha_2 - alpha_1) (mod 1), if any.

    In canonical rotation such a u can only be the cyclic successor j+1
    (vertex 1 when j = n); finding any other vertex means the caller passed
    a non-canonical configuration.
    """
    _require_exact(cfg)
    n = cfg.n
    if not 2 <= j <= n:
        raise ValueError(f"vertex index {j} outside 2..{n}")
    r, full, vertex_at = _vertex_lookup(cfg)
    u = vertex_at.get((r[j - 1] + r[1] - r[0]) % full)
    if u is None:
        return None
    expected = j + 1 if j < n else 1
    if u != expected:
        raise InternalConsistencyError(
            f"matching vertex u={u} is not the successor of j={j}; "
            "configuration is not in canonical rotation"
        )
    return u


def pairing_u(cfg: PolygonConfig, j: int) -> int | None:
    """Vertex u with alpha_j + alpha_u = alpha_1 + alpha_2 (mod 1), if any.

    At most one vertex satisfies the congruence, it is never 1 or 2, and it
    may equal j itself (then the (j,2) term shares the group of (j,1)).
    Its chord satisfies c_u2 = c_j1 with s_u2 = -s_j1.
    """
    _require_exact(cfg)
    if not 3 <= j <= cfg.n:
        raise ValueError(f"vertex index {j} outside 3..{cfg.n}")
    r, full, vertex_at = _vertex_lookup(cfg)
    u = vertex_at.get((r[0] + r[1] - r[j - 1]) % full)
    if u in (1, 2):
        raise InternalConsistencyError(f"pairing vertex u={u} collides with the base pair")
    return u


def pairing_v(cfg: PolygonConfig, j: int) -> int | None:
    """Vertex v != j with alpha_j + alpha_v = 2*alpha_1 (mod 1), if any.

    At most one such vertex exists; its chord satisfies c_v1 = c_j1 with
    s_v1 = -s_j1.
    """
    _require_exact(cfg)
    if not 3 <= j <= cfg.n:
        raise ValueError(f"vertex index {j} outside 3..{cfg.n}")
    r, full, vertex_at = _vertex_lookup(cfg)
    v = vertex_at.get((2 * r[0] - r[j - 1]) % full)
    if v == j:
        return None
    if v == 1:
        raise InternalConsistencyError("pairing vertex v=1 should be impossible")
    return v


def find_contradiction_j(cfg: PolygonConfig) -> int:
    """Smallest j in 3..n whose gap to its successor differs from the first gap.

    Equivalently, the smallest j for which no vertex sits at
    alpha_j + (alpha_2 - alpha_1).  The canonical tie-break (lexicographically
    smallest rotation among those with minimal first gap) guarantees such a j
    exists for every irregular polygon: if gaps 3..n all matched the first
    gap while gap 2 differed, the rotation starting at vertex 3 would be
    lexicographically smaller.
    """
    _require_exact(cfg)
    _require_canonical(cfg)
    if is_regular(cfg):
        raise RegularPolygonError("regular polygons admit the orbit family; nothing to certify")
    for j in range(3, cfg.n + 1):
        if pairing_possibility1(cfg, j) is None:
            return j
    raise InternalConsistencyError(
        "irregular canonical polygon with no witness index in 3..n"
    )


@dataclass(frozen=True)
class WitnessForm:
    """A grouped coefficient form recorded by the certificate."""

    equation: str  # "delta" | "gamma"
    form: MassForm
    pattern: str
    sign_definite: bool


@dataclass(frozen=True)
class Certificate:
    """Mechanized nonexistence argument for one irregular polygon."""

    polygon: PolygonConfig
    canonical: PolygonConfig
    special_j: int
    case_tag: str  # "case1" | "case2u" | "case2v" | "case3"
    u: int | None
    v: int | None
    failing_equation: str  # "delta" | "gamma" | "disjunction"
    witness_forms: tuple[WitnessForm, ...]
    narrative: str
    feasibility_rho: float | None = None
    feasibility_feasible: bool | None = None

    def to_json_dict(self) -> dict:
        feas = None
        if self.feasibility_rho is not None:
            feas = {
                "rho": self.feasibility_rho,
                "verdict": "feasible" if self.feasibility_feasible else "infeasible",
            }
        return {
            "n": self.canonical.n,
            "angles": [str(a) for a in self.polygon.turns],
            "canonical_angles": [str(a) for a in self.canonical.turns],
            "j": self.special_j,
            "case": self.case_tag,
            "u": self.u,
            "v": self.v,
            "failing_equation": self.failing_equation,
            "witness_forms": [
                {
                    "equation": w.equation,
                    "pattern": w.pattern,
                    "sign_definite": w.sign_definite,
                    "terms": [
                        {"index": i + 1, "coefficient": x}
                        for i, x in enumerate(w.form.coeffs)
                        if x != 0.0
                    ],
                }
                for w in self.witness_forms
            ],
            "feasibility": feas,
            "narrative": self.narrative,
        }


def _narrative(cert: Certificate) -> str:
    canon = cert.canonical
    a = canon.turns
    gaps = cyclic_gaps(canon)
    j = cert.special_j
    lines = []
    lines.append(
        "Nonexistence certificate for the polygon with canonical turn angles ("
        + ", ".join(str(x) for x in a)
        + ")."
    )
    lines.append(
        f"Canonical rotation makes the first gap minimal: gap(1,2) = {a[1] - a[0]}."
    )
    succ = j + 1 if j < canon.n else 1
    lines.append(
        f"Witness index j = {j}: gap({j},{succ}) = {gaps[j - 1]} differs from the first gap, "
        "so no vertex u satisfies alpha_u = alpha_j + (alpha_2 - alpha_1) (mod 1) and no "
        "(u,2) term of that kind can share the base of the (j,1) term."
    )
    lines.append("Pairing search in exact turn arithmetic:")
    lines.append(
        "  u with alpha_j + alpha_u = alpha_1 + alpha_2 (mod 1): "
        + (f"u = {cert.u}" if cert.u is not None else "none")
    )
    lines.append(
        "  v with alpha_j + alpha_v = 2*alpha_1 (mod 1), v != j: "
        + (f"v = {cert.v}" if cert.v is not None else "none")
    )
    lines.append(
        "Uniqueness facts used: (I) such a v is unique and has s_v1 = -s_j1; "
        "(II) such a u is unique and has s_u2 = -s_j1; (III) equal c implies equal a."
    )
    if cert.case_tag == "case1":
        lines.append(
            "Case 1: the (j,1) term stands alone in its base group, so the grouped "
            f"coefficient of g_j1^k in the delta-difference equation is {cert.witness_forms[0].pattern}."
        )
    elif cert.case_tag == "case2u":
        lines.append(
            "Case 2 (u present): the (j,1) and (u,2) terms share a base; their delta "
            "coefficients m_j - m_u may cancel, but in the gamma-difference equation the "
            f"grouped coefficient is {cert.witness_forms[0].pattern}."
        )
        lines.append(
            "s_j1 = 0 would put alpha_j - alpha_1 = 1/2 turn and restore the successor "
            "pairing, contradicting the choice of j; the exact check confirms s_j1 != 0."
        )
    elif cert.case_tag == "case2v":
        lines.append(
            "Case 2 (v present): the (j,1) and (v,1) terms share a base; their gamma "
            "coefficients m_j - m_v may cancel, but in the delta-difference equation the "
            f"grouped coefficient is {cert.witness_forms[0].pattern}."
        )
    else:
        lines.append(
            "Case 3 (u and v present): the group carries delta coefficient "
            f"{cert.witness_forms[0].pattern} and gamma coefficient {cert.witness_forms[1].pattern}; "
            "their mass patterns add to 2*m_j > 0, so at least one is nonzero."
        )
    lines.append(
        "Every rho-derivative of the differences delta_1 - delta_2 and gamma_1 - gamma_2 "
        "must vanish for a shape-preserving orbit of non-constant size, and terms with "
        "distinct positive bases g are linearly independent, so each grouped coefficient "
        "must vanish on its own.  The amplitude a_j1 is positive and the witness form "
        "cannot vanish for positive masses: no admissible masses exist."
    )
    lines.append(
        "Convention note: the delta difference carries (m_2 - m_1) on the merged (2,1) "
        "term and the gamma-difference sum runs over j = 3..n; derivatives preserve both."
    )
    if cert.feasibility_rho is not None:
        verdict = "feasible" if cert.feasibility_feasible else "infeasible"
        lines.append(
            f"Independent cross-check: linear mass-feasibility at rho = {cert.feasibility_rho:g} "
            f"-> {verdict}."
        )
    return "\n".join(lines)


def classify_case(cfg: PolygonConfig, j: int) -> Certificate:
    """Derive the witness coefficient form(s) for the contradiction index j."""
    _require_exact(cfg)
    _require_canonical(cfg)
    n = cfg.n
    if not 3 <= j <= n:
        raise ValueError(f"witness index {j} outside 3..{n}")
    if pairing_possibility1(cfg, j) is not None:
        raise ValueError(f"vertex {j} does not witness irregularity; its successor pairing holds")
    u = pairing_u(cfg, j)
    v = pairing_v(cfg, j)
    if v == 2:
        # c_21 = c_j1 would force alpha_j = 1 - gap(1,2); minimality of the
        # first gap then pins j = n with the successor pairing holding, which
        # contradicts the choice of j.
        raise InternalConsistencyError("v = 2 cannot occur at a witness index")
    d_j1 = (cfg.turns[j - 1] - cfg.turns[0]) % 1
    rad = cfg.radians
    c_j1 = 1.0 - math.cos(rad[j - 1] - rad[0])
    s_j1 = math.sin(rad[j - 1] - rad[0])
    t = s_j1 / c_j1

    def s_nonzero_required():
        if d_j1 == Fraction(1, 2):
            raise InternalConsistencyError(
                f"s_j1 = 0 at witness j={j} although a u pairing exists"
            )

    def accumulate(pairs) -> MassForm:
        # indices may repeat (u can equal j); coefficients add up
        coeffs: dict[int, float] = {}
        for idx, coeff in pairs:
            coeffs[idx] = coeffs.get(idx, 0.0) + coeff
        return MassForm.from_terms(n, coeffs)

    if u is None and v is None:
        case = "case1"
        forms = (
            WitnessForm("delta", accumulate([(j, 1.0)]), f"a_j1 * m{j}", True),
        )
    elif u is not None and v is None:
        case = "case2u"
        s_nonzero_required()
        gform = accumulate([(j, t), (u, t)])
        label = f"2*m{j}" if u == j else f"m{j} + m{u}"
        forms = (
            WitnessForm("gamma", gform, f"a_j1 * (s_j1/c_j1) * ({label})", gform.sign_definite),
        )
    elif u is None and v is not None:
        case = "case2v"
        dform = accumulate([(j, 1.0), (v, 1.0)])
        forms = (WitnessForm("delta", dform, f"a_j1 * (m{j} + m{v})", True),)
    else:
        case = "case3"
        s_nonzero_required()
        dform = accumulate([(j, 1.0), (v, 1.0), (u, -1.0)])
        gform = accumulate([(j, t), (v, -t), (u, t)])
        d_label = f"m{v}" if u == j else f"m{j} + m{v} - m{u}"
        g_label = f"2*m{j} - m{v}" if u == j else f"m{j} - m{v} + m{u}"
        forms = (
            WitnessForm("delta", dform, f"a_j1 * ({d_label})", dform.sign_definite),
            WitnessForm("gamma", gform, f"a_j1 * (s_j1/c_j1) * ({g_label})", gform.sign_definite),
        )
    if case in ("case1", "case2v"):
        failing = "delta"
    elif case == "case2u":
        failing = "gamma"
    elif forms[0].sign_definite:
        failing = "delta"
    elif forms[1].sign_definite:
        failing = "gamma"
    else:
        failing = "disjunction"
    cert = Certificate(
        polygon=cfg,
        canonical=cfg,
        special_j=j,
        case_tag=case,
        u=u,
        v=v,
        failing_equation=failing,
        witness_forms=forms,
        narrative="",
    )
    return replace(cert, narrative=_narrative(cert))


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the linear search for admissible positive masses."""

    feasible: bool
    masses: tuple[float, ...] | None
    residual: float
    rho: float
    floor: float

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "masses": None if self.masses is None else list(self.masses),
            "residual": None if not math.isfinite(self.residual) else self.residual,
            "rho": self.rho,
            "floor": self.floor,
        }


def mass_feasibility(cfg: PolygonConfig, rho, floor: float = 1e-9) -> FeasibilityResult:
    """Search for positive masses killing every grouped coefficient form.

    Solves the linear program {all grouped forms = 0, m_i >= floor}; the
    system is homogeneous in the masses, so the verdict is independent of the
    floor and the program is solved with a unit lower bound for conditioning.
    Rho only scales each grouped form by a positive amplitude, so the program
    is solved once per polygon on the rho-free forms; the residual is taken
    against the forms at the given rho.  Witness masses are reported in
    canonical vertex order.
    """
    if not floor > 0.0:
        raise ValueError(f"mass floor must be positive, got {floor!r}")
    canon = canonicalize(cfg)
    system = base_groups(canon, rho)
    unit_masses = _rho_free_masses(canon)
    if unit_masses is None:
        return FeasibilityResult(False, None, math.inf, system.rho, floor)
    masses = np.asarray(unit_masses)
    if floor > 1.0:
        masses = masses * floor
    rows, _ = system.equality_rows()
    residual = float(np.max(np.abs(rows @ masses)))
    if residual > 1e-10:
        raise InternalConsistencyError(
            f"feasible point violates the grouped forms: residual {residual!r}"
        )
    return FeasibilityResult(True, tuple(float(m) for m in masses), residual, system.rho, floor)


def certify(cfg: PolygonConfig, rho=None, floor: float = 1e-9) -> Certificate:
    """Produce the full nonexistence certificate for an irregular polygon.

    Canonicalizes, locates the witness index, runs the case analysis, and
    cross-checks against the independent feasibility search at a fixed
    interior rho (default 1/2; pass a negative rho for the hyperbolic
    branch).  The two routes disagreeing is an internal error, never a
    result.
    """
    _require_exact(cfg)
    canon = canonicalize(cfg)
    j = find_contradiction_j(canon)  # raises RegularPolygonError for a regular polygon
    cert = classify_case(canon, j)
    rho_v = 0.5 if rho is None else _rho_value(rho)
    feas = mass_feasibility(canon, rho_v, floor)
    if feas.feasible:
        raise DisagreementError(
            f"case analysis found witness {cert.case_tag} at j={j} but the mass "
            f"search returned feasible masses {feas.masses} at rho={rho_v}"
        )
    cert = replace(
        cert,
        polygon=cfg,
        feasibility_rho=rho_v,
        feasibility_feasible=False,
    )
    return replace(cert, narrative=_narrative(cert))
