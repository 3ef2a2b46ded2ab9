"""Nonexistence certificates for irregular polygons.

A shape-preserving orbit with non-constant size forces every rho-derivative of
the differences delta_1 - delta_2 and gamma_1 - gamma_2 to vanish.  Each
derivative is a linear combination of exponential-like terms a_ji * g_ji^k
with base g_ji = c_ji / (2 - c_ji rho); bases with distinct c are distinct,
so each group of equal-c terms must cancel on its own.  For an irregular
polygon in canonical rotation there is a vertex index j whose group cannot
cancel with positive masses, and this module mechanizes that argument along
three routes that share only the canonical rotation and its turn residues:

  * the grouping (_difference_groups) sorts the 2n - 3 terms of the two
    differences by exact chord class into integer delta and gamma rows;
    base_groups scales them by their amplitude at one rho,
  * the case analysis: find_contradiction_j locates the witness index and
    classify_case derives the non-vanishing coefficient form(s) from the
    pairing identities, each an integer mass row times one positive factor,
  * mass_feasibility independently decides whether positive masses exist
    for every difference delta_i - delta_1 and gamma_i - gamma_1: their
    chord-class rows admit only equal masses, which solve them exactly when
    every vertex sees the same separations alpha_j - alpha_i (mod 1), read
    straight from the turn residues (the argument is in _exact_system).

certify requires all three to agree: each witness row must equal the row of
the (j,1) group entry for entry (the witness check, on integers), and the
feasibility search must find no masses.

Angle arithmetic on the certification path is exact (rational fractions of a
turn, held as integer residues modulo their common denominator), so group
membership, the signs of s and the pairing identities carry no float
tolerance.
"""

from __future__ import annotations

import functools
import math

from . import _LAZY_NAMES
from .errors import (
    DisagreementError,
    InternalConsistencyError,
    RegularPolygonError,
)
from .polygon import (
    PolygonConfig,
    _Record,
    _check_kernel_domain,
    _kernel_power,
    _turn_radians,
    _turn_strings,
    canonicalize,
    chord_c,
    is_regular,
)

__all__ = _LAZY_NAMES["certificate"]

# Canonical polygons whose exact mass verdict is kept.  Callers ask about one
# polygon at a few rho in a row (certify, then mass_feasibility per rho); a
# polygon revisited only after many others is solved again, which costs time
# and never changes a result.
_MEMO_POLYGONS = 32

# The mass floor that feasibility reports name.  The system is homogeneous,
# so the verdict never depends on it, and the reported equal masses, all 1,
# already clear it.
_MASS_FLOOR = 1e-9


def mu_derivative(c: float, rho: float, k: int) -> float:
    """k-th rho-derivative of the attraction kernel mu(c, rho).

    Differentiating c^(-1/2) * (2 - c*rho)^(-3/2) k times multiplies by
    (3/2 + l) * c at step l, so the closed form is

        prod_{l=0}^{k-1} (3/2 + l) * c^(k - 1/2) / (2 - c*rho)^(3/2 + k)

    and k = 0 is mu itself, 1 / (c^(1/2) (2 - c*rho)^(3/2)).
    """
    # inf % 1 and nan % 1 are nan, so non-finite orders fail here too
    if not (k >= 0 and k % 1 == 0):
        raise ValueError(f"derivative order must be a nonnegative integer, got {k!r}")
    _, power = _kernel_power(c, float(rho), 1.5 + k)
    if k == 0:
        return 1.0 / (math.sqrt(c) * power)
    pref = 1.0
    for l in range(int(k)):
        pref *= 1.5 + l
    return pref * c ** (k - 0.5) / power


def decompose(c: float, rho: float) -> tuple[float, float]:
    """Split the derivative kernel into amplitude and base: a * g^k.

    a = c^(1/2) / (2 - c*rho)^(3/2) and g = c / (2 - c*rho), so that
    a * g^k = c^(1/2 + k) / (2 - c*rho)^(3/2 + k).  Both are positive on the
    valid domain, and g is strictly increasing in c at fixed rho, which makes
    equal bases equivalent to equal chords.
    """
    base, power = _kernel_power(c, float(rho))
    return math.sqrt(c) / power, c / base


class BaseGroup(_Record):
    """All terms sharing one chord value c, hence one base g.

    key is the exact turn class min(d, 1 - d) of the members' separation,
    members the (j, i) pairs of the group's terms, delta_form its integer
    delta row scaled by a, and gamma_form its gamma sign row scaled by
    a * |s/c|.
    """

    _fields = ("key", "c", "a", "g", "members", "delta_form", "gamma_form")


def _require_canonical(cfg: PolygonConfig):
    # reading the residues also rejects float angles
    if cfg.residues != cfg.canonical_residues:
        raise ValueError("polygon must be in canonical rotation (minimal first gap)")


def _difference_groups(res: tuple[int, ...], full: int, only: int | None = None):
    """The paper's grouping of the 2n - 3 terms of delta_1 - delta_2 and gamma_1 - gamma_2.

    The delta difference carries (m_2 - m_1) on the merged (2,1) term and
    +/- m_j on (j,1), (j,2) for j = 3..n; the gamma difference carries
    (m_1 + m_2) s_21/c_21 on (2,1) and +/- m_j s_ji/c_ji elsewhere.  Terms
    whose separations d = alpha_j - alpha_i (mod 1) share the class
    k = min(d, 1 - d) share c, and their s/c differ only in sign, positive
    for d < 1/2; a half-turn term has s = 0 and drops from gamma.  Only the
    turn residues res modulo full are read.  Returns {k: (members, delta
    row, gamma row)} with k a residue modulo full, members the (j, i) pairs
    of the class, and integer rows over the masses; the gamma row leaves
    out the common factor |s/c| of its class.  With only given, the other
    classes are skipped.
    """
    n = len(res)
    # (j, i, delta terms, gamma terms before the sign of s), as (vertex, coefficient) pairs
    terms = [(2, 1, ((2, 1), (1, -1)), ((1, 1), (2, 1)))]
    terms += [(j, i, ((j, x),), ((j, x),)) for j in range(3, n + 1) for i, x in ((1, 1), (2, -1))]
    groups: dict[int, tuple[list[tuple[int, int]], list[int], list[int]]] = {}
    for j, i, delta, gamma in terms:
        d = (res[j - 1] - res[i - 1]) % full
        k = d if 2 * d <= full else full - d
        if only is not None and k != only:
            continue
        members, drow, grow = groups.setdefault(k, ([], [0] * n, [0] * n))
        members.append((j, i))
        sign = (2 * d < full) - (2 * d > full)  # sign of s; 0 at a half turn
        for idx, x in delta:
            drow[idx - 1] += x
        for idx, x in gamma:
            grow[idx - 1] += sign * x
    return groups


@functools.lru_cache(maxsize=_MEMO_POLYGONS)
def _exact_system(res: tuple[int, ...], full: int) -> tuple[float, bool]:
    """The polygon's largest class chord, and whether positive masses exist.

    The polygon is given by its canonical residues, sorted, which every
    rotation shares.  For i = 2..n, grouping the terms of delta_i - delta_1 and
    gamma_i - gamma_1 by chord class gives one integer delta row and one
    gamma sign row per class, and the system {A m = 0, m >= 1}; rho scales
    each row only by a positive amplitude a(c, rho), so the verdict holds at
    every rho.  It follows in three steps:

      1. The delta rows of difference i add up to e_1 - e_i, so only equal
         masses can solve the system.
      2. Equal masses solve it exactly when every row sums to zero.
      3. For a class k < 1/2, the delta sum counts the separations
         d = alpha_j - alpha_i (mod 1) in {k, 1 - k} that vertex i sees,
         minus those that vertex 1 sees, and the gamma sum counts their
         signed difference.  A half-turn counts in delta only.  So every row
         sums to zero exactly when all vertices see the same separations.

    The widest class pairs a vertex with a neighbour of its antipode: for
    b after a, min(b - a, full - (b - a)) rises while b < a + full/2 and
    falls from there on, so only the last b below and the first b at or
    above count.  Both move forward with a, so one pass finds them.
    """
    seen = {(r - res[0]) % full for r in res}
    feasible = all({(r - s) % full for r in res} == seen for s in res[1:])
    n = len(res)
    half = (full + 1) // 2  # b - a >= half exactly when 2 (b - a) >= full
    widest = k = 0
    for a in res:
        while k < n and res[k] < a + half:
            k += 1
        if res[k - 1] - a > widest:
            widest = res[k - 1] - a
        if k < n and full - (res[k] - a) > widest:
            widest = full - (res[k] - a)
    return 1.0 - math.cos(_turn_radians(widest, full)), feasible


def base_groups(cfg: PolygonConfig, rho) -> tuple[BaseGroup, ...]:
    """Group the difference-equation terms by chord value at the given rho.

    Needs exact turn angles.  The groups are those of _difference_groups,
    which do not depend on rho, in increasing c; here each group's rows carry
    the shared amplitude a(c, rho) as a positive common factor, the gamma row
    also the class's |s/c|, and the bases g must increase strictly with c.
    """
    from fractions import Fraction

    _require_canonical(cfg)
    res, full = cfg.residues
    groups = []
    for k, (members, delta, gamma) in sorted(_difference_groups(res, full).items()):
        angle = _turn_radians(k, full)
        c = 1.0 - math.cos(angle)
        a, g = decompose(c, rho)
        t = a * math.sin(angle) / c
        groups.append(
            BaseGroup(
                key=Fraction(k, full),
                c=c,
                a=a,
                g=g,
                members=tuple(members),
                delta_form=tuple(a * x for x in delta),
                gamma_form=tuple(t * x for x in gamma),
            )
        )
    for g0, g1 in zip(groups, groups[1:]):
        if not g0.g < g1.g:
            raise InternalConsistencyError(
                f"base map not strictly increasing across groups; "
                f"g({g0.c}) = {g0.g} vs g({g1.c}) = {g1.g}"
            )
    return tuple(groups)


def _vertex_lookup(cfg: PolygonConfig) -> tuple[tuple[int, ...], int, dict[int, int]]:
    """Turn residues, their modulus, and the 1-based vertex at each residue."""
    res, full = cfg.residues
    return res, full, {r: k + 1 for k, r in enumerate(res)}


def pairing_possibility1(cfg: PolygonConfig, j: int) -> int | None:
    """Vertex u with alpha_u = alpha_j + (alpha_2 - alpha_1) (mod 1), if any.

    In canonical rotation such a u can only be the cyclic successor j+1
    (vertex 1 when j = n); finding any other vertex means the caller passed
    a non-canonical configuration.
    """
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
    _require_canonical(cfg)
    if is_regular(cfg):
        raise RegularPolygonError("regular polygons admit the orbit family; nothing to certify")
    for j in range(3, cfg.n + 1):
        if pairing_possibility1(cfg, j) is None:
            return j
    raise InternalConsistencyError(
        "irregular canonical polygon with no witness index in 3..n"
    )


class WitnessForm(_Record):
    """A grouped coefficient form recorded by the certificate, over a_j1 > 0.

    The form is factor * row: row holds its integer mass coefficients, signs
    included, and factor > 0 multiplies all of them, 1 for a delta form and
    |s_j1/c_j1| for a gamma form.  equation is "delta" or "gamma".
    """

    _fields = ("equation", "row", "factor", "pattern")

    @property
    def sign_definite(self) -> bool:
        """Whether the form cannot vanish for positive masses: one strict sign, some entry."""
        return len({x > 0 for x in self.row if x}) == 1


class Certificate(_Record):
    """Mechanized nonexistence argument for one irregular polygon.

    case_tag is "case1", "case2u", "case2v" or "case3", failing_equation
    "delta", "gamma" or "disjunction", and feasibility_rho, None by default,
    the rho at which certify's cross-check found no masses.
    """

    _fields = (
        "polygon", "canonical", "special_j", "case_tag", "u", "v",
        "failing_equation", "witness_forms", "feasibility_rho",
    )
    _defaults = {"feasibility_rho": None}

    def to_json_dict(self) -> dict:
        rho = self.feasibility_rho
        return {
            "n": self.canonical.n,
            "angles": _turn_strings(*self.polygon.residues),
            "canonical_angles": _turn_strings(*self.canonical.residues),
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
                        {"index": i + 1, "coefficient": w.factor * x}
                        for i, x in enumerate(w.row)
                        if x
                    ],
                }
                for w in self.witness_forms
            ],
            "feasibility": None if rho is None else {"rho": rho, "verdict": "infeasible"},
            "narrative": self.narrative,
        }

    @property
    def narrative(self) -> str:
        """The argument in prose, rendered from the other fields."""
        canon = self.canonical
        j = self.special_j
        succ = j + 1 if j < canon.n else 1
        res, full = canon.residues
        gap_1, gap_j = _turn_strings((res[1] - res[0], (res[succ - 1] - res[j - 1]) % full), full)
        lines = [
            "Nonexistence certificate for the polygon with canonical turn angles ("
            + ", ".join(_turn_strings(res, full))
            + ").",
            f"Canonical rotation makes the first gap minimal: gap(1,2) = {gap_1}.",
            f"Witness index j = {j}: gap({j},{succ}) = {gap_j} differs from the first gap, "
            "so no vertex u satisfies alpha_u = alpha_j + (alpha_2 - alpha_1) (mod 1) and no "
            "(u,2) term of that kind can share the base of the (j,1) term.",
            "Pairing search in exact turn arithmetic:",
            "  u with alpha_j + alpha_u = alpha_1 + alpha_2 (mod 1): "
            + (f"u = {self.u}" if self.u is not None else "none"),
            "  v with alpha_j + alpha_v = 2*alpha_1 (mod 1), v != j: "
            + (f"v = {self.v}" if self.v is not None else "none"),
            "Uniqueness facts used: (I) such a v is unique and has s_v1 = -s_j1; "
            "(II) such a u is unique and has s_u2 = -s_j1; (III) equal c implies equal a.",
        ]
        if self.case_tag == "case1":
            lines.append(
                "Case 1: the (j,1) term stands alone in its base group, so the grouped "
                f"coefficient of g_j1^k in the delta-difference equation is {self.witness_forms[0].pattern}."
            )
        elif self.case_tag == "case2u":
            lines += [
                "Case 2 (u present): the (j,1) and (u,2) terms share a base; their delta "
                "coefficients m_j - m_u may cancel, but in the gamma-difference equation the "
                f"grouped coefficient is {self.witness_forms[0].pattern}.",
                "s_j1 = 0 would put alpha_j - alpha_1 = 1/2 turn and restore the successor "
                "pairing, contradicting the choice of j; the exact check confirms s_j1 != 0.",
            ]
        elif self.case_tag == "case2v":
            lines.append(
                "Case 2 (v present): the (j,1) and (v,1) terms share a base; their gamma "
                "coefficients m_j - m_v may cancel, but in the delta-difference equation the "
                f"grouped coefficient is {self.witness_forms[0].pattern}."
            )
        else:
            lines.append(
                "Case 3 (u and v present): the group carries delta coefficient "
                f"{self.witness_forms[0].pattern} and gamma coefficient {self.witness_forms[1].pattern}; "
                "their mass patterns add to 2*m_j > 0, so at least one is nonzero."
            )
        lines += [
            "Every rho-derivative of the differences delta_1 - delta_2 and gamma_1 - gamma_2 "
            "must vanish for a shape-preserving orbit of non-constant size, and terms with "
            "distinct positive bases g are linearly independent, so each grouped coefficient "
            "must vanish on its own.  The amplitude a_j1 is positive and the witness form "
            "cannot vanish for positive masses: no admissible masses exist.",
            "Convention note: the delta difference carries (m_2 - m_1) on the merged (2,1) "
            "term and the gamma-difference sum runs over j = 3..n; derivatives preserve both.",
        ]
        if self.feasibility_rho is not None:
            lines.append(
                f"Independent cross-check: linear mass-feasibility at rho = {self.feasibility_rho:g} "
                "-> infeasible."
            )
        return "\n".join(lines)


def classify_case(cfg: PolygonConfig, j: int) -> Certificate:
    """Derive the witness coefficient form(s) for the contradiction index j."""
    return Certificate(cfg, cfg, j, *_case_analysis(cfg, j), None)


def _case_analysis(cfg: PolygonConfig, j: int) -> tuple:
    """classify_case's certificate fields after j: case tag, u, v, failing equation, forms."""
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
    res, full = cfg.residues
    d = (res[j - 1] - res[0]) % full
    s = (2 * d < full) - (2 * d > full)  # sign of s_j1; 0 at a half turn

    def row(*terms):
        """The integer mass row summing (vertex, coefficient) pairs; u = j adds up."""
        out = [0] * n
        for idx, x in terms:
            out[idx - 1] += x
        return tuple(out)

    def gamma(terms, label):
        """A gamma form, whose factor |s_j1/c_j1| needs s_j1 != 0."""
        if not s:
            raise InternalConsistencyError(
                f"s_j1 = 0 at witness j={j} although a u pairing exists"
            )
        angle = _turn_radians(d, full)
        factor = abs(math.sin(angle)) / chord_c(angle, 0.0)
        return WitnessForm("gamma", row(*terms), factor, f"a_j1 * (s_j1/c_j1) * ({label})")

    if u is None and v is None:
        case = "case1"
        forms = (WitnessForm("delta", row((j, 1)), 1.0, f"a_j1 * m{j}"),)
    elif u is not None and v is None:
        case = "case2u"
        label = f"2*m{j}" if u == j else f"m{j} + m{u}"
        forms = (gamma(((j, s), (u, s)), label),)
    elif u is None and v is not None:
        case = "case2v"
        forms = (WitnessForm("delta", row((j, 1), (v, 1)), 1.0, f"a_j1 * (m{j} + m{v})"),)
    else:
        case = "case3"
        d_label = f"m{v}" if u == j else f"m{j} + m{v} - m{u}"
        g_label = f"2*m{j} - m{v}" if u == j else f"m{j} - m{v} + m{u}"
        forms = (
            WitnessForm("delta", row((j, 1), (v, 1), (u, -1)), 1.0, f"a_j1 * ({d_label})"),
            gamma(((j, s), (v, -s), (u, s)), g_label),
        )
    # case 3 may have no sign-definite form; then one of its two must be nonzero
    failing = next((w.equation for w in forms if w.sign_definite), "disjunction")
    return case, u, v, failing, forms


class FeasibilityResult(_Record):
    """Outcome of the exact decision on admissible positive masses."""

    _fields = ("feasible", "masses", "residual", "rho", "floor")

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "masses": None if self.masses is None else list(self.masses),
            "residual": None if not math.isfinite(self.residual) else self.residual,
            "rho": self.rho,
            "floor": self.floor,
        }


def mass_feasibility(cfg: PolygonConfig, rho) -> FeasibilityResult:
    """Decide whether positive masses kill every chord-class coefficient.

    Decides {A m = 0, m_i > 0} exactly, with A the integer class rows of
    every difference delta_i - delta_1 and gamma_i - gamma_1; these rows
    admit only equal masses, so the system is feasible exactly when every
    vertex sees the same separations (see _exact_system).  The verdict is
    independent of any floor and of rho, and is found once per polygon.  At
    the given rho every class must lie in the kernel domain; 2 - c*rho is
    monotone in c, so checking the largest chord checks them all.  A
    feasible system reports the equal masses (1, ..., 1), which solve the
    rows exactly, so the residual is 0.
    """
    rho_v = float(rho)
    widest, feasible = _exact_system(*cfg.canonical_residues)
    _check_kernel_domain(widest, rho_v)
    if not feasible:
        return FeasibilityResult(False, None, math.inf, rho_v, _MASS_FLOOR)
    return FeasibilityResult(True, (1.0,) * cfg.n, 0.0, rho_v, _MASS_FLOOR)


def _check_witness(canon: PolygonConfig, j: int, case_tag: str, forms: tuple[WitnessForm, ...]):
    """Require each witness row to be the row of the (j,1) group, entry for entry.

    The grouping reads only the turn residues, never the pairings, so a
    pairing fault that changes the case changes a witness row and fails
    here.  A delta form's row must equal the group's integer delta row and a
    gamma form's row its gamma sign row; the rows are integers, so the
    comparison is exact, and the positive factor of a form scales its whole
    row.
    """
    res, full = canon.residues
    d = (res[j - 1] - res[0]) % full
    k = min(d, full - d)
    _, delta, gamma = _difference_groups(res, full, only=k)[k]
    for wf in forms:
        group = tuple(delta if wf.equation == "delta" else gamma)
        if wf.row != group:
            raise InternalConsistencyError(
                f"{case_tag} {wf.equation} witness row {wf.row} at j={j} "
                f"is not the group of the ({j},1) term, row {group}"
            )


def certify(cfg: PolygonConfig, rho=None) -> Certificate:
    """Produce the full nonexistence certificate for an irregular polygon.

    Canonicalizes, locates the witness index, runs the case analysis,
    checks its witness forms against the paper's grouping, and cross-checks
    against the independent feasibility search at a fixed interior rho
    (default 1/2; pass a negative rho for the hyperbolic branch).  Any of
    the three routes disagreeing is an internal error, never a result.
    """
    canon = canonicalize(cfg)
    # raises ValueError for float angles, RegularPolygonError for a regular polygon
    j = find_contradiction_j(canon)
    case, u, v, failing, forms = _case_analysis(canon, j)
    _check_witness(canon, j, case, forms)
    rho_v = 0.5 if rho is None else float(rho)
    feas = mass_feasibility(canon, rho_v)
    if feas.feasible:
        raise DisagreementError(
            f"case analysis found witness {case} at j={j} but the mass "
            f"search returned feasible masses {feas.masses} at rho={rho_v}"
        )
    return Certificate(cfg, canon, j, case, u, v, failing, forms, rho_v)
