"""The grouped coefficient systems, case analysis, and feasibility search.

The heart of the package: an irregular polygon must yield a witness index
whose grouped mass form cannot vanish with positive masses, and the
independent exact mass search must agree.
"""

import functools
import hashlib
import io
import itertools
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from curvednbody import (
    CoincidentAngleError,
    DisagreementError,
    InternalConsistencyError,
    KernelDomainError,
    PolygonConfig,
    RegularPolygonError,
    WitnessForm,
    base_groups,
    canonicalize,
    certify,
    classify_case,
    cyclic_gaps,
    decompose,
    delta_gamma,
    find_contradiction_j,
    is_regular,
    mass_feasibility,
    mu_derivative,
    pairing_possibility1,
    pairing_u,
    pairing_v,
)
from curvednbody import certificate, cli
from curvednbody.jsonout import dumps

from conftest import random_irregular_polygon


def turns(*t):
    return PolygonConfig.from_turns(tuple(F(x) for x in t))


def value(form, masses):
    """A linear mass form, one coefficient per body, evaluated at the given masses."""
    return math.fsum(x * float(m) for x, m in zip(form, masses, strict=True))


def mu(c, rho):
    """Attraction kernel 1 / (c^(1/2) (2 - c rho)^(3/2)) on its domain, written out."""
    base = 2.0 - c * rho
    assert 0.0 < c <= 2.0 and 0.0 < base < math.inf
    return 1.0 / (math.sqrt(c) * base**1.5)


def verdict(cert):
    """The feasibility verdict a certificate emits."""
    return cert.to_json_dict()["feasibility"]["verdict"]


def prefactor(k):
    out = 1.0
    for l in range(k):
        out *= 1.5 + l
    return out


class TestMuDerivative:
    def test_order_zero_is_mu_exactly(self, pyrng):
        for _ in range(50):
            c = pyrng.uniform(0.05, 2.0)
            rho = pyrng.uniform(-2.0, 0.9)
            assert mu_derivative(c, rho, 0) == mu(c, rho)

    def test_frozen_reference_values(self):
        # high-precision references from an independent evaluation
        assert mu_derivative(2.0, 0.0, 2) == pytest.approx(15.0 / 16.0, rel=1e-14)
        assert mu_derivative(1.0, 0.0, 1) == pytest.approx(0.26516504294495533, rel=1e-14)
        assert mu_derivative(1.5, 0.25, 3) == pytest.approx(4.068996495416128, rel=1e-13)
        assert mu_derivative(0.5, -1.0, 4) == pytest.approx(0.033809347819796820, rel=1e-13)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            mu_derivative(1.0, 0.5, -1)

    @pytest.mark.parametrize("k", [1.5, math.inf, -math.inf, math.nan])
    def test_rejects_non_integer_order(self, k):
        with pytest.raises(ValueError, match="derivative order must be a nonnegative integer"):
            mu_derivative(1.0, 0.5, k)

    @pytest.mark.parametrize("call, power", [
        (lambda: mu_derivative(1.0, -1e300, 0), "3/2"),
        (lambda: mu_derivative(1.0, -1e200, 1), "5/2"),
        (lambda: decompose(1.0, -1e300), "3/2"),
        (lambda: base_groups(turns(0, "1/5", "1/2"), -1e300), "3/2"),
        # 1.5 + 2**60 rounds to the integer 2**60, which prints without a denominator
        (lambda: mu_derivative(1.0, 0.5, 2**60), "1152921504606846976"),
    ], ids=["mu_derivative-0", "mu_derivative-1", "decompose", "base_groups", "mu_derivative-2**60"])
    def test_far_hyperbolic_power_overflow_is_a_domain_error(self, call, power):
        # a valid rho whose base 2 - c*rho is finite but too large for its power
        with pytest.raises(KernelDomainError, match=rf"= \S+ overflows its {power} power$"):
            call()

    def test_power_underflow_is_a_domain_error(self):
        # base 2 - 2 * 0.9999999 is about 2e-7, and its 123/2 power is below
        # the smallest double; dividing by that 0.0 must not be attempted
        with pytest.raises(KernelDomainError, match=r"= \S+ underflows its 123/2 power$"):
            mu_derivative(2.0, 0.9999999, 60)

    def test_matches_central_difference(self, pyrng):
        """4th-order FD of the (k-1)-th closed form reproduces the k-th."""
        for _ in range(100):
            c = pyrng.uniform(0.1, 2.0)
            rho = pyrng.uniform(-2.0, 0.85)
            base = 2.0 - c * rho
            if base < 0.4:
                continue
            h = 0.004 * base / c
            for k in range(1, 5):
                f = lambda x: mu_derivative(c, x, k - 1)
                fd = (-f(rho + 2 * h) + 8 * f(rho + h) - 8 * f(rho - h) + f(rho - 2 * h)) / (12 * h)
                assert mu_derivative(c, rho, k) == pytest.approx(fd, rel=1e-6)


class TestDecompose:
    def test_boundary_examples(self):
        a, g = decompose(1.0, 1.0)
        assert (a, g) == (1.0, 1.0)
        a, g = decompose(2.0, 0.0)
        assert a == pytest.approx(0.5, rel=1e-15)
        assert g == pytest.approx(1.0, rel=1e-15)

    def test_power_identity(self, pyrng):
        for _ in range(100):
            c = pyrng.uniform(0.05, 2.0)
            rho = pyrng.uniform(-2.0, 0.9)
            a, g = decompose(c, rho)
            base = 2.0 - c * rho
            for k in range(7):
                assert a * g**k == pytest.approx(
                    c ** (0.5 + k) / base ** (1.5 + k), rel=1e-12
                )

    def test_relation_to_derivative_kernel(self, pyrng):
        # a*g^k carries one extra factor of c relative to the true k-th
        # derivative divided by its prefactor
        for _ in range(50):
            c = pyrng.uniform(0.1, 2.0)
            rho = pyrng.uniform(-1.5, 0.8)
            a, g = decompose(c, rho)
            k = 3
            ratio = mu_derivative(c, rho, k) / prefactor(k)
            assert a * g**k == pytest.approx(c * ratio, rel=1e-12)

    def test_base_monotone_in_chord(self, pyrng):
        for rho in (0.7, 0.25, -0.5, -3.0):
            gs = [decompose(c, rho)[1] for c in np.linspace(0.05, 2.0, 40)]
            assert all(x < y for x, y in zip(gs, gs[1:]))


class TestBaseGroups:
    def test_uneven_triangle_grouping(self):
        cfg = turns(0, "1/4", "1/2")
        groups = base_groups(cfg, 0.5)
        assert len(groups) == 2
        assert all(len(grp.delta_form) == len(grp.gamma_form) == 3 for grp in groups)
        by_c = {round(grp.c, 9): grp for grp in groups}
        g1, g2 = by_c[1.0], by_c[2.0]
        a1, _ = decompose(1.0, 0.5)
        a2, _ = decompose(2.0, 0.5)
        # c=1 holds (2,1) and (3,2): delta (m2 - m1 - m3), gamma (m1 + m2 - m3)
        np.testing.assert_allclose(g1.delta_form, (-a1, a1, -a1), rtol=1e-13)
        np.testing.assert_allclose(g1.gamma_form, (a1, a1, -a1), rtol=1e-13)
        # c=2 holds (3,1) alone: delta m3, gamma killed by s=0
        np.testing.assert_allclose(g2.delta_form, (0.0, 0.0, a2), rtol=1e-13)
        assert g2.gamma_form == (0.0, 0.0, 0.0)

    def test_regular_triangle_single_group(self):
        cfg = turns(0, "1/3", "2/3")
        groups = base_groups(cfg, 0.5)
        assert len(groups) == 1
        # equal masses must annihilate both forms
        m = (1.0, 1.0, 1.0)
        assert value(groups[0].delta_form, m) == pytest.approx(0.0, abs=1e-14)
        assert value(groups[0].gamma_form, m) == pytest.approx(0.0, abs=1e-14)

    def test_generic_scalene_three_singletons(self):
        groups = base_groups(turns(0, "1/5", "1/2"), 0.25)
        assert len(groups) == 3
        for grp in groups:
            assert len(set(grp.members)) == 1

    def test_group_bases_strictly_increasing(self, pyrng):
        rng = random.Random(5)
        for _ in range(50):
            cfg = canonicalize(random_irregular_polygon(rng, 3 + rng.randrange(4)))
            gs = [grp.g for grp in base_groups(cfg, rng.choice([0.3, 0.7, -1.5]))]
            assert all(x < y for x, y in zip(gs, gs[1:]))

    def test_float_mode_rejected(self):
        cfg = canonicalize(PolygonConfig.from_radians((0.0, 1.0, 2.0)))
        with pytest.raises(ValueError, match="needs exact rational turn angles"):
            base_groups(cfg, 0.5)

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            base_groups(turns(0, "1/2", "3/4"), 0.5)


class TestPairings:
    def test_possibility1_regular(self):
        reg = turns(0, "1/4", "1/2", "3/4")
        assert pairing_possibility1(reg, 2) == 3
        assert pairing_possibility1(reg, 3) == 4
        assert pairing_possibility1(reg, 4) == 1

    def test_possibility1_absent(self):
        assert pairing_possibility1(turns(0, "1/4", "1/2"), 3) is None
        assert pairing_possibility1(turns(0, "1/4", "1/2", "5/8"), 3) is None

    def test_possibility1_rejects_non_canonical_hit(self):
        # first gap is not minimal, so a matching vertex lands off-successor
        cfg = turns(0, "1/2", "5/8")
        with pytest.raises(InternalConsistencyError):
            pairing_possibility1(cfg, 2)

    def test_pairing_u_examples(self):
        assert pairing_u(turns(0, "1/4", "1/2"), 3) is None
        assert pairing_u(turns(0, "1/8", "1/2", "5/8"), 4) == 3

    def test_pairing_v_examples(self):
        assert pairing_v(turns(0, "1/4", "1/2"), 3) is None
        assert pairing_v(turns(0, "1/4", "1/2", "3/4"), 4) == 2
        # self-match does not count
        assert pairing_v(turns(0, "1/10", "1/2", "7/10", "9/10"), 3) is None

    def test_pairings_unique_by_enumeration(self):
        rng = random.Random(9)
        for _ in range(200):
            cfg = canonicalize(random_irregular_polygon(rng, 3 + rng.randrange(4)))
            a = cfg.turns
            for j in range(3, cfg.n + 1):
                target_u = (a[0] + a[1] - a[j - 1]) % 1
                target_v = (2 * a[0] - a[j - 1]) % 1
                hits_u = [i for i, x in enumerate(a) if x % 1 == target_u]
                hits_v = [i + 1 for i, x in enumerate(a) if x % 1 == target_v and i + 1 != j]
                assert len(hits_u) <= 1
                assert len(hits_v) <= 1
                got_u = pairing_u(cfg, j)
                got_v = pairing_v(cfg, j)
                if got_u is not None:
                    assert a[got_u - 1] % 1 == target_u
                if got_v is not None:
                    assert hits_v == [got_v]


class TestFindContradiction:
    def test_examples(self):
        assert find_contradiction_j(turns(0, "1/4", "1/2")) == 3
        assert find_contradiction_j(turns(0, "1/8", "1/4", "1/2")) == 3
        assert find_contradiction_j(turns(0, "1/8", "1/2", "5/8")) == 4

    def test_regular_rejected(self):
        with pytest.raises(RegularPolygonError):
            find_contradiction_j(turns(0, "1/6", "1/3", "1/2", "2/3", "5/6"))

    def test_float_mode_rejected(self):
        with pytest.raises(ValueError):
            find_contradiction_j(PolygonConfig.from_radians((0.0, 1.0, 2.0)))

    def test_witness_is_first_broken_successor(self):
        rng = random.Random(21)
        for _ in range(200):
            cfg = canonicalize(random_irregular_polygon(rng, 3 + rng.randrange(4)))
            j = find_contradiction_j(cfg)
            assert 3 <= j <= cfg.n
            assert pairing_possibility1(cfg, j) is None
            for earlier in range(3, j):
                assert pairing_possibility1(cfg, earlier) is not None


class TestClassifyCase:
    def test_case1_fixture(self):
        cfg = turns(0, "1/8", "1/4", "3/8")
        cert = classify_case(cfg, 4)
        assert cert.case_tag == "case1"
        assert cert.u is None and cert.v is None
        assert cert.failing_equation == "delta"
        (wf,) = cert.witness_forms
        assert (wf.row, wf.factor) == ((0, 0, 0, 1), 1.0)
        assert wf.sign_definite

    def test_case1_with_half_turn_witness(self):
        # s_j1 = 0 here; the delta witness never touches it
        cfg = turns(0, "1/8", "1/2")
        cert = classify_case(cfg, 3)
        assert cert.case_tag == "case1"
        assert cert.failing_equation == "delta"

    def test_half_turn_guard_reads_the_residues(self, monkeypatch):
        # no real u pairing meets s_j1 = 0; forge one to reach the guard
        monkeypatch.setattr(certificate, "pairing_u", lambda cfg, j: j)
        with pytest.raises(InternalConsistencyError, match="s_j1 = 0 at witness j=3"):
            classify_case(turns(0, "1/8", "1/2"), 3)
        # alpha_4 - alpha_1 = 3/8 of a turn: not a half turn, so no guard
        assert classify_case(turns(0, "1/8", "1/4", "3/8"), 4).case_tag == "case2u"

    def test_case2u_fixture(self):
        cfg = turns(0, "1/8", "3/8", "3/4")
        cert = classify_case(cfg, 3)
        assert cert.case_tag == "case2u"
        assert cert.u == 4 and cert.v is None
        assert cert.failing_equation == "gamma"
        (wf,) = cert.witness_forms
        assert wf.sign_definite
        # alpha_3 - alpha_1 = 3/8 of a turn, so s_31 > 0
        assert wf.row == (0, 0, 1, 1)
        assert wf.factor == pytest.approx(math.sin(0.75 * math.pi) / (1 - math.cos(0.75 * math.pi)))

    def test_case2v_fixture(self):
        cfg = turns(0, "1/8", "1/4", "3/4")
        cert = classify_case(cfg, 3)
        assert cert.case_tag == "case2v"
        assert cert.u is None and cert.v == 4
        (wf,) = cert.witness_forms
        assert (wf.row, wf.factor) == ((0, 0, 1, 1), 1.0)

    def test_case3_fixture_records_both_forms(self):
        cfg = turns(0, "1/6", "1/3", "1/2", "2/3")
        cert = classify_case(cfg, 5)
        assert cert.case_tag == "case3"
        assert cert.u == 4 and cert.v == 3
        assert cert.failing_equation == "disjunction"
        dform, gform = cert.witness_forms
        assert dform.equation == "delta"
        assert gform.equation == "gamma"
        # delta pattern m5 + m3 - m4 and gamma pattern s_51 (m5 - m3 + m4),
        # with s_51 < 0 at 2/3 of a turn: their difference is 2*m5
        assert dform.row == (0, 0, 1, -1, 1)
        assert gform.row == (0, 0, 1, -1, -1)
        assert [a - b for a, b in zip(dform.row, gform.row)] == [0, 0, 0, 0, 2]
        assert dform.factor == 1.0 and gform.factor > 0

    def test_case3_with_u_equal_j_collapses_to_delta(self):
        cfg = turns(0, "1/5", "2/5", "3/5")
        cert = classify_case(cfg, 4)
        assert cert.case_tag == "case3"
        assert cert.u == 4 and cert.v == 3
        assert cert.failing_equation == "delta"
        dform = cert.witness_forms[0]
        # the u = j terms m4 - m4 add up to nothing
        assert dform.row == (0, 0, 1, 0)
        assert dform.sign_definite

    def test_gamma_factor_reads_no_float_radians(self, monkeypatch):
        # the case2u and case3 fixtures carry a gamma form, whose factor
        # |s_j1/c_j1| comes from the class angle of the residues
        polygons = [turns(0, "1/8", "3/8", "3/4"), turns(0, "1/6", "1/3", "1/2", "2/3")]
        expected = [dumps(certify(p).to_json_dict()) for p in polygons]

        def unavailable(self):
            raise AssertionError("float radians were read")

        monkeypatch.setattr(PolygonConfig, "radians", property(unavailable))
        assert [certify(p).case_tag for p in polygons] == ["case2u", "case3"]
        assert [dumps(certify(p).to_json_dict()) for p in polygons] == expected

    def test_rejects_index_where_pairing_exists(self):
        # at j=3 the gap matches the first gap, so there is no contradiction
        with pytest.raises(ValueError):
            classify_case(turns(0, "1/8", "1/2", "5/8"), 3)

    def test_accepts_any_broken_index(self):
        # j=4 also breaks the pairing even though the witness search stops at 3
        cert = classify_case(turns(0, "1/8", "1/4", "1/2"), 4)
        assert cert.case_tag in {"case1", "case2u", "case2v", "case3"}

    def test_case_shape_invariants(self):
        rng = random.Random(13)
        for _ in range(300):
            cfg = canonicalize(random_irregular_polygon(rng, 3 + rng.randrange(4)))
            cert = classify_case(cfg, find_contradiction_j(cfg))
            if cert.case_tag == "case1":
                assert cert.u is None and cert.v is None
            elif cert.case_tag == "case2u":
                assert cert.u is not None and cert.v is None
            elif cert.case_tag == "case2v":
                assert cert.u is None and cert.v is not None
            else:
                assert cert.u is not None and cert.v is not None
            if cert.failing_equation != "disjunction":
                assert any(
                    wf.sign_definite and wf.equation == cert.failing_equation
                    for wf in cert.witness_forms
                )


class TestMassFeasibility:
    def test_regular_polygons_feasible_with_equal_masses(self):
        for n in (3, 4, 5, 6):
            cfg = PolygonConfig.from_turns(tuple(F(k, n) for k in range(n)))
            res = mass_feasibility(cfg, 0.5)
            assert res.feasible
            assert res.masses is not None
            m = np.asarray(res.masses)
            np.testing.assert_allclose(m, m[0], rtol=1e-9)
            assert res.residual <= 1e-10

    def test_uneven_triangle_infeasible(self):
        res = mass_feasibility(turns(0, "1/4", "1/2"), 0.5)
        assert not res.feasible
        assert res.masses is None
        assert res.to_json_dict()["floor"] == 1e-9

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_rho_rejected(self, rho):
        # regular (feasible) and irregular (infeasible) polygons alike
        for cfg in (turns(0, "1/3", "2/3"), turns(0, "1/4", "1/2")):
            with pytest.raises(KernelDomainError):
                mass_feasibility(cfg, rho)
        with pytest.raises(KernelDomainError):
            certify(turns(0, "1/4", "1/2"), rho)

    def test_hyperbolic_rho(self):
        assert not mass_feasibility(turns(0, "1/4", "1/2"), -1.0).feasible
        cfg = PolygonConfig.from_turns(tuple(F(k, 5) for k in range(5)))
        assert mass_feasibility(cfg, -1.0).feasible

    def test_random_irregular_always_infeasible(self):
        rng = random.Random(17)
        for _ in range(100):
            cfg = random_irregular_polygon(rng, 3 + rng.randrange(4))
            assert not mass_feasibility(cfg, 0.5).feasible

    @pytest.mark.parametrize(
        "cfg, rho",
        [
            # 1 - cos rounds the smallest chord to 0.0
            (turns(0, F(1, 10**10), F(1, 2) + F(1, 1000)), 0.5),
            # two chords near 2 round to bases that tie
            (turns(0, "1/4", F(1, 2) + F(1, 1000), F(3, 4) + F(1, 1000) + F(1, 10**14)), -1.0),
        ],
    )
    def test_verdict_ignores_chord_rounding(self, cfg, rho):
        # the exact verdict reads no float chord, so valid polygons whose
        # chords round badly still get one
        assert not mass_feasibility(cfg, rho).feasible
        assert verdict(certify(cfg, rho)) == "infeasible"

    def test_square_far_hyperbolic(self):
        # every base is about 1e-300 here, so the float bases tie
        square = PolygonConfig.from_turns(tuple(F(k, 4) for k in range(4)))
        res = mass_feasibility(square, -1e300)
        assert res.feasible and res.masses == (1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("rho", [1.5, math.nan])
    def test_square_outside_kernel_domain(self, rho):
        # the widest chord (c = 2) decides the domain for every class
        square = PolygonConfig.from_turns(tuple(F(k, 4) for k in range(4)))
        with pytest.raises(KernelDomainError):
            mass_feasibility(square, rho)


def reference_feasible(cfg, rho):
    """Per-rho LP verdict on the rho-scaled grouped rows, solved here."""
    # every nonzero grouped form is a row; the (2,1) delta form carries -m_1,
    # which no other term cancels, so there is always one
    rows = [
        form
        for grp in base_groups(canonicalize(cfg), rho)
        for form in (grp.delta_form, grp.gamma_form)
        if any(form)
    ]
    return linprog_feasible(rows, cfg.n)


class TestRhoFreeFeasibility:
    RHOS = (0.25, 0.5, 0.75, -1.0, -10.0)

    def test_verdict_matches_per_rho_reference_lp(self):
        rng = random.Random(43)
        for n in range(3, 13):
            for _ in range(3):
                cfg = random_irregular_polygon(rng, n, 10**4)
                for rho in self.RHOS:
                    assert mass_feasibility(cfg, rho).feasible == reference_feasible(cfg, rho), (
                        cfg.turns,
                        rho,
                    )

    def test_regular_polygons_feasible_at_every_rho(self):
        for n in range(3, 13):
            cfg = PolygonConfig.from_turns(tuple(F(k, n) for k in range(n)))
            for rho in self.RHOS:
                res = mass_feasibility(cfg, rho)
                assert res.feasible and reference_feasible(cfg, rho), (n, rho)
                assert res.masses == (1.0,) * n, (n, rho)
                assert res.residual == 0.0

    def test_widest_class_is_the_all_pairs_maximum(self, monkeypatch):
        # _exact_system tries the two neighbours of each vertex's antipode;
        # the reference scans every pair.  Odd and even moduli, small and
        # large, and sets with a half-turn pair, which only an even one has
        widest = []
        monkeypatch.setattr(certificate, "_turn_radians", lambda k, full: widest.append(k) or 1.0)
        solve = certificate._exact_system.__wrapped__
        rng = random.Random(35)
        for trial in range(10_000):
            n = rng.randint(3, 14)
            full = 2 * rng.randint(n, 30 if trial % 4 < 2 else 5000) + trial % 2
            res = set()
            if full % 2 == 0 and trial % 3 == 0:
                a = rng.randrange(full)
                res = {a, (a + full // 2) % full}
            while len(res) < n:
                res.add(rng.randrange(full))
            res = tuple(sorted(res))
            solve(res, full)
            assert widest.pop() == max(
                min((b - a) % full, (a - b) % full) for a, b in itertools.combinations(res, 2)
            ), (res, full)

    def test_results_do_not_depend_on_call_history(self):
        rhos = (0.25, 0.5, 0.75, -1.0)
        # Distinct canonical polygons, one more than the memo holds.
        evictors = [turns(0, F(1, k), "1/2") for k in range(3, certificate._MEMO_POLYGONS + 4)]
        for poly in (PolygonConfig.from_turns(tuple(F(k, 7) for k in range(7))),
                     turns(0, "1/8", "1/2", "5/8")):
            regular = is_regular(canonicalize(poly))

            def snapshot(rho):
                out = dumps(mass_feasibility(poly, rho).to_json_dict())
                if not regular:
                    out += dumps(certify(poly, rho).to_json_dict())
                return out

            def run_certify():
                if regular:
                    with pytest.raises(RegularPolygonError):
                        certify(poly)
                else:
                    certify(poly)

            for rho in rhos:
                certificate._exact_system.cache_clear()
                cold = snapshot(rho)
                for other in rhos:
                    if other != rho:
                        mass_feasibility(poly, other)
                assert snapshot(rho) == cold, (poly.turns, rho, "after other rho")
                run_certify()
                assert snapshot(rho) == cold, (poly.turns, rho, "after certify")
                for other in evictors:
                    mass_feasibility(other, 0.5)
                misses = certificate._exact_system.cache_info().misses
                assert snapshot(rho) == cold, (poly.turns, rho, "after eviction")
                assert certificate._exact_system.cache_info().misses == misses + 1


class TestCertify:
    def test_uneven_triangle_certificate(self):
        cert = certify(turns(0, "1/4", "1/2"))
        assert cert.special_j == 3
        assert cert.case_tag == "case1"
        assert cert.feasibility_rho == 0.5
        assert verdict(cert) == "infeasible"

    def test_regular_rejected(self):
        with pytest.raises(RegularPolygonError):
            certify(PolygonConfig.from_turns(tuple(F(k, 5) for k in range(5))))

    def test_float_mode_rejected(self):
        with pytest.raises(ValueError):
            certify(PolygonConfig.from_radians((0.0, 1.0, 2.0)))

    def test_non_canonical_input_keeps_original_angles(self):
        cert = certify(turns(0, "1/4", "3/4"))
        assert cert.polygon.turns == (F(0), F(1, 4), F(3, 4))
        assert cert.canonical.turns == (F(0), F(1, 4), F(1, 2))

    def test_hyperbolic_cross_check(self):
        cert = certify(turns(0, "1/4", "1/2"), rho=-1.0)
        assert cert.feasibility_rho == -1.0
        assert verdict(cert) == "infeasible"

    def test_json_rendering_is_deterministic_and_shaped(self):
        cert = certify(turns(0, "1/8", "1/2", "5/8"))
        doc = cert.to_json_dict()
        for key in ("n", "angles", "canonical_angles", "j", "case", "u", "v",
                    "witness_forms", "feasibility", "narrative"):
            assert key in doc
        assert doc["feasibility"] == {"rho": 0.5, "verdict": "infeasible"}
        text1 = dumps(doc)
        text2 = dumps(certify(turns(0, "1/8", "1/2", "5/8")).to_json_dict())
        assert text1 == text2
        json.loads(text1)  # valid JSON

    def test_narrative_mentions_the_argument(self):
        cert = certify(turns(0, "1/4", "1/2"))
        text = cert.narrative
        assert "Case 1" in text
        assert "j = 3" in text
        assert "positive masses" in text
        assert "infeasible" in text

    @pytest.mark.parametrize(
        "angles, j, succ, gap",
        [
            (("1/3", "7/12", "3/4", "11/12"), 3, 4, "5/12"),
            (("1/11", "4/11", "6/11"), 3, 1, "3/11"),
            (("0", "1/6", "2/3", "5/6"), 4, 1, "1/2"),
            (("1/3", "4/9", "5/9", "2/3", "7/9", "8/9"), 6, 1, "4/9"),
        ],
    )
    def test_narrative_witness_gap(self, angles, j, succ, gap):
        # j < n prints gap(j, j+1); j = n prints the wrap gap back to vertex 1
        cert = certify(turns(*angles))
        assert (cert.special_j, cert.canonical.n == j) == (j, succ == 1)
        found = re.findall(r"gap\((\d+),(\d+)\) = (\S+) differs", cert.narrative)
        assert found == [(str(j), str(succ), gap)]
        assert gap == str(cyclic_gaps(cert.canonical)[j - 1])

    E = F(1, 10**10)

    @pytest.mark.parametrize("last, case", [((), "case1"), ((1 - 3 * E,), "case2v")])
    def test_witness_chord_rounding_to_zero(self, last, case):
        # c_31 = 1 - cos(2*pi * 3e-10) is 0.0 in floats; delta forms never read it
        cert = certify(turns(0, self.E, 3 * self.E, "1/2", *last))
        assert (cert.special_j, cert.case_tag) == (3, case)
        check_certificate_json(json.loads(dumps(cert.to_json_dict())))

    def test_gamma_witness_needs_a_nonzero_chord(self):
        # case2u divides by c_31, which rounds to 0.0: the angles coincide in floats
        cfg = turns(0, self.E, 3 * self.E, "1/2", 1 - 2 * self.E)
        assert (find_contradiction_j(cfg), pairing_u(cfg, 3), pairing_v(cfg, 3)) == (3, 5, None)
        with pytest.raises(CoincidentAngleError, match="coincide modulo a full turn"):
            certify(cfg)

    def test_gamma_sign_comes_from_the_residues(self):
        # alpha_3 - alpha_1 = 1/2 + 1e-20 turns, which the float angle rounds
        # to pi, where sin is positive; s_31 is negative, and so is the
        # recorded coefficient of 2*m3 (u = j)
        cfg = turns(0, 2 * F(1, 10**20), F(1, 2) + F(1, 10**20))
        doc = json.loads(dumps(certify(cfg).to_json_dict()))
        assert (doc["case"], doc["u"]) == ("case2u", 3)
        assert doc["witness_forms"][0]["terms"][0]["coefficient"] < 0
        check_certificate_json(doc)

    def test_batch_agreement_with_feasibility(self):
        rng = random.Random(29)
        for _ in range(100):
            cfg = random_irregular_polygon(rng, 3 + rng.randrange(4))
            cert = certify(cfg)  # raises DisagreementError on any conflict
            assert verdict(cert) == "infeasible"


def linprog_feasible(rows, n):
    """Reference verdict for {rows . m = 0, m >= 1} from HiGHS."""
    A = np.array(rows, dtype=float).reshape(-1, n)
    res = linprog(np.zeros(n), A_eq=A, b_eq=np.zeros(A.shape[0]),
                  bounds=[(1.0, None)] * n, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


@functools.lru_cache  # two tests walk the same set
def canonical_polygons(max_denominator):
    """Every canonical polygon with turn denominators <= max_denominator, once each."""
    seen = set()
    for q in range(3, max_denominator + 1):
        for n in range(3, q + 1):
            for rest in itertools.combinations(range(1, q), n - 1):
                seen.add(turns(0, *(F(p, q) for p in rest)).canonical_residues)
    return tuple(PolygonConfig.from_turns(F(r, full) for r in res) for res, full in sorted(seen))


def class_forms(res, full):
    """Integer chord-class coefficients of the n - 1 differences.

    For i = 2..n, delta_i - delta_1 sums +m_j over the pairs (j, i) and -m_j
    over the pairs (j, 1), each at its kernel mu(c); gamma carries the extra
    factor s/c.  Pairs whose separations d = alpha_j - alpha_i (mod 1) share
    the class k = min(d, 1 - d) share c, and their s/c differ only in sign,
    positive for d < 1/2; a half-turn pair has s = 0 and drops from gamma.
    Each class coefficient must vanish on its own, which leaves a delta and a
    gamma row, entries in {-2..2}, per (i, class).  Only the turn residues
    res modulo full are read.  Yields (i, k, delta row, gamma row) in
    increasing i, then k, with k a residue modulo full.
    """
    n = len(res)
    for i in range(1, n):
        forms = {}
        for target, sign in ((i, 1), (0, -1)):
            for j in range(n):
                if j == target:
                    continue
                d = (res[j] - res[target]) % full
                delta, gamma = forms.setdefault(min(d, full - d), ([0] * n, [0] * n))
                delta[j] += sign
                if 2 * d != full:
                    gamma[j] += sign if 2 * d < full else -sign
        for k in sorted(forms):
            yield (i + 1, k) + forms[k]


def class_differences(cfg, masses, rho):
    """delta_i - delta_1 and gamma_i - gamma_1, i = 2..n, rebuilt from the class rows."""
    res, full = cfg.residues
    dd = np.zeros(cfg.n - 1)
    gg = np.zeros(cfg.n - 1)
    for i, k, delta, gamma in class_forms(res, full):
        c = 1.0 - math.cos(2.0 * math.pi * k / full)
        t = math.sin(2.0 * math.pi * k / full) / c  # |s/c| of the class
        dd[i - 2] += mu(c, rho) * np.dot(delta, masses)
        gg[i - 2] += mu(c, rho) * t * np.dot(gamma, masses)
    return dd, gg


def group_differences(cfg, masses, rho):
    """delta_1 - delta_2 and gamma_1 - gamma_2 rebuilt from base_groups (mu = a/c)."""
    groups = base_groups(cfg, rho)
    return (sum(value(grp.delta_form, masses) / grp.c for grp in groups),
            sum(value(grp.gamma_form, masses) / grp.c for grp in groups))


class TestClassRows:
    """The exact route's rows (the class_forms oracle), built from turn residues alone."""

    @staticmethod
    def row_polygons(rng):
        polygons = [turns(0, "1/8", "1/2", "5/8"), turns(0, "1/5", "2/5", "3/5"),
                    turns(0, "1/6", "1/3", "1/2", "2/3")]
        return polygons + [canonicalize(random_irregular_polygon(rng, n, d))
                           for n in range(3, 13) for d in (2 * n + 2, 10**4)]

    def test_rows_reproduce_delta_gamma(self):
        # at any masses and rho, summing the class rows (or the paper's groups)
        # at their kernels gives back every difference that delta_gamma
        # computes directly
        rng = random.Random(71)
        for cfg in self.row_polygons(rng):
            for rho in (0.5, -10.0, 0.9):
                masses = np.array([rng.uniform(0.5, 2.0) for _ in range(cfg.n)])
                deltas, gammas = (np.asarray(v) for v in delta_gamma(cfg, masses, rho))
                dd, gg = class_differences(cfg, masses, rho)
                scale = np.max(np.abs(deltas)) + np.max(np.abs(gammas))
                np.testing.assert_allclose(dd, deltas[1:] - deltas[0], rtol=0, atol=1e-12 * scale)
                np.testing.assert_allclose(gg, gammas[1:] - gammas[0], rtol=0, atol=1e-12 * scale)
                d12, g12 = group_differences(cfg, masses, rho)
                assert abs(d12 - (deltas[0] - deltas[1])) <= 1e-12 * scale
                assert abs(g12 - (gammas[0] - gammas[1])) <= 1e-12 * scale

    def test_delta_rows_of_each_difference_sum_to_e1_minus_ei(self):
        # the premise of _exact_system: every solution of the rows has equal masses
        polygons = self.row_polygons(random.Random(71))
        # half turns (a pair drops from gamma) and mirror images (two pairs share a class)
        polygons += [canonicalize(turns(*t)) for t in (
            (0, "1/6", "1/2"), (0, "1/10", "1/2", "3/5"), (0, "1/4", "1/2", "3/4"),
            (0, "1/8", "7/8"), (0, "1/12", "5/12", "7/12", "11/12"), (0, "1/9", "1/3", "8/9"))]
        for cfg in polygons:
            n = cfg.n
            sums = {i: [0] * n for i in range(2, n + 1)}
            for i, _, delta, _ in class_forms(*cfg.residues):
                sums[i] = [a + b for a, b in zip(sums[i], delta)]
            for i, total in sums.items():
                assert total == [1 if v == 1 else -1 if v == i else 0 for v in range(1, n + 1)], (
                    cfg.turns, i)

    def test_every_small_canonical_polygon(self):
        # exhaustive over denominators <= 12: feasible (by the separations, by
        # the row sums and by HiGHS) exactly when regular, and rank n - 1
        # exactly then
        polygons = canonical_polygons(12)
        assert len(polygons) == 722
        for cfg in polygons:
            regular = is_regular(cfg)
            rows = [row for *_, d, g in class_forms(*cfg.residues) for row in (d, g)]
            assert (mass_feasibility(cfg, 0.5).feasible == regular
                    == (not any(sum(row) for row in rows)) == linprog_feasible(rows, cfg.n)), cfg.turns
            assert np.linalg.matrix_rank(np.array(rows, dtype=float)) == cfg.n - regular, cfg.turns

    def test_rank_is_n_exactly_when_irregular(self):
        rng = random.Random(73)
        for n in range(3, 13):
            regular = PolygonConfig.from_turns(tuple(F(k, n) for k in range(n)))
            for cfg in [regular] + [canonicalize(random_irregular_polygon(rng, n, 10**4)) for _ in range(5)]:
                rows = [row for *_, d, g in class_forms(*cfg.residues) for row in (d, g)]
                assert np.linalg.matrix_rank(np.array(rows, dtype=float)) == n - is_regular(cfg)


# one fixture per case tag, plus a half-turn pair in case 1 and u = j in case 3
CASE_FIXTURES = [
    ("0", "1/8", "1/4", "3/8"),
    ("0", "1/8", "1/2"),
    ("0", "1/8", "3/8", "3/4"),
    ("0", "1/8", "1/4", "3/4"),
    ("0", "1/6", "1/3", "1/2", "2/3"),
    ("0", "1/5", "2/5", "3/5"),
]


PAIRINGS = ("pairing_possibility1", "pairing_u", "pairing_v")


class TestIndependentRoutes:
    """The grouping, the case analysis and the feasibility search read none of each other."""

    POLYGONS = [PolygonConfig.from_turns(tuple(F(k, 7) for k in range(7)))]
    POLYGONS += [turns(*t) for t in CASE_FIXTURES]

    @staticmethod
    def unavailable(monkeypatch, names):
        def unavailable(*args, **kwargs):
            raise AssertionError("another route's code was read")

        for name in names:
            monkeypatch.setattr(certificate, name, unavailable)

    def test_fixtures_cover_every_case(self):
        assert {classify_case(p, find_contradiction_j(p)).case_tag for p in self.POLYGONS[1:]} == {
            "case1", "case2u", "case2v", "case3"}

    def test_feasibility_reads_no_case_analysis_forms(self, monkeypatch):
        def snapshot():
            certificate._exact_system.cache_clear()
            return [dumps(mass_feasibility(poly, rho).to_json_dict())
                    for poly in self.POLYGONS for rho in (0.25, 0.5, -1.0, -10.0)]

        expected = snapshot()
        self.unavailable(monkeypatch, ("_difference_groups",) + PAIRINGS)
        assert snapshot() == expected

    def test_grouping_reads_no_other_route(self, monkeypatch):
        def snapshot():
            return [repr(base_groups(poly, rho)) for poly in self.POLYGONS for rho in (0.5, -1.0)]

        expected = snapshot()
        self.unavailable(monkeypatch, ("_exact_system",) + PAIRINGS)
        assert snapshot() == expected

    def test_case_analysis_reads_no_other_route(self, monkeypatch):
        def snapshot():
            return [repr(classify_case(poly, find_contradiction_j(poly))) for poly in self.POLYGONS[1:]]

        expected = snapshot()
        self.unavailable(monkeypatch, ("_exact_system", "_difference_groups"))
        assert snapshot() == expected


class TestDisagreement:
    """A feasibility verdict that contradicts the case analysis is an error, never a result."""

    @staticmethod
    def report_feasible(monkeypatch):
        exact = certificate._exact_system
        monkeypatch.setattr(certificate, "_exact_system", lambda res, full: (exact(res, full)[0], True))

    @pytest.mark.parametrize("rho", [0.5, -1.0])
    def test_certify_raises_naming_case_j_and_rho(self, monkeypatch, rho):
        self.report_feasible(monkeypatch)
        for t in CASE_FIXTURES:
            poly = turns(*t)
            j = find_contradiction_j(poly)
            case = classify_case(poly, j).case_tag
            expected = f"witness {case} at j={j} but .* at rho={rho}$"
            with pytest.raises(DisagreementError, match=expected):
                certify(poly, rho=rho)

    def test_cli_certify_exits_2_with_empty_stdout(self, monkeypatch, tmp_path):
        self.report_feasible(monkeypatch)
        for k, t in enumerate(CASE_FIXTURES):
            path = tmp_path / f"cfg{k}.json"
            path.write_text(json.dumps({"kappa": 1.0, "angles": list(t), "masses": [1.0] * len(t)}))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["certify", "--config", str(path)])
            assert (code, out.getvalue()) == (2, ""), t
            assert err.getvalue().startswith("error: case analysis found witness case"), t


class TestWitnessCheck:
    """certify compares each witness form with the group of the (j,1) term."""

    # (fixture, its case, pairings whose loss changes the witness form)
    MUTATIONS = [
        (("0", "1/8", "3/8", "3/4"), "case2u", ("pairing_u",)),
        (("0", "1/8", "1/4", "3/4"), "case2v", ("pairing_v",)),
        (("0", "1/6", "1/3", "1/2", "2/3"), "case3", ("pairing_u", "pairing_v")),
        (("0", "1/5", "2/5", "3/5"), "case3", ("pairing_u", "pairing_v", "pairing_possibility1")),
        (("0", "1/8", "1/4", "3/8"), "case1", ("pairing_possibility1",)),
    ]

    @pytest.mark.parametrize("pairing", PAIRINGS)
    def test_lost_pairing_raises(self, monkeypatch, pairing):
        fixtures = [(turns(*t), case) for t, case, lost in self.MUTATIONS if pairing in lost]
        for poly, case in fixtures:
            cert = certify(poly)
            assert cert.case_tag == case
            assert pairing != "pairing_possibility1" or cert.special_j > 3
        monkeypatch.setattr(certificate, pairing, lambda cfg, j: None)
        for poly, _ in fixtures:
            with pytest.raises(InternalConsistencyError, match="is not the group of the"):
                certify(poly)

    def test_gamma_row_sign_mismatch_raises(self, monkeypatch):
        # the case3 gamma row s_51 (m5 - m3 + m4) with the sign of its m3 entry flipped
        analyse = certificate._case_analysis

        def skewed(cfg, j):
            *parts, (dform, gform) = analyse(cfg, j)
            row = list(gform.row)
            row[2] = -row[2]
            return *parts, (dform, WitnessForm(gform.equation, tuple(row), gform.factor, gform.pattern))

        poly = turns(0, "1/6", "1/3", "1/2", "2/3")
        certify(poly)
        monkeypatch.setattr(certificate, "_case_analysis", skewed)
        with pytest.raises(InternalConsistencyError, match="gamma witness row .* is not the group"):
            certify(poly)


def definite(row):
    """Whether a form cannot vanish at positive masses: one strict sign, at least one entry."""
    return len({x > 0 for x in row if x}) == 1


def pattern(equation, row, case, order, s):
    """The label of a witness form: its masses m_k, k in the given order, times a_j1.

    A gamma row carries the sign s of s_j1, which the label leaves to the
    factor s_j1/c_j1; coefficients of a vertex listed twice (u = j) add up.
    Case 1's single mass goes without parentheses.
    """
    order = list(dict.fromkeys(k for k in order if k is not None))
    assert {k + 1 for k, x in enumerate(row) if x} <= set(order)
    sign = 1 if equation == "delta" else s
    terms = [(row[k - 1] * sign, f"m{k}") for k in order if row[k - 1]]
    text = " ".join(
        f"{'-' if x < 0 else '+'} {'' if abs(x) == 1 else f'{abs(x)}*'}{m}" for x, m in terms
    ).removeprefix("+ ")
    if equation == "gamma":
        return f"a_j1 * (s_j1/c_j1) * ({text})"
    return f"a_j1 * {text}" if case == "case1" else f"a_j1 * ({text})"


def check_certificate_json(doc):
    """Re-derive a certificate's claims from its emitted JSON, in Fractions alone.

    Shares no code with the package: the rotation, the witness index, the
    pairings and the witness forms follow from the turn angles as the paper
    states them.
    """
    n = doc["n"]
    angles = [F(x) for x in doc["angles"]]
    a = [F(x) for x in doc["canonical_angles"]]
    assert len(angles) == len(a) == n and all(0 <= x < y < 1 for x, y in zip(angles, angles[1:]))
    # turning vertex k to 0 shifts the angles cyclically; the smallest first
    # gap wins, and among those the lexicographically smallest angles
    first = [(angles[(k + 1) % n] - s) % 1 for k, s in enumerate(angles)]
    shortest = min(first)
    assert a == min([(x - s) % 1 for x in angles[k:] + angles[:k]]
                    for k, s in enumerate(angles) if first[k] == shortest)
    gaps = [a[k + 1] - a[k] for k in range(n - 1)] + [1 - a[-1]]
    j = next(k + 1 for k in range(2, n) if gaps[k] != gaps[0])
    us = [k for k in range(1, n + 1) if (a[j - 1] + a[k - 1] - a[0] - a[1]) % 1 == 0]
    vs = [k for k in range(1, n + 1) if k != j and (a[j - 1] + a[k - 1] - 2 * a[0]) % 1 == 0]
    assert len(us) <= 1 and len(vs) <= 1
    u, v = (us or [None])[0], (vs or [None])[0]
    case = {(0, 0): "case1", (1, 0): "case2u", (0, 1): "case2v", (1, 1): "case3"}[
        u is not None, v is not None]
    assert (doc["j"], doc["u"], doc["v"], doc["case"]) == (j, u, v, case)
    # the terms of delta_1 - delta_2 and gamma_1 - gamma_2 in the class of
    # (j,1): (pair, [(vertex, delta coefficient, gamma coefficient)]); gamma
    # also carries s/c, whose sign is that of sin and whose size the class sets
    terms = [((2, 1), [(1, -1, 1), (2, 1, 1)])]
    terms += [((k, i), [(k, sign, sign)]) for k in range(3, n + 1) for i, sign in ((1, 1), (2, -1))]
    d = (a[j - 1] - a[0]) % 1
    witness_class = min(d, 1 - d)
    s_j1 = (d < F(1, 2)) - (d > F(1, 2))  # its sign
    rows = {"delta": [0] * n, "gamma": [0] * n}
    for (p, q), coefficients in terms:
        d = (a[p - 1] - a[q - 1]) % 1
        if min(d, 1 - d) == witness_class:
            s = (d < F(1, 2)) - (d > F(1, 2))
            for k, dx, gx in coefficients:
                rows["delta"][k - 1] += dx
                rows["gamma"][k - 1] += s * gx
    forms = doc["witness_forms"]
    equations = {"case1": ["delta"], "case2u": ["gamma"], "case2v": ["delta"],
                 "case3": ["delta", "gamma"]}[case]
    assert [w["equation"] for w in forms] == equations
    for w in forms:
        row = rows[w["equation"]]
        coeffs = {t["index"]: t["coefficient"] for t in w["terms"]}
        assert len(coeffs) == len(w["terms"])
        assert set(coeffs) == {k + 1 for k, x in enumerate(row) if x}
        if w["equation"] == "delta":
            assert all(coeffs[k] == row[k - 1] for k in coeffs)
        else:  # one common factor |s_j1/c_j1| > 0
            factors = {coeffs[k] / row[k - 1] for k in coeffs}
            assert len(factors) == 1 and factors.pop() > 0
        assert w["sign_definite"] == definite(row)
        assert w["pattern"] == pattern(w["equation"], row, case, [j, v, u], s_j1)
    # a sign-definite form cannot vanish at positive masses; in case 3 one
    # sum or difference of the two rows is 2 m_j, so they cannot vanish together
    patterns = [rows[w["equation"]] for w in forms]
    assert doc["failing_equation"] == next(
        (w["equation"] for w, row in zip(forms, patterns) if definite(row)), "disjunction")
    assert any(map(definite, patterns)) or any(
        definite([x + sign * y for x, y in zip(*patterns)]) for sign in (1, -1))
    assert doc["feasibility"]["verdict"] == "infeasible"
    # the numbers that the narrative states: the canonical angles, both gaps,
    # j and its successor, u, v and the cross-check's rho, printed with %g
    said = re.search(
        r"canonical turn angles \((?P<angles>[^)]*)\)\.\n.*gap\(1,2\) = (?P<gap1>\S+)\.\n"
        r"Witness index j = (?P<j>\d+): gap\((?P<j2>\d+),(?P<succ>\d+)\) = (?P<gapj>\S+) .*"
        r"\(mod 1\): (?:u = (?P<u>\d+)|none)\n.*v != j: (?:v = (?P<v>\d+)|none)\n.*"
        r"at rho = (?P<rho>\S+) -> infeasible\.$",
        doc["narrative"], re.S)
    assert said, doc["narrative"]
    assert [F(x) for x in said["angles"].split(", ")] == a
    assert (F(said["gap1"]), F(said["gapj"])) == (gaps[0], gaps[j - 1])
    assert [int(said[k]) for k in ("j", "j2", "succ")] == [j, j, j % n + 1]
    assert [None if said[k] is None else int(said[k]) for k in "uv"] == [u, v]
    assert float(said["rho"]) == float(f"{doc['feasibility']['rho']:g}")
    # the cross-check's rho lies in the kernel domain of every class; 2 - c rho
    # is monotone in c, so the widest class chord c = 1 - cos(2 pi k) checks all
    widest = max(min(d, 1 - d) for d in ((y - x) % 1 for x, y in itertools.combinations(a, 2)))
    assert 0 < 2 - (1 - math.cos(2 * math.pi * widest)) * doc["feasibility"]["rho"] < math.inf


class TestCertificateJson:
    """check_certificate_json accepts every certificate the package emits."""

    @staticmethod
    def check(poly):
        check_certificate_json(json.loads(dumps(certify(poly).to_json_dict())))

    def test_every_small_canonical_polygon_rotated(self):
        # each irregular polygon with denominators <= 12, turned by k/13 so
        # the checker has a rotation to undo
        for k, cfg in enumerate(canonical_polygons(12)):
            if not is_regular(cfg):
                turned = sorted((x + F(k % 13, 13)) % 1 for x in cfg.turns)
                self.check(PolygonConfig.from_turns(turned))

    def test_rejects_a_relabelled_pattern(self):
        # each witness form of each irregular canonical polygon with
        # denominators <= 12 (712 of them), its mass labels m_k moved to
        # m_(k+1), cyclically
        count = 0
        for cfg in canonical_polygons(12):
            if is_regular(cfg):
                continue
            doc = json.loads(dumps(certify(cfg).to_json_dict()))
            check_certificate_json(doc)
            for w in doc["witness_forms"]:
                good = w["pattern"]
                w["pattern"] = re.sub(r"m(\d+)", lambda k: f"m{int(k[1]) % cfg.n + 1}", good)
                assert w["pattern"] != good
                with pytest.raises(AssertionError):
                    check_certificate_json(doc)
                w["pattern"] = good
            count += 1
        assert count == 712

    def test_rejects_a_changed_narrative_number(self):
        # each irregular canonical polygon with denominators <= 12, one digit
        # run of its narrative's angles, gaps, j, u, v or rho raised by one:
        # the k-th polygon's k-th run, cyclically
        stated = re.compile(r"angles \([^)]*\)|gap\(\d+,\d+\) = \S+|index j = \d+|: [uv] = \d+|rho = \S+")
        count = 0
        for cfg in canonical_polygons(12):
            if is_regular(cfg):
                continue
            doc = json.loads(dumps(certify(cfg).to_json_dict()))
            text = doc["narrative"]
            runs = [(m.start() + d.start(), m.start() + d.end())
                    for m in stated.finditer(text) for d in re.finditer(r"\d+", m[0])]
            start, end = runs[count % len(runs)]
            doc["narrative"] = f"{text[:start]}{int(text[start:end]) + 1}{text[end:]}"
            with pytest.raises(AssertionError):
                check_certificate_json(doc)
            count += 1
        assert count == 712

    def test_rejects_rho_outside_the_kernel_domain(self):
        # the half-turn chord of (0, 1/6, 1/2) has c = 2, so 2 - c rho = -1 at rho = 1.5
        poly = PolygonConfig.from_turns(("0", "1/6", "1/2"))
        doc = json.loads(dumps(certify(poly).to_json_dict()))
        check_certificate_json(doc)
        with pytest.raises(KernelDomainError):
            mass_feasibility(poly, 1.5)
        doc["feasibility"]["rho"] = 1.5
        with pytest.raises(AssertionError):
            check_certificate_json(doc)

    def test_random_sample(self):
        rng = random.Random(2011)
        for n in range(3, 13):
            for den in (2 * n + 2, 60, 10**4):
                for _ in range(6):
                    self.check(random_irregular_polygon(rng, n, den))


def certificate_outputs_digest():
    """sha256 of certificates and feasibility reports over a fixed polygon set."""
    rng = random.Random(97)
    polygons = [turns(*t) for t in CASE_FIXTURES]
    polygons.append(PolygonConfig.from_turns(tuple(F(k, 7) for k in range(7))))
    for _ in range(20):
        n = rng.randint(3, 8)
        polygons.append(random_irregular_polygon(rng, n, rng.choice((2 * n + 2, 60, 10**4))))
    digest = hashlib.sha256()
    for poly in polygons:
        if not is_regular(poly):
            digest.update(dumps(certify(poly).to_json_dict()).encode())
        for rho in (0.25, 0.5, 0.75, -1.0):
            digest.update(dumps(mass_feasibility(poly, rho).to_json_dict()).encode())
    return digest.hexdigest()


class TestCanonicalizeOnce:
    """The certificate path reads each polygon's turn residues, built once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the polygons built, by the public constructor or the unchecked one."""
        count = [0]
        init, trusted = PolygonConfig.__init__, PolygonConfig._trusted.__func__

        def counting_init(cfg, *args):
            count[0] += 1
            init(cfg, *args)

        def counting_trusted(cls, *args):
            count[0] += 1
            return trusted(cls, *args)

        monkeypatch.setattr(PolygonConfig, "__init__", counting_init)
        monkeypatch.setattr(PolygonConfig, "_trusted", classmethod(counting_trusted))
        return count

    def test_polygons_built_per_call(self, builds):
        canonical = turns(0, "1/8", "3/8", "3/4")
        rotated = turns("1/8", "1/4", "1/2", "7/8")
        assert canonicalize(rotated) == canonical
        builds[0] = 0
        certify(canonical)
        assert builds[0] == 0
        certify(rotated)
        assert builds[0] == 1
        builds[0] = 0
        for poly in (canonical, rotated):
            mass_feasibility(poly, 0.5)
        assert builds[0] == 0

    def test_reports_build_no_fractions(self, monkeypatch):
        # canonical polygons and every emitted turn string come from the residues
        polys = [turns(0, "1/8", "3/8", "3/4"), turns("1/8", "1/4", "1/2", "7/8"),
                 turns("1/3", "5/11", "7/9", "9/10"), turns(0, "1/" + "9" * 400, "1/2")]
        built = [0]
        new = F.__new__

        def counting(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counting))
        # Fraction arithmetic skips __new__ from Python 3.12 on; printing one still shows
        monkeypatch.setattr(F, "__str__", lambda a: pytest.fail(f"printed Fraction {a!r}"))
        for poly in polys:
            certify(poly).to_json_dict()
            for rho in (0.25, 0.5, 0.75, -1.0):
                mass_feasibility(poly, rho).to_json_dict()
        assert built[0] == 0

    def test_rotations_share_one_exact_solve(self):
        # (1/8, 3/8, 7/8) rotates to (0, 2, 4)/8, which reduces to (0, 1, 2)/4
        certificate._exact_system.cache_clear()
        mass_feasibility(turns("1/8", "3/8", "7/8"), 0.5)
        mass_feasibility(turns(0, "1/4", "1/2"), 0.5)
        certify(turns("1/8", "3/8", "7/8"))
        assert certificate._exact_system.cache_info().misses == 1

    def test_float_polygons_rejected(self):
        irregular = canonicalize(PolygonConfig.from_radians((0.0, 1.0, 2.0)))
        regular = PolygonConfig.from_radians((0.0, 2.0 * math.pi / 3, 4.0 * math.pi / 3))
        for cfg in (irregular, regular):
            for call in (
                lambda: cfg.residues,
                lambda: base_groups(cfg, 0.5),
                lambda: find_contradiction_j(cfg),
                lambda: classify_case(cfg, 3),
                lambda: pairing_possibility1(cfg, 3),
                lambda: pairing_u(cfg, 3),
                lambda: pairing_v(cfg, 3),
                lambda: mass_feasibility(cfg, 0.5),
                lambda: certify(cfg),
            ):
                with pytest.raises(ValueError, match="needs exact rational turn angles"):
                    call()

    def test_outputs_pinned(self):
        # any change to a certificate or feasibility report byte changes this
        assert certificate_outputs_digest() == (
            "5c091093299c851dd0e99500de893b56f8edc62186757e6c2d9d5f86e0bde497")


class TestResidueForms:
    """Polygons and strings built from turn residues equal those built from Fractions."""

    @staticmethod
    def polygons():
        rng = random.Random(22)
        polys = [random_irregular_polygon(rng, n, 10**4) for n in range(3, 13) for _ in range(4)]
        # rotated copies, so that canonicalize has a new polygon to build
        polys += [PolygonConfig.from_turns(sorted((a + F(rng.randrange(1, 997), 997)) % 1 for a in p.turns))
                  for p in polys]
        tiny = "1/" + "9" * 400  # no float can hold its denominator
        return polys + [turns(0, tiny, "1/2"), turns(tiny, "1/3", "1/2")]

    @staticmethod
    def reference(poly):
        """The canonical polygon built from Fractions: minimal first gap, then the smallest tuple."""
        rotations = [tuple(sorted((a - s) % 1 for a in poly.turns)) for s in poly.turns]
        first = min(t[1] for t in rotations)
        return PolygonConfig.from_turns(min(t for t in rotations if t[1] == first))

    def test_canonical_polygon_equals_the_fraction_built_one(self):
        for poly in self.polygons():
            canon, ref = canonicalize(poly), self.reference(poly)
            # a polygon already canonical comes back as it is
            assert canon is poly or "turns" not in vars(canon), "built Fractions unasked"
            assert canon == ref and hash(canon) == hash(ref)
            assert repr(canon) == repr(ref)
            assert canon.turns == ref.turns

    def test_strings_are_those_of_str_fraction(self):
        for poly in self.polygons():
            ref = self.reference(poly).turns
            doc = certify(poly).to_json_dict()
            assert doc["angles"] == [str(a) for a in poly.turns]
            assert doc["canonical_angles"] == [str(a) for a in ref]
            j = doc["j"]
            succ = j + 1 if j < len(ref) else 1
            text = doc["narrative"]
            assert f"canonical turn angles ({', '.join(str(a) for a in ref)})." in text
            assert f"gap(1,2) = {ref[1] - ref[0]}." in text
            assert f"gap({j},{succ}) = {(ref[succ - 1] - ref[j - 1]) % 1} differs" in text

    def test_radians_are_those_of_float_fraction(self):
        for poly in self.polygons():
            for p in (poly, canonicalize(poly), self.reference(poly)):
                expected = [(2.0 * math.pi * float(a)).hex() for a in p.turns]
                assert [x.hex() for x in p.radians] == expected


@st.composite
def rational_polygons(draw):
    """Exact polygons, n <= 12, with one denominator q <= 10^4 per polygon.

    Besides generic draws: polygons made of half-turn pairs (s = 0), polygons
    mirrored about the bisector of a short edge (u = j pairings), and
    regular polygons at any offset, the only feasible ones.
    """
    kind = draw(st.sampled_from(["generic", "half_turn", "mirror", "regular"]))
    if kind == "regular":
        n = draw(st.integers(3, 12))
        q = n * draw(st.integers(1, 10**4 // n))
        start = draw(st.integers(0, q // n - 1))
        nums = {start + k * (q // n) for k in range(n)}
    elif kind == "half_turn":
        q = 2 * draw(st.integers(4, 5000))
        half = draw(st.lists(st.integers(0, q // 2 - 1), min_size=2, max_size=6, unique=True))
        nums = {p for h in half for p in (h, h + q // 2)}
    elif kind == "mirror":
        q = 2 * draw(st.integers(6, 5000))
        h = draw(st.integers(1, q // 12))
        side = draw(st.lists(st.integers(4 * h, q // 2 + h - 1), max_size=4, unique=True))
        # 0 and 2h form the shortest edge; q/2 + h sits on its bisector
        nums = {0, 2 * h, q // 2 + h} | {p for s in side for p in (s, (2 * h - s) % q)}
    else:
        q = draw(st.integers(4, 10**4))
        nums = set(draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=12, unique=True)))
    return PolygonConfig.from_turns(F(p, q) for p in sorted(nums))


def sampled_rho_feasible(cfg, rhos):
    """HiGHS verdict on the float rows delta_i - delta_1, gamma_i - gamma_1 at sampled rho."""
    units = np.eye(cfg.n)
    blocks = []
    for part in (0, 1):  # delta, gamma
        # values[j, k, i]: delta_i (or gamma_i) at rhos[k] for unit mass on body j
        values = np.array([[delta_gamma(cfg, e, r)[part] for r in rhos] for e in units])
        diffs = values[:, :, 1:] - values[:, :, :1]
        blocks.append(diffs.reshape(cfg.n, -1).T)
    rows = np.vstack(blocks)
    return linprog_feasible(rows / np.max(np.abs(rows)), cfg.n)


class TestSampledRhoOracle:
    """Balance at 2n + 1 sampled rho decides feasibility as the exact route does.

    The rows come from criterion.delta_gamma, not from any grouping of
    terms, and HiGHS solves them in floating point: a route that shares no
    code with the certificate package's own solver.
    """

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(
        cfg=rational_polygons(),
        rho=st.one_of(st.floats(0.01, 0.99), st.floats(-10.0, -0.01)),
    )
    @example(cfg=turns(0, "1/5", "2/5", "3/5"), rho=-10.0)
    @example(cfg=turns(0, "1/8", "1/2", "5/8"), rho=0.5)
    @example(cfg=PolygonConfig.from_turns(tuple(F(k, 12) for k in range(12))), rho=-10.0)
    def test_verdict_matches_sampled_rho_lp(self, cfg, rho):
        samples = list(np.linspace(-10.0, 0.95, 2 * cfg.n)) + [rho]
        res = mass_feasibility(cfg, rho)
        assert res.feasible == sampled_rho_feasible(cfg, samples)
        assert res.feasible == is_regular(cfg)
