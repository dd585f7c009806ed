from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from oracle import A5_ODD_REAL_DEGREES, L2_8_REAL_DEGREES, degree_set_conclusion
from stages import (
    classes_of,
    lattice_of,
    lemmas_of,
    report_of,
    structure_of,
    table_of,
    verdict_of,
)

from realchar._kernels import PermTable
from realchar.catalog import central_sl2_5_c4, cyclic, default_corpus, sl2_5
from realchar.chartab import real_degree_set
from realchar.classify import (
    CASE_I,
    CASE_II,
    HYPOTHESIS_FAILS,
    SOLVABLE_SKIP,
    VIOLATION,
    build_report,
    classification_verdict,
    consistency_suite,
    is_prime_power,
    prime_power_set,
)
from realchar.perm import enumerate_group
from realchar.structure import DEFAULT_LATTICE_CAP, analyze


class TestPrimePowerSet:
    def test_a5_degrees(self):
        assert prime_power_set({1, 3, 4, 5})

    def test_l28_degrees(self):
        assert prime_power_set({1, 7, 8, 9})

    def test_composite(self):
        assert not prime_power_set({1, 3, 6})

    def test_one_is_allowed(self):
        assert is_prime_power(1)
        assert not is_prime_power(0)
        assert is_prime_power(27) and is_prime_power(32)
        assert not is_prime_power(12) and not is_prime_power(15)


class TestVerdicts:
    def test_a5_case_i(self, group):
        v = verdict_of(group("A5"))
        assert v.kind == CASE_I
        assert v.k_label == "A5"
        assert v.h_order == 1 and v.o_order == 1

    def test_l28_case_i(self, group):
        v = verdict_of(group("L2_8"))
        assert v.kind == CASE_I and v.k_label == "L2_8"

    def test_sl25_hypothesis_fails_with_witness_six(self, group):
        v = verdict_of(group("SL2_5"))
        assert v.kind == HYPOTHESIS_FAILS
        assert v.witness_degree == 6

    def test_sl25_circ_c4_case_ii(self, group):
        v = verdict_of(group("SL2_5oC4"))
        assert v.kind == CASE_II
        assert v.k_label == "SL2_5"
        assert v.h_order == 4 and v.o_order == 1

    def test_c12_solvable_skip(self, group):
        assert verdict_of(group("C12")).kind == SOLVABLE_SKIP

    def test_s5_witness_six(self, group):
        v = verdict_of(group("S5"))
        assert v.kind == HYPOTHESIS_FAILS and v.witness_degree == 6

    def test_witness_row_is_real_and_composite(self, group):
        g = group("A5xQ8")
        v = verdict_of(g)
        assert v.kind == HYPOTHESIS_FAILS and v.witness_degree == 6
        t = table_of(g)
        assert t.real_flags[v.witness_row]
        assert t.degrees[v.witness_row] == 6

    def test_no_corpus_violation(self, group):
        for entry in default_corpus():
            v = verdict_of(group(entry.name))
            assert v.kind != VIOLATION, (entry.name, v.violation_reason)
            assert v.kind == entry.expected_verdict

    def test_presentation_independence(self):
        # same central product built with the factors swapped
        from oracle import center, central_product, order_of

        base = central_sl2_5_c4()
        ga = enumerate_group(sl2_5())
        gb = enumerate_group(cyclic(4))
        za = sorted(center(ga))
        half = next(i for i in range(4) if order_of(gb, i) == 2)
        swapped = central_product(
            cyclic(4), sl2_5(), frozenset({0, half}), frozenset(za), {0: 0, half: za[1]}
        )
        v1 = verdict_of(enumerate_group(base))
        v2 = verdict_of(enumerate_group(swapped))
        assert (v1.kind, v1.k_label, v1.h_order, v1.o_order) == (
            v2.kind,
            v2.k_label,
            v2.h_order,
            v2.o_order,
        )

    def test_a5_from_l24_same_verdict(self, group):
        v1 = verdict_of(group("A5"))
        v2 = verdict_of(group("L2_4"))
        assert (v1.kind, v1.k_label) == (v2.kind, v2.k_label)


# Real reports changed so that one check fails, with the reason each gives:
# every Violation reason the verdict can reach.
BROKEN_REPORTS = [
    (
        "SL2_5oC4xC3",
        lambda rep: {"o2p": 1},
        "radical is not the direct product of its 2-core and odd core",
    ),
    (
        "A5xC4",
        lambda rep: {"k_label": "other"},
        "derived limit recognized as other, not A5 or L2(8)",
    ),
    (
        "A5xC4",
        lambda rep: {"radical": 1, "o2": 1},
        "derived limit and radical do not form a direct product",
    ),
    (
        "SL2_5oC4",
        lambda rep: {"k_label": "other"},
        "derived limit meets the radical but is other, not SL2(5)",
    ),
    (
        "SL2_5oC4",
        lambda rep: {"radical": rep.k & rep.radical, "o2": rep.k & rep.radical},
        "KH is not a central product with K n H = Z(K) < H",
    ),
    (
        "SL2_5oC4xC3",
        lambda rep: {"o2p": 1, "radical": rep.o2},
        "orders do not satisfy |G| = |K||H||O| / 2",
    ),
]


class TestViolations:
    @pytest.mark.parametrize(
        "name, changes, reason",
        BROKEN_REPORTS,
        ids=["rad-not-HxO", "K-label", "KxRad-order", "K-meets-Rad-label", "H-is-ZK", "orders"],
    )
    def test_changed_structure(self, group, name, changes, reason):
        g = group(name)
        rep = structure_of(g)
        v = classification_verdict(classes_of(g), table_of(g), replace(rep, **changes(rep)))
        assert (v.kind, v.violation_reason) == (VIOLATION, reason)

    def test_2_core_with_a_nonlinear_real_character(self, group):
        # A5xD8 fails the hypothesis; with real flags kept only on the rows
        # of prime-power degree it passes, and its 2-core D8 is the culprit
        g = group("A5xD8")
        t = table_of(g)
        flags = tuple(f and is_prime_power(d) for f, d in zip(t.real_flags, t.degrees))
        assert flags != t.real_flags
        bent, cd = replace(t, real_flags=flags), classes_of(g)
        v = classification_verdict(cd, bent, analyze(cd, bent, DEFAULT_LATTICE_CAP))
        assert (v.kind, v.violation_reason) == (
            VIOLATION,
            "2-core of the radical has a nonlinear real character",
        )


class TestNoElementArithmetic:
    @pytest.mark.parametrize("name", ["A5", "L2_8", "SL2_5oC4", "A5xC3", "A5xC4"])
    def test_verdict_makes_no_products_closures_or_centralizers(
        self, group, monkeypatch, name
    ):
        g = group(name)
        cd, t, st = classes_of(g), table_of(g), structure_of(g)
        verdict = verdict_of(g)
        report = report_of(name, g)
        calls = []
        inside = []
        # every product in a group is read off its Cayley graph (the bulk
        # maps), read through an element's chain index (``_images``) or
        # sifted (``_lookup``); only the outermost call counts, not those it
        # makes, on G or on any other group
        methods = ("_images", "_lookup", "inverses", "conjugations", "powers", "class_matrices")
        for method in methods:
            original = getattr(PermTable, method)

            def counting(self, *args, _original=original, _method=method, **kwargs):
                if not inside:
                    calls.append((_method, [np.asarray(a).tolist() for a in args]))
                inside.append(_method)
                try:
                    return _original(self, *args, **kwargs)
                finally:
                    inside.pop()

            monkeypatch.setattr(PermTable, method, counting)
        assert analyze(cd, t, DEFAULT_LATTICE_CAP) == st
        assert classification_verdict(cd, t, st) == verdict
        assert consistency_suite(cd, t, st) == report.lemmas
        assert build_report(name, cd, t, DEFAULT_LATTICE_CAP) == report
        # the 2-core's real classes come from G's class data, not its elements
        assert calls == []


class TestDegreeConclusion:
    def test_l28_reference_degrees(self, group, oracle_table):
        g = group("L2_8")
        rdd = real_degree_set(table_of(g))
        assert rdd.degrees == L2_8_REAL_DEGREES
        assert oracle_table("L2_8").real_degree_set() == L2_8_REAL_DEGREES

    def test_a5_odd_reference_degrees(self, group, oracle_table):
        g = group("A5")
        rdd = real_degree_set(table_of(g))
        assert rdd.odd == A5_ODD_REAL_DEGREES
        odd = tuple(d for d in oracle_table("A5").real_degree_set() if d % 2)
        assert odd == A5_ODD_REAL_DEGREES

    def test_l28_branch_i(self, group):
        g = group("L2_8")
        t = table_of(g)
        v = verdict_of(g)
        out = degree_set_conclusion(t, v)
        assert out.passed and out.branch == "i"

    def test_a5_x_c4_branch_ii(self, group):
        g = group("A5xC4")
        t = table_of(g)
        rdd = real_degree_set(t)
        assert rdd.odd == (1, 3, 5)
        out = degree_set_conclusion(t, verdict_of(g))
        assert out.passed and out.branch == "ii"

    def test_sl25_circ_c4_branch_ii(self, group):
        g = group("SL2_5oC4")
        t = table_of(g)
        out = degree_set_conclusion(t, verdict_of(g))
        assert out.passed and out.branch == "ii"

    def test_passes_for_every_case_group(self, group):
        for entry in default_corpus():
            g = group(entry.name)
            v = verdict_of(g)
            if v.kind in (CASE_I, CASE_II):
                t = table_of(g)
                assert degree_set_conclusion(t, v).passed, entry.name

    def test_rejects_other_verdicts(self, group):
        g = group("C4")
        t = table_of(g)
        with pytest.raises(ValueError):
            degree_set_conclusion(t, verdict_of(g))


# Hypothesis-satisfying groups built from the catalog constructors, with the
# verdict, K, |H|, |O|, real degree set and class count the theorem predicts:
# K = L2(8) with H > 1, a CaseI group with k = 75, and CaseII with an odd core.
GENERATED = [
    ("L2_8xC2xC2", CASE_I, "L2_8", 4, 1, (1, 7, 8, 9), 36),
    ("A5xC4xC2", CASE_I, "A5", 8, 1, (1, 3, 4, 5), 40),
    ("A5xC3xC5", CASE_I, "A5", 1, 15, (1, 3, 4, 5), 75),
    ("SL2_5oC4xC3", CASE_II, "SL2_5", 4, 3, (1, 3, 4, 5), 54),
]


class TestGeneratedHypothesisGroups:
    @pytest.mark.parametrize(
        "name, kind, k_label, h, o, cd_rv, k", GENERATED, ids=[row[0] for row in GENERATED]
    )
    def test_report_matches_prediction(self, group, name, kind, k_label, h, o, cd_rv, k):
        g = group(name)
        r = report_of(name, g)
        assert (r.verdict, r.k_label, r.h_order, r.o_order) == (kind, k_label, h, o)
        assert r.case == {CASE_I: "i", CASE_II: "ii"}[kind]
        assert r.cd_rv == cd_rv and r.classes == k
        assert r.lemmas == {"L1": True, "L2": True, "L3": True, "L4": True}
        t = table_of(g)
        assert degree_set_conclusion(t, verdict_of(g)).passed


# The simple groups the catalog builds, with their degrees.  For PSL2(q) the
# generic table gives 1, q, q+1 x (q-5)/4, q-1 x (q-1)/4 and (q+1)/2 x 2 when
# q = 1 mod 4; 1, q, q+1 x (q-3)/4, q-1 x (q-3)/4 and (q-1)/2 x 2 when
# q = 3 mod 4; and 1, q, q+1 x (q-2)/2 and q-1 x q/2 when q is even.  A7
# and A8 are from the ATLAS.
SIMPLE_DEGREES = {
    "A5": (1, 3, 3, 4, 5),
    "L2_4": (1, 3, 3, 4, 5),
    "L2_5": (1, 3, 3, 4, 5),
    "A6": (1, 5, 5, 8, 8, 9, 10),
    "L2_9": (1, 5, 5, 8, 8, 9, 10),
    "A7": (1, 6, 10, 10, 14, 14, 15, 21, 35),
    "A8": (1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45, 56, 64, 70),
    "L2_7": (1, 3, 3, 6, 7, 8),
    "L2_8": (1, 7, 7, 7, 7, 8, 9, 9, 9),
    "L2_17": (1, 9, 9, 16, 16, 16, 16, 17, 18, 18, 18),
}


class TestSimpleGroupSweep:
    @pytest.mark.parametrize("name, degrees", SIMPLE_DEGREES.items(), ids=list(SIMPLE_DEGREES))
    def test_simple_group(self, group, name, degrees):
        g = group(name)
        assert len(lattice_of(g).members) == 2
        r = report_of(name, g)
        assert r.lemmas == {"L1": True, "L2": True, "L3": True, "L4": True}
        if name in ("A5", "L2_4", "L2_5", "L2_8"):
            assert r.verdict == CASE_I
        else:
            assert r.verdict == HYPOTHESIS_FAILS and not is_prime_power(r.witness_degree)
        assert tuple(sorted(table_of(g).degrees)) == degrees


class TestConsistencySuite:
    def test_passes_on_whole_corpus(self, group):
        for entry in default_corpus():
            results = lemmas_of(group(entry.name))
            assert all(results.values()), (entry.name, results)

    def test_q8_x_c3_normal_2_complement(self, group):
        # all nonlinear real degrees even forces the odd part to be normal
        g = group("Q8xC3")
        t = table_of(g)
        nonlinear_real = [
            d for d, real in zip(t.degrees, t.real_flags) if real and d > 1
        ]
        assert nonlinear_real and all(d % 2 == 0 for d in nonlinear_real)
        assert lemmas_of(g)["L2"]

    def test_a5_l1_biconditional(self, group):
        g = group("A5")
        t = table_of(g)
        nonlinear_real = [
            d for d, real in zip(t.degrees, t.real_flags) if real and d > 1
        ]
        assert any(d % 2 == 0 for d in nonlinear_real)  # the degree-4 row
        assert lemmas_of(g)["L1"]

    def test_s3_l3(self, group):
        assert lemmas_of(group("S3"))["L3"]

    def test_l4_on_nonsolvable_groups(self, group):
        for name in ("A5", "S5", "A6", "L2_7", "L2_8", "SL2_5"):
            g = group(name)
            t = table_of(g)
            assert lemmas_of(g)["L4"]
            assert any(
                t.real_flags[r] and t.indicators[r] == 1 and t.degrees[r] % 2 == 0
                for r in range(t.k)
            )


class TestPaperScaleInvariants:
    def test_at_most_three_primes_divide_real_degrees(self, group):
        for entry in default_corpus():
            g = group(entry.name)
            t = table_of(g)
            rdd = real_degree_set(t)
            if not prime_power_set(rdd.degrees):
                continue
            primes = set()
            for d in rdd.degrees:
                if d > 1:
                    f = 2
                    while d % f:
                        f += 1
                    primes.add(f)
            assert len(primes) <= 3, entry.name

    def test_derived_limit_meets_radical_in_at_most_two(self, group):
        from oracle import class_elements, derived_series_limit, recognize, subgroup_elements

        for entry in default_corpus():
            g = group(entry.name)
            v = verdict_of(g)
            if v.kind not in (CASE_I, CASE_II):
                continue
            rep = structure_of(g)
            cd = classes_of(g)
            k = class_elements(cd, rep.k)
            assert k == derived_series_limit(g)
            meet = k & class_elements(cd, rep.radical)
            assert len(meet) <= 2, entry.name
            if len(meet) == 2:
                assert recognize(subgroup_elements(g, k, "K")) == "SL2_5"


class TestLargeExtensionStretch:
    def test_affine_l28_has_real_degree_63(self, group):
        # the split extension 2^6 . L2(8) on 64 points
        g = group("aff64_L2_8")
        assert g.order == 32256
        t = table_of(g)
        rdd = real_degree_set(t)
        assert rdd.degrees == (1, 7, 8, 9, 63)
        assert any(
            t.degrees[r] == 63 and t.real_flags[r] for r in range(t.k)
        )
        v = verdict_of(g)
        assert v.kind == HYPOTHESIS_FAILS and v.witness_degree == 63


class TestReport:
    def test_fields(self, group):
        r = report_of("SL2_5oC4", group("SL2_5oC4"))
        assert r.verdict == CASE_II and r.case == "ii"
        assert r.h_order == 4 and r.o_order == 1
        assert r.prime > r.order
        assert r.cd_rv == (1, 3, 4, 5)

    def test_json_is_deterministic_and_complete(self, group):
        import json

        r = report_of("A5", group("A5"))
        payload = json.loads(r.to_json())
        assert payload["ms"] == 0
        expected_keys = {
            "name", "order", "classes", "prime", "cd_rv", "cd_rv_odd",
            "verdict", "case", "witness_degree", "K", "H_order", "O_order",
            "lemmas", "ms",
        }
        assert set(payload) == expected_keys
        assert payload["verdict"] == "CaseI"
        assert r.to_json() == report_of("A5", group("A5")).to_json()
