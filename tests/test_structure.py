from __future__ import annotations

import dataclasses

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    case_shape_holds,
    center,
    class_elements,
    central_product_check,
    derived_series_limit,
    internal_direct_product,
    mul,
    order_of,
    quotient_group,
    recognize,
    subgroup_center,
    subgroup_elements,
)
from test_classify import GENERATED

import realchar.structure as structure
from realchar.catalog import default_corpus, resolve
from realchar.classify import CASE_I, CASE_II, build_report, classification_verdict
from realchar.errors import CapacityError, InternalError
from realchar.perm import (
    GroupElements,
    GroupSpec,
    Permutation,
    conjugacy_classes,
    enumerate_group,
)
from realchar.structure import (
    analyze,
    chillag_mann_subgroup,
    normal_subgroups,
)


def _elements(g, mask):
    return class_elements(conjugacy_classes(g), mask)


class TestNormalSubgroups:
    def test_simple_groups_have_two(self, group):
        for name in ("A5", "L2_7", "A6"):
            lat = normal_subgroups(group(name))
            assert len(lat.members) == 2

    def test_s3(self, group):
        lat = normal_subgroups(group("S3"))
        assert sorted(lat.orders[m] for m in lat.members) == [1, 3, 6]

    def test_q8_has_six(self, group):
        lat = normal_subgroups(group("Q8"))
        assert sorted(lat.orders[m] for m in lat.members) == [1, 2, 4, 4, 4, 8]

    def test_members_are_class_unions_and_subgroups(self, group):
        g = group("S4")
        cd = conjugacy_classes(g)
        for mask in normal_subgroups(g, cd).members:
            m = class_elements(cd, mask)
            for x in m:
                assert class_elements(cd, 1 << cd.class_of[x]) <= m
            gens = sorted(m)[:4]
            for a in gens:
                for b in gens:
                    assert mul(g, a, b) in m

    def test_cap(self, group):
        with pytest.raises(CapacityError):
            normal_subgroups(group("Q8"), cap=3)


class TestSolvability:
    def test_examples(self, group):
        assert analyze(group("S3")).is_solvable
        assert not analyze(group("A5")).is_solvable
        assert analyze(group("Q8")).is_solvable
        assert analyze(group("D8")).is_solvable

    def test_radical_of_solvable_group_is_whole(self, group):
        g = group("Q8xC3")
        assert _elements(g, analyze(g).radical) == frozenset(range(g.order))

    def test_radical_of_a5_trivial(self, group):
        g = group("A5")
        assert _elements(g, analyze(g).radical) == {0}

    def test_radical_of_sl25_is_center(self, group):
        g = group("SL2_5")
        rad = _elements(g, analyze(g).radical)
        assert rad == center(g)
        assert len(rad) == 2


class TestCores:
    def test_c4_times_c3(self, group):
        g = group("C4xC3")
        rep = analyze(g)
        assert _elements(g, rep.radical) == frozenset(range(12))
        assert len(_elements(g, rep.o2)) == rep.lattice.orders[rep.o2] == 4
        assert len(_elements(g, rep.o2p)) == rep.lattice.orders[rep.o2p] == 3

    def test_q8(self, group):
        g = group("Q8")
        rep = analyze(g)
        assert _elements(g, rep.radical) == frozenset(range(8))
        assert len(_elements(g, rep.o2)) == rep.lattice.orders[rep.o2] == 8
        assert _elements(g, rep.o2p) == {0}

    def test_s3_radical_cores(self, group):
        g = group("S3")
        rep = analyze(g)
        assert _elements(g, rep.radical) == frozenset(range(6))
        assert _elements(g, rep.o2) == {0}
        assert len(_elements(g, rep.o2p)) == rep.lattice.orders[rep.o2p] == 3

    def test_cores_intersect_trivially_across_corpus(self, group):
        for name in ("Q8xC3", "S4", "D8", "C12"):
            g = group(name)
            rep = analyze(g)
            assert _elements(g, rep.o2) & _elements(g, rep.o2p) == {0}


def _chillag_mann(g) -> bool:
    """The class count on the whole group, checked against its table."""
    cd = conjugacy_classes(g)
    found = chillag_mann_subgroup(cd, normal_subgroups(g), (1 << cd.k) - 1)
    assert found == oracle.chillag_mann_type(g)
    return found


def assert_chillag_mann_matches_table(g):
    """The class count agrees with the table of H on every normal H, and
    the count of H's real classes from G's class data with the element-wise
    square-root count and with H's own class sweep."""
    cd = conjugacy_classes(g)
    lat = normal_subgroups(g)
    for h in lat.members:
        sub = subgroup_elements(g, _elements(g, h), "H")
        real = sum(1 for c, inv in enumerate(conjugacy_classes(sub).inv_map) if c == inv)
        by_elements = oracle.real_classes_by_square_roots(g, cd, h)
        assert structure._real_classes(cd, h) == by_elements == real, lat.orders[h]
        assert chillag_mann_subgroup(cd, lat, h) == oracle.chillag_mann_type(sub), lat.orders[h]


class TestChillagMann:
    def test_abelian_groups(self, group):
        for name in ("C4", "C12", "C2xC2"):
            assert _chillag_mann(group(name))

    def test_q8_is_not(self, group):
        assert not _chillag_mann(group("Q8"))

    def test_d8_is_not(self, group):
        assert not _chillag_mann(group("D8"))

    def test_odd_order_nonabelian_is(self, group):
        # the nonabelian group of order 21 has no nontrivial real character
        c7 = Permutation.from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])
        c3 = Permutation(tuple((2 * i) % 7 for i in range(7)))
        g = enumerate_group(GroupSpec(7, (c7, c3), "F21"))
        assert g.order == 21
        assert _chillag_mann(g)

    def test_subgroup_variant(self, group):
        g = group("A5xC4")
        rep = analyze(g)
        assert chillag_mann_subgroup(conjugacy_classes(g), rep.lattice, rep.radical)

    # in S4, A4xC2 and aff16_A5, G fuses classes of a normal 2-subgroup H,
    # so G's real classes inside H undercount H's own
    @pytest.mark.parametrize("name", [e.name for e in default_corpus()] + ["S4", "A4xC2"])
    def test_every_normal_subgroup_matches_the_table(self, group, name):
        assert_chillag_mann_matches_table(group(name))

    @pytest.mark.parametrize("name", ["A5", "Q8", "SL2_5oC4", "Q8xC3", "A5xQ8"])
    def test_no_report_enumerates_a_group(self, monkeypatch, name):
        # the 2-core's real classes are counted in G, whether H is trivial
        # (A5), G itself (Q8) or neither (SL2_5oC4's H has order 4)
        g = enumerate_group(resolve(name))
        made = []
        original = GroupElements.__init__

        def recording(self, *args):
            original(self, *args)
            made.append(self.name)

        monkeypatch.setattr(GroupElements, "__init__", recording)
        build_report(name, g)
        assert made == []

    @pytest.mark.parametrize(
        "name, checks",
        # the verdict checks SL2_5oC4's H of order 4 and A5's trivial H, and
        # L1 checks Q8xC3's H and Q8's, both Q8 and a Sylow 2-subgroup;
        # A5xQ8 fails the hypothesis and its H is not a Sylow 2-subgroup
        [("SL2_5oC4", 1), ("Q8xC3", 1), ("A5xQ8", 0), ("A5", 1), ("Q8", 1)],
    )
    def test_a_report_lists_the_elements_of_h_only(self, monkeypatch, name, checks):
        # H's real classes are counted from G's class data, for H alone: a
        # report takes the powers of no element, of H or of G
        g = enumerate_group(resolve(name))
        conjugacy_classes(g)  # the class sweep takes its reps' powers
        seen = []
        counted = []
        original = g.powers
        real_classes = structure._real_classes

        def recording(xs):
            seen.append(np.asarray(xs).tolist())
            return original(xs)

        def counting(cd, h):
            counted.append(h)
            return real_classes(cd, h)

        monkeypatch.setattr(g, "powers", recording)
        monkeypatch.setattr(structure, "_real_classes", counting)
        build_report(name, g)
        assert seen == []
        assert counted == [analyze(g).o2] * checks

    def test_a_count_off_a_multiple_of_h_raises(self):
        # SL2_5oC4's H is C4 = <a> with a^2 = z, each element a class of its
        # own: S_1 = S_z = 2, so sum S_d^2 / |C_d| = 8 = 4 * 2 real classes.
        # With a's class squaring to 1, S_1 = 3 and S_z = 1, and 10 is not a
        # multiple of 4.  With it squaring into a class of G of size over 1,
        # that class's fibre is 1 element, not a multiple of its size.
        g = enumerate_group(resolve("SL2_5oC4"))
        cd = conjugacy_classes(g)
        rep = analyze(g)
        h = rep.o2
        assert rep.lattice.orders[h] == 4 and structure._real_classes(cd, h) == 2
        a = next(c for c, p in enumerate(cd.rep_power_classes) if h >> c & 1 and len(p) == 4)
        wide = next(c for c, size in enumerate(cd.sizes) if size > 1)
        for square, fault in [(0, "do not count"), (wide, "split a class unevenly")]:
            pows = list(cd.rep_power_classes)
            pows[a] = pows[a][:2] + (square,) + pows[a][3:]
            bent = dataclasses.replace(cd, rep_power_classes=tuple(pows))
            with pytest.raises(InternalError, match=f"square roots .* {fault}"):
                chillag_mann_subgroup(bent, rep.lattice, h)

    @pytest.mark.parametrize("name", ["C4", "Q8", "D8", "A5", "S3"])
    def test_trivial_and_whole_match_the_materialized_subgroup(self, group, name):
        g = group(name)
        cd = conjugacy_classes(g)
        lat = normal_subgroups(g)
        for mask in (1, (1 << cd.k) - 1):
            sub = subgroup_elements(g, _elements(g, mask), "H")
            assert chillag_mann_subgroup(cd, lat, mask) == oracle.chillag_mann_type(sub)


class TestRecognize:
    def test_a5_from_two_presentations(self, group):
        assert recognize(group("A5")) == "A5"
        assert recognize(group("L2_4")) == "A5"
        assert recognize(group("L2_5")) == "A5"

    def test_l28(self, group):
        assert recognize(group("L2_8")) == "L2_8"

    def test_sl25(self, group):
        assert recognize(group("SL2_5")) == "SL2_5"

    def test_others(self, group):
        assert recognize(group("S5")) == "other"
        assert recognize(group("A6")) == "other"
        assert recognize(group("Q8")) == "other"
        assert recognize(group("L2_7")) == "other"


class TestProducts:
    def test_constructed_direct_product(self, group):
        g = group("A5xC3")
        a5_part = derived_series_limit(g)
        assert internal_direct_product(g, a5_part, _elements(g, analyze(g).radical))

    def test_s3_is_not_a_direct_product(self, group):
        g = group("S3")
        cd = conjugacy_classes(g)
        lat = normal_subgroups(g, cd)
        c3 = next(class_elements(cd, m) for m in lat.members if lat.orders[m] == 3)
        t = next(x for x in range(6) if order_of(g, x) == 2)
        c2 = frozenset({0, t})
        assert not internal_direct_product(g, c3, c2)

    def test_whole_times_trivial(self, group):
        g = group("Q8")
        assert internal_direct_product(g, frozenset(range(8)), frozenset({0}))

    def test_central_product_check_on_sl25_circ_c4(self, group):
        g = group("SL2_5oC4")
        rep = analyze(g)
        k, h, o = (_elements(g, m) for m in (rep.k, rep.o2, rep.o2p))
        assert k == derived_series_limit(g)
        assert len(k) == 120 and len(h) == 4 and o == {0}
        assert central_product_check(g, k, h)
        assert k & h == subgroup_center(g, k)

    def test_central_product_check_fails_when_h_equals_center(self, group):
        # inside SL2(5) itself, H = Z(K) fails the strictness Z(K) < H
        g = group("SL2_5")
        k = frozenset(range(120))
        z = center(g)
        assert not central_product_check(g, k, z)

    def test_strictness_for_abelian_k(self, group):
        g = group("C4")
        k = frozenset(range(4))
        assert not central_product_check(g, k, k)  # Z(K) = K is not < H


class TestAnalyze:
    def test_a5(self, group):
        g = group("A5")
        rep = analyze(g)
        # simple: two normal subgroups; perfect: K is all of G
        assert len(rep.lattice) == 2 and rep.k == rep.lattice.members[-1]
        assert not rep.is_solvable
        assert _elements(g, rep.radical) == {0}
        assert len(_elements(g, rep.k)) == rep.lattice.orders[rep.k] == 60

    def test_sl25(self, group):
        g = group("SL2_5")
        rep = analyze(g)
        assert len(rep.lattice) > 2 and rep.k == rep.lattice.members[-1]
        assert len(_elements(g, rep.radical)) == rep.lattice.orders[rep.radical] == 2
        assert subgroup_center(g, _elements(g, rep.k)) == _elements(g, rep.radical)

    def test_s5(self, group):
        g = group("S5")
        rep = analyze(g)
        assert rep.k != rep.lattice.members[-1] and not rep.is_solvable
        assert len(_elements(g, rep.k)) == rep.lattice.orders[rep.k] == 60

    def test_quotient_by_derived_limit_is_solvable(self, group):
        for name in ("S5", "SL2_5oC4", "A5xC4"):
            g = group(name)
            k = derived_series_limit(g)
            q = enumerate_group(quotient_group(g, k, "top"))
            assert analyze(q).is_solvable
            assert oracle.is_solvable(q, range(q.order))


class TestSubgroupMaterialization:
    def test_round_trip_indices(self, group):
        g = group("S5")
        a5 = derived_series_limit(g)
        sub = subgroup_elements(g, a5, "A5_in_S5")
        assert sub.order == 60
        assert oracle.parent_indices(g, sub) == a5
        assert recognize(sub) == "A5"


# Beyond the default corpus: products whose lattices have many members, a
# non-split radical (SL2_5xC3) and radicals with both cores nontrivial.
ORACLE_GROUPS = [e.name for e in default_corpus()] + ["S4", "A4xC3", "A5xC2xC2", "SL2_5xC3"]

# The corpus plus groups whose solvable residual K is a target next to a
# larger radical, and the order-32256 aff64_L2_8, where K is the whole group.
LABEL_GROUPS = [e.name for e in default_corpus()] + [
    "aff64_L2_8",
    "L2_8xC2xC2",
    "A5xC4xC2",
    "A5xC3xC5",
    "SL2_5oC4xC3",
]


def assert_matches_oracle(g):
    rep = analyze(g)
    lat = rep.lattice
    lattice = oracle.normal_subgroups(g)
    members = [_elements(g, m) for m in lat.members]
    assert sorted(members, key=lambda s: (len(s), sorted(s))) == lattice
    radical = _elements(g, rep.radical)
    assert radical == oracle.solvable_radical(g)
    assert _elements(g, rep.k) == derived_series_limit(g)
    assert (_elements(g, rep.o2), _elements(g, rep.o2p)) == oracle.radical_cores(g, radical)
    # the members come sorted by (order, mask), each order its number of
    # elements
    assert list(lat.orders.items()) == sorted(
        ((m, len(s)) for m, s in zip(lat.members, members)), key=lambda p: (p[1], p[0])
    )


@st.composite
def two_generator_spec(draw):
    degree = draw(st.integers(min_value=2, max_value=6))
    gens = tuple(
        Permutation(tuple(draw(st.permutations(list(range(degree))))))
        for _ in range(2)
    )
    return GroupSpec(degree, gens, "H")


class TestOracleCrossCheck:
    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_named_group(self, group, name):
        assert_matches_oracle(group(name))

    @given(spec=two_generator_spec())
    @settings(max_examples=25, deadline=None)
    def test_random_group(self, spec):
        g = enumerate_group(spec, cap=720)
        assert_matches_oracle(g)
        assert_chillag_mann_matches_table(g)

    @pytest.mark.parametrize("name", LABEL_GROUPS)
    def test_k_label_matches_the_element_level_recognizer(self, group, name):
        g = group(name)
        rep = analyze(g)
        assert rep.k_label == recognize(subgroup_elements(g, _elements(g, rep.k), "K"))


# Every CaseI and CaseII group among the cross-checked and generated groups,
# with two more products: a CaseII group whose 2-core is not cyclic, and a
# CaseI group with an odd core only.
CASE_GROUPS = {
    name: kind
    for name, kind in [
        *((e.name, e.expected_verdict) for e in default_corpus()),
        ("A5xC2xC2", CASE_I),
        *(row[:2] for row in GENERATED),
        ("SL2_5oC4xC2", CASE_II),
        ("A5xC7", CASE_I),
    ]
    if kind in (CASE_I, CASE_II)
}


class TestVerdictShape:
    """The verdict reads orders only; the oracle checks the products it
    claims element by element."""

    @pytest.mark.parametrize("name", sorted(CASE_GROUPS))
    def test_case_groups_have_the_claimed_products(self, group, name):
        g = group(name)
        assert classification_verdict(g).kind == CASE_GROUPS[name]
        assert case_shape_holds(g, analyze(g), CASE_GROUPS[name])

    def test_no_other_listed_group_is_a_case(self, group):
        for name in set(ORACLE_GROUPS + LABEL_GROUPS) - set(CASE_GROUPS):
            assert classification_verdict(group(name)).kind not in (CASE_I, CASE_II), name
