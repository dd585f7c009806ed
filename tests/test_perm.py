from __future__ import annotations

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracle
from oracle import (
    center,
    central_product,
    class_elements,
    commutator_subgroup,
    compose,
    coset_action,
    cycle_string,
    derived_series_limit,
    index_of,
    inv,
    inverse,
    is_identity,
    mul,
    order_of,
    point_stabilizer,
    quotient_group,
    subgroup_closure,
)

from realchar.catalog import default_corpus, quaternion8, resolve
from realchar.errors import CapacityError, StructureError
from realchar.perm import (
    GroupSpec,
    Permutation,
    conjugacy_classes,
    direct_product,
    enumerate_group,
)


def perm(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


class TestCompose:
    def test_involution_squares_to_identity(self):
        t = perm(2, (0, 1))
        assert is_identity(compose(t, t))

    def test_three_cycle_squared_is_inverse(self):
        c = perm(3, (0, 1, 2))
        assert compose(c, c) == inverse(c)

    def test_identity_law(self):
        a = perm(4, (0, 2, 3))
        assert compose(a, Permutation.identity(4)) == a
        assert compose(Permutation.identity(4), a) == a

    def test_degree_mismatch(self):
        with pytest.raises(StructureError):
            compose(perm(2, (0, 1)), perm(3, (0, 1)))

    def test_not_a_bijection(self):
        with pytest.raises(StructureError):
            Permutation((0, 0, 1))

    def test_cycle_string_round_trip(self):
        p = perm(5, (0, 1), (2, 3, 4))
        assert cycle_string(p) == "(1,2)(3,4,5)"
        assert cycle_string(Permutation.identity(3)) == "()"


class TestEnumerate:
    def test_s3_order(self, group):
        assert group("S3").order == 6

    def test_a5_order(self, group):
        assert group("A5").order == 60

    def test_identity_only(self):
        g = enumerate_group(GroupSpec(1, (Permutation.identity(1),), "triv"))
        assert g.order == 1
        assert is_identity(oracle.perm(g, 0))

    def test_identity_is_element_zero(self, group):
        assert is_identity(oracle.perm(group("S5"), 0))

    def test_cap_exceeded_names_cap(self):
        spec = resolve("A5")
        with pytest.raises(CapacityError, match="59"):
            enumerate_group(spec, cap=59)
        assert enumerate_group(spec, cap=60).order == 60

    @pytest.mark.parametrize("name", ["S9", "A9"])
    def test_cap_is_checked_before_any_row(self, name):
        # the chain's order decides it; listing 100,000 rows first peaks at
        # about 10 MiB
        spec = resolve(name)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="100000"):
                enumerate_group(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestConjugacyClasses:
    def test_s3_sizes(self, group):
        cd = conjugacy_classes(group("S3"))
        assert sorted(cd.sizes) == [1, 2, 3]

    def test_a5_sizes(self, group):
        cd = conjugacy_classes(group("A5"))
        assert sorted(cd.sizes) == [1, 12, 12, 15, 20]

    def test_abelian_all_singletons(self, group):
        cd = conjugacy_classes(group("C12"))
        assert cd.sizes == (1,) * 12

    def test_identity_class_first(self, group):
        cd = conjugacy_classes(group("S5"))
        assert class_elements(cd, 1) == {0}

    def test_inv_map_is_involution(self, group):
        for name in ("S3", "A5", "Q8", "SL2_5"):
            cd = conjugacy_classes(group(name))
            for c in range(cd.k):
                assert cd.inv_map[cd.inv_map[c]] == c
            assert cd.inv_map[0] == 0

    def test_inv_map_matches_element_inverses(self, group):
        # every class of S5 is self-inverse; L2_7 has 2 classes and A5xC3 has
        # 10 that are not
        for name in ("S5", "L2_7", "A5xC3"):
            g = group(name)
            cd = conjugacy_classes(g)
            for c in range(cd.k):
                for x in class_elements(cd, 1 << c):
                    assert cd.class_of[inv(g, x)] == cd.inv_map[c]

    def test_power_map_one_is_identity(self, group):
        cd = conjugacy_classes(group("A5"))
        assert tuple(pows[1 % len(pows)] for pows in cd.rep_power_classes) == tuple(range(cd.k))

    def test_power_map_periodic(self, group):
        g = group("S3")
        cd = conjugacy_classes(g)
        for c, r in enumerate(cd.reps):
            pows = cd.rep_power_classes[c]
            n = len(pows)
            x = 0
            for m in range(2 * n):
                assert pows[m % n] == pows[(m + n) % n]
                assert cd.class_of[x] == pows[m % n]
                x = mul(g, x, r)

    @pytest.mark.parametrize("name", [e.name for e in default_corpus()] + ["aff64_L2_8"])
    def test_rep_powers_match_the_scalar_loop(self, group, name):
        # conjugacy_classes steps the powers of all reps at once
        g = group(name)
        cd = conjugacy_classes(g)
        for r, pows in zip(cd.reps, cd.rep_power_classes):
            scalar = [0]
            x = r
            while x != 0:
                scalar.append(cd.class_of[x])
                x = mul(g, x, r)
            assert pows == tuple(scalar)
        assert cd.exponent == math.lcm(*(len(p) for p in cd.rep_power_classes))

    def test_classes_of_a_large_group_keep_under_1_mb(self):
        # aff64_L2_8, |G| = 32256: the class order is two intp arrays of |G|
        # entries, about 0.5 MB; a conjugation map kept per generator, or
        # the elements as Python ints, would pass 1 MB
        g = enumerate_group(resolve("aff64_L2_8"))
        tracemalloc.start()
        try:
            cd = conjugacy_classes(g)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cd.k == 17 and kept < 1 << 20

    def test_sizes_divide_order(self, group):
        for name in ("S3", "A5", "Q8", "S5", "Q8xC3"):
            g = group(name)
            cd = conjugacy_classes(g)
            assert sum(cd.sizes) == g.order
            assert all(g.order % s == 0 for s in cd.sizes)

    def test_brute_force_parity_small_groups(self, group):
        # full pairwise conjugation agrees with the orbit sweep
        for name in ("S3", "Q8", "C12", "D8", "Q8xC3", "S4"):
            g = group(name)
            assert g.order <= 24
            cd = conjugacy_classes(g)
            brute = {}
            for x in range(g.order):
                orbit = frozenset(
                    mul(g, mul(g, inv(g, gg), x), gg) for gg in range(g.order)
                )
                brute[x] = orbit
            lib = {x: class_elements(cd, 1 << cd.class_of[x]) for x in range(g.order)}
            assert brute == lib


class TestCenter:
    def test_s3_trivial(self, group):
        assert center(group("S3")) == {0}

    def test_q8_center_order_two(self, group):
        assert len(center(group("Q8"))) == 2

    def test_abelian_full(self, group):
        g = group("C12")
        assert center(g) == frozenset(range(12))


class TestSubgroupClosure:
    def test_identity_seed(self, group):
        assert subgroup_closure(group("S3"), {0}) == {0}

    def test_single_transposition(self, group):
        g = group("S3")
        t = index_of(g, perm(3, (0, 1)).images)
        assert len(subgroup_closure(g, {t})) == 2

    def test_two_transpositions_generate(self, group):
        g = group("S3")
        a = index_of(g, perm(3, (0, 1)).images)
        b = index_of(g, perm(3, (1, 2)).images)
        assert len(subgroup_closure(g, {a, b})) == 6


class TestCommutators:
    def test_abelian_trivial(self, group):
        g = group("C12")
        whole = frozenset(range(12))
        assert commutator_subgroup(g, whole, whole) == {0}

    def test_s3_derived_is_c3(self, group):
        g = group("S3")
        whole = frozenset(range(6))
        derived = commutator_subgroup(g, whole, whole)
        assert len(derived) == 3

    def test_a5_perfect(self, group):
        g = group("A5")
        whole = frozenset(range(60))
        assert commutator_subgroup(g, whole, whole) == whole

    def test_matches_all_pairs_brute_force(self, group):
        for name in ("S3", "Q8", "D8", "S4"):
            g = group(name)
            whole = frozenset(range(g.order))
            comms = set()
            for a in range(g.order):
                for b in range(g.order):
                    ia, ib = inv(g, a), inv(g, b)
                    comms.add(mul(g, mul(g, mul(g, ia, ib), a), b))
            assert commutator_subgroup(g, whole, whole) == subgroup_closure(g, comms)

    def test_matches_brute_force_on_subgroup_pairs(self, group):
        # [A, B] for proper subgroups equals the closure of all elementwise
        # commutators, with no extra conjugation
        g = group("S4")
        cyclics = {subgroup_closure(g, {x}) for x in range(g.order)}
        subs = sorted(cyclics, key=lambda s: (len(s), sorted(s)))[:8]
        for a_set in subs:
            for b_set in subs:
                brute = set()
                for a in a_set:
                    for b in b_set:
                        ia, ib = inv(g, a), inv(g, b)
                        brute.add(mul(g, mul(g, mul(g, ia, ib), a), b))
                assert commutator_subgroup(g, a_set, b_set) == subgroup_closure(g, brute)


class TestDerivedLimit:
    def test_solvable_reaches_trivial(self, group):
        for name in ("S3", "Q8", "C12", "Q8xC3", "S4"):
            assert derived_series_limit(group(name)) == {0}

    def test_s5_limit_is_a5(self, group):
        g = group("S5")
        limit = derived_series_limit(g)
        assert len(limit) == 60

    def test_sl25_is_perfect(self, group):
        g = group("SL2_5")
        assert derived_series_limit(g) == frozenset(range(120))


class TestCosetAction:
    def test_whole_group_gives_degree_one(self, group):
        g = group("S3")
        spec = coset_action(g, range(6))
        assert spec.degree == 1

    def test_a5_on_a4_is_degree_five(self, group):
        g = group("A5")
        stab = point_stabilizer(g, 4)
        assert len(stab) == 12
        spec = coset_action(g, stab)
        assert spec.degree == 5
        image = enumerate_group(spec)
        assert image.order == 60  # trivial core: faithful

    def test_image_order_is_index_of_core(self, group):
        g = group("S4")
        # the core of a point stabilizer in the natural action of S4 is trivial
        stab = point_stabilizer(g, 0)
        image = enumerate_group(coset_action(g, stab))
        assert image.order == 24

    def test_image_order_with_nontrivial_core(self, group):
        # Q8 on the cosets of its center: the center is the core
        g = group("Q8")
        z = center(g)
        image = enumerate_group(coset_action(g, z))
        assert image.order == 8 // len(z)

    def test_transitivity(self, group):
        g = group("A5")
        stab = point_stabilizer(g, 0)
        spec = coset_action(g, stab)
        image = enumerate_group(spec)
        orbit = {0}
        frontier = [0]
        while frontier:
            pt = frontier.pop()
            for gen in spec.generators:
                q = gen.images[pt]
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        assert orbit == set(range(spec.degree))


class TestQuotient:
    def test_quotient_by_whole_group(self, group):
        g = group("S3")
        spec = quotient_group(g, frozenset(range(6)), "triv")
        assert enumerate_group(spec).order == 1

    def test_s4_mod_klein_is_s3(self, group):
        g = group("S4")
        klein = {0} | {
            index_of(g, perm(4, (0, 1), (2, 3)).images),
            index_of(g, perm(4, (0, 2), (1, 3)).images),
            index_of(g, perm(4, (0, 3), (1, 2)).images),
        }
        spec = quotient_group(g, frozenset(klein), "S4_mod_V4")
        q = enumerate_group(spec)
        assert q.order == 6
        assert not all(
            mul(q, a, b) == mul(q, b, a) for a in range(6) for b in range(6)
        )

    def test_non_normal_rejected(self, group):
        g = group("S3")
        t = index_of(g, perm(3, (0, 1)).images)
        with pytest.raises(StructureError):
            quotient_group(g, subgroup_closure(g, {t}), "bad")

    def test_central_product_matches_per_element_search(self):
        # the catalog's literal generators, in the same order
        assert resolve("SL2_5oC4") == oracle.central_sl2_5_c4()


class TestProducts:
    def test_direct_product_order(self, group):
        spec = direct_product(resolve("A5"), resolve("C3"))
        assert enumerate_group(spec).order == 180

    def test_klein_four(self):
        spec = direct_product(resolve("C2"), resolve("C2"))
        g = enumerate_group(spec)
        assert g.order == 4
        cd = conjugacy_classes(g)
        assert cd.sizes == (1, 1, 1, 1)

    def test_class_count_multiplies(self, group):
        ga, gb = group("S3"), group("Q8")
        spec = direct_product(ga.spec, gb.spec)
        cd = conjugacy_classes(enumerate_group(spec))
        ka = conjugacy_classes(ga).k
        kb = conjugacy_classes(gb).k
        assert cd.k == ka * kb

    def test_central_product_c2_c2(self):
        spec = central_product(
            resolve("C2"), resolve("C2"), {0, 1}, {0, 1}, {0: 0, 1: 1}
        )
        assert enumerate_group(spec).order == 2

    def test_central_product_q8_c4(self, group):
        gq = group("Q8")
        zq = center(gq)
        gc = enumerate_group(resolve("C4"))
        half = next(i for i in range(4) if order_of(gc, i) == 2)
        nontrivial = next(iter(zq - {0}))
        spec = central_product(
            gq.spec, gc.spec, zq, {0, half}, {0: 0, nontrivial: half}
        )
        assert enumerate_group(spec).order == 16  # |Q8| * |C4| / |Z|

    def test_central_product_rejects_bad_matching(self, group):
        gq = group("Q8")
        zq = sorted(center(gq))
        gc = enumerate_group(resolve("C4"))
        # map the central involution to a generator of C4: not an isomorphism
        bad = {0: 0, zq[1]: 1}
        with pytest.raises(StructureError):
            central_product(gq.spec, gc.spec, frozenset(zq), {0, 1}, bad)


@st.composite
def small_group_spec(draw):
    degree = draw(st.integers(min_value=2, max_value=6))
    n_gens = draw(st.integers(min_value=1, max_value=2))
    gens = tuple(
        Permutation(tuple(draw(st.permutations(list(range(degree))))))
        for _ in range(n_gens)
    )
    return GroupSpec(degree, gens, "H")


class TestRandomGroupProperties:
    @given(spec=small_group_spec())
    @settings(max_examples=30, deadline=None)
    def test_class_structure_invariants(self, spec):
        g = enumerate_group(spec, cap=720)
        cd = conjugacy_classes(g)
        assert sum(cd.sizes) == g.order
        assert all(g.order % s == 0 for s in cd.sizes)
        assert class_elements(cd, 1) == {0}
        for c in range(cd.k):
            assert cd.inv_map[cd.inv_map[c]] == c
        assert tuple(pows[1 % len(pows)] for pows in cd.rep_power_classes) == tuple(range(cd.k))
        # inv_map fixes k iff the class contains its inverses
        for c in range(cd.k):
            cls = class_elements(cd, 1 << c)
            fixed = cd.inv_map[c] == c
            assert fixed == (inv(g, min(cls)) in cls)

    @given(spec=small_group_spec())
    @settings(max_examples=20, deadline=None)
    def test_closure_is_a_subgroup(self, spec):
        g = enumerate_group(spec, cap=720)
        seed = set(itertools.islice(range(g.order), 0, g.order, 3))
        sub = subgroup_closure(g, seed)
        assert 0 in sub
        members = sorted(sub)
        for a in members[:10]:
            for b in members[:10]:
                assert mul(g, a, b) in sub
            assert inv(g, a) in sub


def test_quaternion_catalog_shape():
    g = enumerate_group(quaternion8())
    assert g.order == 8
    orders = sorted(order_of(g, i) for i in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
