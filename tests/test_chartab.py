from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _chartab_py as ref
from _cyclo import conjugate, is_real, reduce_mod_p
from oracle import class_elements, class_matrix, exact_orthogonality, kronecker_table, mul, rows

from realchar.chartab import (
    all_class_matrices,
    compute_table,
    dump_table,
    exact_table,
    parse_dump,
    real_degree_set,
    row_indicators,
    row_kernels,
    row_real_flags,
    verify_orthogonality,
)
from realchar.catalog import default_corpus, resolve
from realchar.errors import InternalError, StructureError
from realchar.modp import select_prime
from realchar.perm import GroupSpec, Permutation, conjugacy_classes, enumerate_group

SMALL = ["S3", "C3", "C4", "Q8", "D8", "S4", "Q8xC3"]
MEDIUM = SMALL + ["A5", "S5", "SL2_5", "A6", "L2_7", "L2_8", "SL2_5oC4", "aff16_A5"]


def table_of(group, name, seed=0):
    g = group(name)
    return g, conjugacy_classes(g), compute_table(g, conjugacy_classes(g), seed)


def kernel_of(t, cd, row):
    """The classes in the kernel of one row, read off ``row_kernels``."""
    return frozenset(c for c in range(cd.k) if row_kernels(t, cd)[row] >> c & 1)


class TestClassMatrix:
    def test_identity_class_gives_identity_matrix(self, group):
        g = group("S5")
        cd = conjugacy_classes(g)
        m = class_matrix(cd, g, 0)
        assert m == [[int(i == j) for j in range(cd.k)] for i in range(cd.k)]

    def test_s3_transposition_class_constants(self, group):
        g = group("S3")
        cd = conjugacy_classes(g)
        assert cd.sizes == (1, 3, 2)  # identity, transpositions, 3-cycles
        m = class_matrix(cd, g, 1)
        assert m[1][0] == 3
        assert m[1][1] == 0
        assert m[1][2] == 3

    def test_weighted_row_sums(self, group):
        for name in ("S3", "Q8", "A5"):
            g = group(name)
            cd = conjugacy_classes(g)
            for i in range(cd.k):
                m = class_matrix(cd, g, i)
                for j in range(cd.k):
                    total = sum(m[j][t] * cd.sizes[t] for t in range(cd.k))
                    assert total == cd.sizes[i] * cd.sizes[j]

    def test_batch_matches_single(self, group):
        g = group("S4")
        cd = conjugacy_classes(g)
        mats = all_class_matrices(cd, g)
        for i in range(cd.k):
            assert mats[i].tolist() == class_matrix(cd, g, i)

    def test_wide_class_matrices_match_a_direct_count(self, group):
        # k = 320 > 255, so the classes of the products are kept as uint16
        g = group("A5xC4xC4xC4")
        cd = conjugacy_classes(g)
        mats = all_class_matrices(cd, g)
        assert cd.k == len(mats) == 320 and mats._cell.dtype == np.uint16
        elements = rows(g).astype(np.intp)
        index = {row.tobytes(): i for i, row in enumerate(elements)}
        inverse = np.argsort(elements, axis=1)
        pair = next((i, cd.inv_map[i]) for i in range(cd.k) if cd.inv_map[i] != i)
        for i in (0, cd.k - 1, *pair):
            want = np.zeros((cd.k, cd.k))
            for x in class_elements(cd, 1 << i):
                for t, r in enumerate(cd.reps):
                    # the row of x^-1 * rep_t is x^-1(rep_t(b)) at each point b
                    product = inverse[x][elements[r]]
                    want[cd.class_of[index[product.tobytes()]], t] += 1
            assert (mats[i] == want).all()


class TestComputeTable:
    def test_s3(self, group):
        _, _, t = table_of(group, "S3")
        assert t.degrees == (1, 1, 2)
        assert all(t.real_flags)

    def test_a5(self, group):
        _, _, t = table_of(group, "A5")
        assert t.degrees == (1, 3, 3, 4, 5)
        assert all(t.real_flags)
        assert t.indicators == (1, 1, 1, 1, 1)
        assert sum(d * d for d in t.degrees) == 60

    def test_c3_single_real_row(self, group):
        _, _, t = table_of(group, "C3")
        assert t.degrees == (1, 1, 1)
        assert sum(t.real_flags) == 1

    def test_trivial_group(self, group):
        _, _, t = table_of(group, "C1")
        assert t.degrees == (1,)
        assert t.real_flags == (True,)
        assert t.indicators == (1,)

    def test_trivial_character_is_row_zero(self, group):
        for name in MEDIUM:
            _, _, t = table_of(group, name)
            assert t.degrees[0] == 1
            assert all(v == 1 for v in t.values[0])

    def test_degree_squares_sum(self, group):
        for name in MEDIUM:
            g, _, t = table_of(group, name)
            assert sum(d * d for d in t.degrees) == g.order

    def test_seed_independence(self, group):
        g = group("S5")
        cd = conjugacy_classes(g)
        t1 = compute_table(g, cd, seed=1)
        t2 = compute_table(g, cd, seed=99)
        assert t1.values == t2.values
        assert t1.degrees == t2.degrees

    def test_prime_override(self, group):
        g = group("S3")
        cd = conjugacy_classes(g)
        t = compute_table(g, cd, prime_override=13)
        assert t.ctx.p == 13
        assert t.degrees == (1, 1, 2)
        with pytest.raises(StructureError):
            compute_table(g, cd, prime_override=11)  # 10 % 6 != 0

    def test_real_rows_equal_real_classes(self, group):
        for name in MEDIUM:
            _, cd, t = table_of(group, name)
            real_classes = sum(1 for c in range(cd.k) if cd.inv_map[c] == c)
            assert sum(t.real_flags) == real_classes

    def test_odd_order_groups_have_one_real_row(self, group):
        for name in ("C3", "C5", "C9", "C15", "C3xC7"):
            _, _, t = table_of(group, name)
            assert sum(t.real_flags) == 1

    def test_fs_count_equals_involution_count(self, group):
        for name in MEDIUM:
            g, _, t = table_of(group, name)
            count = sum(t.indicators[r] * t.degrees[r] for r in range(t.k))
            involutions = sum(1 for x in range(g.order) if mul(g, x, x) == 0)
            assert count == involutions


class TestAgainstOracle:
    @pytest.mark.parametrize("name", ["S3", "Q8", "C3", "A5", "S5", "A6", "SL2_5"])
    def test_degrees_real_and_indicators(self, group, oracle_table, name):
        _, _, t = table_of(group, name)
        ot = oracle_table(name)
        assert tuple(sorted(t.degrees)) == ot.degree_multiset()
        assert real_degree_set(t).degrees == ot.real_degree_set()
        lib = Counter(zip(t.degrees, t.indicators))
        orc = Counter(zip(ot.degrees, ot.indicators))
        assert lib == orc

    def test_q8_two_dimensional_is_quaternionic(self, group, oracle_table):
        _, _, t = table_of(group, "Q8")
        row = t.degrees.index(2)
        assert t.real_flags[row]
        assert t.indicators[row] == -1
        ot = oracle_table("Q8")
        assert ot.indicators[ot.degrees.index(2)] == -1


class TestIndicators:
    def test_trivial_character(self, group):
        _, cd, t = table_of(group, "A5")
        assert row_indicators(t, cd)[0] == 1

    def test_c3_nontrivial_is_zero(self, group):
        _, cd, t = table_of(group, "C3")
        assert t.indicators.count(0) == 2

    def test_direct_elementwise_sum(self, group):
        # nu * |G| = sum over all g of chi(g^2), computed elementwise mod p
        for name in ("S3", "Q8", "S4", "A5"):
            g, cd, t = table_of(group, name)
            p = t.ctx.p
            for row in range(t.k):
                acc = 0
                for x in range(g.order):
                    acc = (acc + t.values[row][cd.class_of[mul(g, x, x)]]) % p
                assert acc == t.indicators[row] % p * (g.order % p) % p


class TestLift:
    def test_identity_class(self, group):
        _, cd, t = table_of(group, "A5")
        et = exact_table(t, cd)
        for row in range(t.k):
            v = et.values[row][0]
            assert v.mult == (t.degrees[row],)

    def test_s3_sign_at_transposition(self, group):
        _, cd, t = table_of(group, "S3")
        sign_row = next(
            r for r in range(3) if t.degrees[r] == 1 and any(v != 1 for v in t.values[r])
        )
        transposition_class = next(c for c in range(3) if cd.sizes[c] == 3)
        v = exact_table(t, cd).values[sign_row][transposition_class]
        assert v.mult == (0, 1)  # the value -1 over zeta_2

    def test_a5_golden_ratio_values(self, group):
        _, cd, t = table_of(group, "A5")
        five_classes = [c for c in range(5) if len(cd.rep_power_classes[c]) == 5]
        rows3 = [r for r in range(5) if t.degrees[r] == 3]
        et = exact_table(t, cd)
        mults = {et.values[r][c].mult for r in rows3 for c in five_classes}
        assert mults == {(1, 1, 0, 0, 1), (1, 0, 1, 1, 0)}

    def test_reduction_reproduces_table(self, group):
        for name in MEDIUM:
            _, cd, t = table_of(group, name)
            et = exact_table(t, cd)
            for row in range(t.k):
                for c in range(cd.k):
                    v = et.values[row][c]
                    assert reduce_mod_p(v, t.ctx) == t.values[row][c]

    def test_realness_definitions_agree(self, group):
        for name in MEDIUM:
            _, cd, t = table_of(group, name)
            et = exact_table(t, cd)
            for row in range(t.k):
                palindrome = all(is_real(v) for v in et.values[row])
                assert palindrome == t.real_flags[row]

    def test_conjugation_symmetry(self, group):
        _, cd, t = table_of(group, "SL2_5")
        et = exact_table(t, cd)
        for row in range(t.k):
            for c in range(cd.k):
                assert conjugate(et.values[row][c]) == et.values[row][cd.inv_map[c]]

    def test_a6_has_rational_degree_ten_row(self, group):
        _, cd, t = table_of(group, "A6")
        et = exact_table(t, cd)
        rows = [
            r for r in range(t.k) if t.degrees[r] == 10 and all(map(ref.is_rational, et.values[r]))
        ]
        assert rows


class TestKernel:
    def test_trivial_character_kernel_is_everything(self, group):
        _, cd, t = table_of(group, "S5")
        assert kernel_of(t, cd, 0) == frozenset(range(cd.k))

    def test_faithful_row_kernel_is_identity_class(self, group):
        _, cd, t = table_of(group, "Q8")
        row = t.degrees.index(2)
        assert kernel_of(t, cd, row) == {0}

    def test_s3_sign_kernel(self, group):
        _, cd, t = table_of(group, "S3")
        sign_row = next(
            r for r in range(3) if t.degrees[r] == 1 and any(v != 1 for v in t.values[r])
        )
        three_cycle_class = next(c for c in range(3) if cd.sizes[c] == 2)
        assert kernel_of(t, cd, sign_row) == {0, three_cycle_class}


class TestOrthogonality:
    def test_passes_mod_p(self, group):
        for name in MEDIUM:
            _, cd, t = table_of(group, name)
            assert verify_orthogonality(t, cd)

    def test_passes_exactly(self, group):
        for name in ("S3", "Q8", "A5", "SL2_5"):
            _, cd, t = table_of(group, name)
            assert exact_orthogonality(t, cd, exact_table(t, cd)) == ()

    def test_corrupted_row_is_located(self, group):
        from dataclasses import replace

        _, cd, t = table_of(group, "A5")
        values = [list(row) for row in t.values]
        values[2][1] = (values[2][1] + 1) % t.ctx.p
        bad = replace(t, values=tuple(tuple(r) for r in values))
        assert not verify_orthogonality(bad, cd)
        assert any("2" in f for f in ref.orthogonality_failures(bad, cd))


class TestKroneckerOracle:
    # k = 144 and k = 320: too wide for the brute-force oracle and sympy
    @pytest.mark.parametrize("a, b", [("L2_8", "C2xC2xC2xC2"), ("A5", "C4xC4xC4")])
    def test_wide_table_is_the_kronecker_product(self, group, a, b):
        g = group(f"{a}x{b}")
        t = compute_table(g)
        rows = list(zip(t.degrees, t.values, t.indicators, t.real_flags))
        assert rows == kronecker_table(g, resolve(a), resolve(b), t.ctx.p)

@st.composite
def random_group_spec(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    n_gens = draw(st.integers(min_value=1, max_value=2))
    gens = tuple(
        Permutation(tuple(draw(st.permutations(list(range(degree))))))
        for _ in range(n_gens)
    )
    return GroupSpec(degree, gens, "H")


class TestRandomGroups:
    @given(spec=random_group_spec())
    @settings(max_examples=20, deadline=None)
    def test_full_pipeline_invariants(self, spec):
        g = enumerate_group(spec, cap=120)
        cd = conjugacy_classes(g)
        t = compute_table(g, cd, seed=0)
        assert sum(d * d for d in t.degrees) == g.order
        assert sum(t.real_flags) == sum(1 for c in range(cd.k) if cd.inv_map[c] == c)
        fs = sum(t.indicators[r] * t.degrees[r] for r in range(t.k))
        assert fs == sum(1 for x in range(g.order) if mul(g, x, x) == 0)
        et = exact_table(t, cd)
        assert exact_orthogonality(t, cd, et) == ()
        for row in range(t.k):
            for c in range(cd.k):
                assert reduce_mod_p(et.values[row][c], t.ctx) == t.values[row][c]



def _class_counts(cd) -> tuple[int, int]:
    """Two counts that ``ClassData`` gives with no product: the real
    classes, and the x with x^2 = 1, the classes whose square class is the
    identity's."""
    real = sum(1 for c in range(cd.k) if cd.inv_map[c] == c)
    roots = sum(n for n, pows in zip(cd.sizes, cd.rep_power_classes) if pows[2 % len(pows)] == 0)
    return real, roots


def _table_counts(t) -> tuple[int, int]:
    """The real rows, and sum nu(chi) chi(1): by Brauer's permutation lemma
    (Isaacs Cor. 6.33) and the Frobenius-Schur count (Isaacs Cor. 4.6) they
    are the two counts of ``_class_counts``."""
    return sum(t.real_flags), sum(nu * d for nu, d in zip(t.indicators, t.degrees))


# the default corpus, the wide groups (k = 64 and 75) and the stretch group
COUNTED = [e.name for e in default_corpus()] + ["C4xC4xC4", "Q8xD8xC3", "aff64_L2_8"]


class TestCountsFromClasses:
    @pytest.mark.parametrize("name", COUNTED)
    def test_catalog_group(self, group, name):
        _, cd, t = table_of(group, name)
        assert _table_counts(t) == _class_counts(cd)

    @given(spec=random_group_spec())
    @settings(max_examples=20, deadline=None)
    def test_random_group(self, spec):
        g = enumerate_group(spec, cap=120)
        cd = conjugacy_classes(g)
        assert _table_counts(compute_table(g, cd)) == _class_counts(cd)

    @pytest.mark.parametrize("name", ["S3", "A5", "Q8xD8xC3"])
    def test_bent_degree_of_a_real_row(self, group, name):
        _, cd, t = table_of(group, name)
        for r in (r for r, real in enumerate(t.real_flags) if real):
            degrees = list(t.degrees)
            degrees[r] += 1
            bent = replace(t, degrees=tuple(degrees))
            assert _table_counts(bent)[0] == _class_counts(cd)[0]
            assert _table_counts(bent)[1] != _class_counts(cd)[1]


# the default prime and the next one = 1 mod exp(G) after it
TWO_PRIMES = ["aff64_L2_8", "L2_17", "SL2_5oC4", "A5xQ8", "Q8xD8xC3", "L2_8xC2xC2xC2xC2"]


def _exact_rows(t, cd) -> Counter:
    """The rows of the exact table, as a multiset."""
    return Counter(exact_table(t, cd).values)


class TestTwoPrimes:
    """Tables at two primes lift to one exact table.  Another prime picks
    another zeta_e, which a Galois automorphism maps to the first one; that
    permutes the rows, so the exact rows agree as multisets."""

    def _tables(self, group, name, bound=None):
        g = group(name)
        cd = conjugacy_classes(g)
        t = compute_table(g, cd)
        q = select_prime(bound or t.ctx.p, cd.exponent).p
        return cd, t, compute_table(g, cd, prime_override=q)

    @pytest.mark.parametrize("name", TWO_PRIMES)
    def test_exact_rows_agree(self, group, name):
        cd, t, u = self._tables(group, name)
        assert t.ctx.p < u.ctx.p and t.ctx.root_e != u.ctx.root_e
        assert _exact_rows(t, cd) == _exact_rows(u, cd)

    def test_object_path(self, group):
        cd, t, u = self._tables(group, "A5", 2**63)
        assert u.residues.dtype == object and t.residues.dtype != object
        assert _exact_rows(t, cd) == _exact_rows(u, cd)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_bent_residue(self, group, data):
        # one residue of the second table off: its lift fails or differs
        cd, t, u = self._tables(group, data.draw(st.sampled_from(["SL2_5oC4", "A5xQ8"])))
        r = data.draw(st.integers(0, u.k - 1))
        c = data.draw(st.integers(0, cd.k - 1))
        values = [list(row) for row in u.values]
        values[r][c] = (values[r][c] + data.draw(st.integers(1, u.ctx.p - 1))) % u.ctx.p
        bent = replace(u, values=tuple(map(tuple, values)))
        try:
            rows = _exact_rows(bent, cd)
        except InternalError:
            return
        assert rows != _exact_rows(t, cd)


def _outcome(compute):
    try:
        return compute()
    except InternalError as exc:
        return f"InternalError: {exc}"


def assert_matches_reference(t, cd):
    """Flags, indicators, kernels, lifts and the orthogonality verdict equal
    the per-entry reference's, errors included."""
    assert row_real_flags(t, cd) == ref.real_flags(t, cd)
    assert _outcome(lambda: row_indicators(t, cd)) == _outcome(
        lambda: tuple(ref.fs_indicator(t, cd, r) for r in range(t.k))
    )
    assert row_kernels(t, cd) == tuple(
        sum(1 << c for c in ref.kernel_of(t, cd, r)) for r in range(t.k)
    )
    assert verify_orthogonality(t, cd) == (ref.orthogonality_failures(t, cd) == ())
    assert _outcome(lambda: exact_table(t, cd)) == _outcome(lambda: ref.exact_table(t, cd))


class TestReferenceParity:
    @pytest.mark.parametrize("name", MEDIUM)
    def test_catalog_group(self, group, name):
        _, cd, t = table_of(group, name)
        assert_matches_reference(t, cd)

    @given(spec=random_group_spec())
    @settings(max_examples=20, deadline=None)
    def test_random_group(self, spec):
        g = enumerate_group(spec, cap=120)
        cd = conjugacy_classes(g)
        assert_matches_reference(compute_table(g, cd), cd)

    @pytest.mark.parametrize("name", ["A5", "Q8xC3"])
    def test_prime_above_2_63(self, group, name):
        # Python-int arithmetic, with residues int64 cannot hold
        g = group(name)
        cd = conjugacy_classes(g)
        t = compute_table(g, cd, prime_override=select_prime(2**63, cd.exponent).p)
        assert t.residues.dtype == object and max(map(max, t.values)) >= 2**63
        assert_matches_reference(t, cd)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bent_table(self, group, data):
        name = data.draw(st.sampled_from(["S3", "Q8", "S4", "Q8xC3", "A5", "SL2_5"]))
        _, cd, t = table_of(group, name)
        values = [list(row) for row in t.values]
        for _ in range(data.draw(st.integers(1, 3))):
            r = data.draw(st.integers(0, t.k - 1))
            c = data.draw(st.integers(0, cd.k - 1))
            values[r][c] = (values[r][c] + data.draw(st.integers(1, t.ctx.p - 1))) % t.ctx.p
        bent = replace(t, values=tuple(map(tuple, values)))
        assert_matches_reference(bent, cd)

    def test_bent_degree(self, group):
        # chi(1) - 1 lifts to a multiplicity below the degree at the identity
        # class, so the first fault is the sum, not an entry above the degree
        _, cd, t = table_of(group, "A5")
        values = [list(row) for row in t.values]
        values[3][0] -= 1
        bent = replace(t, values=tuple(map(tuple, values)))
        with pytest.raises(InternalError, match="do not sum to the degree"):
            exact_table(bent, cd)
        assert_matches_reference(bent, cd)

class TestDump:
    def test_round_trip(self, group):
        g, cd, t = table_of(group, "S4")
        text = dump_table(t, cd)
        parsed = parse_dump(text)
        assert parsed.values == t.values
        assert parsed.degrees == t.degrees
        assert parsed.real_flags == t.real_flags
        assert parsed.indicators == t.indicators
        assert parsed.ctx == t.ctx
        assert parsed.group_order == t.group_order

    def test_header_format(self, group):
        g, cd, t = table_of(group, "S3")
        first = dump_table(t, cd).splitlines()[0]
        assert first == "p=7, e=6, k=3, |G|=6"

    def test_exact_rows_included(self, group):
        g, cd, t = table_of(group, "S3")
        text = dump_table(t, cd, exact_table(t, cd))
        assert any(line.startswith("exact") for line in text.splitlines())

    def test_rejects_garbage(self):
        with pytest.raises(StructureError):
            parse_dump("not a table\n")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: row + ",1",
            lambda row: row.rsplit(",", 1)[0],
            lambda row: row.rsplit(",", 1)[0] + ",7",  # S3 works mod p = 7
            lambda row: row.rsplit(",", 1)[0] + ",x",
            lambda row: row.split()[0],
        ],
        ids=["extra_value", "missing_value", "value_not_below_p", "non_integer", "missing_fields"],
    )
    def test_rejects_malformed_rows(self, group, edit):
        g, cd, t = table_of(group, "S3")
        lines = dump_table(t, cd).splitlines()
        lines[2] = edit(lines[2])
        with pytest.raises(StructureError):
            parse_dump("\n".join(lines) + "\n")
