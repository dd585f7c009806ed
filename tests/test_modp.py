from __future__ import annotations

import contextlib
import math
import random

import _modp_py as ref
import numpy as np
import oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import distinct_roots, nullspace, roots, rref

from realchar import chartab, modp
from realchar.catalog import default_corpus, resolve
from realchar.errors import InternalError, StructureError
from realchar.modp import (
    char_poly,
    common_eigenbasis,
    is_prime,
    poly_divmod,
    poly_mul,
    primitive_root,
    select_prime,
    validated_context,
)
from realchar.perm import conjugacy_classes, enumerate_group


class TestSelectPrime:
    def test_order_six(self):
        ctx = select_prime(6, 6)
        assert ctx.p == 7
        assert pow(ctx.root_e, 6, 7) == 1
        assert all(pow(ctx.root_e, i, 7) != 1 for i in range(1, 6))

    def test_order_sixty(self):
        assert select_prime(60, 30).p == 61

    def test_trivial_group(self):
        assert select_prime(1, 1).p == 2

    def test_root_has_exact_order(self):
        for order, exponent in [(24, 12), (120, 60), (504, 126), (2448, 1224)]:
            ctx = select_prime(order, exponent)
            assert ctx.p > order and (ctx.p - 1) % exponent == 0
            assert pow(ctx.root_e, exponent, ctx.p) == 1
            for q in {d for d in range(2, exponent) if exponent % d == 0 and is_prime(d)}:
                assert pow(ctx.root_e, exponent // q, ctx.p) != 1

    def test_override_validation(self):
        ctx = validated_context(61, 60, 30)
        assert ctx.p == 61
        with pytest.raises(StructureError):
            validated_context(60, 59, 2)  # not prime
        with pytest.raises(StructureError):
            validated_context(53, 60, 4)  # too small
        with pytest.raises(StructureError):
            validated_context(67, 60, 4)  # 66 % 4 != 0


class TestPrimitives:
    def test_is_prime_small(self):
        primes = [n for n in range(2, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_primitive_root(self):
        for p in (3, 7, 61, 3673):
            g = primitive_root(p)
            seen = set()
            x = 1
            for _ in range(p - 1):
                x = x * g % p
                seen.add(x)
            assert len(seen) == p - 1


class TestNullspace:
    def test_identity_empty(self):
        assert nullspace([[1, 0], [0, 1]], 7).tolist() == []

    def test_zero_matrix(self):
        basis = nullspace([[0, 0], [0, 0]], 7)
        assert len(basis) == 2

    def test_rank_one(self):
        basis = nullspace([[1, 1], [2, 2]], 7)
        assert len(basis) == 1
        v = basis[0]
        # proportional to (1, 6) mod 7
        assert (v[0] + v[1]) % 7 == 0 and v.tolist() != [0, 0]

    def test_vectors_annihilate(self):
        m = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]
        for v in nullspace(m, 11):
            assert (np.array(m) @ v % 11).tolist() == [0, 0, 0]


def _char_poly(m, p):
    """The characteristic polynomial of one matrix, as a list."""
    return modp._ints(char_poly([m], p))[0]


class TestCharPoly:
    def test_identity(self):
        # (x - 1)^2 = 1 - 2x + x^2
        assert _char_poly([[1, 0], [0, 1]], 7) == [1, 5, 1]

    def test_diagonal(self):
        # (x - 2)(x - 3) = 6 - 5x + x^2 mod 7
        assert _char_poly([[2, 0], [0, 3]], 7) == [6, 2, 1]

    def test_companion(self):
        # companion of f = x^3 + 2x + 5 mod 11
        f = [5, 2, 0, 1]
        comp = [[0, 0, 6], [1, 0, 9], [0, 1, 0]]
        assert _char_poly(comp, 11) == f

    @given(
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_trace_and_determinant(self, n, rng):
        p = 101
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        f = _char_poly(m, p)
        assert len(f) == n + 1 and f[-1] == 1
        trace = sum(m[i][i] for i in range(n)) % p
        assert (-f[n - 1]) % p == trace

    @pytest.mark.parametrize(
        "big",
        [2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1, 2**64, 2**64 + 7, -(2**63), -(2**63) - 3, 1 - 2**64],
    )
    def test_list_entries_near_the_int64_bounds(self, big):
        # a list is read as Python ints, never through float64
        for p in (11, HUGE_PRIME):
            m = [[big, 3], [1, big - 2]]
            reduced = [[x % p for x in row] for row in m]
            assert _char_poly(m, p) == _char_poly(reduced, p)
            assert modp._ints(modp._residues(m, p)) == reduced
        assert _char_poly([[2**63 + 5, 3], [1, 2]], 11) == [1, 7, 1]


class TestRoots:
    def test_x_squared_minus_one(self):
        assert roots([6, 0, 1], 7) == [(1, 1), (6, 1)]

    def test_no_roots(self):
        assert roots([1, 0, 1], 7) == []

    def test_multiplicities(self):
        # (x-2)^2 (x-5) mod 11
        f = poly_mul(poly_mul([9, 1], [9, 1], 11), [6, 1], 11)
        assert roots(f, 11) == [(2, 2), (5, 1)]

    def test_deterministic_given_seed(self):
        f = poly_mul([1, 1], poly_mul([3, 1], [5, 1], 1009), 1009)
        assert roots(f, 1009, seed=7) == roots(f, 1009, seed=7)
        assert roots(f, 1009, seed=7) == roots(f, 1009, seed=11)

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_constructed_factorization(self, root_list, seed):
        p = 101
        f = [1]
        expected: dict[int, int] = {}
        for r in root_list:
            r %= p
            f = poly_mul(f, [(-r) % p, 1], p)
            expected[r] = expected.get(r, 0) + 1
        found = roots(f, p, seed=seed)
        assert found == sorted(expected.items())

    def test_root_product_divides(self):
        p = 61
        f = [7, 3, 0, 1, 9]
        total = sum(m for _, m in roots(f, p))
        assert total <= 4
        for r, m in roots(f, p):
            g = f
            for _ in range(m):
                g, rem = poly_divmod(g, [(-r) % p, 1], p)
                assert rem == []


def _split_poly(root_list, p):
    f = [1]
    for r in root_list:
        f = poly_mul(f, [(-r) % p, 1], p)
    return f


@contextlib.contextmanager
def _methods():
    """Yields the set of root-finding methods that ran inside the block."""
    ran = set()
    real_eval, real_split = modp._roots_by_evaluation, modp._split_linear

    def evaluation(f, p):
        ran.add("evaluation")
        return real_eval(f, p)

    def splitting(g, p, rng, out):
        ran.add("splitting")
        return real_split(g, p, rng, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modp, "_roots_by_evaluation", evaluation)
        mp.setattr(modp, "_split_linear", splitting)
        yield ran


HUGE_PRIME = 4611686018427388081  # above 2^62


@contextlib.contextmanager
def _calls(*names):
    """Yields the number of calls of each named ``modp`` function made
    inside the block."""
    counts = dict.fromkeys(names, 0)

    def counting(name, real):
        def fn(*args):
            counts[name] += 1
            return real(*args)

        return fn

    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            mp.setattr(modp, name, counting(name, getattr(modp, name)))
        yield counts


class TestDistinctRoots:
    """The distinct roots of split polynomials with repeated roots, against
    the reference root finder, on both sides of the evaluation/splitting
    rule and above 2^62."""

    @given(
        st.sampled_from([101, 3673, 32257, 1000003, HUGE_PRIME]),
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=3)),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_polynomials(self, p, root_mults, seed):
        root_list = [r % p for r, m in root_mults for _ in range(m)]
        f = _split_poly(root_list, p)
        want = ref.roots_rng(f, p, random.Random(seed))
        with _methods() as ran:
            distinct = distinct_roots(f, p, random.Random(seed))
        assert distinct == [r for r, _ in want] == sorted(set(root_list))
        assert roots(f, p, seed) == want
        assert len(ran) == 1 and (p < 2**31 or ran == {"splitting"})

    @pytest.mark.parametrize(
        "p, root_list, method",
        [
            # 3673 * (3 + 1) < 300 * 3^2 * 12: evaluation
            (3673, [5, 5, 3000], "evaluation"),
            # 32257 * (4 + 1) > 300 * 4^2 * 15: splitting
            (32257, [7, 7, 20000, 31000], "splitting"),
        ],
    )
    def test_method_follows_the_cost_rule(self, p, root_list, method):
        f = _split_poly(root_list, p)
        with _methods() as ran:
            distinct = distinct_roots(f, p, random.Random(0))
        assert ran == {method}
        assert distinct == sorted(set(root_list))
        assert distinct == [r for r, _ in ref.roots_rng(f, p, random.Random(0))]


def _matrix(rng, kind, n, p):
    """An n x n residue matrix: dense, mostly zero (so Hessenberg columns
    without a pivot), upper triangular, or block upper triangular with
    random block sizes, in a shuffled order of its indices."""
    if kind == "dense":
        return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        return [[rng.randrange(p) if rng.random() < 0.25 else 0 for _ in range(n)] for _ in range(n)]
    if kind == "triangular":
        return [[rng.randrange(p) if i <= j else 0 for j in range(n)] for i in range(n)]
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    block = [sum(i >= c for c in cuts) for i in range(n)]
    m = [[rng.randrange(p) if block[i] <= block[j] else 0 for j in range(n)] for i in range(n)]
    order = rng.sample(range(n), n)
    return [[m[i][j] for j in order] for i in order]


KINDS = ["dense", "sparse", "triangular", "blocks"]


class TestCharPolyStack:
    """The stacked characteristic polynomials against the list reference,
    matrix by matrix, on float64 and on Python ints up to p above 2^63."""

    @given(
        st.sampled_from([2, 101, 32257, HUGE_PRIME, 2**63 - 25, 2**63 + 29]),
        st.integers(min_value=1, max_value=7),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_reference(self, p, n, kinds, rng):
        mats = [_matrix(rng, kind, n, p) for kind in kinds]
        stack = modp._residues(mats, p)
        assert stack.dtype == (np.float64 if n * (p - 1) ** 2 < 2**53 else object)
        polys = char_poly(stack, p)
        assert polys.shape == (len(mats), n + 1)
        assert modp._ints(polys) == [ref.char_poly(m, p) for m in mats]
        assert modp._ints(stack) == mats


class TestEigenvalues:
    """The union of the roots of a matrix's strongly connected blocks
    against the roots of its whole characteristic polynomial, with matrices
    of several sizes in one call."""

    @given(
        st.sampled_from([7, 101, 32257, HUGE_PRIME]),
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=7), st.sampled_from(KINDS)),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_roots_are_the_matrix_roots(self, p, shapes, rng):
        mats = [_matrix(rng, kind, n, p) for n, kind in shapes]
        want = [
            [r for r, _ in ref.roots_rng(ref.char_poly(m, p), p, random.Random(0))] for m in mats
        ]
        subs = [modp._residues(m, p) for m in mats]
        assert modp._eigenvalues(subs, p, random.Random(rng.random())) == want


class TestCommonEigenbasis:
    def test_single_diagonal(self):
        vecs = common_eigenbasis([[[2, 0], [0, 3]]], 7)
        normalized = sorted(tuple(v) for v in vecs)
        assert normalized == [(0, 1), (1, 0)]

    def test_identity_plus_distinct_diagonal(self):
        mats = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[2, 0, 0], [0, 3, 0], [0, 0, 4]]]
        vecs = common_eigenbasis(mats, 11)
        assert sorted(tuple(v) for v in vecs) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_eigenvector_property(self, group):
        from realchar.chartab import all_class_matrices
        from realchar.modp import select_prime
        from realchar.perm import conjugacy_classes

        g = group("S5")
        cd = conjugacy_classes(g)
        ctx = select_prime(g.order, cd.exponent)
        mats = all_class_matrices(cd, g)
        vecs = common_eigenbasis(mats, ctx.p, seed=3)
        assert len(vecs) == cd.k
        p = ctx.p
        for v in vecs:
            for m in mats:
                w = (m.astype(np.int64) @ v % p).tolist()
                pivot = next(i for i, x in enumerate(v) if x)
                lam = w[pivot] * pow(v[pivot], p - 2, p) % p
                assert w == [lam * x % p for x in v]

    def test_s3_class_matrices_split_fully(self, group):
        from realchar.chartab import all_class_matrices
        from realchar.perm import conjugacy_classes

        g = group("S3")
        cd = conjugacy_classes(g)
        vecs = common_eigenbasis(all_class_matrices(cd, g), 7, seed=0)
        assert len(vecs) == 3

    def test_non_commuting_rejected(self):
        a = [[0, 1], [0, 0]]
        b = [[0, 0], [1, 0]]
        with pytest.raises(StructureError):
            common_eigenbasis([a, b], 7)

    def test_no_eigenbasis_rejected(self):
        # x^2 + 1 has no root mod 7, so the split ends with no lines at all;
        # a Jordan block splits into nothing smaller than a plane
        for mats in ([[[0, 1], [6, 0]]], [[[1, 1], [0, 1]]]):
            with pytest.raises(StructureError):
                common_eigenbasis(mats, 7)

    def test_dependent_lines_rejected(self, monkeypatch):
        # one line given twice: the eigen-equations hold, the rank does not
        line = (modp._residues([[1, 0]], 7), [0])
        assert oracle.is_eigenbasis([np.eye(2)], [line, line], 7) is False
        with pytest.raises(InternalError, match="share their eigenvalues"):
            _table_with(monkeypatch, "S5", lines=lambda vecs: vecs[:-1] + vecs[:1])

    def test_shared_eigenvalues_rejected(self):
        # e1 and e2 are independent, but one eigenvalue tuple cannot certify
        # their rank; the split never makes such lines, it stops at the plane
        lines = [(modp._residues([[1, 0]], 7), [0]), (modp._residues([[0, 1]], 7), [1])]
        assert oracle.is_eigenbasis([np.eye(2)], lines, 7) is False
        with pytest.raises(StructureError):
            common_eigenbasis([np.eye(2)], 7)

    @pytest.mark.parametrize("name", ["S5", "Q8xD8xC3"])
    def test_bent_line_rejected(self, group, monkeypatch, name):
        # one entry of one line off by one, past its leading entry
        mats, p = _class_matrices(group(name))
        vecs = common_eigenbasis(mats, p)
        for r, c in [(0, len(vecs) - 1), (len(vecs) - 1, len(vecs) - 1), (len(vecs) // 2, 1)]:

            def bend(vecs, r=r, c=c):
                out = [list(v) for v in vecs]
                out[r][c] = (out[r][c] + 1) % p
                return out

            assert next(x for x in bend(vecs)[r] if x) == 1
            assert oracle.is_eigenbasis(mats, oracle.lines_of(bend(vecs), p), p) is False
            with pytest.raises(InternalError, match="not a common eigenvector"):
                _table_with(monkeypatch, name, lines=bend)

    @pytest.mark.parametrize(
        "name, eliminations, char_polys",
        # one rref per new eigenspace would be 84, 117 and 25 calls.  One
        # char_poly per non-scalar restriction would be 21, 43 and 9 calls
        # (and the scalar spaces' 1, 7 and 18 more); one per class matrix
        # and block size is 3 stacks of 16 blocks of 4 on C4xC4xC4, 7 stacks
        # of 15-30 blocks of 2 or 3 on Q8xD8xC3, and 7 on aff64_L2_8
        [
            pytest.param("C4xC4xC4", 3, 3, id="C4xC4xC4"),
            pytest.param("Q8xD8xC3", 5, 7, id="Q8xD8xC3"),
            pytest.param("aff64_L2_8", 8, 7, id="aff64_L2_8"),
        ],
    )
    def test_one_elimination_per_class_matrix_and_size(
        self, group, name, eliminations, char_polys
    ):
        mats, p = _class_matrices(group(name))
        for seed in range(3):
            with _calls("_rref_stack", "char_poly") as calls:
                common_eigenbasis(mats, p, seed)
            assert calls == {"_rref_stack": eliminations, "char_poly": char_polys}

    def test_scalar_restriction_skips_char_poly(self):
        # I and 2I are scalar on the whole space; only the third matrix
        # reaches the root search.  Its 1 x 1 blocks need no polynomial, and
        # a 2 x 2 block (eigenvalues 1 and 3) one
        cases = [
            ([[2, 0, 0], [0, 3, 0], [0, 0, 4]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0),
            ([[2, 1, 0], [1, 2, 0], [0, 0, 4]], [[1, 10, 0], [1, 1, 0], [0, 0, 1]], 1),
        ]
        original = modp._eigenvalues
        for third, lines, char_polys in cases:
            mats = [np.eye(3), 2 * np.eye(3), np.array(third, dtype=float)]
            searched = []

            def recording(subs, p, rng):
                searched.append([modp._ints(sub) for sub in subs])
                return original(subs, p, rng)

            with _calls("_rref_stack", "char_poly") as calls, pytest.MonkeyPatch.context() as mp:
                mp.setattr(modp, "_eigenvalues", recording)
                vecs = common_eigenbasis(mats, 11)
            assert vecs == lines
            assert searched == [[third]]
            assert calls == {"_rref_stack": 1, "char_poly": char_polys}

    def test_empty_stack(self):
        # with no matrix the one line of k = 1 is its own basis; a plane is
        # never split
        assert common_eigenbasis(np.zeros((0, 1, 1)), 7) == [[1]]
        with pytest.raises(StructureError):
            common_eigenbasis(np.zeros((0, 2, 2)), 7)

    def test_non_square_rejected(self):
        for mats in ([[[1, 0]]], [[[1, 0], [0, 1]], [[1]]]):
            with pytest.raises(StructureError):
                common_eigenbasis(mats, 7)

    @pytest.mark.parametrize("name", ["A5xC4", "aff64_L2_8"])
    def test_lines_have_leading_entry_one(self, group, name):
        # the split's lines are nullspace rows times a basis, whose leading
        # entries are not 1 until the final scaling
        mats, p = _class_matrices(group(name))
        assert len(mats) >= 15
        for v in common_eigenbasis(mats, p, seed=0):
            assert next(x for x in v if x) == 1

    def test_determinism(self, group):
        from realchar.chartab import all_class_matrices
        from realchar.perm import conjugacy_classes

        g = group("A5")
        cd = conjugacy_classes(g)
        mats = all_class_matrices(cd, g)
        p = select_prime(g.order, cd.exponent).p
        assert common_eigenbasis(mats, p, seed=5) == common_eigenbasis(mats, p, seed=5)


def _largest_float_prime(k: int) -> int:
    """The largest prime p with k * (p-1)^2 < 2^53, where ``_residues`` still
    picks float64 for rows of length k."""
    p = math.isqrt((2**53 - 1) // k) + 1
    while not is_prime(p):
        p -= 1
    return p


class TestAllDivisible:
    """The table certificate's float64 divisibility test against the
    remainder, on d = q * p + r for every |d| < 2^53 the check can form."""

    BOUND = 2**53 - 1

    def _agrees(self, ds, p):
        d = np.array(ds, dtype=np.float64)
        assert d.astype(np.int64).tolist() == ds  # exact in float64
        for x in ds:
            assert modp._all_divisible(np.array([x], dtype=np.float64), p) == (x % p == 0)
        assert modp._all_divisible(d, p) == all(x % p == 0 for x in ds)

    @given(
        st.integers(min_value=1, max_value=400),
        st.sampled_from([73, 32257, None]),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_remainder(self, k, p, data):
        p = p or _largest_float_prime(k)
        assert modp._residues(np.zeros((1, k)), p).dtype == np.float64
        q = st.integers(min_value=-(self.BOUND // p), max_value=self.BOUND // p)
        r = st.sampled_from([0, 1, -1, p - 1, 1 - p])
        d = st.builds(lambda q, r: q * p + r, q, r).filter(lambda x: abs(x) <= self.BOUND)
        self._agrees(data.draw(st.lists(d, min_size=1, max_size=k)), p)

    @pytest.mark.parametrize("k", [1, 64, 320])
    def test_at_the_bound(self, k):
        for p in (73, 32257, _largest_float_prime(k)):
            top = self.BOUND // p * p
            ds = [s * (top - r) for s in (1, -1) for r in (0, 1, p - 1)]
            ds += [s * self.BOUND for s in (1, -1)] + [0, p, -p]
            self._agrees(ds, p)
        p = _largest_float_prime(k)
        assert modp._residues(np.zeros((1, k)), p).dtype == np.float64
        assert modp._residues(np.zeros((1, k)), modp.select_prime(p, 1).p).dtype == object


class TestMod:
    """The exact float64 reduction against the remainder, near +-2^53 and
    near +-p^2, on arrays long enough to take it."""

    @given(
        st.sampled_from([2, 3, 73, 193, 32257, _largest_float_prime(64), _largest_float_prime(1)]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_remainder(self, p, data):
        near = st.sampled_from([2**53, -(2**53), p * p, -p * p, 0])
        offset = st.integers(min_value=-(2**20), max_value=2**20)
        xs = data.draw(
            st.lists(
                st.builds(lambda c, d: c + d, near, offset).filter(lambda x: abs(x) < 2**53),
                min_size=1,
                max_size=40,
            )
        )
        x = np.resize(np.array(xs, dtype=np.float64), max(len(xs), modp._MOD_MIN_SIZE))
        assert x.astype(np.int64).tolist() == np.resize(xs, len(x)).tolist()
        got = modp._mod(x, p)
        assert got.dtype == np.float64
        assert got.tolist() == [int(v) % p for v in x.tolist()]


class TestMatMul:
    def test_overflow_path_matches_numpy_path(self):
        rng = random.Random(1)
        small_p = 97
        big_p = (1 << 62) - 57  # forces the Python-int path
        a = [[rng.randrange(small_p) for _ in range(4)] for _ in range(4)]
        b = [[rng.randrange(small_p) for _ in range(4)] for _ in range(4)]
        fast = (np.array(a) @ np.array(b) % small_p).tolist()
        big = modp._residues(a, big_p) @ modp._residues(b, big_p) % big_p
        assert big.dtype == object
        assert big.tolist() == ref.mat_mul(a, b, big_p)
        slow = [[x % small_p for x in row] for row in big.tolist()]
        assert fast == slow


# ---------------------------------------------------------------------------
# parity with the list reference in tests/_modp_py.py

PARITY_GROUPS = [e.name for e in default_corpus()] + ["aff64_L2_8"]
# k = 64 and 75: the reference's commutation check alone takes seconds here,
# so these compare with the reference's splitting only
WIDE_GROUPS = ["C4xC4xC4", "Q8xD8xC3"]


def _class_matrices(g, p=None, stacked=True):
    """The class matrices of g as one (k, k, k) array, or as the sequence
    that builds each one when it is read, and the prime."""
    from realchar.chartab import all_class_matrices
    from realchar.perm import conjugacy_classes

    cd = conjugacy_classes(g)
    ctx = select_prime(g.order if p is None else p, cd.exponent)
    mats = all_class_matrices(cd, g)
    return np.stack(list(mats)) if stacked else mats, ctx.p


def _table_with(monkeypatch, name, lines=None, mats=None, prime=None):
    """``compute_table`` on a fresh enumeration of the named group, so that
    no table is memoized, with the split's lines passed through ``lines``
    and the stack ``mats`` in place of the class matrices, where given."""
    g = enumerate_group(resolve(name))
    split = chartab.common_eigenbasis
    with monkeypatch.context() as mp:
        if lines is not None:
            mp.setattr(chartab, "common_eigenbasis", lambda *args: lines(split(*args)))
        if mats is not None:
            mp.setattr(chartab, "all_class_matrices", lambda cd, g: mats)
        return chartab.compute_table(g, prime_override=prime)


class TestOracleEigenbasis:
    """The oracle's check of the split's lines, which also reads the order
    the split emits them in, against families with a common eigenbasis;
    ``compute_table``'s certificate takes the lines in any order."""

    def test_reversed_lines_rejected(self, group, monkeypatch):
        # a true eigenbasis in reverse: every eigen-equation holds and the
        # tuples are distinct, but they decrease.  The table's certificate
        # needs no order, and the table is the same.
        mats, p = _class_matrices(group("S5"))
        lines = oracle.lines_of(common_eigenbasis(mats, p), p)
        assert oracle.is_eigenbasis(mats, lines, p) is True
        assert oracle.is_eigenbasis(mats, lines[::-1], p) is False
        reversed_table = _table_with(monkeypatch, "S5", lines=lambda vecs: vecs[::-1])
        assert reversed_table == chartab.compute_table(group("S5"))

    @given(
        st.sampled_from([101, 32257, HUGE_PRIME]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_generic_commuting_families(self, p, k, count, rng):
        # P D_i P^-1 for a random invertible P and diagonals D_i with entries
        # from a few values: the split ends in k lines exactly when the
        # diagonals tell the k coordinates apart, and those lines pass the
        # check in the order given, and fail it reversed
        basis = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        augmented = [row + [int(i == j) for j in range(k)] for i, row in enumerate(basis)]
        reduced, pivots = rref(augmented, p)
        assume(pivots == list(range(k)))
        inverse = [[int(x) for x in row[k:]] for row in reduced.tolist()]
        diagonals = [[rng.randrange(3) for _ in range(k)] for _ in range(count)]
        mats = [
            [
                [sum(basis[i][t] * d[t] * inverse[t][j] for t in range(k)) % p for j in range(k)]
                for i in range(k)
            ]
            for d in diagonals
        ]
        separated = len(set(zip(*diagonals))) == k
        try:
            vecs = common_eigenbasis(mats, p, seed=rng.randrange(4))
        except StructureError:
            assert not separated
            return
        assert separated
        lines = oracle.lines_of(vecs, p)
        assert oracle.is_eigenbasis(mats, lines, p) is True
        assert oracle.is_eigenbasis(mats, lines[::-1], p) is (k == 1)


class TestReferenceParity:
    @pytest.mark.parametrize("name", PARITY_GROUPS + WIDE_GROUPS)
    def test_class_matrix_eigenbasis(self, group, name):
        mats, p = _class_matrices(group(name))
        streamed, _ = _class_matrices(group(name), stacked=False)
        assert mats.shape == (len(mats),) * 3 and mats.dtype == np.float64
        assert streamed.shape == mats.shape and len(streamed) == len(mats)
        lists = mats.astype(np.int64).tolist()
        # class matrices commute as integers; float64 products are exact here
        for m in mats:
            assert (m @ mats == mats @ m).all()
        for seed in range(3):
            if name in WIDE_GROUPS:
                want = ref.split_into_lines(lists, p, seed)
            else:
                want = ref.common_eigenbasis(lists, p, seed)
            assert common_eigenbasis(mats, p, seed) == want
            assert common_eigenbasis(streamed, p, seed) == want

    @pytest.mark.parametrize("bound", [2**62, 2**70])
    def test_object_path_at_a_huge_prime(self, group, monkeypatch, bound):
        # above 2^63 a residue no longer fits in an int64 either
        mats, p = _class_matrices(group("A5"), bound)
        assert p > bound and modp._residues(mats[0], p).dtype == object
        lists = mats.astype(np.int64).tolist()
        for seed in range(3):
            assert common_eigenbasis(mats, p, seed) == ref.common_eigenbasis(lists, p, seed)
        for m in lists:
            assert _char_poly(m, p) == ref.char_poly(m, p)
        # a bend in the last matrix is seen by the remainder on Python ints,
        # in the oracle's check and in the table's certificate
        lines = oracle.lines_of(common_eigenbasis(mats, p), p)
        bent = mats.copy()
        bent[-1, 1, 2] += 1
        assert oracle.is_eigenbasis(mats, lines, p) is True
        assert oracle.is_eigenbasis(bent, lines, p) is False
        assert _table_with(monkeypatch, "A5", mats=mats, prime=p).ctx.p == p
        with pytest.raises(InternalError):
            _table_with(monkeypatch, "A5", mats=bent, prime=p)

    @pytest.mark.parametrize("name", ["S4", "A5"])
    def test_first_non_commuting_pair(self, group, monkeypatch, name):
        # the split ends short of k lines or in lines that are no common
        # eigenbasis; the oracle's check and the table's certificate see it
        mats, p = _class_matrices(group(name))
        k = len(mats)
        for i, j, t in [(1, 0, 0), (k - 1, 1, 2), (2, k - 1, k - 1)]:
            bent = mats.copy()
            bent[i, j, t] += 1
            assert ref.mats_commute(bent.astype(np.int64).tolist(), p) is not None
            try:
                lines = oracle.lines_of(common_eigenbasis(bent, p), p)
            except StructureError:
                pass
            else:
                assert oracle.is_eigenbasis(bent, lines, p) is False
            with pytest.raises(InternalError):
                _table_with(monkeypatch, name, mats=bent)

    @pytest.mark.parametrize("name", WIDE_GROUPS)
    def test_bend_the_split_never_reads(self, group, name, monkeypatch):
        # the split reads only the first few of these k = 64 and 75 matrices,
        # so a bend in a middle one or the last one is left to the check
        mats, p = _class_matrices(group(name))
        k = len(mats)
        vecs = common_eigenbasis(mats, p)
        lines = oracle.lines_of(vecs, p)
        for i, j, t in [(k // 2, 3, 5), (k - 1, 1, 2)]:
            bent = mats.copy()
            bent[i, j, t] += 1
            assert ((bent[i] @ mats - mats @ bent[i]) % p).any()
            assert common_eigenbasis(bent, p) == vecs
            assert oracle.is_eigenbasis(bent, lines, p) is False
            with pytest.raises(InternalError, match="not a common eigenvector"):
                _table_with(monkeypatch, name, mats=bent)

    def test_streamed_matrices_are_read_one_at_a_time(self, monkeypatch):
        # the split reads the matrices it needs, in order, and the table's
        # certificate reads each once more; the shape is taken without
        # forming the stack
        g = enumerate_group(resolve("Q8xD8xC3"))
        cd = conjugacy_classes(g)
        mats = chartab.all_class_matrices(cd, g)
        k = len(mats)
        build = type(mats).__getitem__
        read = []

        def recorded(self, m):
            out = build(self, m)
            read.append(m)
            return out

        monkeypatch.setattr(type(mats), "__getitem__", recorded)
        common_eigenbasis(mats, select_prime(g.order, cd.exponent).p)
        split = len(read)
        assert 0 < split < k and read == list(range(split))
        read.clear()
        chartab.compute_table(g, cd)
        assert read == list(range(split)) + list(range(k))

    @pytest.mark.parametrize("name", PARITY_GROUPS + WIDE_GROUPS)
    def test_lines_have_full_rank(self, group, name):
        # the rank test that the check's eigenvalue certificate replaced
        mats, p = _class_matrices(group(name))
        assert len(rref(common_eigenbasis(mats, p), p)[1]) == len(mats)

    def test_commuting_mod_p_only(self):
        # AB - BA = [[0, 0], [5, 0]]: nonzero as integers, zero mod 5
        a, b = [[0, 0], [1, 1]], [[1, 0], [4, 0]]
        assert ref.mats_commute([a, b], 5) is None
        assert common_eigenbasis([a, b], 5) == ref.common_eigenbasis([a, b], 5)
        # at 7 the split alone still ends in two lines, a's eigenvectors,
        # which are no eigenbasis of b
        assert ref.mats_commute([a, b], 7) == (0, 1)
        lines = oracle.lines_of(common_eigenbasis([a, b], 7), 7)
        assert oracle.is_eigenbasis([a, b], lines, 7) is False

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_rref_nullspace_char_poly(self, nrows, ncols, rank, rng):
        # a product through a rank-sized middle gives rank-deficient matrices;
        # entries range outside [0, p) to exercise the reduction
        p = 101
        left = [[rng.randrange(-300, 300) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
        m = (np.array(left) @ np.array(right)).tolist()
        rows, pivots = rref(m, p)
        assert (rows.tolist(), pivots) == ref.rref(m, p)
        assert nullspace(m, p).tolist() == ref.nullspace(m, p)
        square = [row[:nrows] + [0] * (nrows - len(row)) for row in m]
        assert _char_poly(square, p) == ref.char_poly(square, p)


def _rank_matrix(rng, rows, cols, rank, p):
    """A rows x cols matrix of rank exactly ``rank``: a unit lower
    trapezoid times the identity at ``rank`` random columns, random
    elsewhere; so its pivot columns vary."""
    left = [
        [int(i == j) if i <= j else rng.randrange(p) for j in range(rank)] for i in range(rows)
    ]
    at = sorted(rng.sample(range(cols), rank))
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    for t, c in enumerate(at):
        for u in range(rank):
            right[u][c] = int(t == u)
    return [
        [sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] if rank else [0] * cols
        for row in left
    ]


class TestRrefStack:
    """The stacked elimination against the list reference, matrix by
    matrix, on stacks that mix zero, full-rank and rank-deficient matrices
    of one rectangular shape."""

    @given(
        st.sampled_from([101, HUGE_PRIME]),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.lists(st.sampled_from(["zero", "full", "any"]), min_size=1, max_size=6),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_reference(self, p, nrows, ncols, kinds, rng):
        full = min(nrows, ncols)
        ranks = [{"zero": 0, "full": full}.get(kind, rng.randint(0, full)) for kind in kinds]
        mats = [_rank_matrix(rng, nrows, ncols, rank, p) for rank in ranks]
        stack = modp._residues(mats, p)
        assert stack.dtype == (object if p == HUGE_PRIME else np.float64)
        reduced, got_ranks, pivots = modp._rref_stack(stack, p)
        assert got_ranks.tolist() == ranks
        identity = np.eye(ncols, dtype=stack.dtype)
        null = modp._null_images(reduced, got_ranks, pivots, np.stack([identity] * len(mats)), p)
        start = 0
        for m, rank, rows, is_pivot in zip(mats, ranks, reduced, pivots):
            want_rows, want_pivots = ref.rref(m, p)
            assert np.flatnonzero(is_pivot).tolist() == want_pivots
            assert modp._ints(rows[:rank]) == want_rows
            assert not rows[rank:].any()
            want_null = ref.nullspace(m, p)
            assert modp._ints(null[start : start + len(want_null)]) == want_null
            start += len(want_null)
        assert start == len(null)
