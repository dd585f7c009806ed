"""Kernel parity: the numpy kernels must match the pure-Python reference
kernel (``tests/_kernels_py.py``) exactly, output for output."""

from __future__ import annotations

import tracemalloc

import _kernels_py as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realchar._kernels as kernels
from realchar._kernels import PermTable, bfs_closure
from realchar.catalog import resolve
from realchar.errors import InternalError

NAMES = ["S3", "Q8", "D8", "A5", "S5", "SL2_5", "L2_7"]


def _tables(degree, gens, cap=100_000):
    """Both kernels over the group, after checking that the two enumerations
    agree row for row; None when the order exceeds ``cap``."""
    rows = ref.bfs_closure(degree, gens, cap)
    arr = bfs_closure(degree, gens, cap)
    if rows is None:
        assert arr is None
        return None
    assert arr.tolist() == [list(r) for r in rows]
    gen_idx = [rows.index(tuple(g)) for g in gens]
    return ref.PermTable(rows), PermTable(arr), gen_idx


def _assert_parity(tp, tn, gen_idx, class_matrices=True):
    m = tp.size()
    assert tn.size() == m
    if tn._space is not None:
        assert len(tn._slots) == tn._space + 1 <= kernels._DENSE_SLOTS_PER_ELEMENT * m + 1
    sample = range(0, m, max(1, m // 17))
    for a in sample:
        assert tp.inv(a) == tn.inv(a)
        assert tp.order_of(a) == tn.order_of(a)
        for b in sample:
            assert tp.mul(a, b) == tn.mul(a, b)
        for g in gen_idx:
            assert tp.conj(a, g) == tn.conj(a, g)
    cop, clp = tp.conjugacy_classes(gen_idx)
    assert tn.conjugacy_classes(gen_idx) == (cop, clp)
    if class_matrices:
        reps = [c[0] for c in clp]
        assert tn.class_matrices(cop, reps).tolist() == tp.class_matrices(cop, reps)
    assert tn.centralizer(gen_idx) == tp.centralizer(gen_idx)
    for seed in ([1 % m], [1 % m, 2 % m], [m - 1], list(range(0, m, 7))):
        assert tn.closure(seed) == tp.closure(seed)
        assert tn.normal_closure(seed, gen_idx) == tp.normal_closure(seed, gen_idx)


@pytest.mark.parametrize("name", NAMES)
def test_named_group_parity(name):
    spec = resolve(name)
    _assert_parity(*_tables(spec.degree, [g.images for g in spec.generators]))


@pytest.mark.parametrize("name", NAMES)
def test_sorted_fallback_matches_dense_path(name, monkeypatch):
    spec = resolve(name)
    tp, dense, gen_idx = _tables(spec.degree, [g.images for g in spec.generators])
    monkeypatch.setattr(kernels, "_DENSE_SLOTS_PER_ELEMENT", 0)
    fallback = PermTable(dense.rows)
    assert dense._space is not None and fallback._space is None
    assert (fallback._inv == dense._inv).all()
    for a in range(dense.size()):
        assert fallback.index_of(dense.rows[a]) == a
    _assert_parity(tp, fallback, gen_idx)


@pytest.mark.parametrize("name", ["aff64_L2_8", "SL2_5oC4", "L2_17"])
def test_catalog_groups_take_the_dense_index(group, name):
    # SL2_5oC4 has the largest key space per element of the default corpus, 9.6
    table = group(name).table
    assert table._space is not None
    assert table._space <= 10 * table.size()


@st.composite
def two_generator_group(draw):
    degree = draw(st.integers(min_value=2, max_value=8))
    points = list(range(degree))
    return degree, [tuple(draw(st.permutations(points))) for _ in range(2)]


@given(group=two_generator_group())
@settings(max_examples=25, deadline=None)
def test_random_group_parity(group):
    degree, gens = group
    tables = _tables(degree, gens, cap=2520)
    if tables is not None:
        _assert_parity(*tables)


def test_closure_over_a_power_already_inside():
    # C30 generated by (s^2, s): the closure of both first builds <s^2> of
    # order 15, and s^2 is the first power of s inside it
    s = (1, 0, 3, 4, 2, 6, 7, 8, 9, 5)
    s2 = tuple(s[s[i]] for i in range(10))
    tp, tn, (a2, a) = _tables(10, [s2, s])
    assert tn.size() == 30 and (a2, a) == (1, 2)
    for seed in ([a2, a], [a2], [a], [a2, 29]):
        assert tn.closure(seed) == tp.closure(seed)
        assert tn.normal_closure(seed, [a]) == tp.normal_closure(seed, [a])
    assert tn.closure([a2, a]) == list(range(30))


def test_cap():
    spec = resolve("A5")
    gens = [g.images for g in spec.generators]
    assert ref.bfs_closure(5, gens, 59) is None
    assert bfs_closure(5, gens, 59) is None
    assert len(bfs_closure(5, gens, 60)) == 60


def _gens(name):
    spec = resolve(name)
    return spec.degree, [g.images for g in spec.generators]


A5_GENS = _gens("A5")[1]


# C2 wr C8 and C2^8 on 256 points, the key-space outliers, are compared row
# for row with the reference by _tables in their own tests below
@pytest.mark.parametrize(
    "degree, gens",
    [
        _gens("S8"),  # 40320 elements, a base of 7 points
        _gens("C300xC2"),  # 302 points: the chain keeps uint16 rows
        (1, [(0,)]),  # the trivial group on one point
        (4, [(0, 1, 2, 3)] * 3),  # identities only: an empty base
        (5, [A5_GENS[1], (0, 1, 2, 3, 4), A5_GENS[0], A5_GENS[1], A5_GENS[0]]),
    ],
    ids=["S8", "C300xC2", "trivial", "identities", "repeats"],
)
def test_chain_closure_matches_reference(degree, gens):
    rows = ref.bfs_closure(degree, gens, 100_000)
    assert bfs_closure(degree, gens, 100_000).tolist() == [list(r) for r in rows]


def test_closure_peak_memory_is_set_by_its_rows():
    degree, gens = _gens("aff64_L2_8")
    tracemalloc.start()
    try:
        rows = bfs_closure(degree, gens, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (32256, 64) and peak <= 2.5 * rows.nbytes


def test_point_outside_a_basic_orbit_raises(monkeypatch):
    # drop the last point of the top basic orbit: some product now maps the
    # top base point outside it
    tables = kernels._Chain.tables

    def short_orbit(self, dtype):
        out = tables(self, dtype)
        point, ranks, fwd, inv = out[0]
        ranks = ranks.copy()
        ranks[ranks == len(fwd) - 1] = -1
        return [(point, ranks, fwd, inv)] + out[1:]

    monkeypatch.setattr(kernels._Chain, "tables", short_orbit)
    with pytest.raises(InternalError, match="basic orbit"):
        bfs_closure(5, A5_GENS, 100)


def test_search_short_of_the_order_raises(monkeypatch):
    # every product indexed as the identity: the search stops at 1 of 60
    def to_identity(tables, order, gens):
        return np.zeros((order, len(gens)), dtype=np.int32)

    monkeypatch.setattr(kernels, "_step_index", to_identity)
    with pytest.raises(InternalError, match="1 of the chain's 60"):
        bfs_closure(5, A5_GENS, 100)


def test_overflowing_base_keys():
    # C2^8 as 8 disjoint transpositions on 256 points: the base has 8 points,
    # so keys in radix n would need 256^8 = 2^64 values, but each base orbit
    # has 2 points and the orbit-rank keys fill 0..255
    degree = 256
    gens = []
    for i in range(8):
        images = list(range(degree))
        images[2 * i], images[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(images))
    tp, tn, gen_idx = _tables(degree, gens)
    assert tn.size() == 256
    assert len(tn.base) == 8
    _assert_parity(tp, tn, gen_idx, class_matrices=False)


def test_lookup_miss_raises():
    # {1, (0 1), (2 3)} is not closed: the product (0 1)(2 3) has no row
    table = PermTable([[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2]])
    assert table.mul(1, 1) == 0
    with pytest.raises(InternalError):
        table.mul(1, 2)
    # {1, (0 1 2)} lacks the inverse of its 3-cycle
    with pytest.raises(InternalError):
        PermTable([[0, 1, 2], [1, 2, 0]])


def test_index_of_rejects_non_members():
    spec = resolve("A5")
    table = PermTable(bfs_closure(5, [g.images for g in spec.generators], 100))
    assert table.index_of(spec.generators[0].images) > 0
    for images in ((1, 0, 2, 3, 4), (0, 1, 2, 3), (0, 1, 2, 3, 9)):
        with pytest.raises(KeyError):
            table.index_of(images)


def test_wreath_product_takes_the_sorted_fallback():
    # C2 wr C8 on 16 points: |G| = 2048, and its 8 base points each have all
    # 16 points as orbit, so the orbit-rank keys span 16^8 = 2^32 values; a
    # dense index over them would take 16 GiB
    degree = 16
    swap = list(range(degree))
    swap[0], swap[1] = 1, 0
    shift = [(p + 2) % degree for p in range(degree)]
    tp, tn, gen_idx = _tables(degree, [tuple(swap), tuple(shift)])
    assert tn.size() == 2048 and len(tn.base) == 8
    assert tn._space is None and not hasattr(tn, "_slots")
    _assert_parity(tp, tn, gen_idx)
    tracemalloc.start()
    try:
        PermTable(tn.rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("dense", [True, False])
def test_point_outside_a_base_orbit_misses_cleanly(dense, monkeypatch):
    # A5xC3 on 8 points: A5 moves 0..4 and C3 moves 5..7, so no element maps
    # the base point 0 into {5, 6, 7}, or the base point 5 into {0, .., 4}
    if not dense:
        monkeypatch.setattr(kernels, "_DENSE_SLOTS_PER_ELEMENT", 0)
    spec = resolve("A5xC3")
    table = PermTable(bfs_closure(spec.degree, [g.images for g in spec.generators], 1000))
    assert spec.degree == 8 and table.size() == 180
    assert (table._space is not None) == dense and table.base.tolist() == [0, 1, 2, 5]
    swap = (5, 1, 2, 3, 4, 0, 6, 7)
    with pytest.raises(KeyError):
        table.index_of(swap)
    with pytest.raises(InternalError):
        table._find(np.array(swap)[table.base])
    with pytest.raises(InternalError):
        table._find(np.array([swap, table.rows[1]])[:, table.base])
    # (0, 1, 2, 0) sorts next to the identity's base images (0, 1, 2, 5)
    with pytest.raises(InternalError):
        table._find(np.array([0, 1, 2, 0]))


@pytest.mark.parametrize("slots_per_element", [16, 0])
def test_rows_sharing_base_images_raise(slots_per_element, monkeypatch):
    # the base is [0]: only the identity fixes 0, and the last two rows both
    # map 0 to 1
    monkeypatch.setattr(kernels, "_DENSE_SLOTS_PER_ELEMENT", slots_per_element)
    with pytest.raises(InternalError, match="share their base images"):
        PermTable([[0, 1, 2, 3], [1, 0, 2, 3], [1, 0, 3, 2]])


def test_sorted_fallback_misses_raise(monkeypatch):
    monkeypatch.setattr(kernels, "_DENSE_SLOTS_PER_ELEMENT", 0)
    test_lookup_miss_raises()
    test_index_of_rejects_non_members()
