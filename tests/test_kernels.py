"""Kernel parity: the numpy kernels must match the pure-Python reference
kernel (``tests/_kernels_py.py``) exactly, output for output."""

from __future__ import annotations

import bisect
import functools
import time
import tracemalloc

import _kernels_py as ref
import numpy as np
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import centralizer, closure, conj, images, index_of, inv, mul, normal_closure, order_of

import realchar._kernels as kernels
from realchar._kernels import PermTable, bfs_closure
from realchar.catalog import resolve
from realchar.errors import CapacityError, InternalError
from realchar.perm import (
    GroupElements,
    GroupSpec,
    Permutation,
    conjugacy_classes,
    enumerate_group,
)

NAMES = ["S3", "Q8", "D8", "A5", "S5", "SL2_5", "L2_7"]


def _tables(degree, gens, cap=100_000):
    """Both kernels over the group, after checking that the two enumerations
    agree row for row; None when the order exceeds ``cap``.  The numpy one
    is the enumerated group, a ``PermTable`` with its classes."""
    rows = ref.bfs_closure(degree, gens, cap)
    enumeration = bfs_closure(degree, gens, cap)
    if rows is None:
        assert enumeration is None
        return None
    spec = GroupSpec(degree, tuple(Permutation(tuple(g)) for g in gens))
    tn = GroupElements(spec, enumeration)
    assert oracle.rows(tn).tolist() == [list(r) for r in rows]
    gen_idx = [rows.index(tuple(g)) for g in gens]
    assert oracle.gen_indices(tn) == gen_idx
    return ref.PermTable(rows), tn, gen_idx


def _assert_parity(tp, tn, gen_idx, class_matrices=True):
    m = tp.order
    assert tn.order == m and len(tn._row_of) == m + 1
    # the Cayley graph: right[s] is right multiplication by generator s, and
    # each row but the identity is its parent in the search tree times the
    # generator of its edge
    assert tn.right.tolist() == [[tp.mul(a, g) for a in range(m)] for g in gen_idx]
    parent, edge = np.divmod(tn._tree[1:], len(gen_idx))
    assert (parent < np.arange(1, m)).all()
    assert tn.right[edge, parent].tolist() == list(range(1, m))
    # the inversion map and the conjugation maps built from it
    assert tn.inverses().tolist() == [tp.inv(a) for a in range(m)]
    assert [p.tolist() for p in tn.conjugations()] == [
        [tp.conj(a, g) for a in range(m)] for g in gen_idx
    ]
    for a in range(m):
        assert index_of(tn, tp.rows[a]) == a
    sample = range(0, m, max(1, m // 17))
    for a in sample:
        assert tp.inv(a) == inv(tn, a)
        assert tp.order_of(a) == order_of(tn, a)
        for b in sample:
            assert tp.mul(a, b) == mul(tn, a, b)
        for g in gen_idx:
            assert tp.conj(a, g) == conj(tn, a, g)
    powers = []
    for a in sample:
        x, cycle = a, []
        while x:
            cycle.append(x)
            x = tp.mul(x, a)
        powers.append(cycle)
    assert tn.powers(np.array(sample)) == powers
    cop, clp = tp.conjugation_orbits(gen_idx)
    class_of, by_class, starts = tn.conjugation_orbits()
    assert class_of.tolist() == cop
    assert [by_class[a:b].tolist() for a, b in zip(starts[:-1], starts[1:])] == clp
    if class_matrices:
        cd = conjugacy_classes(tn)
        reps = [c[0] for c in clp]
        assert list(cd.reps) == reps
        assert list(cd.inv_map) == [cop[tp.inv(r)] for r in reps]
        mats = tn.class_matrices(cd)
        # the cell: the class of y * rep_t, the elements y in class order
        assert mats._cell.tolist() == [[cop[tp.mul(y, r)] for r in reps] for c in clp for y in c]
        assert np.stack(list(mats)).tolist() == tp.class_matrices(cop, reps)
    assert centralizer(tn, gen_idx) == tp.centralizer(gen_idx)
    for seed in ([1 % m], [1 % m, 2 % m], [m - 1], list(range(0, m, 7))):
        assert closure(tn, seed) == tp.closure(seed)
        assert normal_closure(tn, seed, gen_idx) == tp.normal_closure(seed, gen_idx)


@pytest.mark.parametrize("name", NAMES)
def test_named_group_parity(name):
    spec = resolve(name)
    _assert_parity(*_tables(spec.degree, [g.images for g in spec.generators]))


def _sorted_fallback(table):
    """A lookup independent of the chain: the rows' base images sorted, and
    each probe searched by bisection; -1 for images no row has."""
    keys = sorted((tuple(r), i) for i, r in enumerate(oracle.rows(table)[:, table.base].tolist()))

    def lookup(imgs):
        at = bisect.bisect_left(keys, (tuple(imgs), -1))
        return keys[at][1] if at < len(keys) and keys[at][0] == tuple(imgs) else -1

    return lookup


def _near_misses(table):
    """Each row's base images with one image replaced by each point: hits,
    repeated points and points outside a basic orbit."""
    at_base = oracle.rows(table)[:, table.base]
    probes = []
    for j in range(len(table.base)):
        for p in range(table.degree):
            probe = at_base.copy()
            probe[:, j] = p
            probes.append(probe)
    return np.concatenate(probes)


@pytest.mark.parametrize("name", NAMES)
def test_sorted_fallback_matches_dense_path(name):
    # the chain's index of |G| entries against a sorted search of the rows'
    # base images, the lookup PermTable once fell back on: every row at its
    # index, the inverses, and the same answer on hits and misses alike (a
    # regular group such as Q8 has a base of one point, so no misses)
    spec = resolve(name)
    _, table, _ = _tables(spec.degree, [g.images for g in spec.generators])
    fallback = _sorted_fallback(table)
    rows = oracle.rows(table)
    at_base = rows[:, table.base]
    assert [fallback(k) for k in at_base.tolist()] == list(range(table.order))
    assert table._lookup(at_base).tolist() == list(range(table.order))
    inv_rows = np.argsort(rows, axis=1)
    assert table.inverses().tolist() == [fallback(k) for k in inv_rows[:, table.base].tolist()]
    probes = _near_misses(table)
    expect = [fallback(k) for k in probes.tolist()]
    assert table._lookup(probes).tolist() == expect


@pytest.mark.parametrize("name", ["aff64_L2_8", "SL2_5oC4", "L2_17"])
def test_catalog_groups_take_the_dense_index(group, name):
    # one entry per chain index, and a trailing -1 for the misses
    table = group(name)
    assert len(table._row_of) == table.order + 1 and table._row_of[-1] == -1
    assert sorted(table._row_of[:-1].tolist()) == list(range(table.order))
    rows = range(0, table.order, max(1, table.order // 500))
    assert table._find(images(table, rows)[:, table.base]).tolist() == list(rows)


@st.composite
def two_generator_group(draw):
    degree = draw(st.integers(min_value=2, max_value=8))
    points = list(range(degree))
    return degree, [tuple(draw(st.permutations(points))) for _ in range(2)]


@given(group=two_generator_group())
@settings(max_examples=25, deadline=None)
# the top level's transversal fixes the next base point but not its orbit,
# so the sift must still carry that column through it
@example(group=(5, [(0, 3, 4, 1, 2), (2, 1, 0, 3, 4)]))
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
    assert tn.order == 30 and (a2, a) == (1, 2)
    for seed in ([a2, a], [a2], [a], [a2, 29]):
        assert closure(tn, seed) == tp.closure(seed)
        assert normal_closure(tn, seed, [a]) == tp.normal_closure(seed, [a])
    assert closure(tn, [a2, a]) == list(range(30))


def test_cap():
    spec = resolve("A5")
    gens = [g.images for g in spec.generators]
    assert ref.bfs_closure(5, gens, 59) is None
    assert bfs_closure(5, gens, 59) is None
    assert len(bfs_closure(5, gens, 60).index) == 60


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
    table = PermTable(bfs_closure(degree, gens, 100_000))
    assert oracle.rows(table).tolist() == [list(r) for r in rows]


def _arrays(obj):
    """Every numpy array reachable from ``obj`` through attributes, lists,
    tuples and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj))


def test_closure_peak_memory_is_set_by_its_maps():
    degree, gens = _gens("aff64_L2_8")
    tracemalloc.start()
    try:
        enumeration = bfs_closure(degree, gens, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enumeration.right.shape == (len(gens), 32256)
    kept = sum(a.nbytes for a in _arrays(enumeration))
    # and within 2.5 times the 32256 x 64 bytes that element rows would take
    assert peak <= 2.5 * 32256 * 64 and peak <= 1.75 * kept


def test_enumerated_group_holds_no_element_rows():
    spec = resolve("aff64_L2_8")
    g = GroupElements(spec, bfs_closure(spec.degree, [p.images for p in spec.generators], 100_000))
    cd = conjugacy_classes(g)
    g.class_matrices(cd)
    held = list(_arrays(g))
    assert any(a is g.right for a in held)
    assert all(a.size < g.order * g.degree for a in held)


def test_classes_and_class_matrices_sift_one_group_at_most(monkeypatch):
    # the inversion map is the one bulk sift; the power classes sift at
    # most k elements at a time, and the conjugation maps and the class
    # matrices are gathers on the Cayley graph
    spec = resolve("aff64_L2_8")
    g = GroupElements(spec, bfs_closure(spec.degree, [p.images for p in spec.generators], 100_000))
    sifted = []
    sift = kernels._sift

    def counting(tables, imgs):
        sifted.append(int(np.prod(imgs.shape[:-1])))
        return sift(tables, imgs)

    monkeypatch.setattr(kernels, "_sift", counting)
    cd = conjugacy_classes(g)
    g.class_matrices(cd)
    assert sum(n for n in sifted if n > cd.k) == g.order


def test_cyclic_groups_are_refused_or_counted_in_time():
    # C2000 is refused right after its conjugation sweep; C645, at the cap,
    # has a search tree that is one path of 644 edges
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="2000 classes"):
        conjugacy_classes(enumerate_group(resolve("C2000")))
    refused = time.perf_counter() - start
    start = time.perf_counter()
    g = enumerate_group(resolve("C645"))
    cd = conjugacy_classes(g)
    mats = g.class_matrices(cd)
    counted = time.perf_counter() - start
    # in an abelian group x^-1 * rep_t is one element, so every column of
    # a class matrix holds one 1
    for i in (0, 1, 644):
        assert (mats[i].sum(axis=0) == 1).all() and mats[i].max() == 1
    # about 0.1 s each on a shared 2-core box
    assert refused < 3 and counted < 3


def test_point_outside_a_basic_orbit_raises(monkeypatch):
    # drop the last point of the top basic orbit: some product now maps the
    # top base point outside it
    tables = kernels._Chain.tables

    def short_orbit(self, dtype):
        out = tables(self, dtype)
        top = out[0]
        place = top.place.copy()
        place[top.fwd[-1][top.point]] = self.order
        return [top._replace(place=place)] + out[1:]

    monkeypatch.setattr(kernels._Chain, "tables", short_orbit)
    with pytest.raises(InternalError, match="basic orbit"):
        bfs_closure(5, A5_GENS, 100)


def test_search_short_of_the_order_raises(monkeypatch):
    # every product indexed as the identity: the search stops at 1 of 60
    def to_identity(tables, order, gens):
        return np.zeros((len(gens), order), dtype=np.int32)

    monkeypatch.setattr(kernels, "_step_index", to_identity)
    with pytest.raises(InternalError, match="1 of the chain's 60"):
        bfs_closure(5, A5_GENS, 100)


def test_overflowing_base_keys():
    # C2^8 as 8 disjoint transpositions on 256 points: the base has 8 points,
    # so keys in radix n would need 256^8 = 2^64 values, but each basic orbit
    # has 2 points and the chain indexes fill 0..255
    degree = 256
    gens = []
    for i in range(8):
        images = list(range(degree))
        images[2 * i], images[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(images))
    tp, tn, gen_idx = _tables(degree, gens)
    assert tn.order == 256
    assert len(tn.base) == 8
    _assert_parity(tp, tn, gen_idx, class_matrices=False)


def test_lookup_miss_raises():
    # base images that repeat a point belong to no permutation
    spec = resolve("A5")
    table = PermTable(bfs_closure(5, [g.images for g in spec.generators], 100))
    assert mul(table, 1, inv(table, 1)) == 0
    probe = images(table, 1)[table.base]
    probe[1] = probe[0]
    assert int(table._lookup(probe)) == -1
    with pytest.raises(InternalError, match="outside the enumerated group"):
        table._find(probe)


def test_sorted_fallback_misses_raise():
    # on L2_7's table, every near-miss probe that the sorted search does not
    # find is -1 for _lookup and an InternalError for _find, alone or beside
    # a row of the group; a transposition, outside L2_7 < A7, is a KeyError
    spec = resolve("L2_7")
    table = PermTable(bfs_closure(spec.degree, [g.images for g in spec.generators], 1000))
    fallback = _sorted_fallback(table)
    probes = _near_misses(table)
    misses = probes[[fallback(k) == -1 for k in probes.tolist()]]
    assert len(misses) and (table._lookup(misses) == -1).all()
    for probe in misses[:: max(1, len(misses) // 50)]:
        with pytest.raises(InternalError, match="outside the enumerated group"):
            table._find(probe)
        with pytest.raises(InternalError, match="outside the enumerated group"):
            table._find(np.stack([images(table, 1)[table.base], probe]))
    swap = list(range(spec.degree))
    swap[0], swap[1] = 1, 0
    with pytest.raises(KeyError):
        index_of(table, swap)


def test_index_of_rejects_non_members():
    spec = resolve("A5")
    table = PermTable(bfs_closure(5, [g.images for g in spec.generators], 100))
    assert index_of(table, spec.generators[0].images) > 0
    for perm_images in ((1, 0, 2, 3, 4), (0, 1, 2, 3), (0, 1, 2, 3, 9)):
        with pytest.raises(KeyError):
            index_of(table, perm_images)


def _wreath_c2_c8():
    # C2 wr C8 on 16 points: |G| = 2048, and its 8 base points each have all
    # 16 points as orbit, so keys over the orbit ranks would span 16^8 = 2^32
    # values
    swap = list(range(16))
    swap[0], swap[1] = 1, 0
    return 16, [tuple(swap), tuple((p + 2) % 16 for p in range(16))]


def test_wreath_product_index_has_one_entry_per_element():
    tp, tn, gen_idx = _tables(*_wreath_c2_c8())
    assert tn.order == 2048 and len(tn.base) == 8
    _assert_parity(tp, tn, gen_idx)
    wreath = bfs_closure(*_wreath_c2_c8(), 100_000)
    assert len(wreath.row_of) == 2049
    # building the table makes no pass over the group, so what it allocates
    # does not grow with |G|: 2048 and 32256 elements alike; a group is its
    # own table, so building a GroupElements keeps the same bound
    aff = bfs_closure(*_gens("aff64_L2_8"), 100_000)
    wreath_spec = GroupSpec(16, tuple(map(Permutation, _wreath_c2_c8()[1])), "C2wrC8")
    for spec, enumeration in ((wreath_spec, wreath), (resolve("aff64_L2_8"), aff)):
        for build in (PermTable, functools.partial(GroupElements, spec)):
            tracemalloc.start()
            try:
                build(enumeration)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4096


@pytest.mark.parametrize("batch", [False, True])
def test_point_outside_a_base_orbit_misses_cleanly(batch):
    # A5xC3 on 8 points: A5 moves 0..4 and C3 moves 5..7, so no element maps
    # the base point 0 into {5, 6, 7}, or the base point 5 into {0, .., 4};
    # the probe is sifted alone, or beside a row of the group
    spec = resolve("A5xC3")
    table = PermTable(bfs_closure(spec.degree, [g.images for g in spec.generators], 1000))
    assert spec.degree == 8 and table.order == 180
    swap = (5, 1, 2, 3, 4, 0, 6, 7)
    with pytest.raises(KeyError):
        index_of(table, swap)
    probe = np.array([swap, images(table, 1)] if batch else swap)[..., table.base]
    with pytest.raises(InternalError):
        table._find(probe)
    # (0, 5, 2, 0) maps two base points to 0
    with pytest.raises(InternalError):
        table._find(np.array([0, 5, 2, 0]))


@functools.cache
def _lookup_table(name):
    if name == "C2wrC8":
        return PermTable(bfs_closure(*_wreath_c2_c8(), 100_000))
    spec = resolve(name)
    return PermTable(bfs_closure(spec.degree, [g.images for g in spec.generators], 100_000))


# S8 has a base of 7 points, and each level moves every later base column
@pytest.mark.parametrize("name", ["A5xC3", "aff16_A5", "C2wrC8", "S8"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lookup_misses_are_exact(name, data):
    # base images near a row: some kept, others replaced by any point,
    # which repeats points and leaves orbits
    table = _lookup_table(name)
    rows = oracle.rows(table)
    at_base = rows[:, table.base]
    k, n = len(table.base), table.degree
    point = st.integers(min_value=0, max_value=n - 1)
    probes = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        near = at_base[data.draw(st.integers(min_value=0, max_value=table.order - 1))]
        probes.append([data.draw(st.one_of(st.just(int(p)), point)) for p in near])
    imgs = np.array(probes, dtype=rows.dtype)
    hits = (at_base == imgs[:, None, :]).all(axis=2)
    expect = [int(hit.argmax()) if hit.any() else -1 for hit in hits]
    assert table._lookup(imgs).tolist() == expect
    assert [int(table._lookup(probe)) for probe in imgs] == expect
    # _find raises on a miss and never writes to its argument, whatever its
    # memory order, or when it is one intp row as _power_images gives
    for view in (imgs, imgs.T.copy().T, imgs[:1].astype(np.intp)):
        before = view.copy()
        if -1 in expect[: len(view)]:
            with pytest.raises(InternalError):
                table._find(view)
        else:
            assert table._find(view).tolist() == expect[: len(view)]
        assert (view == before).all() and view.shape == (len(view), k)
