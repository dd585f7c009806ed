"""Permutation kernels: group enumeration and index arithmetic, in numpy.

A group's elements are one ``m x n`` array of point images, row i holding
element i.  Everything here rests on one stabilizer chain of the group, with
base B, a few points whose images determine each element (Sims; Seress,
*Permutation Group Algorithms*, 2003, ch. 4).

``bfs_closure`` enumerates a group from its generators.  The deterministic
Schreier-Sims algorithm gives the chain before any row exists: the order,
so the cap is checked first, and an index in 0..m-1 for every element, the
ranks of its transversal elements read in mixed radix.  ``_sift`` finds
that index from the base images alone, so the breadth-first search runs on
integers, with no Python object per element and no full row per candidate,
and each row is written once.  The chain is kept, with ``row_of``, the row
of each chain index.

``PermTable`` does index arithmetic over those rows by the same sift: an
element is found from its base images, and its row is ``row_of`` at its
chain index, one array of m entries for every group.  Since
(x*y)(b) = x(y(b)), a product needs only the base images of its factors, so
each bulk operation is a gather on base columns followed by one sift.  An
enumerated group, ``perm.GroupElements``, is a ``PermTable`` built from its
``Enumeration``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InternalError

if TYPE_CHECKING:
    from .perm import ClassData

# Entries in one working array of the enumeration: the base images sifted
# per step, and the rows written per step.  It bounds the temporaries beside
# the output: unbounded, aff64_L2_8 peaks at 8.5 MiB for 2 MiB of rows.
_BLOCK = 1 << 15


def _point_dtype(degree: int) -> np.dtype:
    """Smallest unsigned dtype that holds the points 0..degree-1."""
    for dt in (np.uint8, np.uint16, np.uint32):
        if degree - 1 <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.uint64)


def _inverse_rows(perms: np.ndarray) -> np.ndarray:
    """The inverse of each row of ``perms``."""
    out = np.empty_like(perms)
    out[np.arange(len(perms))[:, None], perms] = np.arange(perms.shape[1], dtype=perms.dtype)
    return out


class _Table(NamedTuple):
    """One level of a finished chain, as ``_sift`` reads it.

    ``place[p]`` is the rank of p in the basic orbit times the level's
    weight in the mixed radix, and |G| for p outside the orbit, so a miss
    anywhere drives the index to |G| or more.  ``shift[p]`` is the rank
    times n, 0 outside, which offsets into the flattened ``inv``.  ``fwd``
    is the transversal and ``inv`` its inverses, None on the last level,
    where nothing is sifted further.  ``moved`` lists the later base
    columns whose images the transversal can move; the others pass the
    level unchanged."""

    point: int
    place: np.ndarray
    shift: np.ndarray
    fwd: np.ndarray
    inv: np.ndarray | None
    moved: list[int]


class _Level:
    """One level of a stabilizer chain: its base point b, the strong
    generators that fix the earlier base points (indices into the chain's
    list), and the basic orbit of b under them, in discovery order.

    ``rank[p]`` is the position of p in the orbit, -1 outside it.
    ``fwd[r]`` is the transversal element taking b to the orbit point of
    rank r, and ``inv[r]`` its inverse, None until a sift first needs it;
    rank 0 is b itself, with the identity.  ``todo`` holds the (rank,
    generator position) pairs off the Schreier tree whose Schreier generator
    is still to be sifted."""

    def __init__(self, point: int, ident: np.ndarray):
        self.point = point
        self.gens: list[int] = []
        self.orbit = [point]
        self.rank = [-1] * len(ident)
        self.rank[point] = 0
        self.fwd = [ident]
        self.inv: list[np.ndarray | None] = [ident]
        self.todo: deque[tuple[int, int]] = deque()


def _inverse(lev: _Level, r: int) -> np.ndarray:
    """``lev.inv[r]``, formed on first use."""
    out = lev.inv[r]
    if out is None:
        out = lev.inv[r] = np.empty_like(lev.fwd[r])
        out[lev.fwd[r]] = lev.fwd[0]
    return out


class _Chain:
    """A base and strong generating set of the group generated by ``gens``,
    by the deterministic incremental Schreier-Sims algorithm (Seress, ch. 4;
    Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005,
    ch. 4).

    Every element is u_0 * u_1 * .. * u_(k-1) for exactly one transversal
    element u_j of each level, so the ranks of the u_j, read in mixed radix
    with level 0 most significant, index the group in 0..|G|-1.  Orbits only
    grow by appended points, so a Schreier generator that sifted once still
    does and is not sifted again; nor are those of Schreier-tree edges, which
    are the identity.  ``complete`` is False when the orbit lengths proved
    the order larger than ``cap``; the transversal of a basic orbit is built
    only after that check.

    Up to 256 points, permutations are intp rows while the chain is built:
    numpy indexes with intp directly and converts any other dtype first,
    which costs more than a whole composition on a few dozen points.  Above
    that the conversion is small beside the composition, and rows keep the
    dtype of ``gens``, so that the transversal of a long orbit (C2000 has one
    of 2000 points) takes no more memory than the group's own rows.
    """

    def __init__(self, gens: np.ndarray, cap: int):
        dtype = np.intp if gens.shape[1] <= 256 else gens.dtype
        self.ident = np.arange(gens.shape[1], dtype=dtype)
        self._ident_bytes = self.ident.tobytes()
        self.cap = cap
        self.gens: list[np.ndarray] = []
        self.images: list[list[int]] = []
        self.levels: list[_Level] = []
        distinct = {self._ident_bytes}
        for g in gens.astype(dtype):
            if g.tobytes() not in distinct:
                distinct.add(g.tobytes())
                self._add_gen(g)
        # a first base, which no strong generator fixes pointwise
        for s, g in enumerate(self.images):
            depth = 0
            fixed = [lev.point for lev in self.levels]
            while depth < len(fixed) and g[fixed[depth]] == fixed[depth]:
                depth += 1
            if depth == len(self.levels):
                self.levels.append(_Level(self._moved(g), self.ident))
            for lev in self.levels[: depth + 1]:
                lev.gens.append(s)
        self.complete = all(self._extend(lev, len(lev.gens)) for lev in self.levels)
        self.complete = self.complete and self._close()

    @property
    def order(self) -> int:
        return math.prod(len(lev.orbit) for lev in self.levels)

    @staticmethod
    def _moved(g: Sequence[int]) -> int:
        return next(p for p, q in enumerate(g) if p != q)

    def _add_gen(self, g: np.ndarray) -> None:
        self.gens.append(g)
        self.images.append(g.tolist())

    def _extend(self, lev: _Level, new: int) -> bool:
        """Grow the basic orbit of ``lev`` by its last ``new`` generators;
        False, with no transversal built, once the order exceeds the cap."""
        orbit, rank, todo = lev.orbit, lev.rank, lev.todo
        images = [self.images[gid] for gid in lev.gens]
        edges = []  # (parent rank, generator position) of each new point
        # the new generators on the old points, then all on each new point
        pairs = itertools.product(range(len(orbit)), range(len(images) - new, len(images)))
        r = len(orbit)
        while True:
            for r0, s in pairs:
                q = images[s][orbit[r0]]
                if rank[q] < 0:
                    rank[q] = len(orbit)
                    orbit.append(q)
                    edges.append((r0, s))
                else:
                    todo.append((r0, s))
            if r == len(orbit):
                break
            pairs = itertools.product(range(r, len(orbit)), range(len(images)))
            r = len(orbit)
        if self.order > self.cap:
            return False
        for r, s in edges:
            lev.fwd.append(self.gens[lev.gens[s]][lev.fwd[r]])
            lev.inv.append(None)
        return True

    def _failing_schreier(self, i: int) -> tuple[np.ndarray, int] | None:
        """The residue, and the level that rejected it, of the first
        Schreier generator of level ``i`` that does not sift to the
        identity; None when they all do."""
        lev = self.levels[i]
        lower = self.levels[i + 1 :]
        while lev.todo:
            r, s = lev.todo[0]
            gid = lev.gens[s]
            # u_s(p)^-1 * s * u_p fixes the base point of level i
            moved = self.gens[gid][lev.fwd[r]]
            h = _inverse(lev, lev.rank[self.images[gid][lev.orbit[r]]])[moved]
            for j, low in enumerate(lower, i + 1):
                q = low.rank[h.item(low.point)]
                if q < 0:
                    return h, j
                if q:
                    h = _inverse(low, q)[h]
            if h.tobytes() != self._ident_bytes:
                return h, len(self.levels)
            lev.todo.popleft()
        return None

    def _close(self) -> bool:
        """Sift Schreier generators until each of them sifts to the
        identity; False once the order exceeds the cap."""
        i = len(self.levels) - 1
        while i >= 0:
            failing = self._failing_schreier(i)
            if failing is None:
                i -= 1
                continue
            h, at = failing
            if at == len(self.levels):
                self.levels.append(_Level(self._moved(h.tolist()), self.ident))
            self._add_gen(h)
            for lower in self.levels[i + 1 : at + 1]:
                lower.gens.append(len(self.gens) - 1)
                if not self._extend(lower, 1):
                    return False
            i = at
        return True

    def tables(self, dtype: np.dtype) -> list[_Table]:
        """The levels as ``_Table``s, the transversals in ``dtype``."""
        levels, n, order = self.levels, len(self.ident), self.order
        if not levels:
            return []
        sizes = [len(lev.orbit) for lev in levels]
        cuts = list(itertools.accumulate(sizes, initial=0))
        rank = np.array([lev.rank for lev in levels], dtype=np.intp)
        inside = rank >= 0
        weight = np.array([order // math.prod(sizes[: j + 1]) for j in range(len(sizes))])
        place = np.where(inside, rank * weight[:, None], order)
        shift = np.where(inside, rank * n, 0)
        fwd = np.array([row for lev in levels for row in lev.fwd], dtype=dtype)
        inv = _inverse_rows(fwd[: cuts[-2]])
        # Below level c, b_c stays in its basic orbit; each level j above
        # maps the orbit so far by its transversal U_j, giving the orbit of
        # b_c under the stabilizer of b_0..b_(j-1).  Where U_j fixes that
        # orbit pointwise, sifting through level j leaves column c alone.
        moving = np.logical_or.reduceat(fwd != self.ident, cuts[:-1], axis=0)
        movers = [set(np.flatnonzero(m).tolist()) for m in moving]
        moved: list[list[int]] = [[] for _ in levels]
        for c in range(1, len(levels)):
            orbit = levels[c].orbit
            for j in range(c - 1, -1, -1):
                if not movers[j].isdisjoint(orbit):
                    moved[j].append(c)
                    orbit = set(fwd[cuts[j] : cuts[j + 1], list(orbit)].ravel().tolist())
        return [
            _Table(
                lev.point,
                place[j],
                shift[j],
                fwd[cuts[j] : cuts[j + 1]],
                inv[cuts[j] : cuts[j + 1]] if j + 1 < len(levels) else None,
                moved[j],
            )
            for j, lev in enumerate(levels)
        ]


def _sift(tables: list[_Table], imgs: np.ndarray) -> np.ndarray:
    """Chain index of each element given by its base images, the last axis
    of ``imgs`` (left unchanged); |G| or more where no element has them.

    The element u_0 * .. * u_(k-1) maps b_0 to u_0(b_0), so the rank of the
    image of b_0 picks u_0, and u_0^-1 applied to the later images gives
    those of u_1 * .. * u_(k-1), sifted through the levels below.  A level
    applies u^-1 only to the columns it can move (``_Table.moved``).
    """
    at = [imgs[..., j] for j in range(len(tables))]
    index = np.zeros(imgs.shape[:-1], dtype=np.intp)
    for j, (_, place, shift, _, inv, moved) in enumerate(tables):
        index += place.take(at[j])
        if moved:
            offset = shift.take(at[j])
            for c in moved:
                at[c] = inv.take(at[c] + offset)
    return index


def _step_index(tables: list[_Table], order: int, gens: np.ndarray) -> np.ndarray:
    """``out[x, s]``: the index of x * gens[s], for every index x."""
    # the candidate x * s has the base images x(s(b)): first the images,
    # under every element, of the points s(b)
    k = len(tables)
    # intp, as the search indexes with it (see _Chain)
    out = np.zeros((order, len(gens)), dtype=np.intp)
    if not k:
        return out
    targets = gens[:, [t.point for t in tables]].ravel()
    imgs = targets[None, :]
    for t in reversed(tables):
        imgs = t.fwd.take(imgs, axis=1).reshape(-1, len(targets))
    per = max(1, _BLOCK // len(targets))
    for lo in range(0, order, per):
        index = _sift(tables, imgs[lo : lo + per].reshape(-1, len(gens), k))
        if index.max() >= order:
            raise InternalError("a product left a basic orbit of the stabilizer chain")
        out[lo : lo + per] = index
    return out


def _search_order(step: np.ndarray) -> np.ndarray:
    """Indices in breadth-first order from the identity, index 0, over the
    products ``step[x, s]``: element-major, generator-minor, first
    occurrences only."""
    order, ngens = step.shape
    # candidates are numbered across the whole search; an element's claim
    # is the first number it came up under, above every number while unseen
    claim = np.full(order, order * ngens, dtype=np.intp)
    claim[0] = -1
    frontier = np.zeros(1, dtype=step.dtype)
    found = [frontier]
    seen = 0
    while len(frontier):
        # ``take`` gathers rows several times faster than step[frontier]
        cand = step.take(frontier, axis=0).ravel()
        pos = np.arange(seen, seen + len(cand))
        np.minimum.at(claim, cand, pos)
        frontier = cand[claim[cand] == pos]
        seen += len(cand)
        found.append(frontier)
    found = np.concatenate(found)
    if len(found) != order:
        raise InternalError(f"the search reached {len(found)} of the chain's {order} elements")
    return found


def _write_rows(
    tables: list[_Table], found: np.ndarray, degree: int, dtype: np.dtype
) -> np.ndarray:
    """Row i holds the element of index ``found[i]``, the product of its
    transversal elements."""
    # the elements of the levels below the top, in index order; the index
    # r * len(tail) + t belongs to the top's transversal element r times
    # tail[t]
    tail = np.arange(degree, dtype=dtype)[None, :]
    for t in reversed(tables[1:]):
        tail = t.fwd.take(tail, axis=1).reshape(-1, degree)
    rows = np.empty((len(found), degree), dtype=dtype)
    if not tables:
        rows[:] = tail
        return rows
    top = tables[0].fwd.ravel()
    per = max(1, _BLOCK // degree)
    for lo in range(0, len(found), per):
        r, t = np.divmod(found[lo : lo + per], len(tail))
        at = tail.take(t, axis=0).astype(np.intp)
        at += r[:, None] * degree
        rows[lo : lo + per] = top.take(at)
    return rows


class Enumeration(NamedTuple):
    """A group's rows and the stabilizer chain they were enumerated from:
    ``row_of[i]`` is the row of the element of chain index i, and
    ``row_of[|G|]`` is -1."""

    rows: np.ndarray
    tables: list[_Table]
    row_of: np.ndarray


def bfs_closure(degree: int, gens: Sequence[Sequence[int]], cap: int) -> Enumeration | None:
    """The group generated by ``gens``, one row of images per element.

    Rows come in breadth-first order: row 0 is the identity, and each level
    lists the new products frontier * generator, element-major and
    generator-minor, first occurrences only.  Returns None when the order
    exceeds ``cap``, before any row is built.

    A stabilizer chain (``_Chain``) gives the order and the index of every
    element in 0..|G|-1.  The candidate x * g is indexed by sifting only its
    base images x(g(b)) (``_step_index``), so the search runs on integers,
    and each row is written once, as the product of its transversal
    elements.
    """
    dtype = _point_dtype(degree)
    gen_arr = np.asarray(gens, dtype=np.intp).reshape(-1, degree).astype(dtype)
    chain = _Chain(gen_arr, cap)
    if not chain.complete:
        return None
    order, tables = chain.order, chain.tables(dtype)
    del chain  # ``tables`` holds its transversal, in the rows' dtype
    found = _search_order(_step_index(tables, order, gen_arr))
    rows = _write_rows(tables, found, degree, dtype)
    row_of = np.full(order + 1, -1, dtype=np.intp)
    row_of[found] = np.arange(order)
    return Enumeration(rows, tables, row_of)


class PermTable:
    """Index arithmetic over the rows of an enumerated group.

    An element is found from its base images: ``_sift`` through the chain
    the group was enumerated from gives its chain index, |G| or more for
    images no element has, and ``row_of``, clipped to its trailing -1, gives
    its row.  A miss is -1, never a neighbouring element.  Building the table
    makes no pass over the rows and allocates a few hundred bytes whatever
    |G| is, so every enumerated group is built as one; ``inv`` sifts the one
    inverted row it needs, and no conjugation map is kept.
    """

    def __init__(self, enumeration: Enumeration):
        self.rows, self._tables, self._row_of = enumeration
        self.order, self.degree = self.rows.shape
        self.base = np.array([t.point for t in self._tables], dtype=np.intp)

    def _lookup(self, imgs: np.ndarray) -> np.ndarray:
        """Indices of the elements with these base images, -1 for none."""
        return self._row_of.take(_sift(self._tables, imgs), mode="clip")

    def _find(self, imgs: np.ndarray) -> np.ndarray:
        """Indices of the elements with these base images (last axis)."""
        found = self._lookup(imgs)
        if (found < 0).any():
            raise InternalError("a product fell outside the enumerated group")
        return found

    def index_of(self, images: Sequence[int]) -> int:
        """Index of the element with these images; KeyError if none."""
        row = np.asarray(images)
        if row.shape == (self.degree,) and ((row >= 0) & (row < self.degree)).all():
            i = int(self._lookup(row[self.base]))
            if i >= 0 and (self.rows[i] == row).all():
                return i
        raise KeyError(tuple(images))

    def mul(self, a: int, b: int) -> int:
        rows = self.rows
        return int(self._find(rows[a, rows[b, self.base]]))

    def mul_left(self, xs: Sequence[int], b: int | Sequence[int]) -> np.ndarray:
        """Indices of x * b for every x in ``xs``; ``b`` is one index, or
        one per x."""
        rows = self.rows
        b_base = rows[np.asarray(b, dtype=np.intp)[..., None], self.base]
        return self._find(rows[np.asarray(xs, dtype=np.intp)[:, None], b_base])

    def inv(self, a: int) -> int:
        return int(self._find(_inverse_rows(self.rows[a : a + 1])[:, self.base])[0])

    def _conjugation(self, g: int) -> np.ndarray:
        """The permutation x -> g^-1 * x * g of the element indices."""
        row = self.rows[g]
        g_inv = _inverse_rows(row[None])[0]
        return self._find(g_inv[self.rows[:, row[self.base]]])

    def _power_images(self, s: int) -> np.ndarray:
        """Base images of s, s^2, .., up to the power before the identity."""
        row = self.rows[s].tolist()
        start = self.base.tolist()
        imgs = []
        at = [row[p] for p in start]
        while at != start:
            imgs.append(at)
            at = [row[p] for p in at]
        return np.array(imgs)

    def closure(self, seed: Iterable[int]) -> list[int]:
        """Sorted indices of the subgroup generated by ``seed``."""
        return np.flatnonzero(self._span(seed)[0]).tolist()

    def generators(self, seed: Iterable[int]) -> list[int]:
        """Elements of ``seed`` that generate the same subgroup: in ascending
        order, each one outside the subgroup generated by those before it."""
        return self._span(seed)[1]

    def _span(self, seed: Iterable[int]) -> tuple[np.ndarray, list[int]]:
        """The subgroup generated by ``seed``, as a mask over the rows, and
        the seed elements taken as its generators.

        Seed elements are added one at a time, skipping those already
        inside, so a huge seed (a class union, say) costs one membership
        test per element; at most log2 |G| of them become generators.
        """
        rows, base = self.rows, self.base
        have = np.zeros(self.order, dtype=bool)
        have[0] = True
        gens: list[int] = []
        for s in sorted(set(seed)):
            if have[s]:
                continue
            # The members H so far are closed under the earlier generators.
            # The cosets H s, .., H s^(r-1), for s^r the first power inside
            # H, are new and distinct, so one step adds them all however
            # long the cycle of s is.
            steps = self._power_images(s)
            if gens:
                inside = have[self._find(steps)]
                if inside.any():
                    steps = steps[: inside.argmax()]
            gens.append(s)
            frontier = self._grow(have, np.flatnonzero(have), steps)
            gen_base = rows[gens][:, base]
            while len(frontier):
                frontier = self._grow(have, frontier, gen_base)
        return have, gens

    def _grow(self, have, frontier, steps) -> np.ndarray:
        """Mark the products frontier * step not yet in ``have`` and return
        them as the next frontier; ``steps`` holds the base images of the
        multipliers."""
        found = self._find(self.rows[frontier[:, None, None], steps[None, :, :]]).ravel()
        new = np.sort(found[~have[found]])
        first = np.ones(len(new), dtype=bool)
        first[1:] = new[1:] != new[:-1]
        new = new[first]
        have[new] = True
        return new

    def conjugation_orbits(self, gen_idxs: Sequence[int]) -> tuple[np.ndarray, ...]:
        """Orbits under conjugation by the listed generators, numbered by
        their smallest element: the orbit of each element, the elements
        sorted by orbit, and the k + 1 starts of the orbits in that order."""
        maps = [self._conjugation(g) for g in gen_idxs]
        # every element takes the smallest label along each generator edge,
        # both ways, then jumps to its label's label: the fixed point labels
        # each orbit by its smallest element
        label = np.arange(self.order)
        while True:
            nxt = label.copy()
            for p in maps:
                np.minimum(nxt, nxt[p], out=nxt)
                nxt[p] = np.minimum(nxt[p], nxt)
            nxt = nxt[nxt]
            if (nxt == label).all():
                break
            label = nxt
        smallest = label == np.arange(len(label))
        class_of = (np.cumsum(smallest) - 1)[label]
        starts = np.concatenate(([0], np.cumsum(np.bincount(class_of))))
        return class_of, np.argsort(class_of, kind="stable"), starts

    def class_matrices(self, cd: ClassData) -> ClassMatrices:
        """The k class matrices, as a ``ClassMatrices`` sequence that builds
        each one when it is read: matrix i, entry (j, t), counts x in C_i
        with x^-1 * rep_t in C_j.

        ``cd.inv_map[i]`` is the class of the inverses of C_i.  With
        y = x^-1 the count is over y in C_inv_map[i] with y * rep_t in C_j,
        so only forward products are formed: each y * rep_t is a gather of
        whole columns, the base images y(rep_t(b)).  Every product is formed
        here, once, and kept as its class, y in the class order of ``cd``.
        """
        rows, base, class_of = self.rows, self.base, cd.class_of
        cell = np.empty((self.order, cd.k), dtype=_point_dtype(cd.k))
        for t, r in enumerate(cd.reps):
            cell[:, t] = class_of[self._find(rows[:, rows[r, base]])[cd.by_class]]
        return ClassMatrices(cell, cd.starts, cd.inv_map)


class ClassMatrices(Sequence):
    """The k class matrices of a group, read-only, each built as a (k, k)
    float64 array when it is read.

    ``cell[y, t]`` is the class j of y * rep_t, with the elements y in order
    of their class, so class c is the block of rows ``starts[c]`` to
    ``starts[c + 1]``.  Matrix m counts over the block of class
    ``inv_map[m]`` (``PermTable.class_matrices``), one ``bincount`` of
    j * k + t.  So ``cell`` is all that is kept, k |G| small integers, and a
    build holds one block and one matrix beside it.  Each count is at most
    |G|, so float64 holds it exactly, and float64 is the arithmetic ``modp``
    works in unless the prime is huge.  ``shape`` is that of the stack the
    matrices would make, which is never formed.
    """

    def __init__(self, cell: np.ndarray, starts: np.ndarray, inv_map: Sequence[int]):
        self._cell, self._starts, self._inv_map = cell, starts, inv_map
        k = cell.shape[1]
        self.shape = (k, k, k)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, m: int) -> np.ndarray:
        k = len(self)
        # range takes negative indices and raises IndexError past the end
        c = self._inv_map[range(k)[m]]
        # widened first: j * k + t overflows the dtype of the classes
        flat = self._cell[self._starts[c] : self._starts[c + 1]].astype(np.intp)
        flat *= k
        flat += np.arange(k)
        # weights of 1.0 count straight into float64, with no int64 matrix
        # to convert
        ones = np.ones(flat.size)
        return np.bincount(flat.ravel(), weights=ones, minlength=k * k).reshape(k, k)
