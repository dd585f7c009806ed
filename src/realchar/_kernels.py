"""Permutation kernels: group enumeration and index arithmetic, in numpy.

A group's elements are one ``m x n`` array of point images, row i holding
element i.  Both halves of this module rest on a base B, a few points whose
images determine each element (Sims; Seress, *Permutation Group Algorithms*,
2003, ch. 4).

``bfs_closure`` enumerates a group from its generators.  The deterministic
Schreier-Sims algorithm gives a stabilizer chain before any row exists: the
order, so the cap is checked first, and an index in 0..m-1 for every
element, the ranks of its transversal elements read in mixed radix.  A
product x*g is indexed by sifting only its base images x(g(b)), so the
breadth-first search runs on integers, with no Python object per element
and no full row per candidate, and each row is written once.

``PermTable`` does index arithmetic over the rows of an enumerated group,
whatever their order, and finds an element from the images of B alone.  The
image of a base point b lies in its orbit, so the ranks of the images in the
orbits of B, read as mixed-radix digits, key the elements in 0..S-1, S the
product of the orbit lengths.  When S is at most 16 m, one slot array of S
entries maps each key to its element, and a lookup is two gathers; a larger
key space falls back to a sorted search over the base images compared
bytewise.  Since (x*y)(b) = x(y(b)), a product needs only the base images of
its factors, so each bulk operation is a gather on base columns followed by
one lookup.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InternalError

# Largest dense lookup index, in slots per element (see PermTable).
_DENSE_SLOTS_PER_ELEMENT = 16

# Largest (k, k, k) float64 stack of class matrices, in bytes: it keeps
# L2_8xC4xC4xC4 (k = 576, 1.5 GB) and refuses C10000 (7.3 TiB).
_MAX_CLASS_MATRIX_BYTES = 2 << 30

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


# per level of a chain: the base point, the rank of each point in the basic
# orbit (-1 outside it), the transversal, and its inverses (None on the last
# level, where nothing is sifted further)
_Table = tuple[int, np.ndarray, np.ndarray, "np.ndarray | None"]


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
        levels, n = self.levels, len(self.ident)
        ranks = np.array([lev.rank for lev in levels], dtype=np.intp).reshape(-1, n)
        fwd = np.array([row for lev in levels for row in lev.fwd], dtype=dtype).reshape(-1, n)
        last = len(fwd) - len(levels[-1].orbit) if levels else 0
        inv = _inverse_rows(fwd[:last])
        out, lo = [], 0
        for j, lev in enumerate(levels):
            hi = lo + len(lev.orbit)
            out.append((lev.point, ranks[j], fwd[lo:hi], inv[lo:hi] if hi <= last else None))
            lo = hi
        return out


def _step_index(tables: list[_Table], order: int, gens: np.ndarray) -> np.ndarray:
    """``out[x, s]``: the index of x * gens[s], for every index x."""
    # the candidate x * s has the base images x(s(b)): first the images,
    # under every element, of the points s(b), base point by base point
    k, n = len(tables), gens.shape[1]
    # intp, as the search indexes with it (see _Chain)
    out = np.zeros((order, len(gens)), dtype=np.intp)
    if not k:
        return out
    targets = gens[:, [point for point, _, _, _ in tables]].T.ravel()
    imgs = targets[None, :]
    for _, _, fwd, _ in reversed(tables):
        imgs = fwd.take(imgs, axis=1).reshape(-1, len(targets))
    per = max(1, _BLOCK // max(1, len(targets)))
    for lo in range(0, order, per):
        # at[j, s, x]: the image of b_j under the candidate x * s, sifted
        # through the levels above j
        chunk = imgs[lo : lo + per]
        at = np.ascontiguousarray(chunk.T, dtype=np.intp).reshape(k, len(gens), len(chunk))
        index = 0
        for j, (_, ranks, fwd, inv) in enumerate(tables):
            r = ranks.take(at[j])
            if r.min() < 0:
                raise InternalError("a product left a basic orbit of the stabilizer chain")
            index = index * len(fwd) + r
            if inv is not None:
                rest = at[j + 1 :]
                rest += r * n
                rest[:] = inv.take(rest)
        out[lo : lo + per] = index.T
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
    for _, _, fwd, _ in reversed(tables[1:]):
        tail = fwd.take(tail, axis=1).reshape(-1, degree)
    rows = np.empty((len(found), degree), dtype=dtype)
    if not tables:
        rows[:] = tail
        return rows
    top = tables[0][2].ravel()
    per = max(1, _BLOCK // degree)
    for lo in range(0, len(found), per):
        r, t = np.divmod(found[lo : lo + per], len(tail))
        at = tail.take(t, axis=0).astype(np.intp)
        at += r[:, None] * degree
        rows[lo : lo + per] = top.take(at)
    return rows


def bfs_closure(degree: int, gens: Sequence[Sequence[int]], cap: int) -> np.ndarray | None:
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
    return _write_rows(tables, found, degree, dtype)


def _greedy_base(rows: np.ndarray) -> list[int]:
    """Smallest point moved by the pointwise stabilizer of the points so
    far, until that stabilizer is trivial."""
    points = np.arange(rows.shape[1])
    stab = rows
    base: list[int] = []
    while len(stab) > 1:
        pt = int((stab != points).any(axis=0).argmax())
        base.append(pt)
        stab = stab[stab[:, pt] == pt]
    return base


class PermTable:
    """Index arithmetic over the rows of an enumerated group.

    An element is found from its base images.  The orbit of b_j is the set
    of values in column b_j, and digit j of an element's key is the rank of
    its image of b_j in that orbit, in radix |b_j^G|; the keys lie in
    0..S-1 for S the product of the orbit lengths.  When S is at most
    ``_DENSE_SLOTS_PER_ELEMENT`` times the order, ``_slots[key]`` is the
    element's index, -1 for no element, and slot S is a sentinel for images
    outside the orbits: a lookup is one gather for the key and one for the
    slot.  A larger key space (C2 wr C8 on 16 points has |G| = 2048 and
    S = 2^32) is searched in sorted order over the base images compared
    bytewise.  Either way a miss is -1, never a neighbouring element.
    """

    def __init__(self, rows: np.ndarray | Sequence[Sequence[int]]):
        rows = np.asarray(rows)
        m, n = rows.shape
        if rows.dtype != _point_dtype(n):
            rows = rows.astype(_point_dtype(n))
        self.rows = rows
        self.degree = n
        self.base = np.array(_greedy_base(rows), dtype=np.intp)
        at_base = rows[:, self.base]
        orbits = [np.flatnonzero(np.bincount(col, minlength=n)) for col in at_base.T]
        space = math.prod(len(orbit) for orbit in orbits)
        if space <= _DENSE_SLOTS_PER_ELEMENT * m:
            # _place[j, p] is the rank of p in the orbit of b_j times the
            # weight of digit j, and S for a point outside that orbit, so any
            # key of S or more belongs to no element
            self._space = space
            self._place = np.full((len(orbits), n), space, dtype=np.intp)
            weight = space
            for place, orbit in zip(self._place, orbits):
                weight //= len(orbit)
                place[orbit] = np.arange(len(orbit)) * weight
            self._slots = np.full(space + 1, -1, dtype=np.int32)
            keys, index = self._dense_keys(at_base), np.arange(m)
            self._slots[keys] = index
            shared = (self._slots[keys] != index).any()
            self._lookup = self._dense_lookup
        else:
            self._space = None
            self._key_bytes = np.dtype((np.void, len(self.base) * rows.itemsize))
            keys = self._byte_keys(at_base)
            self._key_order = np.argsort(keys, kind="stable")
            self._key_sorted = keys[self._key_order]
            shared = (self._key_sorted[1:] == self._key_sorted[:-1]).any()
            self._lookup = self._sorted_lookup
        if shared:
            raise InternalError("two rows share their base images; the rows are not a group")
        # x^-1(b) is the position of b in row x
        inv_imgs = np.empty_like(at_base)
        for j, b in enumerate(self.base):
            inv_imgs[:, j] = (rows == b).argmax(axis=1)
        self._inv = self._find(inv_imgs)
        self._conj: dict[int, np.ndarray] = {}

    def _dense_keys(self, imgs: np.ndarray) -> np.ndarray:
        """Orbit-rank keys of elements given by their base images (last
        axis); S or more when an image lies outside its base point's orbit."""
        key = np.zeros(imgs.shape[:-1], dtype=np.intp)
        for j, place in enumerate(self._place):
            key += place[imgs[..., j]]
        return key

    def _dense_lookup(self, imgs: np.ndarray) -> np.ndarray:
        """Indices of the elements with these base images, -1 for none."""
        return self._slots[np.minimum(self._dense_keys(imgs), self._space)]

    def _byte_keys(self, imgs: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(imgs, dtype=self.rows.dtype)
        return flat.view(self._key_bytes)[..., 0]

    def _sorted_lookup(self, imgs: np.ndarray) -> np.ndarray:
        """Indices of the elements with these base images, -1 for none."""
        keys = self._byte_keys(imgs)
        flat = keys.ravel()
        pos = self._key_sorted.searchsorted(flat)
        hit = pos < len(self._key_sorted)
        hit[hit] = self._key_sorted[pos[hit]] == flat[hit]
        out = np.full(len(flat), -1, dtype=np.intp)
        out[hit] = self._key_order[pos[hit]]
        return out.reshape(keys.shape)

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

    def size(self) -> int:
        return len(self.rows)

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
        return int(self._inv[a])

    def conj(self, a: int, g: int) -> int:
        """g^-1 * a * g"""
        return self.mul(self.mul(self.inv(g), a), g)

    def order_of(self, a: int) -> int:
        n = 1
        x = a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def _conjugation(self, g: int) -> np.ndarray:
        """The permutation x -> g^-1 * x * g of the element indices."""
        out = self._conj.get(g)
        if out is None:
            row = self.rows[g]
            g_inv = np.empty_like(row)
            g_inv[row] = np.arange(self.degree, dtype=row.dtype)
            out = self._find(g_inv[self.rows[:, row[self.base]]])
            self._conj[g] = out
        return out

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

    def _span(self, seed: Iterable[int], conjugators: Sequence[int]) -> list[int]:
        """Sorted indices of the smallest subgroup containing ``seed`` that
        conjugation by every conjugator maps into itself.

        Seed elements are added one at a time, skipping those already
        inside, so a huge seed (a class union, say) costs one membership
        test per element; at most log2 |G| of them become generators.
        """
        rows, base = self.rows, self.base
        have = np.zeros(len(rows), dtype=bool)
        have[0] = True
        conj = None
        if len(conjugators):
            conj_idx = np.asarray(conjugators, dtype=np.intp)
            conj = (rows[conj_idx][:, base], np.argsort(rows[conj_idx], axis=1))
        gens: list[int] = []
        for s in sorted(set(seed)):
            if have[s]:
                continue
            # The members H so far are closed under the earlier generators
            # and the conjugators.  The cosets H s, .., H s^(r-1), for s^r
            # the first power inside H, are new and distinct, so one step
            # adds them all however long the cycle of s is.
            steps = self._power_images(s)
            if gens:
                inside = have[self._find(steps)]
                if inside.any():
                    steps = steps[: inside.argmax()]
            gens.append(s)
            frontier = self._grow(have, np.flatnonzero(have), steps, None)
            gen_base = rows[gens][:, base]
            while len(frontier):
                frontier = self._grow(have, frontier, gen_base, conj)
        return np.flatnonzero(have).tolist()

    def _grow(self, have, frontier, steps, conj) -> np.ndarray:
        """Mark the products frontier * step, and the conjugates
        c^-1 * frontier * c, not yet in ``have``; return them as the next
        frontier.  ``steps`` holds base images of the multipliers, ``conj``
        the base images and inverse rows of the conjugators."""
        rows = self.rows
        at = rows[frontier[:, None, None], steps[None, :, :]]
        if conj is not None:
            conj_base, conj_inv = conj
            inner = rows[frontier[:, None, None], conj_base[None, :, :]]
            outer = conj_inv[np.arange(len(conj_base))[None, :, None], inner]
            at = np.concatenate([at, outer], axis=1)
        found = self._find(at).ravel()
        new = np.sort(found[~have[found]])
        first = np.ones(len(new), dtype=bool)
        first[1:] = new[1:] != new[:-1]
        new = new[first]
        have[new] = True
        return new

    def closure(self, seed: Iterable[int]) -> list[int]:
        """Sorted indices of the subgroup generated by ``seed``."""
        return self._span(seed, ())

    def normal_closure(self, seed: Iterable[int], conjugators: Sequence[int]) -> list[int]:
        """Sorted indices of the smallest conjugation-stable subgroup over ``seed``."""
        return self._span(seed, conjugators)

    def core(self, members: Iterable[int], conjugators: Sequence[int]) -> list[int]:
        """Sorted indices of the largest conjugation-stable subset of ``members``."""
        keep = np.zeros(len(self.rows), dtype=bool)
        keep[list(members)] = True
        maps = [self._conjugation(c) for c in conjugators]
        while True:
            nxt = keep.copy()
            for p in maps:
                nxt &= keep[p]
            if (nxt == keep).all():
                return np.flatnonzero(keep).tolist()
            keep = nxt

    def conjugacy_classes(self, gen_idxs: Sequence[int]) -> tuple[list[int], list[list[int]]]:
        """class_of array plus ascending-sorted classes, numbered by their
        smallest element."""
        maps = [self._conjugation(g) for g in gen_idxs]
        # every element takes the smallest label along each generator edge,
        # both ways, then jumps to its label's label: the fixed point labels
        # each orbit by its smallest element
        label = np.arange(len(self.rows))
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
        members = np.argsort(class_of, kind="stable")
        cuts = np.cumsum(np.bincount(class_of))[:-1]
        return class_of.tolist(), [c.tolist() for c in np.split(members, cuts)]

    def class_matrices(self, class_of: Sequence[int], reps: Sequence[int]) -> np.ndarray:
        """All k class matrices as one ``(k, k, k)`` float64 array:
        ``mats[i, j, t]`` counts x in C_i with x^-1 * rep_t in C_j.

        Each count is at most the group order, so float64 holds it exactly,
        and float64 is the arithmetic ``modp`` works in unless the prime is
        huge.  A stack over ``_MAX_CLASS_MATRIX_BYTES`` raises
        ``CapacityError`` before anything is allocated.
        """
        k = len(reps)
        if 8 * k**3 > _MAX_CLASS_MATRIX_BYTES:
            raise CapacityError(
                f"{k} classes need {8 * k**3 / 2**20:,.0f} MiB of class matrices, "
                f"over the limit of {_MAX_CLASS_MATRIX_BYTES / 2**20:,.0f} MiB",
                _MAX_CLASS_MATRIX_BYTES,
            )
        rows, base = self.rows, self.base
        class_of = np.asarray(class_of, dtype=np.intp)
        # cell[t, x] = j * k + t for the class j of x^-1 * rep_t
        cell = np.empty((k, len(rows)), dtype=np.int64 if k * k >= 2**31 else np.int32)
        inv = self._inv[:, None]
        for t, r in enumerate(reps):
            cell[t] = class_of[self._find(rows[inv, rows[r, base]])] * k + t
        members = np.argsort(class_of, kind="stable")
        cuts = np.cumsum(np.bincount(class_of, minlength=k))[:-1]
        mats = np.empty((k, k, k))
        for i, cls in enumerate(np.split(members, cuts)):
            mats[i] = np.bincount(cell[:, cls].ravel(), minlength=k * k).reshape(k, k)
        return mats

    def centralizer(self, gen_idxs: Sequence[int]) -> list[int]:
        """Sorted indices commuting with every listed generator."""
        rows, base = self.rows, self.base
        ok = np.ones(len(rows), dtype=bool)
        at_base = rows[:, base]
        for g in gen_idxs:
            # x*g and g*x agree on the base iff they are equal
            ok &= (rows[:, rows[g, base]] == rows[g][at_base]).all(axis=1)
        return np.flatnonzero(ok).tolist()
