"""Permutation kernels: group enumeration and index arithmetic, in numpy.

A group's elements are one ``m x n`` array of point images, row i holding
element i.  ``PermTable`` picks a base B, a few points whose images determine
each element (Sims; Seress, *Permutation Group Algorithms*, 2003, ch. 4), and
finds an element from the images of B alone.  The image of a base point b
lies in its orbit, so the ranks of the images in the orbits of B, read as
mixed-radix digits, key the elements in 0..S-1, S the product of the orbit
lengths.  When S is at most 16 m, one slot array of S entries maps each key
to its element, and a lookup is two gathers; a larger key space falls back
to a sorted search over the base images compared bytewise.  Since
(x*y)(b) = x(y(b)), a product needs only the base images of its factors, so
each bulk operation is a gather on base columns followed by one lookup.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalError

# Candidate rows per enumeration step: bounds the work and memory spent past
# the order cap to one step.
_BATCH = 1 << 14

# Largest dense lookup index, in slots per element (see PermTable).
_DENSE_SLOTS_PER_ELEMENT = 16


def _point_dtype(degree: int) -> np.dtype:
    """Smallest unsigned dtype that holds the points 0..degree-1."""
    for dt in (np.uint8, np.uint16, np.uint32):
        if degree - 1 <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.uint64)


def bfs_closure(degree: int, gens: Sequence[Sequence[int]], cap: int) -> np.ndarray | None:
    """The group generated by ``gens``, one row of images per element.

    Rows come in breadth-first order: row 0 is the identity, and each level
    lists the new products frontier * generator, element-major and
    generator-minor, first occurrences only.  Returns None when the order
    exceeds ``cap``.
    """
    dtype = _point_dtype(degree)
    gen_arr = np.asarray(gens, dtype=np.intp).reshape(-1, degree)
    ident = np.arange(degree, dtype=dtype)
    row_bytes = np.dtype((np.void, ident.nbytes))
    seen = {ident.tobytes()}
    levels = [ident[None, :]]
    frontier = levels[0]
    step = max(1, _BATCH // max(1, len(gen_arr)))
    while len(frontier):
        fresh: list[bytes] = []
        for lo in range(0, len(frontier), step):
            cand = frontier[lo : lo + step][:, gen_arr]
            keys = np.ascontiguousarray(cand).view(row_bytes).ravel().tolist()
            new = [key for key in dict.fromkeys(keys) if key not in seen]
            if len(seen) + len(new) > cap:
                return None
            seen.update(new)
            fresh += new
        frontier = np.frombuffer(b"".join(fresh), dtype=dtype).reshape(-1, degree)
        levels.append(frontier)
    del seen, fresh  # else they are live during the final copy, the peak
    return np.concatenate(levels)


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
        huge.
        """
        rows, base = self.rows, self.base
        class_of = np.asarray(class_of, dtype=np.intp)
        k = len(reps)
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
