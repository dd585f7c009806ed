"""Permutation kernels: group enumeration and index arithmetic, in numpy.

Everything here rests on one stabilizer chain of the group, with base B, a
few points whose images determine each element (Sims; Seress, *Permutation
Group Algorithms*, 2003, ch. 4).

``bfs_closure`` enumerates a group from its generators.  The deterministic
Schreier-Sims algorithm gives the chain before any element is listed: the
order, so the cap is checked first, and an index in 0..m-1 for every
element, the ranks of its transversal elements read in mixed radix.
``_sift`` finds that index from the base images alone, so the breadth-first
search runs on integers, with no Python object per element and no full
permutation per candidate.  The search numbers the elements (the rows),
and what it computes is kept: the Cayley graph of the generators, one map
R_s : x -> x * s of the rows per generator s, and the search tree, the
parent row and generator of every row.  No element's images are stored.

``PermTable`` does index arithmetic on that graph.  A product by a word in
the generators is one gather per letter; the class matrices compose the
maps along the tree paths of the class representatives, and a conjugation
map is R_s, the inversion map I and R_s again.  I is the one bulk sift: the
base images of every x^-1 come through the chain's inverse transversals.
Products by arbitrary elements remain only for ``powers``, of the class
representatives.  An element's images are read through its chain index,
the product of its transversal elements, and x^(t+1) is found by a sift of
its base images, x(x^t(b)), so only the images of x are read.  An enumerated group,
``perm.GroupElements``, is a ``PermTable`` built from its ``Enumeration``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import InternalError

if TYPE_CHECKING:
    from .perm import ClassData

# Entries in one working array: the base images sifted per step, and the
# entries counted per step of a class matrix.  It bounds the temporaries
# beside the output: unbounded, enumerating aff64_L2_8 peaked at 8.5 MiB.
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
    ``weight`` in the mixed radix, and |G| for p outside the orbit, so a
    miss anywhere drives the index to |G| or more.  ``shift[p]`` is the rank
    times n, 0 outside, which offsets into the flattened ``inv``.  ``fwd``
    is the transversal and ``inv`` its inverses.  ``moved`` lists the later
    base columns whose images the transversal can move; the others pass the
    level unchanged."""

    point: int
    place: np.ndarray
    shift: np.ndarray
    fwd: np.ndarray
    inv: np.ndarray
    moved: list[int]
    weight: int


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
    of 2000 points, 2000 x 2000 entries) stays in the smallest point dtype.
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
        inv = _inverse_rows(fwd)
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
                inv[cuts[j] : cuts[j + 1]],
                moved[j],
                int(weight[j]),
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
    for j, (_, place, shift, _, inv, moved, _) in enumerate(tables):
        index += place.take(at[j])
        if moved:
            offset = shift.take(at[j])
            for c in moved:
                at[c] = inv.take(at[c] + offset)
    return index


def _step_index(tables: list[_Table], order: int, gens: np.ndarray) -> np.ndarray:
    """``out[s, x]``: the index of x * gens[s], for every index x."""
    # the candidate x * s has the base images x(s(b)): first the images,
    # under every element, of the points s(b)
    k = len(tables)
    # intp, as the search indexes with it (see _Chain)
    out = np.zeros((len(gens), order), dtype=np.intp)
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
        out[:, lo : lo + per] = index.T
    return out


def _search_order(step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices in breadth-first order from the identity, index 0, over the
    products ``step[s, x]``: element-major, generator-minor, first
    occurrences only; and the claim of each index, the number of the
    candidate it was first found as.

    Each element found makes one candidate per generator, numbered in the
    order found, so the element found i-th was claimed as the product of
    the element found ``claim // ngens``-th by generator ``claim % ngens``;
    the identity's claim is -1."""
    ngens, order = step.shape
    # an element's claim is above every candidate number while it is unseen
    claim = np.full(order, order * ngens, dtype=np.intp)
    claim[0] = -1
    frontier = np.zeros(1, dtype=step.dtype)
    found = [frontier]
    seen = 0
    while len(frontier):
        # ``take`` gathers several times faster than step[:, frontier]
        cand = step.take(frontier, axis=1).T.ravel()
        pos = np.arange(seen, seen + len(cand))
        np.minimum.at(claim, cand, pos)
        frontier = cand[claim[cand] == pos]
        seen += len(cand)
        found.append(frontier)
    found = np.concatenate(found)
    if len(found) != order:
        raise InternalError(f"the search reached {len(found)} of the chain's {order} elements")
    return found, claim


def _apply(
    tables: list[_Table], index: np.ndarray, points: np.ndarray, degree: int, inverse: bool
) -> np.ndarray:
    """Images of ``points`` under the elements of chain index ``index``, or
    under their inverses; ``index`` broadcasts against ``points``.

    The element u_0 * .. * u_(k-1) maps p to u_0(..(u_(k-1)(p))), so the
    transversal elements apply from the last level up, and their inverses
    from level 0 down; the rank of u_j is digit j of the index."""
    if not tables:  # the trivial group
        return np.broadcast_to(points, np.broadcast_shapes(np.shape(index), np.shape(points)))
    at = points
    for t in tables if inverse else reversed(tables):
        perms = t.inv if inverse else t.fwd
        at = perms.take(index // t.weight % len(perms) * degree + at)
    return at


class Enumeration(NamedTuple):
    """A group as its enumeration left it, the rows numbered in
    breadth-first order: the stabilizer chain; ``row_of[i]``, the row of
    chain index i, with ``row_of[|G|]`` = -1; ``index``, the chain index of
    each row; ``right[s, x]``, the row of x * gens[s]; and ``tree[x]``, the
    claim of row x in the search: x = (tree[x] // ngens) * gens[tree[x] %
    ngens], -1 for the identity."""

    tables: list[_Table]
    row_of: np.ndarray
    index: np.ndarray
    right: np.ndarray
    tree: np.ndarray
    degree: int


def bfs_closure(degree: int, gens: Sequence[Sequence[int]], cap: int) -> Enumeration | None:
    """The group generated by ``gens``, its elements numbered in
    breadth-first order.

    Row 0 is the identity, and each level lists the new products frontier *
    generator, element-major and generator-minor, first occurrences only.
    Returns None when the order exceeds ``cap``, before any element is
    listed.

    A stabilizer chain (``_Chain``) gives the order and the index of every
    element in 0..|G|-1.  The candidate x * g is indexed by sifting only its
    base images x(g(b)) (``_step_index``), so the search runs on integers.
    Those products, renumbered by row, are the maps ``right`` of the
    Cayley graph, and the search's claims are its tree.
    """
    dtype = _point_dtype(degree)
    gen_arr = np.asarray(gens, dtype=np.intp).reshape(-1, degree).astype(dtype)
    chain = _Chain(gen_arr, cap)
    if not chain.complete:
        return None
    order, tables = chain.order, chain.tables(dtype)
    del chain  # ``tables`` holds its transversal, in the points' dtype
    right = _step_index(tables, order, gen_arr)
    found, claim = _search_order(right)
    row_of = np.full(order + 1, -1, dtype=np.intp)
    row_of[found] = np.arange(order)
    # renumbered by row in place: R_s maps row x to the row of x * gens[s]
    for r in right:
        row_of.take(r.take(found), out=r, mode="clip")
    right.flags.writeable = False
    return Enumeration(tables, row_of, found, right, claim.take(found), degree)


class PermTable:
    """Index arithmetic on the Cayley graph of an enumerated group.

    ``right[s]`` maps each row x to the row of x * gens[s], the generators
    the group was enumerated from, so ``right[:, 0]`` lists their rows.  A
    product by a word in them is a gather per letter, and every element is
    the word of its path in the search tree.  The one bulk sift is
    ``inverses``.  An element is found from its base images: ``_sift``
    through the chain gives its chain index, |G| or more for images no
    element has, and ``row_of``, clipped to its trailing -1, gives its row.
    A miss is -1, never a neighbouring element.  An element's own images are
    read through its chain index (``_images``), for its powers.  Building
    the table makes no pass over the group and allocates a few hundred bytes
    whatever |G| is, so every enumerated group is built as one; no
    conjugation map is kept.
    """

    def __init__(self, enumeration: Enumeration):
        self._tables, self._row_of, self._index, self.right, self._tree, self.degree = enumeration
        self.order = len(self._index)
        self.base = np.array([t.point for t in self._tables], dtype=np.intp)

    def _images(self, xs: int | np.ndarray, points: np.ndarray) -> np.ndarray:
        """Images of ``points`` (the last axis) under the elements of rows
        ``xs``, which broadcast against the other axes."""
        index = np.expand_dims(self._index.take(xs), -1)
        return _apply(self._tables, index, points, self.degree, inverse=False)

    def _lookup(self, imgs: np.ndarray) -> np.ndarray:
        """Indices of the elements with these base images, -1 for none."""
        return self._row_of.take(_sift(self._tables, imgs), mode="clip")

    def _find(self, imgs: np.ndarray) -> np.ndarray:
        """Indices of the elements with these base images (last axis)."""
        found = self._lookup(imgs)
        if (found < 0).any():
            raise InternalError("a product fell outside the enumerated group")
        return found

    def inverses(self) -> np.ndarray:
        """The row of x^-1 for every row x: one sift, in blocks, of the base
        images of the inverses, read through the inverse transversals."""
        out = np.empty(self.order, dtype=np.intp)
        per = max(1, _BLOCK // max(1, len(self.base)))
        for lo in range(0, self.order, per):
            index = self._index[lo : lo + per, None]
            imgs = _apply(self._tables, index, self.base, self.degree, inverse=True)
            out[lo : lo + per] = self._find(imgs)
        return out

    def powers(self, xs: np.ndarray) -> list[list[int]]:
        """For each row x of ``xs``, the rows of x, x^2, .., up to the power
        before the identity, none for the identity.  Each step finds the
        powers of every x short of the identity at once: x^(t+1) maps each
        base point b to x(x^t(b)), so only the images of the xs are read."""
        xs = np.asarray(xs, dtype=np.intp)
        out: list[list[int]] = [[] for _ in range(len(xs))]
        images = self._images(xs, np.arange(self.degree))
        live = np.flatnonzero(xs)
        x, at = xs[live], images[live][:, self.base]
        while len(live):
            for c, r in zip(live.tolist(), x.tolist()):
                out[c].append(r)
            at = images.take(live[:, None] * self.degree + at)
            x = self._find(at)
            keep = x != 0
            live, x, at = live[keep], x[keep], at[keep]
        return out

    def conjugations(self) -> list[np.ndarray]:
        """The map x -> s^-1 * x * s of the rows for each generator s: R_s
        after I after R_s after I, for I the inversion map."""
        inv = self.inverses()
        return [r.take(inv.take(r.take(inv))) for r in self.right]

    def conjugation_orbits(self) -> tuple[np.ndarray, ...]:
        """Orbits under conjugation by the generators, numbered by their
        smallest element: the orbit of each element, the elements sorted by
        orbit, and the k + 1 starts of the orbits in that order."""
        maps = self.conjugations()
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
        so only forward products are formed, once each, and kept as their
        class, y in the class order of ``cd``.  rep_t is the word of its
        path in the search tree, so y * rep_t is ``cd.by_class`` carried
        along that path by the maps ``right``: one gather per node of the
        union of the reps' paths.  A node's products are dropped once its
        subtree is done, so a path holds one array at a time.
        """
        ngens, tree = len(self.right), self._tree
        column = {r: t for t, r in enumerate(cd.reps)}
        kids: dict[int, list[int]] = {0: []}
        for r in cd.reps:
            path = []
            while r not in kids:
                path.append(r)
                r = int(tree[r]) // ngens
            for x in reversed(path):
                kids[r].append(x)
                kids[x] = []
                r = x
        cell = np.empty((self.order, cd.k), dtype=_point_dtype(cd.k))
        stack: list[tuple[int, np.ndarray | None]] = [(0, None)]
        while stack:
            x, above = stack.pop()
            at = cd.by_class if above is None else self.right[int(tree[x]) % ngens].take(above)
            del above
            if x in column:
                cell[:, column[x]] = cd.class_of.take(at)
            stack.extend((y, at) for y in kids[x])
        return ClassMatrices(cell, cd.starts, cd.inv_map)


class ClassMatrices(Sequence):
    """The k class matrices of a group, read-only, each built as a (k, k)
    float64 array when it is read.

    ``cell[y, t]`` is the class j of y * rep_t, with the elements y in order
    of their class, so class c is the block of rows ``starts[c]`` to
    ``starts[c + 1]``.  Matrix m counts over the block of class
    ``inv_map[m]`` (``PermTable.class_matrices``), one ``bincount`` of
    j * k + t per slice of the block of at most ``_BLOCK`` entries, or k^2
    when that is more.  So ``cell`` is all that is kept, k |G| small
    integers, and a build holds one matrix and one slice beside it.  Each count is at most |G|, so float64 holds it
    exactly, and float64 is the arithmetic ``modp`` works in unless the
    prime is huge.  ``shape`` is that of the stack the matrices would make,
    which is never formed.
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
        block = self._cell[self._starts[c] : self._starts[c + 1]]
        # blocks of at most _BLOCK entries, or of one matrix's k^2 once that
        # is more: below it the k^2 output of every block would dominate
        per = max(_BLOCK, k * k) // k
        # weights of 1.0 count straight into float64, with no int64 matrix
        # to convert
        ones = np.ones(min(len(block), per) * k)

        def count(rows: np.ndarray) -> np.ndarray:
            # widened first: j * k + t overflows the dtype of the classes
            flat = rows.astype(np.intp)
            flat *= k
            flat += np.arange(k)
            return np.bincount(flat.ravel(), weights=ones[: flat.size], minlength=k * k)

        out = count(block[:per])
        for lo in range(per, len(block), per):
            out += count(block[lo : lo + per])
        return out.reshape(k, k)
