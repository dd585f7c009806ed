"""Pure-Python reference for the permutation kernels in ``realchar.perm``:
``perm.enumerate_group`` and the index arithmetic of ``perm.GroupElements``.

A ``PermTable`` does index-level arithmetic over a fixed element list, and
``bfs_closure`` enumerates a group from generator images.  Every loop works
one element at a time; ``test_kernels.py`` requires the numpy kernels to
give the same outputs, in the same order.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def bfs_closure(
    degree: int, gens: Sequence[Sequence[int]], cap: int
) -> list[tuple[int, ...]] | None:
    """Enumerate the group generated by ``gens`` in BFS insertion order.

    Element 0 is the identity; generators (when new) follow in the given
    order.  Returns None as soon as more than ``cap`` elements appear.
    """
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    gen_rows = [tuple(g) for g in gens]
    qi = 0
    while qi < len(elements):
        base = elements[qi]
        qi += 1
        for g in gen_rows:
            nxt = tuple(base[j] for j in g)
            if nxt not in index:
                if len(elements) >= cap:
                    return None
                index[nxt] = len(elements)
                elements.append(nxt)
    return elements


class PermTable:
    """Index-level multiplication engine over an enumerated element list."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = [tuple(r) for r in rows]
        self.index = {r: i for i, r in enumerate(self.rows)}
        self.order = len(self.rows)
        self.degree = len(self.rows[0]) if self.rows else 0
        n = self.degree
        inv = []
        for r in self.rows:
            out = [0] * n
            for i, ri in enumerate(r):
                out[ri] = i
            inv.append(self.index[tuple(out)])
        self._inv = inv

    def mul(self, a: int, b: int) -> int:
        ra = self.rows[a]
        rb = self.rows[b]
        return self.index[tuple(ra[j] for j in rb)]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, a: int, g: int) -> int:
        """g^-1 * a * g"""
        return self.mul(self.mul(self._inv[g], a), g)

    def order_of(self, a: int) -> int:
        n = 1
        x = a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def _bfs_members(self, gens: Sequence[int]) -> set[int]:
        members = [0]
        seen = {0}
        qi = 0
        while qi < len(members):
            x = members[qi]
            qi += 1
            for s in gens:
                y = self.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    members.append(y)
        return seen

    def _filtered_closure(self, seed: Iterable[int]) -> tuple[set[int], list[int]]:
        """Closure of ``seed`` plus the generators that actually extend it.

        Seed elements already inside the running closure are skipped, so a
        huge seed (a class union, say) costs one membership test per element
        instead of a BFS generator each; at most log2 |G| survive.
        """
        gens: list[int] = []
        have = {0}
        for s in sorted(set(seed)):
            if s in have:
                continue
            gens.append(s)
            have = self._bfs_members(gens)
        return have, gens

    def closure(self, seed: Iterable[int]) -> list[int]:
        """Sorted indices of the subgroup generated by ``seed``."""
        return sorted(self._filtered_closure(seed)[0])

    def normal_closure(self, seed: Iterable[int], conjugators: Sequence[int]) -> list[int]:
        """Sorted indices of the smallest conjugation-stable subgroup over ``seed``."""
        gens = sorted(set(seed) - {0})
        while True:
            memberset, gens = self._filtered_closure(gens)
            members = sorted(memberset)
            added = False
            for x in members:
                for c in conjugators:
                    y = self.conj(x, c)
                    if y not in memberset:
                        gens.append(y)
                        memberset.add(y)
                        added = True
            if not added:
                return members

    def conjugation_orbits(self, gen_idxs: Sequence[int]) -> tuple[list[int], list[list[int]]]:
        """Orbit of each element under conjugation by the generators, plus
        the ascending-sorted orbits, swept in element order."""
        m = len(self.rows)
        class_of = [-1] * m
        classes: list[list[int]] = []
        for x in range(m):
            if class_of[x] >= 0:
                continue
            c = len(classes)
            class_of[x] = c
            orbit = [x]
            qi = 0
            while qi < len(orbit):
                y = orbit[qi]
                qi += 1
                for g in gen_idxs:
                    z = self.conj(y, g)
                    if class_of[z] < 0:
                        class_of[z] = c
                        orbit.append(z)
            classes.append(sorted(orbit))
        return class_of, classes

    def class_matrices(
        self, class_of: Sequence[int], reps: Sequence[int]
    ) -> list[list[list[int]]]:
        """All k class matrices: mats[i][j][t] counts x in C_i with x^-1 * rep_t in C_j."""
        k = len(reps)
        mats = [[[0] * k for _ in range(k)] for _ in range(k)]
        for x in range(len(self.rows)):
            mi = mats[class_of[x]]
            xi = self._inv[x]
            for t in range(k):
                mi[class_of[self.mul(xi, reps[t])]][t] += 1
        return mats

    def centralizer(self, gen_idxs: Sequence[int]) -> list[int]:
        """Sorted indices commuting with every listed generator."""
        out = []
        for x in range(len(self.rows)):
            if all(self.mul(x, g) == self.mul(g, x) for g in gen_idxs):
                out.append(x)
        return out
