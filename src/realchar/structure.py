"""Normal subgroup lattice, solvable radical, cores, and the label of the
solvable residual, all read off the character table.

Every normal subgroup is an intersection of kernels of irreducible characters
(Isaacs, *Character Theory of Finite Groups*, Lemma 2.21), and a chief factor
is abelian iff its order is a prime power.  The solvable residual K is the
smallest member with solvable quotient, so it is perfect, and the perfect
groups of order 60, 120 and 504 are unique: A5, SL(2,5) and L2(8) (Holt and
Plesken, *Perfect Groups*, 1989).  So K's label is read off |K|.  Normal
subgroups are held as class bitmasks.  The 2-core H's Chillag-Mann type is
decided with no table of H and no enumeration of H: its real classes are
counted from G's classes and the classes of their squares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Sequence

import numpy as np

from .chartab import ModPTable, row_kernels
from .errors import CapacityError, InternalError
from .modp import factor
from .perm import ClassData

DEFAULT_LATTICE_CAP = 10_000

# the unique perfect group of each order; any other perfect K is "other"
PERFECT_LABELS = {60: "A5", 120: "SL2_5", 504: "L2_8"}


def is_prime_power(n: int) -> bool:
    """1 counts as a prime power (the trivial character must not falsify)."""
    return n >= 1 and len(factor(n)) <= 1


@dataclass(frozen=True)
class NormalLattice:
    """All normal subgroups, as class bitmasks sorted by (order, mask).

    Bit c of a mask is set when class c lies in the subgroup, so the trivial
    subgroup is 1.  ``orders`` maps each member to its order, and
    ``kernels[r]`` is the class bitmask of the kernel of table row r.
    """

    members: tuple[int, ...]
    orders: dict[int, int]
    kernels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def _class_bits(masks: Sequence[int], k: int) -> np.ndarray:
    """The bits of each mask as a row of k 0/1 uint8 entries."""
    width = (k + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=k, bitorder="little")


def normal_subgroups(cd: ClassData, t: ModPTable, cap: int) -> NormalLattice:
    """Intersection closure of the kernels of the irreducible characters."""
    kernels = row_kernels(t, cd)
    found = {(1 << cd.k) - 1}
    for ker in dict.fromkeys(kernels):  # rows sharing a kernel add no member
        found |= {m & ker for m in found}
        if len(found) > cap:
            raise CapacityError(f"normal subgroup lattice exceeds the cap {cap}", cap)
    masks = list(found)
    counts = _class_bits(masks, cd.k) @ np.array(cd.sizes, dtype=np.int64)
    orders = {m: n for n, m in sorted(zip(counts.tolist(), masks))}
    if next(iter(orders)) != 1:
        raise InternalError("the kernels of the irreducible characters meet beyond the identity")
    if any(t.group_order % n for n in orders.values()):
        raise InternalError("a lattice member's order does not divide the group order")
    return NormalLattice(members=tuple(orders), orders=orders, kernels=kernels)


@dataclass(frozen=True)
class StructureReport:
    """The normal structure of one group, read off its lattice (which also
    carries the kernel of each table row).

    ``radical``, ``k``, ``o2`` and ``o2p`` are class bitmasks, with orders
    in ``lattice.orders``.  ``o2`` and ``o2p`` are the largest normal
    2-subgroup and the largest normal subgroup of odd order; they are also
    those of the radical.  ``k_label`` names the perfect group ``k`` by its
    order ("" when it is trivial).
    """

    lattice: NormalLattice
    radical: int
    k: int
    k_label: str
    o2: int
    o2p: int
    is_solvable: bool


def analyze(cd: ClassData, t: ModPTable, cap: int) -> StructureReport:
    """Radical, derived limit and cores from one class-level lattice.

    Members are sorted by order, so the nearest member below (above) member i
    that it contains (lies in) is a chief-factor step away.
    """
    lat = normal_subgroups(cd, t, cap)
    masks = lat.members
    orders = list(lat.orders.values())
    n = len(masks)

    solvable = [True] * n  # every chief factor below the member is abelian
    for i in range(1, n):
        j = next(j for j in range(i - 1, -1, -1) if masks[j] & ~masks[i] == 0)
        solvable[i] = solvable[j] and is_prime_power(orders[i] // orders[j])
    top = [True] * n  # every chief factor above the member is abelian
    for i in range(n - 2, -1, -1):
        j = next(j for j in range(i + 1, n) if masks[i] & ~masks[j] == 0)
        top[i] = top[j] and is_prime_power(orders[j] // orders[i])

    rad = max(i for i in range(n) if solvable[i])
    if any(solvable[i] and masks[i] & ~masks[rad] for i in range(n)):
        raise InternalError("solvable members are not all inside the largest one")
    k = top.index(True)
    if reduce(and_, (m for m, up in zip(masks, top) if up)) != masks[k]:
        raise InternalError("the members with solvable quotient do not meet in the smallest one")
    o2 = max(i for i in range(n) if orders[i] & (orders[i] - 1) == 0)
    o2p = max(i for i in range(n) if orders[i] % 2 == 1)
    if masks[o2] & masks[o2p] != 1:
        raise InternalError("the 2-core and odd core of the radical intersect")
    return StructureReport(
        lattice=lat,
        radical=masks[rad],
        k=masks[k],
        k_label=PERFECT_LABELS.get(orders[k], "other") if orders[k] > 1 else "",
        o2=masks[o2],
        o2p=masks[o2p],
        is_solvable=rad == n - 1,
    )


def _real_classes(cd: ClassData, h: int) -> int:
    """The number of real classes of the normal subgroup of class bitmask
    ``h``: sum r^2 / |H|, for r(z) the number of square roots of z in H.

    Squaring maps class c onto class sq(c), the class of rep_c^2, and each
    element of sq(c) has as many square roots in c.  So r(z) for z in class
    d is S_d / |C_d|, for S_d the sum of |C_c| over the classes c of H with
    sq(c) = d, and sum r^2 is the sum over d of S_d^2 / |C_d|.
    """
    fibres: Counter[int] = Counter()
    for c, pows in enumerate(cd.rep_power_classes):
        if h >> c & 1:
            fibres[pows[2 % len(pows)]] += cd.sizes[c]
    if any(n % cd.sizes[d] for d, n in fibres.items()):
        raise InternalError("the square roots in a normal subgroup split a class unevenly")
    squares = sum(n * n // cd.sizes[d] for d, n in fibres.items())
    real, rest = divmod(squares, sum(fibres.values()))
    if rest:
        raise InternalError("the square roots in a normal subgroup do not count its real classes")
    return real


def chillag_mann_subgroup(cd: ClassData, lattice: NormalLattice, h: int) -> bool:
    """Whether every real irreducible character of the normal subgroup H of
    class bitmask ``h`` is linear, counted from G's classes with no table.

    H has as many real irreducibles as real classes (Brauer's permutation
    lemma, Isaacs Cor. 6.33), and |H : H^2| real linear ones, the maps to
    {+-1}, since H' <= H^2 ([x, y] = x^-2 (x y^-1)^2 y^2).  H^2 is
    characteristic in H, hence normal in G: the smallest member of G's
    ``lattice`` holding the squares of H's classes.  The real classes are
    counted from G's classes and their squares, with no enumeration of H
    (Isaacs, ch. 4): the pairs (a, b) in H^2 with a^2 = b^2 are the pairs
    (x, y) = (a b^-1, b) with y^-1 x y = x^-1, |C_H(x)| of them for each x
    real in H and none for the others, so they number |H| times the real
    classes of H.
    """
    squares = [p[2 % len(p)] for c, p in enumerate(cd.rep_power_classes) if h >> c & 1]
    h2 = reduce(and_, (m for m in lattice.members if all(m >> c & 1 for c in squares)))
    return _real_classes(cd, h) == lattice.orders[h] // lattice.orders[h2]
