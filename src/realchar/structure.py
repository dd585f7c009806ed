"""Normal subgroup lattice, solvable radical, cores, and the label of the
solvable residual, all read off the character table.

Every normal subgroup is an intersection of kernels of irreducible characters
(Isaacs, *Character Theory of Finite Groups*, Lemma 2.21), and a chief factor
is abelian iff its order is a prime power.  The solvable residual K is the
smallest member with solvable quotient, so it is perfect, and the perfect
groups of order 60, 120 and 504 are unique: A5, SL(2,5) and L2(8) (Holt and
Plesken, *Perfect Groups*, 1989).  So K's label is read off |K|.  Normal
subgroups are held as class bitmasks; only the 2-core H is listed as elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Sequence

import numpy as np

from .chartab import ModPTable, compute_table, real_degree_set, row_kernels
from .errors import CapacityError, InternalError
from .modp import factor
from .perm import ClassData, GroupElements, conjugacy_classes, subgroup_elements

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


def _elements(cd: ClassData, mask: int) -> list[int]:
    """The elements of the classes in ``mask``, ascending: one gather of its
    bits over ``class_of``."""
    return np.flatnonzero(_class_bits([mask], cd.k)[0][cd.class_of]).tolist()


def normal_subgroups(
    g: GroupElements,
    cd: ClassData | None = None,
    t: ModPTable | None = None,
    cap: int = DEFAULT_LATTICE_CAP,
) -> NormalLattice:
    """Intersection closure of the kernels of the irreducible characters."""
    cd = cd if cd is not None else conjugacy_classes(g)
    t = t if t is not None else compute_table(g, cd)
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
    if any(g.order % n for n in orders.values()):
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
    is_perfect: bool
    is_simple: bool


def analyze(
    g: GroupElements,
    cd: ClassData | None = None,
    t: ModPTable | None = None,
    cap: int = DEFAULT_LATTICE_CAP,
) -> StructureReport:
    """Radical, derived limit and cores from one class-level lattice.

    Members are sorted by order, so the nearest member below (above) member i
    that it contains (lies in) is a chief-factor step away.
    """
    lat = normal_subgroups(g, cd, t, cap)
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
        is_perfect=k == n - 1,
        is_simple=n == 2,
    )


def chillag_mann_type(g: GroupElements, seed: int = 0, table: ModPTable | None = None) -> bool:
    """Every real-valued irreducible character is linear.  ``table`` is a
    table of ``g`` at any prime (the degrees do not depend on it); without
    one, ``g``'s table at the default prime is computed, or read from its
    memo."""
    t = table if table is not None else compute_table(g, conjugacy_classes(g), seed)
    return all(d == 1 for d in real_degree_set(t).multiset)


def chillag_mann_subgroup(
    g: GroupElements, h: int, seed: int = 0, table: ModPTable | None = None
) -> bool:
    """Chillag-Mann type of the normal subgroup H of class bitmask ``h``.
    H = 1 is of that type, and H = G is read off G's own table, ``table``
    when given; any other H is enumerated for its own table: G's table does
    not decide whether H's real irreducibles are all linear."""
    cd = conjugacy_classes(g)
    if h == 1:
        return True
    if h == (1 << cd.k) - 1:
        return chillag_mann_type(g, seed, table)
    return chillag_mann_type(subgroup_elements(g, _elements(cd, h), "cm_check"), seed)
