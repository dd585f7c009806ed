"""Normal subgroup lattice, solvable radical, cores, and the label of the
solvable residual, all read off the character table.

Every normal subgroup is an intersection of kernels of irreducible characters
(Isaacs, *Character Theory of Finite Groups*, Lemma 2.21), and a chief factor
is abelian iff its order is a prime power.  The solvable residual K is the
smallest member with solvable quotient, so it is perfect, and the perfect
groups of order 60, 120 and 504 are unique: A5, SL(2,5) and L2(8) (Holt and
Plesken, *Perfect Groups*, 1989).  So K's label is read off |K|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable

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
    """All normal subgroups, as index sets sorted by (order, elements).

    ``masks[i]`` is the class bitmask of ``members[i]``; ``kernels[r]`` is
    the class bitmask of the kernel of table row r.
    """

    members: tuple[frozenset[int], ...]
    masks: tuple[int, ...]
    kernels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


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

    class_of = np.asarray(cd.class_of)

    def elements(mask: int) -> list[int]:
        bits = np.frombuffer(mask.to_bytes((cd.k + 7) // 8, "little"), dtype=np.uint8)
        return np.flatnonzero(np.unpackbits(bits, bitorder="little")[class_of]).tolist()

    pairs = sorted(((elements(m), m) for m in found), key=lambda pair: (len(pair[0]), pair[0]))
    if pairs[0][1] != 1:
        raise InternalError("the kernels of the irreducible characters meet beyond the identity")
    if any(g.order % len(m) for m, _ in pairs):
        raise InternalError("a lattice member's order does not divide the group order")
    return NormalLattice(
        members=tuple(frozenset(m) for m, _ in pairs),
        masks=tuple(mask for _, mask in pairs),
        kernels=kernels,
    )


@dataclass(frozen=True)
class StructureReport:
    """The normal structure of one group, read off its lattice (which also
    carries the kernel of each table row).

    ``o2`` and ``o2p`` are the largest normal 2-subgroup and the largest
    normal subgroup of odd order; they are also those of the radical.
    ``k_label`` names the perfect group ``k`` by its order ("" when it is
    trivial).
    """

    lattice: NormalLattice
    radical: frozenset[int]
    k: frozenset[int]
    k_label: str
    o2: frozenset[int]
    o2p: frozenset[int]
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
    masks = lat.masks
    orders = [len(m) for m in lat.members]
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
    members = lat.members
    return StructureReport(
        lattice=lat,
        radical=members[rad],
        k=members[k],
        k_label=PERFECT_LABELS.get(orders[k], "other") if orders[k] > 1 else "",
        o2=members[o2],
        o2p=members[o2p],
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
    g: GroupElements, members: Iterable[int], seed: int = 0, table: ModPTable | None = None
) -> bool:
    """Chillag-Mann type of a subgroup H.  The trivial group is of that type,
    and H = G is read off G's own table, ``table`` when given; any other H
    needs its own table: G's table does not decide whether H's real
    irreducibles are all linear."""
    hset = frozenset(members)
    if len(hset) == 1:
        return True
    if len(hset) == g.order:
        return chillag_mann_type(g, seed, table)
    return chillag_mann_type(subgroup_elements(g, hset, "cm_check"), seed)
