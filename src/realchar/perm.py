"""Permutations, group enumeration, conjugacy structure and direct products.

Groups are carried as permutation groups on {0, .., n-1} throughout: a
``GroupSpec`` names the generators, ``enumerate_group`` numbers the
elements and keeps the Cayley graph of the generators over them, and
``conjugacy_classes`` sorts their indices by class once; downstream, normal
subgroups are class bitmasks, and no command enumerates a second group.
The constructions no command runs (centres, closures, enumerated
subgroups, coset actions, quotients and central products) are in
``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import Enumeration, PermTable, bfs_closure
from .errors import CapacityError, InternalError, StructureError

DEFAULT_ORDER_CAP = 100_000

# Most classes a group may have for its class matrices: 645 is the largest k
# whose (k, k, k) float64 stack fits in 2 GiB, the limit while the matrices
# were held as one stack.  It keeps L2_8xC4xC4xC4 (k = 576) and refuses
# C10000.
_MAX_CLASSES = 645


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, .., n-1} stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n < 1 or sorted(self.images) != list(range(n)):
            raise StructureError(f"images {self.images!r} are not a bijection on 0..{n - 1}")

    @staticmethod
    def identity(degree: int) -> Permutation:
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> Permutation:
        """Build from disjoint cycles of 0-based points."""
        images = list(range(degree))
        seen: set[int] = set()
        for cyc in cycles:
            for pt in cyc:
                if not 0 <= pt < degree:
                    raise StructureError(f"point {pt} out of range for degree {degree}")
                if pt in seen:
                    raise StructureError(f"point {pt} repeated across cycles")
                seen.add(pt)
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class GroupSpec:
    """A finite group given by generator permutations on ``degree`` points."""

    degree: int
    generators: tuple[Permutation, ...]
    name: str = "G"

    def __post_init__(self):
        if self.degree < 1:
            raise StructureError("degree must be at least 1")
        if not self.generators:
            raise StructureError("generator list must be nonempty (use the identity)")
        for g in self.generators:
            if g.degree != self.degree:
                raise StructureError(
                    f"generator degree {g.degree} does not match spec degree {self.degree}"
                )

    def renamed(self, name: str) -> GroupSpec:
        return GroupSpec(self.degree, self.generators, name)


class GroupElements(PermTable):
    """The enumerated elements of a group, and the index arithmetic over them
    that ``PermTable`` gives: element i is row i of the enumeration, and row
    0 is the identity.  The group keeps its spec, and memoizes its character
    tables."""

    def __init__(self, spec: GroupSpec, enumeration: Enumeration):
        super().__init__(enumeration)
        self.spec = spec
        self.table_cache: dict = {}


def enumerate_group(spec: GroupSpec, cap: int = DEFAULT_ORDER_CAP) -> GroupElements:
    """Breadth-first closure of the generators; deterministic element order."""
    enumeration = bfs_closure(spec.degree, [g.images for g in spec.generators], cap)
    if enumeration is None:
        raise CapacityError(
            f"group {spec.name!r} exceeds the order cap {cap}", cap
        )
    return GroupElements(spec, enumeration)


@dataclass(frozen=True, eq=False)
class ClassData:
    """Conjugacy classes plus the inversion and power structure on them.

    Classes are numbered by their smallest element, so class 0 is {1}, and
    held in one order by read-only intp arrays: element x is in class
    ``class_of[x]``, and class c is ``by_class[starts[c] : starts[c + 1]]``.
    The per-class tuples hold Python ints: chartab reduces them mod p > 2^63."""

    class_of: np.ndarray
    by_class: np.ndarray
    starts: np.ndarray
    sizes: tuple[int, ...]
    reps: tuple[int, ...]
    inv_map: tuple[int, ...]  # the class of the inverses of each class
    rep_power_classes: tuple[tuple[int, ...], ...]  # [c][s]: the class of rep_c**s
    exponent: int

    @property
    def k(self) -> int:
        return len(self.sizes)


def conjugacy_classes(g: GroupElements) -> ClassData:
    """Orbit closure under conjugation by the generators.  Over
    ``_MAX_CLASSES`` classes are refused before the power classes, k^2 steps
    on an abelian group, are listed."""
    class_of, by_class, starts = g.conjugation_orbits()
    k = len(starts) - 1
    if k > _MAX_CLASSES:
        raise CapacityError(
            f"{k} classes are over the limit of {_MAX_CLASSES} for class matrices",
            _MAX_CLASSES,
        )
    sizes = np.diff(starts).tolist()
    if sizes[0] != 1:
        raise InternalError("conjugacy sweep lost elements")
    rep_arr = by_class[starts[:-1]]
    for arr in (class_of, by_class, starts):
        arr.flags.writeable = False
    # rep_powers[c][t] = class of rep_c**t for t in 0..order-1
    rep_powers = [[0, *class_of[p].tolist()] for p in g.powers(rep_arr)]
    # rep^(o-1) is rep^-1, so the last power's class is the inverse class
    inv_map = tuple(p[-1] for p in rep_powers)
    exponent = math.lcm(*(len(p) for p in rep_powers))
    return ClassData(
        class_of=class_of,
        by_class=by_class,
        starts=starts,
        sizes=tuple(sizes),
        reps=tuple(rep_arr.tolist()),
        inv_map=inv_map,
        rep_power_classes=tuple(tuple(p) for p in rep_powers),
        exponent=exponent,
    )


def direct_product(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    """Direct product acting on the disjoint union of the two point sets."""
    da, db = a.degree, b.degree
    idb = tuple(range(da, da + db))
    ida = tuple(range(da))
    gens = [Permutation(g.images + idb) for g in a.generators]
    gens += [Permutation(ida + tuple(i + da for i in g.images)) for g in b.generators]
    return GroupSpec(da + db, tuple(gens), f"{a.name}x{b.name}")
