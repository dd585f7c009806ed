"""Permutation arithmetic, group enumeration, conjugacy structure and constructions.

Groups are carried as permutation groups on {0, .., n-1} throughout: a
``GroupSpec`` names the generators, ``enumerate_group`` materializes the
elements as one array of images, and everything downstream (classes,
subgroups, quotients, products) works with element indices into that array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._kernels import Enumeration, PermTable, bfs_closure
from .errors import CapacityError, InternalError, StructureError

DEFAULT_ORDER_CAP = 100_000


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

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        return compose(self, other)

    def inverse(self) -> Permutation:
        out = [0] * len(self.images)
        for i, img in enumerate(self.images):
            out[img] = i
        return Permutation(tuple(out))

    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))

    def order(self) -> int:
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        seen: set[int] = set()
        out = []
        for start in range(len(self.images)):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            pt = self.images[start]
            while pt != start:
                cyc.append(pt)
                seen.add(pt)
                pt = self.images[pt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """Disjoint-cycle notation with 1-based points; identity is '()'."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a*b)(i) = a(b(i))."""
    if a.degree != b.degree:
        raise StructureError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(tuple(a.images[j] for j in b.images))


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
    that ``PermTable`` gives: row i of ``rows`` holds the images of element i,
    and row 0 is the identity.  The group keeps its spec, and memoizes its
    classes, its materialized subgroups and its character tables."""

    def __init__(self, spec: GroupSpec, enumeration: Enumeration):
        super().__init__(enumeration)
        self.spec = spec
        self.name = spec.name
        self._classdata = None
        self._subgroups: dict[frozenset[int], GroupElements] = {}
        self.table_cache: dict = {}

    def gen_indices(self) -> list[int]:
        return [self.index_of(g.images) for g in self.spec.generators]

    def perm(self, i: int) -> Permutation:
        return Permutation(tuple(self.rows[i].tolist()))


def enumerate_group(spec: GroupSpec, cap: int = DEFAULT_ORDER_CAP) -> GroupElements:
    """Breadth-first closure of the generators; deterministic element order."""
    enumeration = bfs_closure(spec.degree, [g.images for g in spec.generators], cap)
    if enumeration is None:
        raise CapacityError(
            f"group {spec.name!r} exceeds the order cap {cap}", cap
        )
    return GroupElements(spec, enumeration)


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes plus the inversion and power structure on them."""

    classes: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    reps: tuple[int, ...]
    class_of: tuple[int, ...]
    inv_map: tuple[int, ...]  # the class of the inverses of each class
    rep_power_classes: tuple[tuple[int, ...], ...]  # [c][s]: the class of rep_c**s
    exponent: int

    @property
    def k(self) -> int:
        return len(self.classes)


def conjugacy_classes(g: GroupElements) -> ClassData:
    """Orbit closure under conjugation by the generators; cached on ``g``."""
    if g._classdata is not None:
        return g._classdata
    class_of, classes = g.conjugation_orbits(g.gen_indices())
    reps = [cls[0] for cls in classes]
    sizes = [len(cls) for cls in classes]
    if sum(sizes) != g.order or list(classes[0]) != [0]:
        raise InternalError("conjugacy sweep lost elements")
    # rep_powers[c][t] = class of rep_c**t for t in 0..order-1; each step
    # multiplies the powers of every rep short of the identity at once
    rep_arr = np.asarray(reps, dtype=np.intp)
    rep_powers = [[0] for _ in reps]
    live = np.flatnonzero(rep_arr)
    x = rep_arr[live]
    while len(live):
        for c, xc in zip(live.tolist(), x.tolist()):
            rep_powers[c].append(class_of[xc])
        x = g.mul_left(x, rep_arr[live])
        live, x = live[x != 0], x[x != 0]
    # rep^(o-1) is rep^-1, so the last power's class is the inverse class
    inv_map = tuple(p[-1] for p in rep_powers)
    exponent = math.lcm(*(len(p) for p in rep_powers))
    cd = ClassData(
        classes=tuple(tuple(c) for c in classes),
        sizes=tuple(sizes),
        reps=tuple(reps),
        class_of=tuple(class_of),
        inv_map=inv_map,
        rep_power_classes=tuple(tuple(p) for p in rep_powers),
        exponent=exponent,
    )
    g._classdata = cd
    return cd


def center(g: GroupElements) -> frozenset[int]:
    """Elements commuting with every generator."""
    return frozenset(g.centralizer(g.gen_indices()))


def subgroup_closure(g: GroupElements, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing ``seed``, as an index set."""
    return frozenset(g.closure(seed))


def subgroup_elements(g: GroupElements, members: Iterable[int], name: str) -> GroupElements:
    """Materialize a subgroup as a standalone group on the same points."""
    key = frozenset(members)
    cached = g._subgroups.get(key)
    if cached is not None:
        return cached
    gens = g.generators(key) or [0]
    spec = GroupSpec(g.degree, tuple(g.perm(i) for i in gens), name)
    sub = enumerate_group(spec)
    if sub.order != len(key):
        raise InternalError(
            f"subgroup enumeration produced {sub.order} elements, expected {len(key)}"
        )
    g._subgroups[key] = sub
    return sub


def coset_action(g: GroupElements, members: Iterable[int], name: str | None = None) -> GroupSpec:
    """Permutation action of the group on the right cosets of a subgroup.

    Cosets are numbered in BFS discovery order starting from the subgroup
    itself (point 0), so the result is deterministic.
    """
    h = sorted(set(members))
    if not h or any(not 0 <= x < g.order for x in h):
        raise StructureError("subgroup index set invalid")

    def coset_key(x: int) -> int:
        return int(g.mul_left(h, x).min())

    gen_idxs = g.gen_indices()
    key0 = h[0]
    keys = {key0: 0}
    reps = [0]
    images: list[list[int]] = [[] for _ in gen_idxs]
    qi = 0
    while qi < len(reps):
        r = reps[qi]
        qi += 1
        for gi, gen in enumerate(gen_idxs):
            y = g.mul(r, gen)
            key = coset_key(y)
            pt = keys.get(key)
            if pt is None:
                pt = len(reps)
                keys[key] = pt
                reps.append(y)
            images[gi].append(pt)
    degree = len(reps)
    if degree * len(h) != g.order:
        raise InternalError("coset sweep did not cover the group")
    gens = tuple(Permutation(tuple(img)) for img in images)
    return GroupSpec(degree, gens, name or f"{g.name}_cosets{degree}")


def core_of(g: GroupElements, members: Iterable[int]) -> frozenset[int]:
    """Largest normal subgroup of the group contained in ``members``."""
    return frozenset(g.core(members, g.gen_indices()))


def quotient_group(g: GroupElements, normal: Iterable[int], name: str) -> GroupSpec:
    """Faithful permutation image of the quotient by a normal subgroup.

    Acts on cosets of an overgroup S >= N with core exactly N, chosen of
    maximal order (thus minimal degree); S = N always qualifies, so the
    search cannot fail.  The candidates are the subgroups <N, x>, which
    depend only on the coset xN, so each coset is closed once, at its
    smallest member.
    """
    n = frozenset(normal)
    if core_of(g, n) != n:
        raise StructureError("subgroup is not normal; cannot form the quotient")
    if len(n) == g.order:
        return GroupSpec(1, (Permutation.identity(1),), name)
    best: frozenset[int] | None = None
    seen: set[frozenset[int]] = set()
    members = sorted(n)
    covered = np.zeros(g.order, dtype=bool)
    for x in range(g.order):
        if covered[x]:
            continue
        covered[g.mul_left(members, x)] = True
        s = subgroup_closure(g, n | {x})
        if s in seen or len(s) == g.order:
            continue
        seen.add(s)
        if (best is None or len(s) > len(best)) and core_of(g, s) == n:
            best = s
    assert best is not None  # n itself is always a candidate
    spec = coset_action(g, best, name)
    image = enumerate_group(spec)
    if image.order * len(n) != g.order:
        raise InternalError("quotient image has the wrong order")
    return spec


def direct_product(a: GroupSpec, b: GroupSpec, name: str | None = None) -> GroupSpec:
    """Direct product acting on the disjoint union of the two point sets."""
    da, db = a.degree, b.degree
    idb = tuple(range(da, da + db))
    ida = tuple(range(da))
    gens = [Permutation(g.images + idb) for g in a.generators]
    gens += [Permutation(ida + tuple(i + da for i in g.images)) for g in b.generators]
    return GroupSpec(da + db, tuple(gens), name or f"{a.name}x{b.name}")


def central_product(
    a: GroupSpec,
    b: GroupSpec,
    za: Iterable[int],
    zb: Iterable[int],
    matching: dict[int, int],
    name: str | None = None,
    cap: int = DEFAULT_ORDER_CAP,
) -> GroupSpec:
    """Central product: quotient of a x b by the anti-diagonal of ``matching``.

    ``za``/``zb`` are central subgroups of the enumerated factors and
    ``matching`` an isomorphism between them (by element index).
    """
    ga = enumerate_group(a, cap)
    gb = enumerate_group(b, cap)
    za_set = frozenset(za)
    zb_set = frozenset(zb)
    _check_central_matching(ga, gb, za_set, zb_set, matching)
    prod_spec = direct_product(a, b)
    gp = enumerate_group(prod_spec, cap)
    diag = set()
    for z in sorted(za_set):
        w = gb.inv(matching[z])
        pair = ga.perm(z).images + tuple(i + a.degree for i in gb.perm(w).images)
        diag.add(gp.index_of(pair))
    return quotient_group(gp, frozenset(diag), name or f"{a.name}o{b.name}")


def _check_central_matching(
    ga: GroupElements,
    gb: GroupElements,
    za: frozenset[int],
    zb: frozenset[int],
    matching: dict[int, int],
) -> None:
    if set(matching) != za or set(matching.values()) != zb or len(za) != len(zb):
        raise StructureError("matching is not a bijection between the central subgroups")
    if subgroup_closure(ga, za) != za or subgroup_closure(gb, zb) != zb:
        raise StructureError("za/zb are not subgroups")
    for z in za:
        if any(ga.mul(z, t) != ga.mul(t, z) for t in ga.gen_indices()):
            raise StructureError("za is not central in the first factor")
    for z in zb:
        if any(gb.mul(z, t) != gb.mul(t, z) for t in gb.gen_indices()):
            raise StructureError("zb is not central in the second factor")
    for z1 in za:
        for z2 in za:
            if matching[ga.mul(z1, z2)] != gb.mul(matching[z1], matching[z2]):
                raise StructureError("matching is not an isomorphism of central subgroups")
