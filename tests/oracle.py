"""Independent brute-force character data for cross-checking the library.

Everything here deliberately avoids the library's class/table machinery:
conjugacy classes come from full pairwise conjugation, and character values
come from spectral projections of the regular representation (a random
central element is diagonalized; its eigenspaces are the isotypic blocks).
Values are floating point with generous margins; they are used to confirm
integer data (degree multisets, realness, indicators), never copied into
the library.

The normal structure oracle at the end works element by element and never
looks at a character table: the lattice is a breadth-first search over
subgroup closures of (normal subgroup) union (conjugacy class), solvability
is a derived series, the cores of the radical come from the radical's own
lattice, and the three targets A5, L2(8) and SL2(5) are recognized by order,
commutator subgroup, centre and lattice.  The direct and central products a
CaseI or CaseII verdict claims are checked by intersections, orders and
commuting generators, and ``degree_set_conclusion`` checks the paper's
corollary on such a group's real degrees.  ``class_elements`` lists the
elements of a class bitmask, so the library's masks are compared with these
element sets.
``chillag_mann_type`` reads the Chillag-Mann type off the library's table,
the reference for its class count, and ``real_classes_by_square_roots``
counts a normal subgroup's real classes from its elements' squares.

``kronecker_table`` checks tables too wide for the brute-force oracle: the
table of a direct product is the Kronecker product of its factors' tables,
and the factors are small enough to be checked by the oracle above.
``exact_orthogonality`` checks the exact lifts' row orthogonality in the
cyclotomic integers (``_cyclo.py``).

The rest is what the tests build groups and check answers with, and no
command runs: permutation arithmetic, the element rows, products, inverses
and lookups of an enumerated group, conjugates, element orders,
centralizers and cores in an enumerated group, subgroup closures and the
generators they pick, subgroups enumerated as groups of their own, coset
actions, quotients, central products, the ``.grp`` text of a spec, and the
one-matrix and one-polynomial forms of ``realchar.modp``'s stacked kernels,
and ``is_eigenbasis``, the check of the split's lines against any family of
matrices, which reads the order the split emits them in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import _chartab_py
import _cyclo as cyclo
import numpy as np
import scipy.linalg

from realchar.catalog import cyclic, sl2_5
from realchar.chartab import ExactTable, ModPTable, compute_table, real_degree_set
from realchar.classify import CASE_I, CASE_II
from realchar.errors import InternalError, StructureError
from realchar.modp import (
    FpContext,
    _all_divisible,
    _mod,
    _null_images,
    _residues,
    _roots_of_degree,
    _rref_stack,
    poly_divmod,
    poly_trim,
)
from realchar.perm import (
    DEFAULT_ORDER_CAP,
    ClassData,
    GroupElements,
    GroupSpec,
    Permutation,
    conjugacy_classes,
    direct_product,
    enumerate_group,
)

TOL = 1e-6


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[j] for j in b)


def _inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img] = i
    return tuple(out)


@dataclass
class OracleTable:
    order: int
    class_sizes: list[int]
    class_reps: list[int]
    class_of: list[int]
    degrees: list[int]
    values: np.ndarray  # rows: characters, columns: classes
    real_flags: list[bool]
    rational_flags: list[bool]
    indicators: list[int]

    def degree_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees))

    def real_degree_set(self) -> tuple[int, ...]:
        return tuple(sorted({d for d, r in zip(self.degrees, self.real_flags) if r}))


def brute_classes(elements: list[tuple[int, ...]]) -> tuple[list[int], list[list[int]]]:
    """Conjugacy classes by conjugating with every group element."""
    index = {e: i for i, e in enumerate(elements)}
    m = len(elements)
    inverses = [index[_inv(e)] for e in elements]
    class_of = [-1] * m
    classes = []
    for x in range(m):
        if class_of[x] >= 0:
            continue
        c = len(classes)
        members = set()
        ex = elements[x]
        for g in range(m):
            conj = _mul(_mul(elements[inverses[g]], ex), elements[g])
            members.add(index[conj])
        for y in members:
            class_of[y] = c
        classes.append(sorted(members))
    return class_of, classes


def character_table(elements: list[tuple[int, ...]], seed: int = 12345) -> OracleTable:
    order = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    class_of, classes = brute_classes(elements)
    k = len(classes)
    reps = [cls[0] for cls in classes]
    sizes = [len(cls) for cls in classes]

    inverses = [index[_inv(e)] for e in elements]
    # product_class[a][b] = class of elements[a] * elements[b]^-1
    prod_class = np.empty((order, order), dtype=np.int32)
    for a in range(order):
        ea = elements[a]
        for b in range(order):
            prod_class[a, b] = class_of[index[_mul(ea, elements[inverses[b]])]]

    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    z = coeff[prod_class]  # random central element of the group algebra
    t, q = scipy.linalg.schur(z, output="complex")
    eigs = np.diag(t)

    clusters: list[list[int]] = []
    centers: list[complex] = []
    for i, lam in enumerate(eigs):
        for ci, mu in enumerate(centers):
            if abs(lam - mu) < 1e-7 * max(1.0, abs(mu)):
                clusters[ci].append(i)
                break
        else:
            clusters.append([i])
            centers.append(lam)

    mul_idx = np.empty((k, order), dtype=np.int64)
    for c, rep in enumerate(reps):
        er = elements[rep]
        for b in range(order):
            mul_idx[c, b] = index[_mul(er, elements[b])]

    degrees = []
    rows = []
    for cluster in clusters:
        dim = len(cluster)
        d = round(dim**0.5)
        assert d * d == dim, f"isotypic block of dimension {dim} is not a square"
        block = q[:, cluster]
        proj = block @ block.conj().T
        chi = np.empty(k, dtype=np.complex128)
        for c in range(k):
            # the isotypic block carries d copies of the irreducible
            chi[c] = proj[np.arange(order), mul_idx[c]].sum() / d
        degrees.append(d)
        rows.append(chi)
    assert sum(d * d for d in degrees) == order

    values = np.array(rows)
    real_flags = [bool(np.abs(row.imag).max() < TOL) for row in values]
    rational_flags = [
        bool(np.abs(row - np.round(row.real)).max() < TOL) for row in values
    ]

    sq_class = np.zeros(k, dtype=np.int64)
    for g in range(order):
        sq_class[class_of[index[_mul(elements[g], elements[g])]]] += 1
    indicators = []
    for row in values:
        nu = (row * sq_class).sum() / order
        nearest = int(np.round(nu.real))
        assert abs(nu - nearest) < TOL and nearest in (-1, 0, 1)
        indicators.append(nearest)

    return OracleTable(
        order=order,
        class_sizes=sizes,
        class_reps=reps,
        class_of=class_of,
        degrees=degrees,
        values=values,
        real_flags=real_flags,
        rational_flags=rational_flags,
        indicators=indicators,
    )


# ---------------------------------------------------------------------------
# normal structure, element by element


def class_elements(cd: ClassData, mask: int) -> frozenset[int]:
    """The elements of the classes whose bits are set in ``mask``, read off
    ``cd.class_of`` one element at a time; class c alone is ``1 << c``."""
    return frozenset(x for x, c in enumerate(cd.class_of.tolist()) if mask >> c & 1)


def normal_subgroups(g: GroupElements) -> list[frozenset[int]]:
    """Every normal subgroup, sorted by (order, elements)."""
    cd = conjugacy_classes(g)
    classes = [class_elements(cd, 1 << c) for c in range(cd.k)]
    trivial = frozenset({0})
    known = {trivial}
    queue = [trivial]
    for n in queue:
        for cls in classes:
            if cls <= n:
                continue
            m = subgroup_closure(g, set(n) | set(cls))
            if m not in known:
                known.add(m)
                queue.append(m)
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def normal_closure(table, seed, conjugators) -> list[int]:
    """Sorted indices of the smallest subgroup over ``seed`` that conjugation
    by every conjugator maps into itself: the closure of the seed and its
    conjugates, until conjugating the generators adds nothing."""
    gens = set(seed)
    new = set(gens)
    while True:
        members = set(closure(table, gens))
        new = {conj(table, x, c) for x in new for c in conjugators} - members
        if not new:
            return sorted(members)
        gens |= new


def commutator_subgroup(g: GroupElements, a, b) -> frozenset[int]:
    """[A, B]: normal closure in <A, B> of the generator commutators."""
    gens_a = generators(g, a)
    gens_b = generators(g, b)
    comms = set()
    for x in gens_a:
        xi = inv(g, x)
        for y in gens_b:
            comms.add(mul(g, mul(g, inv(g, y), mul(g, xi, y)), x))
    # [x,y] = x^-1 y^-1 x y; built as ((y^-1 (x^-1 y)) x)
    return frozenset(normal_closure(g, comms, gens_a + gens_b))


def derived_series_limit(g: GroupElements) -> frozenset[int]:
    """Stable term of the derived series; trivial exactly for solvable groups."""
    current = frozenset(range(g.order))
    while True:
        nxt = commutator_subgroup(g, current, current)
        if nxt == current:
            return current
        current = nxt


def is_solvable(g: GroupElements, members) -> bool:
    """Derived series of the subgroup reaches the trivial subgroup."""
    current = frozenset(members)
    while True:
        nxt = commutator_subgroup(g, current, current)
        if len(nxt) == 1:
            return True
        if nxt == current:
            return False
        current = nxt


def solvable_radical(g: GroupElements) -> frozenset[int]:
    return max((m for m in normal_subgroups(g) if is_solvable(g, m)), key=len)


def radical_cores(g: GroupElements, radical) -> tuple[frozenset[int], frozenset[int]]:
    """(largest normal 2-subgroup, largest odd-order normal subgroup) of the
    radical, found in the radical's own lattice, as index sets of ``g``."""
    sub = subgroup_elements(g, frozenset(radical), "radical")
    lat = normal_subgroups(sub)
    two_part = max((m for m in lat if len(m) & (len(m) - 1) == 0), key=len)
    odd_part = max((m for m in lat if len(m) % 2 == 1), key=len)
    to_parent = lambda s: frozenset(index_of(g, perm(sub, i).images) for i in s)
    return to_parent(two_part), to_parent(odd_part)


def recognize(kg: GroupElements) -> str:
    """One of 'A5', 'L2_8', 'SL2_5', 'other', or '' for the trivial group.

    The label comes from the order, then the group must be perfect
    ([K, K] = K) and, for SL2(5), have a centre of order 2.  The lattice
    cross-check guards against a wrong premise: A5 and L2(8) are simple,
    and the normal subgroups of SL2(5) are 1, Z and the whole group.
    """
    if kg.order == 1:
        return ""
    label = {60: "A5", 504: "L2_8", 120: "SL2_5"}.get(kg.order)
    if label is None:
        return "other"
    whole = frozenset(range(kg.order))
    if commutator_subgroup(kg, whole, whole) != whole:
        return "other"
    z = center(kg)
    if label == "SL2_5" and len(z) != 2:
        return "other"
    expected = [frozenset({0}), z, whole] if label == "SL2_5" else [frozenset({0}), whole]
    if normal_subgroups(kg) != expected:
        raise InternalError(f"a perfect group of order {kg.order} is not {label}")
    return label


def chillag_mann_type(g: GroupElements, seed: int = 0) -> bool:
    """Every real irreducible character of ``g`` is linear, read off its
    table: the reference for ``structure.chillag_mann_subgroup``, which
    counts classes instead."""
    t = compute_table(g, conjugacy_classes(g), seed)
    return real_degree_set(t).degrees == (1,)


def real_classes_by_square_roots(g: GroupElements, cd: ClassData, h: int) -> int:
    """The number of real classes of the normal subgroup of class bitmask
    ``h``, element by element: sum r^2 / |H|, for r(z) the number of x in H
    with x^2 = z.  The reference for ``structure._real_classes``, which
    sums over classes."""
    rows = np.array(sorted(class_elements(cd, h)))
    # x^2 is the second power, or the identity when x has order 1 or 2
    r = np.bincount([p[1] if len(p) > 1 else 0 for p in g.powers(rows)])
    real, rest = divmod(int(r @ r), len(rows))
    if rest:
        raise InternalError("the square roots in a normal subgroup do not count its real classes")
    return real


# ---------------------------------------------------------------------------
# element-by-element versions of library shortcuts


def class_matrix(cd: ClassData, g: GroupElements, i: int) -> list[list[int]]:
    """Structure-constant matrix of class i, one element at a time: entry
    (j, t) counts x in C_i with x^-1 * rep_t in C_j."""
    k = cd.k
    out = [[0] * k for _ in range(k)]
    for x in class_elements(cd, 1 << i):
        xi = inv(g, x)
        for t in range(k):
            out[cd.class_of[mul(g, xi, cd.reps[t])]][t] += 1
    return out


def point_stabilizer(g: GroupElements, point: int) -> frozenset[int]:
    """Indices of elements fixing ``point``."""
    return frozenset(i for i in range(g.order) if perm(g, i).images[point] == point)


def parent_indices(g: GroupElements, sub: GroupElements) -> frozenset[int]:
    """Index set in ``g`` of a subgroup materialized on the same points."""
    return frozenset(index_of(g, perm(sub, i).images) for i in range(sub.order))


def quotient_group(g: GroupElements, normal, name: str) -> GroupSpec:
    """Faithful image of G/N acting on the cosets of the largest overgroup
    with core N, searching one closure <N, x> per element x."""
    n = frozenset(normal)
    if core_of(g, n) != n:
        raise StructureError("subgroup is not normal; cannot form the quotient")
    if len(n) == g.order:
        return GroupSpec(1, (Permutation.identity(1),), name)
    best = None
    seen = set()
    for x in range(g.order):
        s = subgroup_closure(g, set(n) | {x})
        if s in seen or len(s) == g.order:
            continue
        seen.add(s)
        if (best is None or len(s) > len(best)) and core_of(g, s) == n:
            best = s
    spec = coset_action(g, best, name)
    if enumerate_group(spec).order * len(n) != g.order:
        raise InternalError("quotient image has the wrong order")
    return spec


def subgroup_center(g: GroupElements, members) -> frozenset[int]:
    """Center of a subgroup, as an index set of ``g``."""
    mset = frozenset(members)
    gens = generators(g, mset) or [0]
    return mset & frozenset(centralizer(g, gens))


def internal_direct_product(g: GroupElements, a, b, whole=None) -> bool:
    """A x B = the whole group: trivial intersection, full order, commuting."""
    aset, bset = frozenset(a), frozenset(b)
    total = len(whole if whole is not None else range(g.order))
    if aset & bset != frozenset({0}) or len(aset) * len(bset) != total:
        return False
    gens_a = generators(g, aset)
    gens_b = generators(g, bset)
    return all(mul(g, x, y) == mul(g, y, x) for x in gens_a for y in gens_b)


def central_product_check(g: GroupElements, k, h) -> bool:
    """K and H commute elementwise, K n H = Z(K), and Z(K) < H strictly."""
    kset, hset = frozenset(k), frozenset(h)
    gens_k = generators(g, kset) or [0]
    gens_h = generators(g, hset) or [0]
    if any(mul(g, x, y) != mul(g, y, x) for x in gens_k for y in gens_h):
        return False
    zk = subgroup_center(g, kset)
    return kset & hset == zk and zk < hset


def case_shape_holds(g: GroupElements, rep, kind: str) -> bool:
    """The shape a CaseI or CaseII verdict claims for the structure report
    ``rep``, element by element: Rad = H x O, and G = K x Rad (CaseI) or KH
    a central product over K n H = Z(K) < H with G = KH x O (CaseII)."""
    cd = conjugacy_classes(g)
    k, h, o, rad = (class_elements(cd, m) for m in (rep.k, rep.o2, rep.o2p, rep.radical))
    if not internal_direct_product(g, h, o, whole=rad):
        return False
    if kind == CASE_I:
        return internal_direct_product(g, k, rad)
    if kind == CASE_II:
        kh = subgroup_closure(g, k | h)
        return central_product_check(g, k, h) and internal_direct_product(g, kh, o)
    raise ValueError(f"{kind} is not a case verdict")


# real degree sets of the two targets (cd_rv of L2(8), odd part of cd_rv of
# A5), checked against the computed and the brute-force tables
L2_8_REAL_DEGREES = (1, 7, 8, 9)
A5_ODD_REAL_DEGREES = (1, 3, 5)


@dataclass(frozen=True)
class DegreeConclusion:
    passed: bool
    branch: str | None  # "i" matches L2(8) degrees, "ii" matches odd A5 degrees


def degree_set_conclusion(t: ModPTable, verdict) -> DegreeConclusion:
    """The paper's corollary for a group in case (i) or (ii): its real
    degrees are those of L2(8), or its odd real degrees are those of A5.

    The reference sets keep 1 on both sides, as ``real_degree_set`` keeps it.
    """
    if verdict.kind not in (CASE_I, CASE_II):
        raise ValueError("degree conclusion applies to CaseI/CaseII verdicts only")
    rdd = real_degree_set(t)
    if rdd.degrees == L2_8_REAL_DEGREES:
        return DegreeConclusion(passed=True, branch="i")
    if rdd.odd == A5_ODD_REAL_DEGREES:
        return DegreeConclusion(passed=True, branch="ii")
    return DegreeConclusion(passed=False, branch=None)


def central_sl2_5_c4() -> GroupSpec:
    """SL2(5) o C4 built by ``central_product``, identifying -1 in SL2(5)
    with the half turn of C4: the construction of the generators that
    ``catalog.central_sl2_5_c4`` writes out."""
    a = sl2_5()
    b = cyclic(4)
    ga = enumerate_group(a)
    gb = enumerate_group(b)
    za = sorted(center(ga))
    if len(za) != 2:
        raise StructureError("SL2(5) center has unexpected size")
    minus_one = za[1]
    half_turn = next(i for i in range(4) if order_of(gb, i) == 2)
    matching = {0: 0, minus_one: half_turn}
    spec = central_product(a, b, frozenset(za), frozenset({0, half_turn}), matching)
    return spec.renamed("SL2_5oC4")


def kronecker_table(g: GroupElements, a: GroupSpec, b: GroupSpec, p: int) -> list[tuple]:
    """The rows of the table of g = ``direct_product(a, b)`` at the prime p,
    as sorted (degree, values, indicator, real) tuples: the Kronecker
    product of the factors' tables (Isaacs, *Character Theory of Finite
    Groups*, Thm 4.21), whose indicators and realness multiply.

    Each class of g is matched to a pair of factor classes by restricting
    its rep to each factor's points.  The factors' tables are computed at
    p, which fits them: their exponents divide g's and their orders are
    below |g| < p.
    """
    if g.spec.generators != direct_product(a, b).generators:
        raise ValueError(f"{g.spec.name} is not the direct product of {a.name} and {b.name}")
    cd = conjugacy_classes(g)
    reps = [perm(g, r).images for r in cd.reps]
    factors = []
    for spec, start in ((a, 0), (b, a.degree)):
        h = enumerate_group(spec)
        hcd = conjugacy_classes(h)
        restricted = [
            tuple(images[x] - start for x in range(start, start + spec.degree))
            for images in reps
        ]
        classes = [hcd.class_of[index_of(h, images)] for images in restricted]
        factors.append((compute_table(h, hcd, prime_override=p), classes))
    (ta, ca), (tb, cb) = factors
    return sorted(
        (
            ta.degrees[i] * tb.degrees[j],
            tuple(ta.values[i][x] * tb.values[j][y] % p for x, y in zip(ca, cb)),
            ta.indicators[i] * tb.indicators[j],
            ta.real_flags[i] and tb.real_flags[j],
        )
        for i in range(ta.k)
        for j in range(tb.k)
    )


def exact_orthogonality(t: ModPTable, cd: ClassData, exact: ExactTable) -> tuple[str, ...]:
    """The failures of both orthogonality relations mod p on ``t``
    (``_chartab_py.orthogonality_failures``), then those of row
    orthogonality of the exact lifts in Z[zeta_e], e = exp(G): for every
    pair of rows r <= s, sum over classes of |C| chi_r conj(chi_s) equals |G|
    when r = s and 0 otherwise."""
    e = cd.exponent
    k = t.k
    embedded = [[cyclo.embed(v.n, v.mult, e) for v in row] for row in exact.values]
    failures = list(_chartab_py.orthogonality_failures(t, cd))
    for r in range(k):
        for s in range(r, k):
            acc = np.zeros(e, dtype=np.int64)
            for c in range(k):
                term = cyclo.ring_mul(embedded[r][c], cyclo.conj(embedded[s][c]))
                acc = acc + term * cd.sizes[c]
            acc = acc.astype(object)
            if r == s:
                acc[0] -= t.group_order
            if not cyclo.is_zero(acc, e):
                failures.append(f"exact row orthogonality failed for rows {r},{s}")
    return tuple(failures)


# ---------------------------------------------------------------------------
# permutations


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a*b)(i) = a(b(i))."""
    if a.degree != b.degree:
        raise StructureError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(_mul(a.images, b.images))


def inverse(a: Permutation) -> Permutation:
    return Permutation(_inv(a.images))


def is_identity(a: Permutation) -> bool:
    return a.images == tuple(range(a.degree))


def cycles(a: Permutation) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its smallest point, sorted."""
    seen: set[int] = set()
    out = []
    for start in range(a.degree):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        pt = a.images[start]
        while pt != start:
            cyc.append(pt)
            seen.add(pt)
            pt = a.images[pt]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def cycle_string(a: Permutation) -> str:
    """Disjoint-cycle notation with 1-based points; identity is '()'."""
    cycs = cycles(a)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)


def grp_text(spec: GroupSpec) -> str:
    """The ``.grp`` text that ``catalog.parse_grp`` reads back as ``spec``."""
    lines = [f"degree {spec.degree}"]
    lines.extend(cycle_string(g) for g in spec.generators)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# permutation arithmetic in an enumerated group (a ``PermTable``), one
# element at a time, read through each element's chain index


def images(table, xs) -> np.ndarray:
    """The images of every point under the elements of rows ``xs``: one row
    of images per element, the array an enumeration no longer keeps."""
    return np.array(table._images(xs, np.arange(table.degree)))


def rows(table) -> np.ndarray:
    """Row i holds the images of element i."""
    return images(table, np.arange(table.order))


def gen_indices(table) -> list[int]:
    """The rows of the generators, the products 1 * gens[s]."""
    return table.right[:, 0].tolist()


def mul(table, a: int, b: int) -> int:
    """a * b, which maps each point p to a(b(p))."""
    return int(table._find(table._images(a, table._images(b, table.base))))


def inv(table, a: int) -> int:
    return int(table._find(np.argsort(images(table, a))[table.base]))


def index_of(table, perm_images: Sequence[int]) -> int:
    """Index of the element with these images; KeyError if none."""
    row = np.asarray(perm_images)
    if row.shape == (table.degree,) and ((row >= 0) & (row < table.degree)).all():
        i = int(table._lookup(row[table.base]))
        if i >= 0 and (images(table, i) == row).all():
            return i
    raise KeyError(tuple(perm_images))


def perm(table, i: int) -> Permutation:
    """Element i as a ``Permutation``."""
    return Permutation(tuple(images(table, i).tolist()))


def _power_images(table, s: int) -> np.ndarray:
    """Base images of s, s^2, .., up to the power before the identity."""
    row = images(table, s).tolist()
    start = table.base.tolist()
    imgs = []
    at = [row[p] for p in start]
    while at != start:
        imgs.append(at)
        at = [row[p] for p in at]
    return np.array(imgs)


def _grow(table, have, frontier, steps) -> np.ndarray:
    """Mark the products frontier * step not yet in ``have`` and return
    them as the next frontier; ``steps`` holds the base images of the
    multipliers."""
    found = table._find(table._images(frontier[:, None], steps[None, :, :])).ravel()
    new = np.unique(found[~have[found]])
    have[new] = True
    return new


def _span(table, seed: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """The subgroup generated by ``seed``, as a mask over the rows, and
    the seed elements taken as its generators.

    Seed elements are added one at a time, skipping those already
    inside, so a huge seed (a class union, say) costs one membership
    test per element; at most log2 |G| of them become generators.
    """
    have = np.zeros(table.order, dtype=bool)
    have[0] = True
    gens: list[int] = []
    for s in sorted(set(seed)):
        if have[s]:
            continue
        # The members H so far are closed under the earlier generators.
        # The cosets H s, .., H s^(r-1), for s^r the first power inside
        # H, are new and distinct, so one step adds them all however
        # long the cycle of s is.
        steps = _power_images(table, s)
        if gens:
            inside = have[table._find(steps)]
            if inside.any():
                steps = steps[: inside.argmax()]
        gens.append(s)
        frontier = _grow(table, have, np.flatnonzero(have), steps)
        gen_base = table._images(np.array(gens), table.base)
        while len(frontier):
            frontier = _grow(table, have, frontier, gen_base)
    return have, gens


def closure(table, seed: Iterable[int]) -> list[int]:
    """Sorted indices of the subgroup generated by ``seed``."""
    return np.flatnonzero(_span(table, seed)[0]).tolist()


def generators(table, seed: Iterable[int]) -> list[int]:
    """Elements of ``seed`` that generate the same subgroup: in ascending
    order, each one outside the subgroup generated by those before it."""
    return _span(table, seed)[1]


def conjugation(table, g: int) -> np.ndarray:
    """The permutation x -> g^-1 * x * g of the element indices, by one
    sift of every element's conjugate."""
    row = images(table, g)
    return table._find(np.argsort(row)[rows(table)[:, row[table.base]]])


def mul_left(table, xs: Sequence[int], b: int) -> np.ndarray:
    """Indices of x * b for every x in ``xs``."""
    return table._find(table._images(np.asarray(xs), table._images(b, table.base)))


# ---------------------------------------------------------------------------
# conjugates, element orders, centralizers and cores in an enumerated group
# (a ``PermTable``)


def conj(table, a: int, g: int) -> int:
    """g^-1 * a * g"""
    return mul(table, mul(table, inv(table, g), a), g)


def order_of(table, a: int) -> int:
    n = 1
    x = a
    while x != 0:
        x = mul(table, x, a)
        n += 1
    return n


def centralizer(table, gen_idxs: Sequence[int]) -> list[int]:
    """Sorted indices commuting with every listed generator."""
    elements, base = rows(table), table.base
    ok = np.ones(table.order, dtype=bool)
    at_base = elements[:, base]
    for g in gen_idxs:
        # x*g and g*x agree on the base iff they are equal
        ok &= (elements[:, elements[g, base]] == elements[g][at_base]).all(axis=1)
    return np.flatnonzero(ok).tolist()


def core(table, members: Iterable[int], conjugators: Sequence[int]) -> list[int]:
    """Sorted indices of the largest conjugation-stable subset of ``members``."""
    keep = np.zeros(table.order, dtype=bool)
    keep[list(members)] = True
    maps = [conjugation(table, c) for c in conjugators]
    while True:
        nxt = keep.copy()
        for p in maps:
            nxt &= keep[p]
        if (nxt == keep).all():
            return np.flatnonzero(keep).tolist()
        keep = nxt


# ---------------------------------------------------------------------------
# subgroups and constructions


def center(g: GroupElements) -> frozenset[int]:
    """Elements commuting with every generator."""
    return frozenset(centralizer(g, gen_indices(g)))


def subgroup_closure(g: GroupElements, seed: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing ``seed``, as an index set."""
    return frozenset(closure(g, seed))


def subgroup_elements(g: GroupElements, members: Iterable[int], name: str) -> GroupElements:
    """Enumerate a subgroup as a standalone group on the same points, from
    the generators its closure picks."""
    members = frozenset(members)
    gens = generators(g, members) or [0]
    sub = enumerate_group(GroupSpec(g.degree, tuple(perm(g, i) for i in gens), name))
    if sub.order != len(members):
        raise InternalError(
            f"subgroup enumeration produced {sub.order} elements, expected {len(members)}"
        )
    return sub


def core_of(g: GroupElements, members: Iterable[int]) -> frozenset[int]:
    """Largest normal subgroup of the group contained in ``members``."""
    return frozenset(core(g, members, gen_indices(g)))


def coset_action(g: GroupElements, members: Iterable[int], name: str | None = None) -> GroupSpec:
    """Permutation action of the group on the right cosets of a subgroup.

    Cosets are numbered in BFS discovery order starting from the subgroup
    itself (point 0), so the result is deterministic.
    """
    h = sorted(set(members))
    if not h or any(not 0 <= x < g.order for x in h):
        raise StructureError("subgroup index set invalid")

    def coset_key(x: int) -> int:
        return int(mul_left(g, h, x).min())

    gen_idxs = gen_indices(g)
    key0 = h[0]
    keys = {key0: 0}
    reps = [0]
    images: list[list[int]] = [[] for _ in gen_idxs]
    qi = 0
    while qi < len(reps):
        r = reps[qi]
        qi += 1
        for gi, gen in enumerate(gen_idxs):
            y = mul(g, r, gen)
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
    return GroupSpec(degree, gens, name or f"{g.spec.name}_cosets{degree}")


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
        w = inv(gb, matching[z])
        pair = perm(ga, z).images + tuple(i + a.degree for i in perm(gb, w).images)
        diag.add(index_of(gp, pair))
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
        if any(mul(ga, z, t) != mul(ga, t, z) for t in gen_indices(ga)):
            raise StructureError("za is not central in the first factor")
    for z in zb:
        if any(mul(gb, z, t) != mul(gb, t, z) for t in gen_indices(gb)):
            raise StructureError("zb is not central in the second factor")
    for z1 in za:
        for z2 in za:
            if matching[mul(ga, z1, z2)] != mul(gb, matching[z1], matching[z2]):
                raise StructureError("matching is not an isomorphism of central subgroups")


# ---------------------------------------------------------------------------
# one-matrix and one-polynomial forms of the stacked GF(p) kernels


def rref(m, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, leftmost pivots first."""
    reduced, ranks, pivots = _rref_stack(_residues(m, p)[None], p)
    return reduced[0, : ranks[0]], np.flatnonzero(pivots[0]).tolist()


def nullspace(m, p: int) -> np.ndarray:
    """Basis of the right nullspace, one row per free column, ascending."""
    m = _residues(m, p)
    identity = np.eye(m.shape[1], dtype=m.dtype)[None]
    return _null_images(*_rref_stack(m[None], p), identity, p)


def distinct_roots(f: Sequence[int], p: int, rng: random.Random) -> list[int]:
    """The distinct roots of f (residue coefficients) in GF(p), ascending,
    by ``modp._roots_of_degree`` on f alone."""
    f = poly_trim(f)
    if not f:
        raise StructureError("root extraction needs a nonzero polynomial")
    return _roots_of_degree([tuple(f)], p, rng)[0] if len(f) > 1 else []


def roots(f: Sequence[int], ctx: FpContext | int, seed: int = 0) -> list[tuple[int, int]]:
    """All roots of f in GF(p) with multiplicities, sorted ascending: the
    distinct roots by ``distinct_roots``, each multiplicity by
    repeated division."""
    p = ctx.p if isinstance(ctx, FpContext) else ctx
    f = poly_trim([c % p for c in f])
    out = []
    for r in distinct_roots(f, p, random.Random(seed)):
        mult = 0
        rem: list[int] = []
        while not rem:
            quo, rem = poly_divmod(f, [(-r) % p, 1], p)
            if not rem:
                mult += 1
                f = quo
        out.append((r, mult))
    return out


def lines_of(vecs, p: int) -> list[tuple[np.ndarray, list[int]]]:
    """RREF rows (leading entry 1), as ``common_eigenbasis`` returns them,
    as (row, [pivot]) pairs of one-row residue arrays."""
    return [(_residues([v], p), [next(i for i, x in enumerate(v) if x)]) for v in vecs]


def is_eigenbasis(mats, lines: list, p: int) -> bool:
    """Whether the lines, (row, [pivot]) pairs in RREF, are eigenvectors of
    every matrix with pairwise distinct tuples of eigenvalues, listed in
    the order ``common_eigenbasis`` splits them off.

    Line v is an eigenvector of M when M v = v * lam with lam = (M v)[pivot],
    since v[pivot] = 1.  The residual d = M v - v * lam is tested for
    divisibility by p (``_all_divisible``), not reduced entry by entry: on
    float64, 0 <= M v <= k (p-1)^2 < 2^53 by the rule of ``_residues`` and
    0 <= v * lam <= (p-1)^2, so |d| < 2^53.  One matrix at a time, so one
    k x k product is held, beside the table of eigenvalues.

    Eigenvectors with pairwise distinct tuples of eigenvalues are linearly
    independent, so distinct tuples certify rank k without an ``rref``.
    They are tested without sorting: the split returns its lines in strictly
    increasing lexicographic order of their tuples, matrix 0 first, so at
    the first matrix where two adjacent lines differ, the later one must be
    larger.  That order holds whenever the eigen-equations do.  Take a space
    of the split with basis rows B, the identity at the columns P, and a
    line v in it that is an eigenvector of m with eigenvalue mu.  Then
    (m v)[P] = mu v[P] with v[P] != 0, so mu is an eigenvalue of the
    restricted matrix m[P] B^T: the one root there if the split kept the
    space whole, and the root lam of v's part if it split it.  By induction
    over the matrices, the spaces are thus in strictly increasing order of
    their eigenvalues so far: the parts of a split space follow each other
    in ascending order of their roots, and spaces that differed before
    still differ.  Tuples out of that order, equal ones included, come only
    from lines the split did not make, such as one line given twice.
    """
    rows = np.concatenate([line for line, _ in lines])
    cols = rows.T
    at_pivots = (np.array([pivots[0] for _, pivots in lines]), np.arange(len(rows)))
    eigenvalues = np.empty((len(mats), len(rows)), dtype=rows.dtype)
    for m, lam in zip(mats, eigenvalues):
        images = _residues(m, p) @ cols
        lam[:] = _mod(images[at_pivots], p)
        images -= cols * lam
        if not _all_divisible(images, p):
            return False
    if not len(eigenvalues):
        return len(rows) == 1
    # the first matrix where adjacent tuples differ, 0 where none does
    first = (eigenvalues[:, 1:] != eigenvalues[:, :-1]).argmax(axis=0)
    pairs = np.arange(len(rows) - 1)
    return bool((eigenvalues[first, pairs] < eigenvalues[first, pairs + 1]).all())
