"""Named group constructors, the verification corpus, and the .grp format.

Every group the verdict engine is exercised on is built here explicitly as a
permutation group: alternating/symmetric groups, PSL2(q) on the projective
line over small fields (with fixed irreducible polynomials, so generators are
bit-for-bit reproducible), SL2(5) on the nonzero vectors of GF(5)^2, the
quaternion group by its regular action, direct products, the central
product SL2(5) o C4 (as literal generators), and the affine group
GF(4)^2 . SL2(4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import ParseError, StructureError
from .modp import factor, poly_divmod, poly_mul
from .perm import GroupSpec, Permutation, direct_product


# ---------------------------------------------------------------------------
# small finite fields

_IRREDUCIBLE = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1)}  # low degree first


class SmallField:
    """GF(q) for prime q or q in {4, 8, 9}, with full add/mul tables."""

    def __init__(self, q: int):
        p = _char(q)
        self.q = q
        self.p = p
        k = 1
        while p**k < q:
            k += 1
        self.k = k
        if k == 1:
            self.add_table = [[(a + b) % p for b in range(q)] for a in range(q)]
            self.mul_table = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            mod = _IRREDUCIBLE.get(q)
            if mod is None:
                known = sorted(_IRREDUCIBLE)
                raise StructureError(f"no modulus for GF({q}), only for GF(q) with q in {known}")
            digits = [self._digits(a) for a in range(q)]
            self.add_table = [
                [self._encode([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
                for a in range(q)
            ]
            self.mul_table = [
                [self._encode(poly_divmod(poly_mul(x, y, p), mod, p)[1]) for y in digits]
                for x in digits
            ]
        self.inv_table = [0] * q
        for a in range(1, q):
            self.inv_table[a] = next(b for b in range(1, q) if self.mul_table[a][b] == 1)
        self.neg_table = [next(b for b in range(q) if self.add_table[a][b] == 0) for a in range(q)]

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits: Sequence[int]) -> int:
        acc = 0
        for d in reversed(digits):
            acc = acc * self.p + d
        return acc

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting 0 in a finite field")
        return self.inv_table[a]


def _char(q: int) -> int:
    primes = factor(q)
    if len(primes) != 1:
        raise StructureError(f"{q} is not a prime power")
    return primes[0]


@lru_cache(maxsize=None)
def _field(q: int) -> SmallField:
    return SmallField(q)


# ---------------------------------------------------------------------------
# constructors


def cyclic(n: int) -> GroupSpec:
    if n < 1:
        raise StructureError("cyclic group order must be positive")
    if n == 1:
        return GroupSpec(1, (Permutation.identity(1),), "C1")
    gen = Permutation.from_cycles(n, [tuple(range(n))])
    return GroupSpec(n, (gen,), f"C{n}")


def dihedral(order: int) -> GroupSpec:
    """Dihedral group of the given (even, >= 6) order, on order/2 points."""
    if order % 2 or order < 6:
        raise StructureError("dihedral order must be even and at least 6")
    n = order // 2
    rot = Permutation.from_cycles(n, [tuple(range(n))])
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return GroupSpec(n, (rot, ref), f"D{order}")


def symmetric(n: int) -> GroupSpec:
    if n < 2:
        return GroupSpec(1, (Permutation.identity(1),), "S1")
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return GroupSpec(n, tuple(gens), f"S{n}")


def alternating(n: int) -> GroupSpec:
    if n < 3:
        raise StructureError("alternating groups need at least 3 points")
    three = Permutation.from_cycles(n, [(0, 1, 2)])
    if n == 3:
        return GroupSpec(3, (three,), "A3")
    cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
    return GroupSpec(n, (three, Permutation.from_cycles(n, [cycle])), f"A{n}")


_QUAT_MUL = {  # unit * unit -> (sign flip, unit); units are 1, i, j, k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def quaternion8() -> GroupSpec:
    """Q8 by its left regular action; points are +-1, +-i, +-j, +-k."""

    def q_mul(a: int, b: int) -> int:
        sa, ua = divmod(a, 4)
        sb, ub = divmod(b, 4)
        flip, u = _QUAT_MUL[(ua, ub)]
        return ((sa ^ sb ^ flip) * 4) + u

    gens = tuple(
        Permutation(tuple(q_mul(g, x) for x in range(8))) for g in (1, 2)
    )
    return GroupSpec(8, gens, "Q8")


def _sl2_matrices(field: SmallField) -> list[tuple[int, int, int, int]]:
    """Standard generators: unipotents over a field basis plus the Weyl element.

    The basis elements 1, w, w^2, ... encode as the integers 1, p, p^2, ...
    """
    mats = [(1, field.p**i, 0, 1) for i in range(field.k)]  # [[1, w^i], [0, 1]]
    mats.append((0, 1, field.neg(1), 0))  # [[0, 1], [-1, 0]]
    return mats


def psl2(q: int) -> GroupSpec:
    """PSL2(q) acting on the projective line: field points 0..q-1, then oo."""
    if q not in (4, 5, 7, 8, 9, 17):
        raise StructureError(f"PSL2({q}) is not in the supported range")
    field = _field(q)
    infinity = q
    gens = []
    for a, b, c, d in _sl2_matrices(field):
        images = []
        for x in range(q):
            den = field.add(field.mul(c, x), d)
            if den == 0:
                images.append(infinity)
            else:
                num = field.add(field.mul(a, x), b)
                images.append(field.mul(num, field.inv(den)))
        images.append(field.mul(a, field.inv(c)) if c != 0 else infinity)
        gens.append(Permutation(tuple(images)))
    return GroupSpec(q + 1, tuple(dict.fromkeys(gens)), f"L2_{q}")


def sl2_5() -> GroupSpec:
    """SL2(5) acting on the 24 nonzero vectors of GF(5)^2."""

    def idx(x: int, y: int) -> int:
        return 5 * x + y - 1

    gens = []
    for a, b, c, d in ((1, 1, 0, 1), (0, 1, 4, 0)):
        images = [0] * 24
        for x in range(5):
            for y in range(5):
                if x == 0 and y == 0:
                    continue
                images[idx(x, y)] = idx((a * x + b * y) % 5, (c * x + d * y) % 5)
        gens.append(Permutation(tuple(images)))
    return GroupSpec(24, tuple(gens), "SL2_5")


def _affine_sl2(q: int, name: str) -> GroupSpec:
    """GF(q)^2 . SL2(q) acting on the q^2 module vectors."""
    field = _field(q)

    def idx(x: int, y: int) -> int:
        return q * x + y

    gens = []
    for a, b, c, d in _sl2_matrices(field):
        images = [0] * (q * q)
        for x in range(q):
            for y in range(q):
                nx = field.add(field.mul(a, x), field.mul(b, y))
                ny = field.add(field.mul(c, x), field.mul(d, y))
                images[idx(x, y)] = idx(nx, ny)
        gens.append(Permutation(tuple(images)))
    shift = [0] * (q * q)
    for x in range(q):
        for y in range(q):
            shift[idx(x, y)] = idx(field.add(x, 1), y)
    gens.append(Permutation(tuple(shift)))
    return GroupSpec(q * q, tuple(dict.fromkeys(gens)), name)


def affine_sl24() -> GroupSpec:
    """GF(4)^2 . SL2(4) = 2^4 . A5 on the 16 module vectors."""
    return _affine_sl2(4, "aff16_A5")


def affine_sl28() -> GroupSpec:
    """GF(8)^2 . SL2(8) = 2^6 . L2(8) on the 64 module vectors, order 32256."""
    return _affine_sl2(8, "aff64_L2_8")


# SL2(5) o C4 on 48 points, in the .grp format
_SL2_5_C4 = """\
degree 48
(2,4,7,12,18)(6,9,14,20,25)(8,10,15,22,27)(13,21,29,37,38)(16,17,24,32,36)(19,26,33,34,31)(23,30,39,45,46)(28,35,42,43,40)
(1,2,5,10)(3,6,11,17)(4,8,15,18)(7,13,22,31)(9,16,24,25)(12,19,27,21)(14,23,32,40)(20,28,36,30)(26,34,29,38)(33,41,37,44)(35,43,39,46)(42,47,45,48)
(1,3,5,11)(2,6,10,17)(4,9,15,24)(7,14,22,32)(8,16,18,25)(12,20,27,36)(13,23,31,40)(19,28,21,30)(26,35,29,39)(33,42,37,45)(34,43,38,46)(41,47,44,48)
"""


def central_sl2_5_c4() -> GroupSpec:
    """The central product SL2(5) o C4 of order 240.

    The three generators are written out.  They are what
    ``central_product(sl2_5(), cyclic(4), ...)`` in ``tests/oracle.py``
    gives when it identifies -1 in SL2(5) with the half turn of C4: the
    images of the generators of SL2(5) x C4 acting on the 48 cosets of the
    largest subgroup whose core is that diagonal of order 2.  The tests
    require both to agree.
    """
    return parse_grp(_SL2_5_C4, "SL2_5oC4")


# ---------------------------------------------------------------------------
# name resolution


_ALIASES = {
    "SL2x5circC4": "SL2_5oC4",
    "SL2_5oC4": "SL2_5oC4",
    "SmallGroup(240,93)": "SL2_5oC4",
    "aff_2_4_a5": "aff16_A5",
    "aff16_A5": "aff16_A5",
    "2^4:A5": "aff16_A5",
    "aff_2_6_l2_8": "aff64_L2_8",
    "aff64_L2_8": "aff64_L2_8",
    "2^6:L2_8": "aff64_L2_8",
}


def resolve(name: str) -> GroupSpec:
    """Resolve a catalog name (with aliases and NxM products) to a spec.
    A name on more than ``MAX_GRP_DEGREE`` points is refused before any
    generator is built."""
    name = name.strip()
    degree = sum(map(_family_degree, name.split("x")))
    if degree > MAX_GRP_DEGREE:
        raise StructureError(
            f"{name!r} acts on {degree} points, over the limit of {MAX_GRP_DEGREE}"
        )
    canon = _ALIASES.get(name)
    if canon == "SL2_5oC4":
        return central_sl2_5_c4()
    if canon == "aff16_A5":
        return affine_sl24()
    if canon == "aff64_L2_8":
        return affine_sl28()
    if name == "Q8":
        return quaternion8()
    m = _family(name)
    if m is not None:
        return m
    if "x" in name:
        parts = name.split("x")
        spec = resolve(parts[0])
        for part in parts[1:]:
            spec = direct_product(spec, resolve(part))
        return spec.renamed(name)
    raise StructureError(f"unknown group name {name!r}")


def _family_degree(name: str) -> int:
    """The degree of a C, D, S or A name, read off the name; 0 for any other
    name, each of which acts on at most 64 points."""
    name = name.strip()
    if len(name) >= 2 and name[0] in "CDSA" and name[1:].isdecimal():
        n = int(name[1:])
        return n // 2 if name[0] == "D" else n
    return 0


def _family(name: str) -> GroupSpec | None:
    for prefix in ("PSL2_", "L2_"):
        if name.startswith(prefix) and name[len(prefix):].isdecimal():
            return psl2(int(name[len(prefix):]))
    for wrapped in ("PSL2(", "L2("):
        if name.startswith(wrapped) and name.endswith(")"):
            inner = name[len(wrapped):-1]
            if inner.isdecimal():
                return psl2(int(inner))
    if name in ("SL2_5", "SL2(5)"):
        return sl2_5()
    if len(name) >= 2 and name[0] in "CDSA" and name[1:].isdecimal():
        n = int(name[1:])
        if name[0] == "C":
            return cyclic(n)
        if name[0] == "D":
            return dihedral(n)
        if name[0] == "S":
            return symmetric(n)
        return alternating(n)
    return None


# ---------------------------------------------------------------------------
# the corpus


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    expected_order: int
    expected_verdict: str | None = None
    expected_cd_rv: tuple[int, ...] | None = None


def default_corpus() -> list[CatalogEntry]:
    return [
        CatalogEntry("A5", 60, "CaseI", (1, 3, 4, 5)),
        CatalogEntry("L2_8", 504, "CaseI", (1, 7, 8, 9)),
        CatalogEntry("SL2_5", 120, "HypothesisFails"),
        CatalogEntry("SL2_5oC4", 240, "CaseII"),
        CatalogEntry("A5xC3", 180, "CaseI"),
        CatalogEntry("A5xC4", 240, "CaseI"),
        CatalogEntry("A5xQ8", 480, "HypothesisFails"),
        CatalogEntry("aff16_A5", 960, "HypothesisFails"),
        CatalogEntry("S5", 120, "HypothesisFails"),
        CatalogEntry("A6", 360, "HypothesisFails"),
        CatalogEntry("L2_7", 168, "HypothesisFails"),
        CatalogEntry("L2_17", 2448, "HypothesisFails"),
        CatalogEntry("Q8xC3", 24, "SolvableSkip"),
        CatalogEntry("S3", 6, "SolvableSkip"),
        CatalogEntry("Q8", 8, "SolvableSkip"),
        CatalogEntry("C4", 4, "SolvableSkip"),
        CatalogEntry("D8", 8, "SolvableSkip"),
    ]


def parse_manifest(text: str) -> list[str]:
    names = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.append(line)
    return names


# ---------------------------------------------------------------------------
# the .grp text format


# largest degree a .grp file may declare or a catalog name may have: each
# generator allocates degree images before a single cycle is read, and the
# enumeration's transversal grows as the square of the degree
MAX_GRP_DEGREE = 10_000


def parse_grp(text: str, name: str = "user") -> GroupSpec:
    """Parse the group text format.

    Line 1: ``degree N`` with 1 <= N <= ``MAX_GRP_DEGREE``.  Every following
    non-blank, non-comment line is one generator in disjoint-cycle notation
    over 1-based points, e.g. ``(1,2)(3,4,5)``; the identity is written ``()``.
    """
    degree = None
    gens: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdecimal():
                raise ParseError(f"expected 'degree N', got {line!r}", lineno)
            degree = int(parts[1])
            if degree < 1:
                raise ParseError("degree must be at least 1", lineno)
            if degree > MAX_GRP_DEGREE:
                raise ParseError(f"degree {degree} exceeds {MAX_GRP_DEGREE}", lineno)
            continue
        gens.append(_parse_cycles(line, degree, lineno))
    if degree is None:
        raise ParseError("missing 'degree N' header", 1)
    if not gens:
        raise ParseError("no generators given", 1)
    return GroupSpec(degree, tuple(gens), name)


def _parse_cycles(line: str, degree: int, lineno: int) -> Permutation:
    images = list(range(degree))
    seen: set[int] = set()
    pos = 0
    found = False
    while pos < len(line):
        ch = line[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError(f"expected '(' in cycle notation, got {ch!r}", lineno)
        end = line.find(")", pos)
        if end < 0:
            raise ParseError("unclosed cycle", lineno)
        body = line[pos + 1 : end].strip()
        pos = end + 1
        found = True
        if not body:
            continue
        try:
            points = [int(tok) for tok in body.split(",")]
        except ValueError:
            raise ParseError(f"malformed cycle ({body})", lineno) from None
        cyc = []
        for pt in points:
            if not 1 <= pt <= degree:
                raise ParseError(f"point {pt} out of range 1..{degree}", lineno)
            if pt - 1 in seen:
                raise ParseError(f"point {pt} appears twice", lineno)
            seen.add(pt - 1)
            cyc.append(pt - 1)
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
    if not found:
        raise ParseError("generator line has no cycles", lineno)
    return Permutation(tuple(images))
