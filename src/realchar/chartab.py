"""Character tables mod p via class-matrix eigenvectors, with exact lifting.

``compute_table`` produces the full table of irreducible characters reduced
modulo a prime p > |G| with p = 1 mod exp(G).  Past the eigenbasis a table is
one (k, k) residue array (``ModPTable.residues``, in the arithmetic of
``modp._residues``), and each quantity read off it takes one or two exact
products mod p: real flags, Frobenius-Schur indicators, kernels, both
orthogonality relations, and the exact values as root-of-unity multiplicities
(an inverse discrete Fourier transform over the power map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial

import numpy as np

from ._kernels import ClassMatrices
from .errors import InternalError, StructureError
from .modp import (
    FpContext,
    _all_divisible,
    _ints,
    _residues,
    common_eigenbasis,
    select_prime,
    validated_context,
)
from .perm import ClassData, GroupElements, conjugacy_classes


def _residue_array(rows, p: int) -> np.ndarray:
    """Rows of residues in [0, p) as one array in the arithmetic of
    ``_residues``; int64 holds every residue when p <= 2^63."""
    return _residues(np.array(rows, dtype=np.int64 if p <= 2**63 else object), p)


@dataclass(frozen=True)
class ModPTable:
    """Character table with values reduced mod ctx.p, rows sorted canonically."""

    ctx: FpContext
    group_order: int
    values: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    real_flags: tuple[bool, ...]
    indicators: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.values)

    @cached_property
    def residues(self) -> np.ndarray:
        """``values`` as one read-only (k, k) residue array, derived once."""
        x = _residue_array(self.values, self.ctx.p)
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class CycloValue:
    """An exact character value: sum over j of mult[j] * zeta_n^j."""

    n: int
    mult: tuple[int, ...]

    def __post_init__(self):
        if len(self.mult) != self.n or min(self.mult, default=0) < 0:
            raise InternalError(f"invalid multiplicity vector {self.mult} for order {self.n}")


@dataclass(frozen=True)
class ExactTable:
    """Exact lifts for every table cell."""

    values: tuple[tuple[CycloValue, ...], ...]


def all_class_matrices(cd: ClassData, g: GroupElements) -> ClassMatrices:
    """The k class matrices, a read-only sequence that builds each (k, k)
    float64 matrix when it is read: entry (j, t) of matrix i is the number
    of x in class i with x^-1 * rep_t in class j."""
    return g.class_matrices(cd)


def compute_table(
    g: GroupElements,
    cd: ClassData | None = None,
    seed: int = 0,
    prime_override: int | None = None,
) -> ModPTable:
    """Full character table mod p; deterministic for a fixed seed.

    The common eigenvectors of the class matrices are the central character
    vectors omega(c) = |C_c| chi(g_c) / chi(1), once scaled to 1 at the
    identity class.  Those lines are certified exact before anything is
    read off them (``_certify``); degrees are lifted exactly from d^2
    (valid since p > |G|), then rows are sorted by (degree, values).
    """
    cd = cd if cd is not None else conjugacy_classes(g)
    cache_key = (seed, prime_override)
    cached = g.table_cache.get(cache_key)
    if cached is not None:
        return cached
    order = g.order
    if prime_override is None:
        ctx = select_prime(order, cd.exponent)
    else:
        ctx = validated_context(prime_override, order, cd.exponent)
    p = ctx.p
    mats = all_class_matrices(cd, g)
    try:
        vectors = _residue_array(common_eigenbasis(mats, p, seed), p)
    except StructureError as exc:
        # the class matrices come from the group itself, so this is a bug
        raise InternalError(f"class matrices: {exc}") from exc
    if not vectors[:, 0].all():
        raise InternalError("eigenvector vanishes on the identity class")
    scale = np.array([ctx.inv(v) for v in _ints(vectors[:, 0])], dtype=vectors.dtype)
    omega = vectors * scale[:, None] % p
    _certify(mats, omega, p)
    # omega(c) / |C_c| = chi(g_c) / chi(1)
    ratio = omega * np.array([ctx.inv(s % p) for s in cd.sizes], dtype=omega.dtype) % p
    degrees = []
    for dot in _ints((ratio * omega[:, list(cd.inv_map)]).sum(axis=1) % p):
        d2 = order * ctx.inv(dot) % p
        if not 1 <= d2 <= order:
            raise InternalError(f"degree-square lift {d2} out of range")
        d = math.isqrt(d2)
        if d * d != d2:
            raise InternalError(f"degree-square lift {d2} is not a perfect square")
        degrees.append(d)
    values = ratio * np.array(degrees, dtype=ratio.dtype)[:, None] % p
    rows = sorted(zip(degrees, map(tuple, _ints(values))))
    degrees = tuple(d for d, _ in rows)
    if sum(d * d for d in degrees) != order:
        raise InternalError("degree squares do not sum to the group order")
    t = ModPTable(ctx, order, tuple(v for _, v in rows), degrees, real_flags=(), indicators=())
    t = replace(t, real_flags=row_real_flags(t, cd), indicators=row_indicators(t, cd))
    g.table_cache[cache_key] = t
    return t


def _certify(mats: ClassMatrices, omega: np.ndarray, p: int) -> None:
    """Raise InternalError unless the k rows of ``omega``, each 1 at the
    identity class, are linearly independent common eigenvectors of the k
    class matrices.

    Row 0 of class matrix M_m is e_m (x^-1 rep_t is 1 only for x = rep_t),
    so a common eigenvector w with w[0] = 1 has eigenvalue w[m] on M_m, and
    the rows of ``omega`` are their own tuples of eigenvalues.  Common
    eigenvectors with pairwise distinct tuples are linearly independent, so
    k distinct rows certify rank k, in any order and from any split.  Each
    residual M_m omega^T - omega^T diag(omega[:, m]) is tested for
    divisibility by p (``_all_divisible``), not reduced entry by entry: on
    float64, 0 <= M_m omega^T <= k (p-1)^2 < 2^53 by the rule of
    ``_residues``, and 0 <= omega^T diag(omega[:, m]) <= (p-1)^2.  The
    matrices are read once each, in order, one k x k product at a time.
    """
    if len(set(map(tuple, _ints(omega)))) != len(omega):
        raise InternalError("class matrices: two lines share their eigenvalues")
    cols = omega.T
    for m, lam in zip(mats, cols):
        residual = _residues(m, p) @ cols
        residual -= cols * lam
        if not _all_divisible(residual, p):
            raise InternalError("class matrices: a line is not a common eigenvector")


def row_real_flags(t: ModPTable, cd: ClassData) -> tuple[bool, ...]:
    """Rows equal to their complex conjugate, chi(g^-1) = chi(g) on every class."""
    x = t.residues
    return tuple((x == x[:, list(cd.inv_map)]).all(axis=1).tolist())


def row_indicators(t: ModPTable, cd: ClassData) -> tuple[int, ...]:
    """Frobenius-Schur indicators: |G|^-1 sum over classes of |C| chi(rep^2),
    one product with the class sizes for all rows."""
    p = t.ctx.p
    x = t.residues
    square = [pows[2 % len(pows)] for pows in cd.rep_power_classes]
    sizes = np.array([s % p for s in cd.sizes], dtype=x.dtype)
    nus = _ints(x[:, square] @ sizes % p * t.ctx.inv(t.group_order % p) % p)
    lifts = {p - 1: -1, 0: 0, 1: 1}
    for nu in nus:
        if nu not in lifts:
            raise InternalError(f"indicator value {nu} mod {p} is not in {{0, 1, -1}}")
    return tuple(lifts[nu] for nu in nus)


def row_kernels(t: ModPTable, cd: ClassData) -> tuple[int, ...]:
    """The kernel of each row, as a bitmask of the classes where the exact
    value equals the degree.

    Over the n powers of a class rep, sum_s chi(rep^s) = n * m with m the
    multiplicity of the eigenvalue 1, and m = degree exactly on the kernel;
    n is a unit mod p and 0 <= m <= degree < p, so comparing mod p is exact.
    The sums for all rows are one product of the values with the class-power
    incidence, whose entry (c, x) counts the s < n_c with rep_c^s in class x.
    """
    p = t.ctx.p
    x = t.residues
    k = t.k
    orders = [len(pows) for pows in cd.rep_power_classes]
    cells = np.repeat(np.arange(k), orders) * k + np.concatenate(cd.rep_power_classes)
    incidence = np.bincount(cells, minlength=k * k).reshape(k, k).astype(x.dtype)
    want = np.outer(np.array(t.degrees, dtype=x.dtype), np.array(orders, dtype=x.dtype)) % p
    in_kernel = np.packbits(x @ incidence.T % p == want, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in in_kernel)


def exact_table(t: ModPTable, cd: ClassData) -> ExactTable:
    """Exact values as multiplicities of n-th roots of unity.

    At a class whose rep has order n, mult[j] = (1/n) sum_s chi(rep^s)
    zeta_n^(-js): for each n, the values at the powers of those reps times
    one n x n inverse DFT matrix mod p.  Each entry is a genuine eigenvalue
    multiplicity in [0, degree], which lifts uniquely because p > |G| >
    degree.
    """
    p = t.ctx.p
    x = t.residues
    k = t.k
    degrees = np.array(t.degrees)
    by_order: dict[int, list[int]] = {}
    for c, pows in enumerate(cd.rep_power_classes):
        by_order.setdefault(len(pows), []).append(c)
    cells: list[list] = [[None] * k for _ in range(k)]
    fault = np.zeros((k, k), dtype=np.int8)  # 2: a multiplicity above the degree, 1: a bad sum
    for n, classes in by_order.items():
        root = t.ctx.inv(pow(t.ctx.root_e, t.ctx.exponent // n, p))  # zeta_n^-1
        steps = np.arange(n)
        scaled = np.array([pow(root, i, p) * t.ctx.inv(n) % p for i in range(n)], dtype=object)
        dft = _residue_array(scaled[np.outer(steps, steps) % n], p)
        powers = x[:, [cd.rep_power_classes[c] for c in classes]]
        if powers.dtype != dft.dtype:
            powers = _residue_array(_ints(powers), p)
        mult = (powers @ dft % p).astype(np.int64 if dft.dtype == np.float64 else object)
        fault[:, classes] = np.where(
            (mult > degrees[:, None, None]).any(axis=2), 2, mult.sum(axis=2) != degrees[:, None]
        )
        # equal cells share one value
        lift = cache(partial(CycloValue, n))
        for r, row in enumerate(mult.tolist()):
            for c, m in zip(classes, row):
                cells[r][c] = lift(tuple(m))
    if fault.any():
        r, c = np.argwhere(fault)[0].tolist()
        d = t.degrees[r]
        if fault[r, c] == 2:
            m = next(m for m in cells[r][c].mult if m > d)
            raise InternalError(f"lifted multiplicity {m} exceeds degree {d}")
        raise InternalError("multiplicities do not sum to the degree")
    return ExactTable(tuple(map(tuple, cells)))


@dataclass(frozen=True)
class RealDegreeData:
    """The degrees of the real-valued rows, as a set, and its odd part."""

    degrees: tuple[int, ...]
    odd: tuple[int, ...]


def real_degree_set(t: ModPTable) -> RealDegreeData:
    degs = tuple(sorted({d for d, r in zip(t.degrees, t.real_flags) if r}))
    return RealDegreeData(degrees=degs, odd=tuple(d for d in degs if d % 2 == 1))


def verify_orthogonality(t: ModPTable, cd: ClassData) -> bool:
    """Whether both orthogonality relations hold mod p.

    Row orthogonality is X diag(|C|) X[:, inv]^T and column orthogonality
    X^T X[:, inv], each one product of the residue array X, compared with
    the wanted values on the pairs r <= s.
    """
    p = t.ctx.p
    x = t.residues
    conj = x[:, list(cd.inv_map)]
    sizes = np.array([s % p for s in cd.sizes], dtype=x.dtype)
    rows = (x * sizes % p) @ conj.T % p
    columns = x.T @ conj % p
    row_want = np.diag([t.group_order % p] * t.k)
    col_want = np.diag([t.group_order // s % p for s in cd.sizes])
    return not (np.triu(rows != row_want).any() or np.triu(columns != col_want).any())


# ---------------------------------------------------------------------------
# table dump format


def dump_table(t: ModPTable, cd: ClassData, exact: ExactTable | None = None) -> str:
    """Stable text form: header, one line per row, optional exact lifts."""
    lines = [f"p={t.ctx.p}, e={t.ctx.exponent}, k={t.k}, |G|={t.group_order}"]
    for row in range(t.k):
        vals = ",".join(map(str, t.values[row]))
        lines.append(
            f"{t.degrees[row]} {t.indicators[row]} {int(t.real_flags[row])} {vals}"
        )
    if exact is not None:
        for row in range(t.k):
            cells = ";".join(",".join(map(str, v.mult)) for v in exact.values[row])
            lines.append(f"exact {row} {cells}")
    return "\n".join(lines) + "\n"


def parse_dump(text: str) -> ModPTable:
    """Rebuild a ModPTable from ``dump_table`` output; malformed text raises
    StructureError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("p="):
        raise StructureError("table dump is missing its header")
    try:
        header = dict(part.strip().split("=") for part in lines[0].split(","))
        p, e, k, order = (int(header[key]) for key in ("p", "e", "k", "|G|"))
        rows = [ln.split() for ln in lines[1 : 1 + k]]
        degrees, indicators, flags = (tuple(int(parts[i]) for parts in rows) for i in range(3))
        values = tuple(tuple(int(v) for v in parts[3].split(",")) for parts in rows)
    except (KeyError, ValueError, IndexError) as exc:
        raise StructureError(f"malformed table dump: {exc}") from None
    if e < 1:
        raise StructureError("table dump header needs a positive exponent")
    ctx = validated_context(p, order, e)
    if len(rows) != k or any(len(parts) != 4 for parts in rows):
        raise StructureError(f"table dump needs {k} rows of four fields")
    if any(len(row) != k or not all(0 <= v < p for v in row) for row in values):
        raise StructureError(f"table rows need {k} values in [0, {p})")
    return ModPTable(
        ctx=ctx,
        group_order=order,
        values=values,
        degrees=degrees,
        real_flags=tuple(map(bool, flags)),
        indicators=indicators,
    )
