"""Character tables mod p via class-matrix eigenvectors, with exact lifting.

``compute_table`` produces the full table of irreducible characters reduced
modulo a prime p > |G| with p = 1 mod exp(G): exact degrees, realness flags
and Frobenius-Schur indicators come straight out of the modular data, and
``lift_value`` recovers exact character values as root-of-unity multiplicity
vectors by a discrete Fourier transform over the power map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cyclo
from .errors import InternalError, StructureError
from .modp import FpContext, common_eigenbasis, select_prime, validated_context
from .perm import ClassData, GroupElements, conjugacy_classes


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


@dataclass(frozen=True)
class CycloValue:
    """An exact character value: sum over j of mult[j] * zeta_n^j."""

    n: int
    mult: tuple[int, ...]

    def __post_init__(self):
        if len(self.mult) != self.n or any(m < 0 for m in self.mult):
            raise InternalError(f"invalid multiplicity vector {self.mult} for order {self.n}")

    @property
    def degree_sum(self) -> int:
        return sum(self.mult)

    def conjugate(self) -> CycloValue:
        return CycloValue(self.n, tuple(self.mult[(-j) % self.n] for j in range(self.n)))

    def is_real(self) -> bool:
        return all(self.mult[j] == self.mult[(-j) % self.n] for j in range(self.n))

    def is_rational(self) -> bool:
        """Fixed by the full Galois group: mult constant on (Z/n)*-orbits."""
        n = self.n
        for a in range(2, n):
            if math.gcd(a, n) != 1:
                continue
            if any(self.mult[j] != self.mult[a * j % n] for j in range(n)):
                return False
        return True

    def reduce_mod_p(self, ctx: FpContext) -> int:
        z = pow(ctx.root_e, ctx.exponent // self.n, ctx.p)
        acc = 0
        zj = 1
        for m in self.mult:
            acc = (acc + m * zj) % ctx.p
            zj = zj * z % ctx.p
        return acc


@dataclass(frozen=True)
class ExactTable:
    """Exact lifts for every table cell plus per-row rationality flags."""

    values: tuple[tuple[CycloValue, ...], ...]
    rational_flags: tuple[bool, ...]


def all_class_matrices(cd: ClassData, g: GroupElements) -> np.ndarray:
    """The ``(k, k, k)`` float64 stack of class matrices, ``[i, j, t]`` the
    number of x in class i with x^-1 * rep_t in class j."""
    return g.class_matrices(cd.class_of, cd.reps, cd.inv_map)


def compute_table(
    g: GroupElements,
    cd: ClassData | None = None,
    seed: int = 0,
    prime_override: int | None = None,
) -> ModPTable:
    """Full character table mod p; deterministic for a fixed seed.

    The common eigenvectors of the class matrices are the central character
    vectors omega(c) = |C_c| chi(g_c) / chi(1); degrees are lifted exactly
    from d^2 (valid since p > |G|), then rows are sorted by (degree, values).
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
        vectors = common_eigenbasis(mats, ctx, seed)
    except StructureError as exc:
        # the class matrices come from the group itself, so this is a bug
        raise InternalError(f"class matrices: {exc}") from exc
    order_inv = ctx.inv(order % p)
    size_inv = [ctx.inv(s % p) for s in cd.sizes]
    rows = []
    for vec in vectors:
        if vec[0] == 0:
            raise InternalError("eigenvector vanishes on the identity class")
        scale = ctx.inv(vec[0])
        omega = [x * scale % p for x in vec]
        dot = sum(omega[c] * omega[cd.inv_map[c]] * size_inv[c] for c in range(cd.k)) % p
        d2 = order * ctx.inv(dot) % p
        if not 1 <= d2 <= order:
            raise InternalError(f"degree-square lift {d2} out of range")
        d = math.isqrt(d2)
        if d * d != d2:
            raise InternalError(f"degree-square lift {d2} is not a perfect square")
        values = tuple(d * omega[c] * size_inv[c] % p for c in range(cd.k))
        rows.append((d, values))
    rows.sort()
    degrees = tuple(d for d, _ in rows)
    if sum(d * d for d in degrees) != order:
        raise InternalError("degree squares do not sum to the group order")
    values = tuple(v for _, v in rows)
    real_flags = tuple(
        all(row[c] == row[cd.inv_map[c]] for c in range(cd.k)) for row in values
    )
    t = ModPTable(
        ctx=ctx,
        group_order=order,
        values=values,
        degrees=degrees,
        real_flags=real_flags,
        indicators=(),
    )
    t = replace(t, indicators=tuple(fs_indicator(t, cd, row) for row in range(t.k)))
    g.table_cache[cache_key] = t
    return t


def fs_indicator(t: ModPTable, cd: ClassData, row: int) -> int:
    """Frobenius-Schur indicator: |G|^-1 sum over classes of |C| chi(rep^2)."""
    p = t.ctx.p
    acc = 0
    for c in range(cd.k):
        acc = (acc + cd.sizes[c] * t.values[row][cd.power_class(c, 2)]) % p
    nu = acc * t.ctx.inv(t.group_order % p) % p
    if nu == 1 % p:
        return 1
    if nu == 0:
        return 0
    if nu == p - 1:
        return -1
    raise InternalError(f"indicator value {nu} mod {p} is not in {{0, 1, -1}}")


def lift_value(t: ModPTable, cd: ClassData, row: int, c: int) -> CycloValue:
    """Exact value at class c as multiplicities of n-th roots of unity.

    mult[j] is the inverse DFT of chi on the powers of the class rep; each
    entry is a genuine eigenvalue multiplicity in [0, degree], which lifts
    uniquely because p > |G| > degree.
    """
    p = t.ctx.p
    n = cd.rep_order(c)
    d = t.degrees[row]
    z = pow(t.ctx.root_e, t.ctx.exponent // n, p)
    z_inv = t.ctx.inv(z)
    n_inv = t.ctx.inv(n % p)
    chi_pow = [t.values[row][cd.power_class(c, s)] for s in range(n)]
    mult = []
    for j in range(n):
        w = pow(z_inv, j, p)
        acc = 0
        ws = 1
        for s in range(n):
            acc = (acc + chi_pow[s] * ws) % p
            ws = ws * w % p
        m = acc * n_inv % p
        if m > d:
            raise InternalError(f"lifted multiplicity {m} exceeds degree {d}")
        mult.append(m)
    value = CycloValue(n, tuple(mult))
    if value.degree_sum != d:
        raise InternalError("multiplicities do not sum to the degree")
    return value


def exact_row(t: ModPTable, cd: ClassData, row: int) -> tuple[CycloValue, ...]:
    return tuple(lift_value(t, cd, row, c) for c in range(cd.k))


def exact_table(t: ModPTable, cd: ClassData) -> ExactTable:
    rows = tuple(exact_row(t, cd, row) for row in range(t.k))
    rational = tuple(all(v.is_rational() for v in row) for row in rows)
    return ExactTable(values=rows, rational_flags=rational)


def kernel_of(t: ModPTable, cd: ClassData, row: int) -> frozenset[int]:
    """Classes where the exact value equals the degree.

    Over the n powers of a class rep, sum_s chi(rep^s) = n * m with m the
    multiplicity of the eigenvalue 1, and m = degree exactly on the kernel;
    n is a unit mod p and 0 <= m <= degree < p, so comparing mod p is exact.
    """
    p = t.ctx.p
    vals = t.values[row]
    d = t.degrees[row]
    return frozenset(
        c
        for c, pows in enumerate(cd.rep_power_classes)
        if sum(vals[x] for x in pows) % p == len(pows) * d % p
    )


@dataclass(frozen=True)
class RealDegreeData:
    """Degrees of the real-valued rows: multiset, set, and odd part."""

    multiset: tuple[int, ...]
    degrees: tuple[int, ...]
    odd: tuple[int, ...]


def real_degree_set(t: ModPTable) -> RealDegreeData:
    mult = tuple(sorted(d for d, r in zip(t.degrees, t.real_flags) if r))
    degs = tuple(sorted(set(mult)))
    return RealDegreeData(
        multiset=mult, degrees=degs, odd=tuple(d for d in degs if d % 2 == 1)
    )


@dataclass(frozen=True)
class OrthogonalityReport:
    ok: bool
    failures: tuple[str, ...]


def verify_orthogonality(
    t: ModPTable, cd: ClassData, exact: ExactTable | None = None
) -> OrthogonalityReport:
    """First and column orthogonality mod p; the same exactly when lifts given."""
    p = t.ctx.p
    k = t.k
    order = t.group_order
    failures = []
    for r in range(k):
        for s in range(r, k):
            acc = sum(
                cd.sizes[c] * t.values[r][c] * t.values[s][cd.inv_map[c]] for c in range(k)
            ) % p
            want = order % p if r == s else 0
            if acc != want:
                failures.append(f"row orthogonality failed for rows {r},{s}")
    for c in range(k):
        for c2 in range(c, k):
            acc = sum(t.values[r][c] * t.values[r][cd.inv_map[c2]] for r in range(k)) % p
            want = order // cd.sizes[c] % p if c == c2 else 0
            if acc != want:
                failures.append(f"column orthogonality failed for classes {c},{c2}")
    if exact is not None:
        failures.extend(_exact_orthogonality_failures(t, cd, exact))
    return OrthogonalityReport(ok=not failures, failures=tuple(failures))


def _exact_orthogonality_failures(
    t: ModPTable, cd: ClassData, exact: ExactTable
) -> list[str]:
    e = cd.exponent
    k = t.k
    embedded = [
        [cyclo.embed(v.n, v.mult, e) for v in row] for row in exact.values
    ]
    failures = []
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
    return failures


# ---------------------------------------------------------------------------
# table dump format


def dump_table(t: ModPTable, cd: ClassData, exact: ExactTable | None = None) -> str:
    """Stable text form: header, one line per row, optional exact lifts."""
    lines = [f"p={t.ctx.p}, e={t.ctx.exponent}, k={t.k}, |G|={t.group_order}"]
    for row in range(t.k):
        vals = ",".join(str(v) for v in t.values[row])
        lines.append(
            f"{t.degrees[row]} {t.indicators[row]} {int(t.real_flags[row])} {vals}"
        )
    if exact is not None:
        for row in range(t.k):
            cells = ";".join(",".join(str(m) for m in v.mult) for v in exact.values[row])
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
