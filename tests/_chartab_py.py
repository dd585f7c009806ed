"""Per-entry reference for the table arithmetic in ``realchar.chartab``.

Each quantity the library reads off a table with one or two products of its
residue array is computed here one value at a time, by the defining sum:
real flags by comparing each value with its value at the inverse class,
Frobenius-Schur indicators by summing |C| chi(rep^2), kernels by summing
chi over the powers of each class rep, exact values by the inverse discrete
Fourier transform of chi on those powers, and both orthogonality relations
by their sums over classes and over rows, each failing pair listed.
``test_chartab.py`` requires the library to give the same outputs, errors
included.  ``is_rational`` reads a lifted value's rationality: its
multiplicities are constant along the orbits of (Z/n)*.
"""

from __future__ import annotations

import math

from realchar.chartab import CycloValue, ExactTable, ModPTable
from realchar.errors import InternalError
from realchar.perm import ClassData


def real_flags(t: ModPTable, cd: ClassData) -> tuple[bool, ...]:
    return tuple(all(row[c] == row[cd.inv_map[c]] for c in range(cd.k)) for row in t.values)


def fs_indicator(t: ModPTable, cd: ClassData, row: int) -> int:
    """|G|^-1 sum over classes of |C| chi(rep^2)."""
    p = t.ctx.p
    acc = 0
    for c, pows in enumerate(cd.rep_power_classes):
        acc = (acc + cd.sizes[c] * t.values[row][pows[2 % len(pows)]]) % p
    nu = acc * t.ctx.inv(t.group_order % p) % p
    if nu == 1 % p:
        return 1
    if nu == 0:
        return 0
    if nu == p - 1:
        return -1
    raise InternalError(f"indicator value {nu} mod {p} is not in {{0, 1, -1}}")


def kernel_of(t: ModPTable, cd: ClassData, row: int) -> frozenset[int]:
    """Classes c with sum over the n powers of rep_c of chi = n * degree mod p."""
    p = t.ctx.p
    vals = t.values[row]
    d = t.degrees[row]
    return frozenset(
        c
        for c, pows in enumerate(cd.rep_power_classes)
        if sum(vals[x] for x in pows) % p == len(pows) * d % p
    )


def lift_value(t: ModPTable, cd: ClassData, row: int, c: int) -> CycloValue:
    """mult[j] = (1/n) sum_s chi(rep^s) zeta_n^(-js), checked to be a
    multiplicity vector of the degree."""
    p = t.ctx.p
    pows = cd.rep_power_classes[c]
    n = len(pows)
    d = t.degrees[row]
    z = pow(t.ctx.root_e, t.ctx.exponent // n, p)
    z_inv = t.ctx.inv(z)
    n_inv = t.ctx.inv(n % p)
    chi_pow = [t.values[row][pows[s]] for s in range(n)]
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
    if sum(mult) != d:
        raise InternalError("multiplicities do not sum to the degree")
    return CycloValue(n, tuple(mult))


def is_rational(v: CycloValue) -> bool:
    """Fixed by the full Galois group: mult constant on (Z/n)*-orbits."""
    n = v.n
    for a in range(2, n):
        if math.gcd(a, n) != 1:
            continue
        if any(v.mult[j] != v.mult[a * j % n] for j in range(n)):
            return False
    return True


def exact_table(t: ModPTable, cd: ClassData) -> ExactTable:
    rows = tuple(tuple(lift_value(t, cd, r, c) for c in range(cd.k)) for r in range(t.k))
    return ExactTable(values=rows)


def orthogonality_failures(t: ModPTable, cd: ClassData) -> tuple[str, ...]:
    """The first (row) and column orthogonality relations mod p, pair by pair."""
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
    return tuple(failures)
