"""List-based reference for the GF(p) linear algebra in ``realchar.modp``.

Matrices are lists of int rows.  A product goes through numpy int64 when
its entries provably fit and through Python ints otherwise; everything else
works one row and one entry at a time.  Roots come from gcd(f, x^p - x) and
equal-degree splitting, or from evaluation at every point when p <= 64.
``test_modp.py`` requires the numpy code to give the same outputs.  The
polynomial arithmetic helpers are shared with ``realchar.modp``.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from realchar.errors import InternalError, StructureError
from realchar.modp import (
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_pow_mod,
    poly_scale,
    poly_sub,
    poly_trim,
)


def identity_matrix(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _np_safe(k: int, p: int) -> bool:
    # row-times-column sums of k products of residues must fit in int64
    return k * (p - 1) * (p - 1) < 2**62


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    k = len(b)
    if _np_safe(k, p):
        out = (np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)) % p
        return out.tolist()
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def mat_vec(m: Sequence[Sequence[int]], v: Sequence[int], p: int) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) % p for row in m]


def mats_commute(mats: Sequence[Sequence[Sequence[int]]], p: int) -> tuple[int, int] | None:
    """None if all pairs commute, else the first offending pair of indices."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mat_mul(mats[i], mats[j], p) != mat_mul(mats[j], mats[i], p):
                return (i, j)
    return None


def rref(m: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and pivot columns, leftmost pivots first."""
    rows = [[x % p for x in row] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def nullspace(m: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace, one vector per free column, ascending."""
    if not m:
        return []
    reduced, pivots = rref(m, p)
    ncols = len(m[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = (-reduced[r][free]) % p
        basis.append(v)
    return basis


def char_poly(m: Sequence[Sequence[int]], p: int) -> list[int]:
    """Characteristic polynomial det(xI - M), monic, low degree first.

    Hessenberg reduction by similarity transforms, then the standard
    leading-minor recurrence.
    """
    n = len(m)
    h = [[x % p for x in row] for row in m]
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if h[r][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            h[piv], h[col + 1] = h[col + 1], h[piv]
            for row in h:
                row[piv], row[col + 1] = row[col + 1], row[piv]
        inv = pow(h[col + 1][col], p - 2, p)
        for r in range(col + 2, n):
            f = h[r][col] * inv % p
            if f:
                hc = h[col + 1]
                h[r] = [(x - f * y) % p for x, y in zip(h[r], hc)]
                for row in h:
                    row[col + 1] = (row[col + 1] + f * row[r]) % p
    polys: list[list[int]] = [[1]]
    for i in range(1, n + 1):
        term = poly_mul([(-h[i - 1][i - 1]) % p, 1], polys[i - 1], p)
        subdiag = 1
        for j in range(1, i):
            subdiag = subdiag * h[i - j][i - j - 1] % p
            coeff = h[i - 1 - j][i - 1] * subdiag % p
            if coeff:
                term = poly_sub(term, poly_scale(polys[i - 1 - j], coeff, p), p)
        polys.append(term)
    return polys[n]


def common_eigenbasis(
    mats: Sequence[Sequence[Sequence[int]]], p: int, seed: int = 0
) -> list[list[int]]:
    """One-dimensional common eigenvectors of a commuting, separating family."""
    k = len(mats[0])
    for m in mats:
        if len(m) != k or any(len(row) != k for row in m):
            raise StructureError("matrices must be square and of equal dimension")
    offending = mats_commute(mats, p)
    if offending is not None:
        raise StructureError(f"matrices {offending[0]} and {offending[1]} do not commute")
    return split_into_lines(mats, p, seed)


def split_into_lines(
    mats: Sequence[Sequence[Sequence[int]]], p: int, seed: int = 0
) -> list[list[int]]:
    """The splitting part of ``common_eigenbasis``, for a family already
    known to commute: invariant subspaces (row bases in RREF) are split
    against successive matrices until every subspace is a line."""
    k = len(mats[0])
    rng = random.Random(seed)
    spaces: list[tuple[list[list[int]], list[int]]] = [
        (identity_matrix(k), list(range(k)))
    ]
    for m in mats:
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        new_spaces = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                new_spaces.append((basis, pivots))
                continue
            restricted = _restrict(m, basis, pivots, p)
            eigs = roots_rng(char_poly(restricted, p), p, rng)
            if len(eigs) == 1:
                new_spaces.append((basis, pivots))
                continue
            for lam, _ in eigs:
                shifted = [
                    [(x - (lam if i == j else 0)) % p for j, x in enumerate(row)]
                    for i, row in enumerate(restricted)
                ]
                vecs = [
                    [sum(c * brow[t] for c, brow in zip(coeffs, basis)) % p for t in range(k)]
                    for coeffs in nullspace(shifted, p)
                ]
                new_spaces.append(rref(vecs, p))
        spaces = new_spaces
    if any(len(basis) != 1 for basis, _ in spaces):
        raise InternalError("commuting family did not split into lines")
    return [basis[0] for basis, _ in spaces]


def _restrict(
    m: Sequence[Sequence[int]], basis: list[list[int]], pivots: list[int], p: int
) -> list[list[int]]:
    """Matrix of m acting on an invariant subspace, in RREF coordinates."""
    r = len(basis)
    out = [[0] * r for _ in range(r)]
    for i, brow in enumerate(basis):
        w = mat_vec(m, brow, p)
        for j in range(r):
            out[j][i] = w[pivots[j]]
    return out


def poly_eval(f: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(list(f)):
        acc = (acc * x + c) % p
    return acc


def roots_rng(f: Sequence[int], p: int, rng: random.Random) -> list[tuple[int, int]]:
    """All roots of f in GF(p) with multiplicities, sorted ascending."""
    f = poly_trim(f)
    if not f:
        raise StructureError("root extraction needs a nonzero polynomial")
    if len(f) == 1:
        return []
    distinct: list[int]
    if p <= 64:
        distinct = [x for x in range(p) if poly_eval(f, x, p) == 0]
    else:
        xp = poly_pow_mod([0, 1], p, f, p)
        g = poly_gcd(poly_sub(xp, [0, 1], p), f, p)
        distinct = []
        _split_linear(g, p, rng, distinct)
    out = []
    for r in sorted(distinct):
        mult = 0
        rem: list[int] = []
        work = f
        while not rem:
            work, rem = poly_divmod(work, [(-r) % p, 1], p)
            if not rem:
                mult += 1
                f = work
        out.append((r, mult))
    return out


def _split_linear(g: Sequence[int], p: int, rng: random.Random, out: list[int]) -> None:
    """Collect the roots of a product of distinct linear factors."""
    g = poly_trim(g)
    deg = len(g) - 1
    if deg <= 0:
        return
    if deg == 1:
        out.append((-g[0]) * pow(g[1], p - 2, p) % p)
        return
    while True:
        a = rng.randrange(p)
        h = poly_pow_mod([a, 1], (p - 1) // 2, g, p)
        h = poly_sub(h, [1], p)
        d = poly_gcd(h, g, p)
        if 0 < len(d) - 1 < deg:
            break
    _split_linear(d, p, rng, out)
    _split_linear(poly_divmod(g, d, p)[0], p, rng, out)
