"""Exact arithmetic in the cyclotomic integers Z[zeta_e], for checking the
exact lifts of ``realchar.chartab.exact_table``.

Values are integer coefficient vectors of length e over the full set of e-th
roots of unity (the redundant presentation Z[x]/(x^e - 1)); a vector
represents zero exactly when the corresponding polynomial is divisible by the
e-th cyclotomic polynomial, which is checked with exact integer division.
The last section reads a ``CycloValue`` (a multiplicity vector over the n-th
roots of unity) as such a value: its complex conjugate, whether it is real,
and its residue mod p.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from realchar.chartab import CycloValue
from realchar.modp import FpContext

# product coefficients bounded by e * max|u| * max|v|; stay well under int64
_NP_LIMIT = 2**62


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    f = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            f = _exact_div(f, cyclotomic_polynomial(d))
    return tuple(f)


def _exact_div(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f // g over Z for monic g with exact division."""
    rem = list(f)
    dg = len(g) - 1
    quo = [0] * (len(rem) - dg)
    for shift in range(len(quo) - 1, -1, -1):
        c = rem[shift + dg]
        quo[shift] = c
        if c:
            for i, y in enumerate(g):
                rem[shift + i] -= c * y
    if any(rem):
        raise ArithmeticError("division was not exact")
    return quo


def embed(n: int, mult: Sequence[int], e: int) -> np.ndarray:
    """Lift a value over zeta_n into the length-e vector over zeta_e."""
    if e % n != 0:
        raise ArithmeticError(f"order {n} does not divide conductor {e}")
    out = np.zeros(e, dtype=np.int64)
    step = e // n
    for j, m in enumerate(mult):
        out[j * step] += m
    return out


def conj(u: np.ndarray) -> np.ndarray:
    """Complex conjugation: zeta^j -> zeta^-j."""
    out = np.empty_like(u)
    out[0] = u[0]
    out[1:] = u[:0:-1]
    return out


def ring_mul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cyclic convolution of length-e vectors: int64 when the coefficients
    provably fit, Python ints (dtype=object) otherwise."""
    e = len(u)
    mu = int(np.abs(u).max()) if e else 0
    mv = int(np.abs(v).max()) if e else 0
    dtype = np.int64 if mu * mv * e < _NP_LIMIT else object
    full = np.convolve(np.asarray(u, dtype=dtype), np.asarray(v, dtype=dtype))
    out = full[:e].copy()
    out[: len(full) - e] += full[e:]
    return out


def is_zero(u: np.ndarray | Sequence[int], e: int) -> bool:
    """Whether the vector represents 0 in Z[zeta_e]."""
    rem = [int(x) for x in u]
    if not any(rem):
        return True
    phi = cyclotomic_polynomial(e)
    dg = len(phi) - 1
    # exact remainder mod the monic cyclotomic polynomial, in Python ints
    for shift in range(len(rem) - dg, 0, -1):
        c = rem[shift + dg - 1]
        if c:
            for i, y in enumerate(phi):
                rem[shift - 1 + i] -= c * y
    return not any(rem[:dg])


# ---------------------------------------------------------------------------
# exact character values


def conjugate(v: CycloValue) -> CycloValue:
    return CycloValue(v.n, tuple(v.mult[(-j) % v.n] for j in range(v.n)))


def is_real(v: CycloValue) -> bool:
    return all(v.mult[j] == v.mult[(-j) % v.n] for j in range(v.n))


def reduce_mod_p(v: CycloValue, ctx: FpContext) -> int:
    z = pow(ctx.root_e, ctx.exponent // v.n, ctx.p)
    acc = 0
    zj = 1
    for m in v.mult:
        acc = (acc + m * zj) % ctx.p
        zj = zj * z % ctx.p
    return acc
