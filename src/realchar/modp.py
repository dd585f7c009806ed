"""Exact arithmetic over GF(p): prime selection, linear algebra, polynomial roots.

A matrix is one numpy array of residues in [0, p), from a class matrix to
the eigenbasis.  Its arithmetic follows from its row length k and p alone:
float64 when k * (p-1)^2 < 2^53, so every product and length-k sum is an
exact integer and ``@`` runs in BLAS, and Python ints (``dtype=object``)
otherwise, so a huge prime runs the same code.  ``char_poly`` returns a
stack's characteristic polynomials as one array of residue coefficients;
the polynomial helpers work on Python int coefficient lists.  Both list
coefficients low degree first.

``common_eigenbasis`` splits the space of a commuting family into common
eigenvectors.  When C(k, 2) < p it reads one random combination of the
whole family first, which usually splits the space alone, and then, or
from the start, the matrices in order.  The line of a simple eigenvalue of
a restriction comes from one Krylov product, the eigenspaces of the other
eigenvalues from one stacked elimination.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InternalError, StructureError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    """Smallest generator of GF(p)*."""
    if p == 2:
        return 1
    factors = factor(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InternalError(f"no primitive root found mod {p}")


@dataclass(frozen=True)
class FpContext:
    """The working prime and a fixed primitive e-th root of unity mod p."""

    p: int
    exponent: int
    root_e: int

    def inv(self, x: int) -> int:
        return pow(x, self.p - 2, self.p)


def select_prime(order: int, exponent: int) -> FpContext:
    """Smallest prime p with p = 1 mod exponent and p > order."""
    if order < 1 or exponent < 1:
        raise StructureError("order and exponent must be positive")
    p = order + 1 + (-order) % exponent  # first value > order and = 1 mod exponent
    while not is_prime(p):
        p += exponent
    return _context_for(p, exponent)


def _context_for(p: int, exponent: int) -> FpContext:
    g = primitive_root(p)
    root = pow(g, (p - 1) // exponent, p)
    return FpContext(p=p, exponent=exponent, root_e=root)


def validated_context(p: int, order: int, exponent: int) -> FpContext:
    """Context for a user-chosen prime; it must fit the group."""
    if not is_prime(p):
        raise StructureError(f"prime override {p} is not prime")
    if p <= order or (p - 1) % exponent != 0:
        raise StructureError(
            f"prime override {p} needs p > {order} and p = 1 mod {exponent}"
        )
    return _context_for(p, exponent)


# ---------------------------------------------------------------------------
# matrices


def _residues(a: np.ndarray | Sequence, p: int) -> np.ndarray:
    """``a`` as a GF(p) matrix: residues in [0, p) in the arithmetic picked
    from its row length k and p.

    That is float64 when k * (p-1)^2 < 2^53: every residue, product and
    length-k sum of products is then an integer below 2^53, so float64 and
    BLAS ``@`` are exact.  Otherwise it is Python ints (``dtype=object``).
    An array already in that arithmetic, or of Python ints, is taken to hold
    residues and comes back as it is; anything else is reduced mod p.  A
    nested list is read as Python ints: ``np.asarray`` would make a list
    holding an int in [2^63, 2^64) float64 and lose its low bits.
    """
    k = np.shape(a)[-1]
    dtype = np.float64 if k * (p - 1) ** 2 < 2**53 else object
    if isinstance(a, np.ndarray) and a.dtype in (dtype, object):
        return a
    a = a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
    if a.dtype != object:
        # int64 holds a residue exactly when float64 does
        a = a.astype(np.int64) if dtype is np.float64 else a.astype(np.int64).astype(object)
    return (a % p).astype(dtype)


# Below this many entries numpy's float64 ``%`` costs less than the four
# ufunc calls of the exact reduction: on the shared 2-core box (Python
# 3.11.7, numpy 2.4.6) ``%`` takes 1.6 us at 16 entries and 11 us at 512,
# the reduction about 8 us at either.
_MOD_MIN_SIZE = 512


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p), for an integer array in the arithmetic of
    ``_residues``; on float64 every |x| must be below 2^53.

    Python ints, and small arrays, take ``%``.  Otherwise the quotient
    t = x / p is rounded to the nearest float64 t'.  No integer lies between
    t and t': t is within 1/p of no integer unless it is one, while
    |t' - t| <= |t| 2^-53 < 1/p (the argument of ``_all_divisible``).  So
    q = trunc(t') is trunc(t), |p q| <= |x| < 2^53 is exact, and so is
    x - p q in (-p, p); one correction moves it into [0, p).
    """
    if x.size < _MOD_MIN_SIZE or x.dtype.kind == "O":
        return x % p
    q = x / p
    np.trunc(q, out=q)
    q *= -p
    q += x
    q += p * (q < 0)
    return q


def _ints(a: np.ndarray) -> list:
    """Residues as (nested) lists of Python ints."""
    return a.tolist() if a.dtype == object else a.astype(np.int64).tolist()


def _rref_stack(stack: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon forms of an ``(n, r, c)`` stack of residue
    matrices, by one Gauss-Jordan elimination for the whole stack.

    Returns the reduced stack (each matrix's pivot rows first, in order of
    their pivot columns, then zero rows), the n ranks and an ``(n, c)`` bool
    array of pivot columns.  The columns are visited once.  In column c each
    matrix with a nonzero entry there in a row that is not yet a pivot row
    takes the first such row as its pivot row, with entry a.  Every other
    row of that matrix with an entry b != 0 in column c becomes a * row -
    b * pivot row, which keeps the row space and needs no inverse.  Only
    those rows are touched, on the flat ``(n*r, c)`` array of all rows.  At
    the end each pivot row is scaled to 1 at its pivot and moved up; the
    other rows are zero by then.  The arithmetic is that of ``_residues``:
    every entry stays a residue, so a * row - b * pivot row is below p^2 in
    absolute value, and float64 and Python ints run the same code.
    """
    n, r, c = stack.shape
    rows = stack.reshape(n * r, c).copy()
    starts = np.arange(n) * r
    owner = np.repeat(np.arange(n), r)
    unused = np.ones(n * r, dtype=bool)
    # lead[i, col]: the flat pivot row of matrix i in column col, or -1
    lead = np.full((n, c), -1)
    for col in range(c):
        entries = rows[:, col]
        nonzero = entries != 0
        candidates = (nonzero & unused).reshape(n, r)
        found = candidates.any(axis=1)
        if not found.any():
            continue
        top = starts + candidates.argmax(axis=1)
        chosen = top[found]
        unused[chosen] = False
        lead[found, col] = chosen
        nonzero &= found[owner]
        nonzero[chosen] = False
        targets = np.flatnonzero(nonzero)
        pivot = top[owner[targets]]
        rows[targets] = _mod(
            rows[targets] * entries[pivot, None] - entries[targets, None] * rows[pivot], p
        )
    pivots = lead >= 0
    ranks = pivots.sum(axis=1)
    pivot_rows = lead[pivots]
    scale = [pow(int(x), p - 2, p) for x in rows[pivot_rows, np.nonzero(pivots)[1]].tolist()]
    scaled = _mod(rows[pivot_rows] * np.array(scale, dtype=rows.dtype)[:, None], p)
    rows[:] = 0
    rows = rows.reshape(n, r, c)
    rows[np.nonzero(np.arange(r) < ranks[:, None])] = scaled
    return rows, ranks, pivots


def _null_images(
    reduced: np.ndarray, ranks: np.ndarray, pivots: np.ndarray, bases: np.ndarray, p: int
) -> np.ndarray:
    """The nullspace basis of each matrix of a reduced ``(n, r, c)`` stack
    (one vector per free column, ascending), times that matrix's ``(c, k)``
    basis, in one ``(sum of nullities, k)`` array, matrix by matrix.

    The vector of free column j is 1 at j, -reduced[t, j] at the pivot
    column of row t and 0 elsewhere.  Spread the pivot rows to the rows of
    their pivot columns as S; its image is then row j of B - S^T B.  On
    float64 that is below c (p-1)^2 < 2^53 in absolute value, as c is at
    most the row length k of B (the rule of ``_residues``).
    """
    n, r, c = reduced.shape
    spread = np.zeros((n, c, c), dtype=reduced.dtype)
    spread[np.nonzero(pivots)] = reduced[np.nonzero(np.arange(r) < ranks[:, None])]
    images = spread.transpose(0, 2, 1) @ bases
    np.subtract(bases, images, out=images)
    return _mod(images[~pivots], p)


def char_poly(stack: np.ndarray | Sequence, p: int) -> np.ndarray:
    """Characteristic polynomials det(xI - M) of an ``(N, n, n)`` stack of
    matrices, as an ``(N, n+1)`` array of residues: row i holds the monic
    polynomial of matrix i, low degree first.

    Each matrix is brought to upper Hessenberg form H by similarity
    transforms, all at once: in column c - 1 a matrix whose entry in row c
    is 0 swaps row (and column) c with the first row below it that has a
    nonzero entry there, and then the rows below c are cleared with row c.
    Then p_i = det(xI - H_i) for the leading i x i blocks satisfies
    p_i = x p_(i-1) - sum over m < i of H[m, i-1] s_m p_m, where s_m is the
    product of the subdiagonal entries H[t, t-1] for m < t < i.  The
    weights H[m, i-1] s_m come first, one superdiagonal at a time, and
    then each step is one ``(N, i) x (N, i, n+1)`` product.  Its sums have
    at most n <= k terms below (p-1)^2, within the rule of ``_residues``.
    """
    h = _residues(stack, p).copy()
    count, n, _ = h.shape
    for col in range(n - 2):
        c = col + 1
        if not h[:, c, col].all():
            below = h[:, c:, col] != 0
            swap = np.flatnonzero(~below[:, 0] & below.any(axis=1))
            if len(swap):
                piv = c + below[swap].argmax(axis=1)
                h[swap, c], h[swap, piv] = h[swap, piv], h[swap, c]
                h[swap, :, c], h[swap, :, piv] = h[swap, :, piv], h[swap, :, c]
        rest = h[:, c + 1 :, col]
        if not rest.any():
            continue
        # pow(0, p - 2, p) is 0 for p > 2, and where h[c, col] is 0 so is rest
        inv = np.array([pow(int(x), p - 2, p) for x in h[:, c, col].tolist()], dtype=h.dtype)
        # clear the rows below c by L = I - f e_c^T, then undo it on the
        # right: column c gains those rows' columns scaled by f
        f = _mod(rest * inv[:, None], p)
        h[:, c + 1 :] = _mod(h[:, c + 1 :] - f[:, :, None] * h[:, c, None, :], p)
        h[:, :, c] = _mod(h[:, :, c] + (h[:, :, c + 1 :] @ f[:, :, None])[:, :, 0], p)
    # weights[:, m, i - 1] = H[m, i-1] s_m, on superdiagonal j = i - 1 - m;
    # run holds the products of j consecutive subdiagonal entries
    diag = np.arange(n)
    weights = np.zeros_like(h)
    weights[:, diag, diag] = h[:, diag, diag]
    subdiag = h[:, diag[1:], diag[:-1]]
    run = np.ones((count, n), dtype=h.dtype)
    for j in range(1, n):
        run = _mod(run[:, :-1] * subdiag[:, j - 1 :], p)
        weights[:, diag[:-j], diag[j:]] = _mod(h[:, diag[:-j], diag[j:]] * run, p)
    polys = np.zeros((count, n + 1, n + 1), dtype=h.dtype)
    polys[:, 0, 0] = 1
    for i in range(1, n + 1):
        polys[:, i, 1:] = polys[:, i - 1, :-1]
        polys[:, i] = _mod(polys[:, i] - (weights[:, None, :i, i - 1] @ polys[:, :i])[:, 0], p)
    return polys[:, n]


# ---------------------------------------------------------------------------
# polynomials (dense coefficient lists, low degree first)


def poly_trim(f: Sequence[int]) -> list[int]:
    out = list(f)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_scale(f: Sequence[int], c: int, p: int) -> list[int]:
    return [x * c % p for x in f]


def poly_sub(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    fa = list(f) + [0] * (n - len(f))
    ga = list(g) + [0] * (n - len(g))
    return poly_trim([(x - y) % p for x, y in zip(fa, ga)])


def poly_mul(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_divmod(f: Sequence[int], g: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    g = poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(poly_trim(f))
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    quo = [0] * max(len(rem) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        shift = len(rem) - 1 - dg
        c = rem[-1] * inv_lead % p
        quo[shift] = c
        for i, y in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * y) % p
        rem = poly_trim(rem)
    return poly_trim(quo), rem


def poly_gcd(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """Monic gcd."""
    a, b = poly_trim(f), poly_trim(g)
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if a:
        a = poly_scale(a, pow(a[-1], p - 2, p), p)
    return a


def poly_pow_mod(f: Sequence[int], n: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = poly_divmod(f, mod, p)[1]
    while n:
        if n & 1:
            result = poly_divmod(poly_mul(result, base, p), mod, p)[1]
        base = poly_divmod(poly_mul(base, base, p), mod, p)[1]
        n >>= 1
    return result


# Evaluation at every point costs about p * (deg f + 1) vectorised int64
# steps, Cantor-Zassenhaus splitting about deg f^2 * log2 p Python-int
# steps.  One of the latter costs about this many of the former: on split
# polynomials over p = 61 .. 4 * 10^6 and deg f = 2 .. 24 (CHANGES.md) the
# crossover has median 300, and 300 loses least against the faster method
# at worst (a factor 1.75).
_SPLIT_STEP_COST = 300
_EVAL_CHUNK = 1 << 16


def _roots_of_degree(polys: list[tuple[int, ...]], p: int, rng: random.Random) -> list[list[int]]:
    """The distinct roots in GF(p), ascending, of each of a list of
    polynomials of one degree d >= 1 (Python int residue coefficients).

    The cost rule depends on p and d alone, so it picks one method for the
    whole list: evaluation of every distinct polynomial at once, or
    equal-degree splitting of gcd(f, x^p - x) for each distinct f.
    """
    distinct = list(dict.fromkeys(polys))
    deg = len(distinct[0]) - 1
    if p < 2**31 and p * (deg + 1) < _SPLIT_STEP_COST * deg * deg * p.bit_length():
        found = _roots_by_evaluation(np.array(distinct, dtype=np.int64), p)
    else:
        found = []
        for f in distinct:
            g = poly_gcd(poly_sub(poly_pow_mod([0, 1], p, f, p), [0, 1], p), f, p)
            out: list[int] = []
            _split_linear(g, p, rng, out)
            found.append(sorted(out))
    roots = dict(zip(distinct, found))
    return [roots[f] for f in polys]


def _roots_by_evaluation(polys: np.ndarray, p: int) -> list[list[int]]:
    """The x in GF(p) with f(x) = 0 for each row f of an int64
    ``(N, d+1)`` coefficient array, ascending, by one int64 Horner over an
    ``(N, chunk)`` array of points at a time, at most ``_EVAL_CHUNK``
    entries.  The sums are reduced mod p only before a step could pass
    2^63 - 1: a step takes a bound b on acc to b (p-1) + p - 1, and from a
    residue to below p^2 < 2^62, so this is exact for p < 2^31.  At p near
    2^15 that is one reduction every third step."""
    out: list[list[int]] = [[] for _ in polys]
    chunk = max(1, _EVAL_CHUNK // len(polys))
    for start in range(0, p, chunk):
        x = np.arange(start, min(start + chunk, p), dtype=np.int64)
        acc = np.repeat(polys[:, -1:], len(x), axis=1)
        bound = p - 1
        for c in polys[:, -2::-1].T:
            if bound * (p - 1) + p - 1 >= 2**63:
                acc %= p
                bound = p - 1
            acc *= x
            acc += c[:, None]
            bound = bound * (p - 1) + p - 1
        acc %= p
        rows, at = np.nonzero(acc == 0)
        for i, root in zip(rows.tolist(), (start + at).tolist()):
            out[i].append(root)
    return out


def _eigenvalues(
    subs: list[np.ndarray], p: int, rng: random.Random
) -> list[tuple[list[int], list[int], list[np.ndarray]]]:
    """The distinct eigenvalues in GF(p) of each square residue matrix, the
    simple ones among them (both ascending), and the factors of its
    characteristic polynomial (monic, low degree first, in the matrices'
    arithmetic), from one stacked pass over all of them.

    A matrix A has an edge i -> j wherever A[i, j] != 0.  Listing the
    strongly connected components of that graph in a topological order is
    a permutation similarity to block upper triangular form, so
    det(xI - A) is the product of the components' principal submatrices'
    polynomials, the factors, and A's roots are the union of theirs.  The
    components come from the reachability closure: the pattern plus the
    diagonal, squared ceil(log2 d) times or until it stops growing, one
    stack per matrix size d; i and j share a component when each reaches
    the other.  The blocks of every matrix are then stacked by size n: a
    1 x 1 block's root is its entry, and each larger size takes one
    ``char_poly`` and one ``_roots_of_degree``.  A root is simple when it
    is a root of one block alone and a simple root of that block: each of
    its roots is when the block has as many roots as its degree, and
    otherwise a root r is when the block polynomial's derivative is
    nonzero at r.
    """
    # 1 for a simple root, more for a repeated one
    roots: list[dict[int, int]] = [{} for _ in subs]
    factors: list[list[np.ndarray]] = [[] for _ in subs]
    by_dim: dict[int, list[int]] = {}
    for i, a in enumerate(subs):
        by_dim.setdefault(len(a), []).append(i)
    # block size -> (owner matrices, blocks) from each matrix size
    blocks: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for d, owners in by_dim.items():
        stack = np.stack([subs[i] for i in owners])
        reach = (stack != 0) | np.eye(d, dtype=bool)
        for _ in range((d - 1).bit_length()):
            # float64, whose BLAS code the split runs anyway: float32's
            # adds about 0.2 MB to a table's peak resident memory
            paths = reach.astype(np.float64)
            wider = (paths @ paths) > 0
            if (wider == reach).all():
                break
            reach = wider
        if reach.all():
            # each matrix is one block: nothing to split
            blocks.setdefault(d, []).append((np.array(owners), stack))
            continue
        same = reach & reach.transpose(0, 2, 1)
        sizes = same.sum(axis=2)
        # a component is led by its first index
        leads = same.argmax(axis=2) == np.arange(d)
        for n in sorted(set(sizes[leads].tolist())):
            mat, lead = np.nonzero(leads & (sizes == n))
            members = np.nonzero(same[mat, lead])[1].reshape(-1, n)
            picked = stack[mat[:, None, None], members[:, :, None], members[:, None, :]]
            blocks.setdefault(n, []).append((np.array(owners)[mat], picked))
    for n, parts in blocks.items():
        owner = np.concatenate([o for o, _ in parts]).tolist()
        picked = np.concatenate([b for _, b in parts])
        if n == 1:
            entries = picked[:, 0, 0]
            polys = np.stack([(-entries) % p, np.ones_like(entries)], axis=1)
            found = [[x] for x in _ints(entries)]
        else:
            polys = char_poly(picked, p)
            found = _roots_of_degree(list(map(tuple, _ints(polys))), p, rng)
        for i, r, f in zip(owner, found, polys):
            factors[i].append(f)
            for lam in r:
                repeated = len(r) < n and _derivative_at(_ints(f), lam, p) == 0
                roots[i][lam] = roots[i].get(lam, 0) + 1 + repeated
    return [
        (sorted(r), sorted(lam for lam, mult in r.items() if mult == 1), f)
        for r, f in zip(roots, factors)
    ]


def _derivative_at(f: Sequence[int], x: int, p: int) -> int:
    """f'(x) mod p, by Horner, for coefficients f low degree first."""
    acc = 0
    for j in range(len(f) - 1, 0, -1):
        acc = (acc * x + j * f[j]) % p
    return acc


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


# ---------------------------------------------------------------------------
# simultaneous diagonalization


def common_eigenbasis(
    mats: np.ndarray | Sequence, p: int, seed: int = 0
) -> list[list[int]]:
    """k common eigenvectors of a family of k x k matrices, as RREF rows
    (leading entry 1) in splitting order.

    ``mats`` is any sequence of square matrices: an array stack, nested
    lists, or the class matrices of ``GroupElements.class_matrices``, which
    build each matrix when it is read; its ``shape``, where it has one, is
    taken without forming the stack.  Subspaces are split against the
    matrices of ``_split_order``, one at a time, via the distinct
    eigenvalues of the matrix restricted to each, until each is a line.
    When C(k, 2) < p the first of them is a random combination of the whole
    family, whose eigenvalues on any two common eigenvectors differ with
    probability 1 - 1/p, so fewer than one pair of lines is expected to
    share an eigenvalue and one matrix usually splits the whole space.
    Then, or when C(k, 2) >= p, the matrices follow one by one, in order,
    as far as the split needs.  A subspace on which the matrix is scalar
    is kept as it is, with no polynomial.  The eigenvalues of all the
    restrictions of one matrix come from one ``_eigenvalues`` pass: their
    strongly connected blocks, one ``char_poly`` per block size and one
    root search per degree.  A simple root of a restriction's polynomial
    takes its line from one Krylov product per subspace dimension
    (``_krylov_lines``); the other roots' eigenspaces come from one
    ``_rref_stack`` per subspace dimension, over every such subspace and
    root.  The parts of a split subspace follow each other in ascending
    order of their eigenvalues, and each line is scaled to leading entry 1
    at the end.

    The lines are not checked against the matrices: a family that is not
    commuting and diagonalisable may still end in k lines that are no
    eigenbasis (``chartab.compute_table`` certifies the lines it uses).  A
    non-square stack, or a split that ends with fewer than k lines, raises
    StructureError.
    """
    try:
        shape = np.shape(mats)
    except ValueError:
        shape = ()
    if len(shape) != 3 or shape[1] != shape[2]:
        raise StructureError("matrices must be square and of equal dimension")
    k = shape[1]
    rng = random.Random(seed)
    # a space is a row basis and the columns where it is the identity; a
    # line from the Krylov product has no such columns, and needs none, as
    # it is never restricted
    spaces = [(_residues(np.eye(k, dtype=np.int64), p), np.arange(k))]
    order = _split_order(mats, shape[0], k, p, rng)
    while any(len(basis) > 1 for basis, _ in spaces):
        m = next(order, None)
        if m is None:
            break
        m = _residues(m, p)
        subs = {}
        for i, (basis, pivots) in enumerate(spaces):
            if len(basis) == 1:
                continue
            sub = _restrict(m, basis, pivots, p)
            # c * I keeps its space, with the one eigenvalue c
            if not (sub == sub[0, 0] * np.eye(len(basis), dtype=m.dtype)).all():
                subs[i] = sub
        # the parts of each space this matrix splits, by eigenvalue; by
        # space size, the spaces with simple roots (the index of the space,
        # the restricted matrix, those roots and its polynomial) and the
        # nullspace problems (the index of the space, an eigenvalue and the
        # restricted matrix)
        parts: dict[int, dict[int, tuple]] = {}
        simple: dict[int, list] = {}
        problems: dict[int, list] = {}
        eigs = _eigenvalues(list(subs.values()), p, rng) if subs else []
        for (i, sub), (lams, once, factors) in zip(subs.items(), eigs):
            if len(lams) != 1:
                parts[i] = {}
                for lam in sorted(set(lams).difference(once)):
                    problems.setdefault(len(sub), []).append((i, lam, sub))
                if once:
                    chi = functools.reduce(lambda f, g: _mod(np.convolve(f, g), p), factors)
                    simple.setdefault(len(sub), []).append((i, sub, once, chi))
        for d, group in simple.items():
            found = _krylov_lines(
                np.stack([sub for _, sub, _, _ in group]),
                np.stack([chi for _, _, _, chi in group]),
                [once for _, _, once, _ in group],
                np.stack([spaces[i][0] for i, _, _, _ in group]),
                p,
                rng,
            )
            for (i, sub, once, _), lines in zip(group, found):
                for lam in once:
                    if lam in lines:
                        parts[i][lam] = (lines[lam], None)
                    else:
                        problems.setdefault(d, []).append((i, lam, sub))
        for d, group in problems.items():
            shifted = np.stack([sub for _, _, sub in group])
            lams = np.array([lam for _, lam, _ in group], dtype=m.dtype)
            diag = np.arange(d)
            shifted[:, diag, diag] = (shifted[:, diag, diag] - lams[:, None]) % p
            reduced, ranks, is_pivot = _rref_stack(shifted, p)
            # free the stack before the images, the largest arrays here
            del shifted
            bases = np.stack([spaces[i][0] for i, _, _ in group])
            images = _null_images(reduced, ranks, is_pivot, bases, p)
            # null vector j is 1 at j and 0 after it, so its image is the
            # identity at the split space's pivot j
            pivots = np.stack([spaces[i][1] for i, _, _ in group])[~is_pivot]
            end = np.cumsum(d - ranks).tolist()
            for (i, lam, _), start, stop in zip(group, [0] + end, end):
                parts[i][lam] = (images[start:stop], pivots[start:stop])
        spaces = [
            part
            for i, space in enumerate(spaces)
            for part in ([parts[i][lam] for lam in sorted(parts[i])] if i in parts else [space])
        ]
    # a family without a common eigenbasis may end with fewer lines, or none
    if len(spaces) != k or any(len(basis) != 1 for basis, _ in spaces):
        raise StructureError("no common eigenbasis of lines")
    rows = np.concatenate([basis for basis, _ in spaces])
    leads = (rows != 0).argmax(axis=1)
    scale = [pow(int(x), p - 2, p) for x in rows[np.arange(k), leads].tolist()]
    return _ints(_mod(rows * np.array(scale, dtype=rows.dtype)[:, None], p))


def _draw(rng: random.Random, p: int, count: int) -> list[int]:
    """``count`` residues drawn uniformly from GF(p)."""
    return [rng.randrange(p) for _ in range(count)]


def _split_order(
    mats: np.ndarray | Sequence, count: int, k: int, p: int, rng: random.Random
) -> Iterator[np.ndarray | Sequence]:
    """The matrices the split reads: when C(k, 2) < p, first the residues
    of sum over m of c_m M_m, with the c_m drawn from ``rng``, and then
    each of the ``count`` matrices in order.

    The sum is taken one matrix at a time in the arithmetic of
    ``_residues``.  On float64 each term c_m M_m is below (p-1)^2 when M_m
    holds residues, so k - 1 terms and a residue stay below k (p-1)^2 <
    2^53, and the partial sum is reduced every k - 1 terms.  Class matrices
    keep it lower: their sum over m is |C_j| in entry (j, t), so every
    partial sum is below (p-1) |G|.
    """
    if 1 < k and k * (k - 1) // 2 < p and count:
        total = None
        for n, (c, m) in enumerate(zip(_draw(rng, p, count), mats), 1):
            term = _residues(m, p) * c
            if total is None:
                total = term
            else:
                total += term
            if total.dtype != object and n % (k - 1) == 0:
                total = _mod(total, p)
        yield _mod(total, p)
    yield from mats


# At most this many start vectors per space before a simple root joins the
# elimination: one vector misses a given line with probability 1/p
_KRYLOV_TRIES = 3


def _krylov_lines(
    subs: np.ndarray,
    chis: np.ndarray,
    roots: list[list[int]],
    bases: np.ndarray,
    p: int,
    rng: random.Random,
) -> list[dict[int, np.ndarray]]:
    """For each matrix A of an ``(n, d, d)`` stack and each of its given
    simple roots lam, the line ker(A - lam) as a ``(1, k)`` row: the
    eigenvector's coordinates times the ``(d, k)`` basis of its space.
    ``chis`` holds each matrix's characteristic polynomial, low degree
    first.

    q = chi / (x - lam) satisfies (A - lam) q(A) = chi(A) = 0 by
    Cayley-Hamilton, so q(A) b lies in ker(A - lam) for every b.  As lam is
    simple, q(lam) != 0 and that kernel is a line, on which q(A) acts as
    q(lam) while it vanishes on the other generalized eigenspaces: q(A) b
    is nonzero exactly when b has a component on the line.  The columns b,
    Ab, ..., A^(d-1) b of the Krylov matrix K take d - 1 products of the
    stack by vectors, the coefficients of every q one synthetic division
    for all roots at once, and every q(A) b is a column of one product
    K Q.  A root whose vector is zero draws a new b for its space, at most
    ``_KRYLOV_TRIES`` in all, and is left out of the result if each was.
    Every sum is of at most d <= k products of residues, within the rule
    of ``_residues``.
    """
    n, d, _ = subs.shape
    dtype = subs.dtype
    width = max(map(len, roots))
    pending = np.arange(width) < np.array([len(r) for r in roots])[:, None]
    lam = np.zeros((n, width), dtype=dtype)
    lam[pending] = np.array([x for r in roots for x in r], dtype=dtype)
    # q[:, j] is the coefficient of x^j, from the top
    q = np.empty((n, d, width), dtype=dtype)
    q[:, d - 1] = 1
    for j in range(d - 1, 0, -1):
        q[:, j - 1] = _mod(chis[:, j, None] + lam * q[:, j], p)
    found: list[dict[int, np.ndarray]] = [{} for _ in range(n)]
    for _ in range(_KRYLOV_TRIES):
        rows = np.flatnonzero(pending.any(axis=1))
        if not len(rows):
            break
        krylov = np.empty((len(rows), d, d), dtype=dtype)
        krylov[:, :, 0] = np.array(_draw(rng, p, len(rows) * d), dtype=dtype).reshape(-1, d)
        a = subs[rows]
        for j in range(1, d):
            krylov[:, :, j] = _mod((a @ krylov[:, :, j - 1, None])[:, :, 0], p)
        vecs = _mod(krylov @ q[rows], p)
        hit = pending[rows] & (vecs != 0).any(axis=1)
        lines = _mod(vecs.transpose(0, 2, 1) @ bases[rows], p)
        for r, c in zip(*np.nonzero(hit)):
            found[rows[r]][int(lam[rows[r], c])] = lines[r, c][None]
        pending[rows] &= ~hit
    return found


def _all_divisible(d: np.ndarray, p: int) -> bool:
    """Whether p divides every entry of d, an integer array in the
    arithmetic of ``_residues``.

    On float64 every |d| must be below 2^53.  Then d / p is correctly
    rounded, so p * rint(d / p) gives d back exactly when p divides d: the
    quotient is then exact, and otherwise the product is another integer,
    or at least 2^53.  Python ints take the remainder.
    """
    if d.dtype == object:
        return not (d % p).any()
    q = d / p
    np.rint(q, out=q)
    q *= p
    return bool((q == d).all())


def _restrict(m: np.ndarray, basis: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """Matrix of m acting on an invariant subspace whose basis rows are the
    identity at the columns ``pivots``: column i holds those entries of m
    applied to basis row i."""
    return _mod(m[pivots] @ basis.T, p)
