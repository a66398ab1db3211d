"""Tiny dense linear algebra over prime fields.

Matrices here are tuples of row tuples of ints reduced mod p: the matrix
groups of the gallery builders, the rank check of explicit morphisms,
and the test oracles.  Hom-sets themselves are arrays of column codes
(see categories).  Everything here is desk scale (dimensions at most a
handful), so plain Gaussian elimination is used throughout.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A: Mat, B: Mat, p: int) -> Mat:
    # rows(A) x cols(B); cols(A) must equal rows(B)
    if A and B and len(A[0]) != len(B):
        raise ValueError(f"shape mismatch {len(A)}x{len(A[0])} * {len(B)}x{len(B[0]) if B else 0}")
    cols = len(B[0]) if B else 0
    return tuple(
        tuple(sum(a * B[k][j] for k, a in enumerate(row)) % p for j in range(cols))
        for row in A)


def mat_vec(A: Mat, v: Vec, p: int) -> Vec:
    return tuple(sum(a * x for a, x in zip(row, v)) % p for row in A)


def _row_reduce(rows: list[list[int]], ncols: int, p: int) -> int:
    """Gauss-Jordan elimination over F_p on the first ncols columns, in
    place; returns the rank (the number of pivot rows, now on top)."""
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def mat_rank(A: Mat, p: int) -> int:
    rows = [list(r) for r in A]
    return _row_reduce(rows, len(rows[0]) if rows else 0, p)


def mat_inv(A: Mat, p: int) -> Optional[Mat]:
    """Inverse of a square matrix, or None when singular."""
    n = len(A)
    if any(len(r) != n for r in A):
        return None
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(A)]
    if _row_reduce(aug, n, p) < n:
        return None
    return tuple(tuple(row[n:]) for row in aug)


def span(p: int, vecs: Iterable[Vec]) -> frozenset[Vec]:
    vecs = list(vecs)
    if not vecs:
        return frozenset()
    dim = len(vecs[0])
    out = {(0,) * dim}
    for v in vecs:
        addition = set()
        for s in out:
            for c in range(1, p):
                addition.add(tuple((x + c * y) % p for x, y in zip(s, v)))
        out |= addition
    return frozenset(out)


def injective_count(p: int, rows: int, cols: int) -> int:
    if cols == 0:
        return 1
    if rows < cols:
        return 0
    n = 1
    for j in range(cols):
        n *= p ** rows - p ** j
    return n


@lru_cache(maxsize=None)
def subspace_bases(p: int, dim: int, rank: int) -> tuple[tuple[Vec, ...], ...]:
    """One canonical basis per rank-dimensional subspace of F_p^dim.

    Deterministic: subspaces are found by scanning independent tuples in
    lex order and keeping the first basis seen for each span.
    """
    if rank == 0:
        return ((),)
    seen: dict[frozenset[Vec], tuple[Vec, ...]] = {}
    nonzero = [v for v in itertools.product(range(p), repeat=dim)
               if any(v)]

    def extend(chosen: list[Vec], spanned: frozenset[Vec]):
        if len(chosen) == rank:
            key = spanned
            if key not in seen:
                seen[key] = tuple(chosen)
            return
        for v in nonzero:
            if v not in spanned and (not chosen or v > chosen[-1]):
                extend(chosen + [v], span(p, chosen + [v]))

    extend([], frozenset([(0,) * dim]))
    return tuple(sorted(seen.values()))


def gl_generators(p: int, n: int) -> list[Mat]:
    """Standard generators for GL_n(F_p).

    Transvection, cyclic permutation matrix, and (for p > 2) a diagonal
    matrix carrying a primitive root so the determinant map is onto.
    """
    if n == 1:
        g = primitive_root(p)
        return [((g % p,),)]
    transvection = tuple(tuple(1 if i == j or (i == 0 and j == 1) else 0
                               for j in range(n)) for i in range(n))
    cycle = [[0] * n for _ in range(n)]
    for i in range(1, n):
        cycle[i][i - 1] = 1
    cycle[0][n - 1] = 1
    gens = [transvection, tuple(tuple(r) for r in cycle)]
    if p > 2:
        lam = primitive_root(p)
        diag = tuple(tuple(lam if i == j == 0 else (1 if i == j else 0)
                           for j in range(n)) for i in range(n))
        gens.append(diag)
    return gens


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group of F_p."""
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"{p} is not prime")


def close_matrix_group(gens: Sequence[Mat], p: int,
                       limit: int = 10 ** 6) -> list[Mat]:
    """Breadth-first closure of matrix generators under multiplication."""
    if not gens:
        return []
    n = len(gens[0])
    seen = {identity_mat(n)}
    frontier = [identity_mat(n)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g, p)
                if prod not in seen:
                    if len(seen) >= limit:
                        raise ValueError("matrix group closure passed limit")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return sorted(seen)
