"""Linear algebra over prime fields on arrays of column codes, and is_prime.

Hom-sets are arrays of column codes (see categories), and code_digits
lists the vector of every code.  On such arrays, image_tables gives the
code of every image of each map, subspace_codes the codes of every
subspace's elements, restricts_into which maps restrict on the subspaces
of their domain to given maps (the one An(n) test of categories, with or
without a catalog), and basis_search the linear maps that keep a label
on each vector, for many pairs of spaces at once.  subspace_bases
enumerates subspaces by reduced row echelon form.
The tuple matrices left (tuples of row tuples of ints mod p) are boundary
conversions: column_codes and matrix_of turn a matrix read or printed
into codes and back, and gl_generators gives the gallery's GL_n
generators.  mat_mul stays for the benchmark's tracer, which wraps it.
is_prime, through PRIME, checks every prime the command line and the
gallery entry files take.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .config import Ints, cap, refuse
from .groups import blocks, find_sorted, gather, row_keys, sorted_in_place

Mat = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


def column_codes(M: Sequence[Sequence[int]], p: int) -> tuple[int, ...]:
    """Column codes of a matrix given by its rows, entries taken mod p."""
    width = len(M[0]) if M else 0
    return tuple(sum(row[k] % p * p ** r for r, row in enumerate(M))
                 for k in range(width))


def matrix_of(cols: Sequence[int], p: int, rows: int) -> Mat:
    """The matrix, as a tuple of row tuples, with the given column codes."""
    return tuple(tuple(int(c) // p ** r % p for c in cols) for r in range(rows))


@lru_cache(maxsize=None)
def code_digits(p: int, r: int) -> np.ndarray:
    """(p^r, r) read-only array: row c is the vector of code c = sum v_i p^i.

    The vectors supported on the first k coordinates are the codes below
    p^k, which is the order the basis search of categories fills them in.
    """
    out = np.arange(p ** r)[:, None] // p ** np.arange(r) % p
    out.flags.writeable = False
    return out


def mat_mul(A: Mat, B: Mat, p: int) -> Mat:
    # rows(A) x cols(B); cols(A) must equal rows(B)
    if A and B and len(A[0]) != len(B):
        raise ValueError(f"shape mismatch {len(A)}x{len(A[0])} * {len(B)}x{len(B[0]) if B else 0}")
    cols = len(B[0]) if B else 0
    return tuple(
        tuple(sum(a * B[k][j] for k, a in enumerate(row)) % p for j in range(cols))
        for row in A)


def injective_count(p: int, rows: int, cols: int) -> int:
    if cols == 0:
        return 1
    if rows < cols:
        return 0
    n = 1
    for j in range(cols):
        n *= p ** rows - p ** j
    return n


def image_tables(cols: np.ndarray, p: int, rows: int) -> np.ndarray:
    """Code of the image of every domain vector code, for each map given
    by its column codes in a codomain of the given rank."""
    width = cols.shape[1]
    vecs, col_vecs = code_digits(p, width), code_digits(p, rows)
    places = p ** np.arange(rows)
    out = np.empty((len(cols), len(vecs)), dtype=np.int64)
    for b in blocks(len(cols), len(vecs) * rows):
        out[b] = vecs @ col_vecs.take(cols[b], axis=0) % p @ places  # (maps, vectors, rows) digits
    return out


def subspace_codes(p: int, dim: int, rank: int) -> np.ndarray:
    """(subspaces, p^rank) array: row s holds the codes of the elements
    of the span of subspace_bases(p, dim, rank)[s], in the span's code
    order, so column p^k is the code of basis vector k."""
    bases = subspace_bases(p, dim, rank)
    bases = np.array(bases, dtype=np.int64).reshape(len(bases), rank, dim)
    return code_digits(p, rank) @ bases % p @ p ** np.arange(dim)


def restricts_into(cols: np.ndarray, of: np.ndarray, p: int, rows: int, at: np.ndarray,
                   tag: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Mask of the maps, column codes into a rank-rows codomain, map t out
    of domain of[t], whose restriction to every subspace s of its domain d,
    read at the codes at[d, s] of a basis of it, is allowed: the tag
    columns tag[d, s], then those codes, make a row of allowed.

    One sorted lookup for every map and subspace at once, in blocks, each
    restriction keyed exactly by the bytes of its row, whose entries are
    below 2^32 (row_keys).
    """
    known = sorted_in_place(row_keys(allowed))
    keep = np.empty(len(cols), dtype=bool)
    for b in blocks(len(cols), p ** cols.shape[1] + at[0].size + tag[0].size):
        onto = gather(image_tables(cols[b], p, rows), np.arange(len(of[b]))[:, None, None],
                      at.take(of[b], axis=0))
        keys = row_keys(np.concatenate([tag.take(of[b], axis=0), onto], axis=2).reshape(
            -1, allowed.shape[1]))
        keep[b] = find_sorted(known, keys)[1].reshape(-1, at.shape[1]).all(axis=1)
    return keep


def basis_search(p: int, dom: np.ndarray, cod: np.ndarray, r: int,
                 s: int) -> tuple[np.ndarray, np.ndarray]:
    """(pair, cols) over a stack of pairs of a rank-r domain and a rank-s
    codomain, given by a label on each code (rows of dom and cod): rows
    of basis-image codes of the linear maps of pair t that send each
    vector of code c to one of code f with dom[t, c] == cod[t, f], pair by
    pair, each pair's in lexicographic order.  Only the zero vector may
    carry label 0, so every map found is injective.

    Backtracking over the basis images, breadth first and vectorized
    over every pair at once: choosing the image of basis vector k fixes
    the image of every vector whose last nonzero coordinate is k, and
    each one is checked against its label at once.  Where every label of
    a domain is its own, each basis vector has one allowed image, so each
    step is one lookup.

    Raises CapExceeded("hom_count_cap") before the search when, for some
    pair (the first), the product over basis vectors of their allowed
    images, a bound on its maps, passes the hom count cap.
    """
    ok = dom[:, :, None] == cod[:, None, :]          # (pairs, p^r, p^s): the allowed images
    counts = ok.take(p ** np.arange(r), axis=1).sum(axis=2)    # of each basis vector
    limit = cap("hom_count_cap")
    # the float product picks the pairs to check, the exact one decides
    for total in map(math.prod, counts[counts.prod(axis=1, dtype=float) > limit / 2].tolist()):
        if total > limit:
            refuse("hom_count_cap", f"a hom-set of rank {r} into rank {s} may hold {total} "
                   f"maps, more than the cap ({limit})")
    digits, weights, coef = code_digits(p, s), p ** np.arange(s), np.arange(1, p)[:, None, None]
    pair = np.arange(len(dom))
    cols = np.zeros((len(dom), 0), dtype=np.int64)   # image codes of the basis so far
    imgs = np.zeros((len(dom), 1), dtype=np.int64)   # image code of each code < p^k
    for k in range(r):
        if not len(pair):
            return pair, np.zeros((0, r), dtype=np.int64)
        q, n = p ** k, len(digits)
        # each pair's allowed images of basis vector k, increasing, padded with n
        cand = sorted_in_place(np.where(ok[:, q], np.arange(n), n), axis=1)[
            :, :max(1, counts[:, k].max())]
        codes = np.arange(q) + q * coef[:, 0]                # (p-1, q), code order
        grown = []
        for b in blocks(len(cols), cand.shape[1] * codes.size * s):
            c = cand.take(pair[b], axis=0)                    # (rows, candidates)
            new = (digits.take(imgs[b], axis=0)[:, None, None] + digits.take(np.minimum(c, n - 1),
                   axis=0)[:, :, None, None] * coef) % p @ weights   # (rows, candidates, p-1, q)
            t, x = ((c < n) & ok[pair[b, None, None, None], codes, new].all(axis=(2, 3))).nonzero()
            grown.append((pair[b][t], np.concatenate((cols[b].take(t, axis=0), c[t, x, None]), 1),
                          np.concatenate((imgs[b].take(t, axis=0),
                                          new[t, x].reshape(len(t), codes.size)), 1)))
        pair, cols, imgs = (np.concatenate(a) for a in zip(*grown))
    return pair, cols


@lru_cache(maxsize=None)
def subspace_bases(p: int, dim: int, rank: int) -> tuple[tuple[Vec, ...], ...]:
    """One canonical basis per rank-dimensional subspace of F_p^dim, sorted.

    Each subspace is enumerated once, by its reduced row echelon form: the
    pivot columns, then each row's values on its free columns (right of
    its pivot, outside the other pivot columns), chosen independently.
    The basis is the form's rows in descending pivot order, which is the
    greedy lexicographically first basis: a vector's first nonzero entry
    sits at the smallest pivot among the rows it uses, so the smallest
    nonzero vector of the span is the row of the largest pivot, and each
    next row is the smallest vector outside the span of those before it.
    """
    out = []
    for pivots in itertools.combinations(range(dim), rank):
        choices = []
        for pc in reversed(pivots):
            free = [c for c in range(pc + 1, dim) if c not in pivots]
            rows = []
            for values in itertools.product(range(p), repeat=len(free)):
                row = [1 if c == pc else 0 for c in range(dim)]
                for c, x in zip(free, values):
                    row[c] = x
                rows.append(tuple(row))
            choices.append(rows)
        out.extend(itertools.product(*choices))
    return tuple(sorted(out))


def gl_generators(p: int, n: int) -> list[Mat]:
    """Standard generators for GL_n(F_p).

    Transvection, cyclic permutation matrix, and (for p > 2) a diagonal
    matrix carrying a primitive root so the determinant map is onto.
    """
    lam = primitive_element(p, lambda a, b: a * b % p)
    if n == 1:
        return [((lam,),)]
    transvection = tuple(tuple(1 if i == j or (i == 0 and j == 1) else 0
                               for j in range(n)) for i in range(n))
    cycle = [[0] * n for _ in range(n)]
    for i in range(1, n):
        cycle[i][i - 1] = 1
    cycle[0][n - 1] = 1
    gens = [transvection, tuple(tuple(r) for r in cycle)]
    if p > 2:
        diag = tuple(tuple(lam if i == j == 0 else (1 if i == j else 0)
                           for j in range(n)) for i in range(n))
        gens.append(diag)
    return gens


# Miller-Rabin with the first 13 primes as bases is exact below PRIME_LIMIT,
# the smallest strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < PRIME_LIMIT."""
    if n < 2 or any(n % a == 0 for a in MR_BASES):
        return n in MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the integers the command line and an entry read as a prime
PRIME = Ints(f"a prime below {PRIME_LIMIT}", lambda v: v < PRIME_LIMIT and is_prime(v))


def primitive_element(q: int, mul: Callable[[int, int], int]) -> int:
    """Smallest generator g of the multiplicative group of F_q, on the
    codes 0..q-1 with product mul: the smallest g whose powers take
    q - 1 values; 1 when q = 2."""
    for g in range(2, q):
        x, seen = 1, set()
        for _ in range(q - 1):
            x = mul(x, g)
            seen.add(x)
        if len(seen) == q - 1:
            return g
    return 1
