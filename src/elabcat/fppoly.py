"""Sparse multivariate polynomials over a prime field.

A polynomial is two numpy arrays: ``exps``, its distinct exponent rows
in lexicographic order, and ``coeffs``, their coefficients, each reduced
mod p and nonzero.  The form is canonical, so equality compares arrays.
It is built from a {exponent tuple: coefficient} dict, or as a
constant; +, * and == take polynomials of one prime and variable count,
never ints, so a polynomial equals only a polynomial and is not hashable.

Every sum, product, power and substitution ends in one routine,
``_collect``: it sorts the terms by key and adds the coefficients of
equal keys mod p.  A key is an owner (the polynomial a term belongs to)
and an exponent row packed into one integer, owner * base^n + sum_i e_i *
base^(n-1-i) with base = (largest exponent of the result) + 1 (Kronecker
substitution; Monagan & Pearce, ISSAC 2009), so a term product is one
integer add and key order is (owner, row) order.  Keys and coefficients
follow one rule: int64 while every value fits, Python ints (an object
array) past it.  Keys fit while owners * base^n < 2^63.  Coefficients
fit for p < 2^31: a product of two residues is reduced before it is
summed, and sums of up to 2^32 residues stay below 2^63.

Every product is ``_times``: each row meets every term of its owner's
factor, a row of a (factor, term) table padded with coefficient 0, in
broadcast blocks of at most ``BLOCK_ENTRIES`` entries.  ``__mul__`` has
one owner; ``product_tree`` owns by tree node; a substitution owns by
term, and builds the powers of an image that its terms need together,
one product per binary digit.  ``term_cap`` fires as soon as the
largest owner passes the cap after a merge, as in a term-by-term
expansion.

Printing uses graded lexicographic order (total degree ascending,
earlier variables first within a degree), the same order the symmetric
reduction walks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import cap as _cap, refuse
from .errors import NotSymmetric
from .groups import BLOCK_ENTRIES, blocks, sorted_distinct

Exponents = tuple[int, ...]


def _dtype(prime: int):
    return np.int64 if prime < 1 << 31 else object


def _pack(rows: np.ndarray, top: int, owners: int = 1) -> np.ndarray:
    """Keys of owner 0 for exponent rows whose entries are at most top,
    ordered as the rows are: int64 while owners * base^n < 2^63, Python
    ints past it."""
    base, n = top + 1, rows.shape[1]
    dtype = np.int64 if owners * base ** n < 1 << 63 else object
    return rows.astype(dtype, copy=False) @ np.array(
        [base ** k for k in range(n - 1, -1, -1)], dtype=dtype)


def _unpack(keys: np.ndarray, top: int, n: int) -> np.ndarray:
    """Exponent rows of keys of owner 0 made by _pack(rows, top)."""
    rows = np.empty((len(keys), n), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        if (top + 1) ** (j + 1) < 1 << 63:          # the keys left are below base^(j+1)
            keys = keys.astype(np.int64, copy=False)
        rows[:, j], keys = keys % (top + 1), keys // (top + 1)
    return rows


def _owners(keys: np.ndarray, span: int) -> np.ndarray:
    """The owner of each key, as int64; span is base^n."""
    return (keys // span).astype(np.int64, copy=False)


def _own(keys: np.ndarray, owners, span: int) -> np.ndarray:
    """The keys moved to owners (an array, or one owner for all)."""
    return np.asarray(owners, dtype=keys.dtype) * span + keys % span


def _collect(keys: np.ndarray, coeffs: np.ndarray, prime: int):
    """Sorted distinct keys with the sums mod prime of their coefficients,
    zero sums dropped."""
    if not len(keys):
        return keys, coeffs
    # timsort finds a product's sorted runs, sparing Python-int compares
    order = np.argsort(keys, kind="stable" if keys.dtype == object else None)
    keys = keys[order]
    new = (keys[1:] != keys[:-1]).astype(bool, copy=False)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    sums = np.add.reduceat(coeffs[order], starts) % prime
    keep = sums != 0
    return keys[starts[keep]], sums[keep]


def _table(keys: np.ndarray, coeffs: np.ndarray, size: int, span: int):
    """The terms of owners 0..size-1, keys sorted, as a (factor, term)
    table: row f holds owner f's terms moved to owner 0, padded with key
    0 and coefficient 0."""
    owners = _owners(keys, span)
    pos = np.arange(len(owners)) - np.searchsorted(owners, owners)
    tkeys = np.zeros((size, int(pos.max(initial=-1)) + 1), dtype=keys.dtype)
    tcoeffs = np.zeros(tkeys.shape, dtype=coeffs.dtype)
    tkeys[owners, pos], tcoeffs[owners, pos] = _own(keys, 0, span), coeffs
    return tkeys, tcoeffs


def _times(keys, coeffs, table, prime: int, span: int, fac=None):
    """Collected sum of every row (keys, coeffs) times every term of its
    factor, row fac[row] of the table (its one row, broadcast, if it has
    one; rows with fac -1 are kept).  A padding product adds 0 to its
    row's key.  Blocks merge into the running result once half of
    BLOCK_ENTRIES entries wait, so a large product merges block by block."""
    tkeys, tcoeffs = table
    held, waiting = [(keys[:0], coeffs[:0])], 0
    if fac is not None:
        keep = fac < 0
        held, fac = [(keys[keep], coeffs[keep])], fac[~keep]
        keys, coeffs = keys[~keep], coeffs[~keep]
    for blk in blocks(len(keys), tkeys[0].size):
        tk, tc = (tkeys, tcoeffs) if len(tkeys) == 1 else (tkeys[fac[blk]], tcoeffs[fac[blk]])
        held.append(((keys[blk, None] + tk).ravel(),
                     (coeffs[blk, None] * tc % prime).ravel()))
        waiting += len(held[-1][1])
        if waiting >= BLOCK_ENTRIES // 2:
            held, waiting = [_merge(held, prime, span)], 0
    return _merge(held, prime, span)


def _merge(held: list, prime: int, span: int):
    """Collect the pairs of held, emptying it first to free them early;
    term_cap is checked on the largest owner."""
    keys, coeffs = (np.concatenate(part) for part in zip(*held))
    held.clear()
    keys, coeffs = _collect(keys, coeffs, prime)
    limit = _cap("term_cap")
    if len(keys) > limit and np.bincount(_owners(keys, span)).max() > limit:
        refuse("term_cap", f"polynomial product passed {limit} terms")
    return keys, coeffs


def _canonical(rows: np.ndarray, coeffs: np.ndarray, prime: int):
    """Distinct rows in lex order with the sums mod prime of their
    coefficients, zero sums dropped."""
    top = int(rows.max(initial=0))
    keys, coeffs = _collect(_pack(rows, top), coeffs, prime)
    return _unpack(keys, top, rows.shape[1]), coeffs


def _top(exps: np.ndarray) -> np.ndarray:
    """Largest exponent of each variable (0 for a zero polynomial)."""
    return exps.max(axis=0, initial=0)


def _powers(img: "FpPolynomial", ks: np.ndarray, top: int, owners: int):
    """Table of img**k for the increasing positive exponents ks: each
    starts at 1, and at binary digit j one product multiplies those whose
    k has the digit by img**(2^j)."""
    p, m, span = img.prime, img.nvars, (top + 1) ** img.nvars
    keys = _own(_pack(np.zeros((len(ks), m), dtype=np.int64), top, owners),
                np.arange(len(ks)), span)
    coeffs, square = np.ones(len(ks), dtype=img.coeffs.dtype), img
    for j in range(int(ks[-1]).bit_length()):
        square = square * square if j else img
        keys, coeffs = _times(keys, coeffs,
                              (_pack(square.exps, top, owners)[None], square.coeffs[None]),
                              p, span, np.where(ks[_owners(keys, span)] >> j & 1, 0, -1))
    return _table(keys, coeffs, len(ks), span)


class FpPolynomial:
    __slots__ = ("prime", "nvars", "exps", "coeffs")

    def __init__(self, prime: int, nvars: int, terms: dict[Exponents, int]):
        for exps in terms:
            if len(exps) != nvars or not all(isinstance(e, (int, np.integer)) and e >= 0
                                             for e in exps):
                raise ValueError(f"exponent tuple {exps} is not {nvars} non-negative integers")
        rows = np.array(list(terms), dtype=np.int64).reshape(len(terms), nvars)
        coeffs = np.array([c % prime for c in terms.values()], dtype=_dtype(prime))
        self._hold(prime, nvars, *_canonical(rows, coeffs, prime))

    def _hold(self, prime, nvars, exps, coeffs):
        # read-only: arrays are shared between polynomials
        exps.flags.writeable = coeffs.flags.writeable = False
        self.prime, self.nvars, self.exps, self.coeffs = prime, nvars, exps, coeffs

    @classmethod
    def _wrap(cls, prime, nvars, exps, coeffs) -> "FpPolynomial":
        """Wrap arrays that are already in canonical form."""
        out = cls.__new__(cls)
        out._hold(prime, nvars, exps, coeffs)
        return out

    @property
    def terms(self) -> dict[Exponents, int]:
        """The terms as an exponent tuple -> coefficient dict (a copy)."""
        return dict(zip(map(tuple, self.exps.tolist()), self.coeffs.tolist()))

    @classmethod
    def constant(cls, prime: int, nvars: int, c: int) -> "FpPolynomial":
        return cls(prime, nvars, {(0,) * nvars: c})

    # -- ring operations ----------------------------------------------

    def _compat(self, other: "FpPolynomial"):
        if self.prime != other.prime or self.nvars != other.nvars:
            raise ValueError("mixed primes or variable counts")

    def __add__(self, other):
        if not isinstance(other, FpPolynomial):
            return NotImplemented
        self._compat(other)
        return FpPolynomial._wrap(self.prime, self.nvars, *_canonical(
            np.concatenate((self.exps, other.exps)),
            np.concatenate((self.coeffs, other.coeffs)), self.prime))

    def __mul__(self, other):
        if not isinstance(other, FpPolynomial):
            return NotImplemented
        self._compat(other)
        p, n = self.prime, self.nvars
        top = int((_top(self.exps) + _top(other.exps)).max(initial=0))
        keys, coeffs = _times(_pack(self.exps, top), self.coeffs,
                              (_pack(other.exps, top)[None], other.coeffs[None]),
                              p, (top + 1) ** n)
        return FpPolynomial._wrap(p, n, _unpack(keys, top, n), coeffs)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return FpPolynomial.constant(self.prime, self.nvars, 1) if result is None else result

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpPolynomial) and self.prime == other.prime
                and self.nvars == other.nvars
                and np.array_equal(self.exps, other.exps)
                and np.array_equal(self.coeffs, other.coeffs))

    def is_zero(self) -> bool:
        return not len(self.coeffs)

    # -- structure ----------------------------------------------------

    def degrees(self) -> list[int]:
        """Sorted list of total degrees with a nonzero homogeneous part."""
        return sorted(set(self.exps.sum(axis=1).tolist()))

    def homogeneous_part(self, d: int) -> "FpPolynomial":
        keep = self.exps.sum(axis=1) == d
        return FpPolynomial._wrap(self.prime, self.nvars, self.exps[keep],
                                  self.coeffs[keep])

    def substitute(self, images: Sequence["FpPolynomial"]) -> "FpPolynomial":
        """Plug images[i] in for variable i (images share one variable set).

        One variable at a time over all terms at once: the state holds the
        terms of every term's partial product, owned by the term id.  A
        one-term image only shifts keys and scales coefficients.  For a
        multi-term image, _powers builds every power images[i]**k that a
        term needs from the binary digits of k, and one product then
        multiplies each row by the power of its term's exponent.
        term_cap fires as soon as one power or one term's partial product
        passes the cap, as it would multiplying that term out alone.
        """
        if len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} substitution images")
        if images:
            p, m = images[0].prime, images[0].nvars
        else:
            p, m = self.prime, 0
        if p != self.prime:
            raise ValueError("substitution images over a different prime")
        for img in images:
            img._compat(images[0])
        top = sum(int(k) * int(img.exps.max(initial=0))
                  for k, img in zip(_top(self.exps), images))
        terms, span = len(self.coeffs), (top + 1) ** m
        # a power's exponent is at most top, so top + 1 bounds its owners
        owners = max(terms, top + 1)
        keys = _own(_pack(np.zeros((terms, m), dtype=np.int64), top, owners),
                    np.arange(terms), span)
        coeffs = self.coeffs
        for i, img in enumerate(images):
            ks = self.exps[_owners(keys, span), i]
            if len(img.coeffs) == 1:
                # c*x^e: shift keys and scale coefficients; the rows of one
                # term share k, so they stay sorted and distinct
                c = int(img.coeffs[0])
                c_pow = np.array([pow(c, k, p) for k in range(int(ks.max(initial=0)) + 1)],
                                 dtype=coeffs.dtype)
                keys = keys + ks.astype(keys.dtype, copy=False) * _pack(img.exps, top, owners)[0]
                coeffs = coeffs * c_pow[ks] % p
                continue
            need = sorted_distinct(ks[ks > 0])
            if len(need):
                keys, coeffs = _times(keys, coeffs, _powers(img, need, top, owners), p, span,
                                      np.where(ks > 0, np.searchsorted(need, ks), -1))
        keys, coeffs = _collect(_own(keys, 0, span), coeffs, p)
        return FpPolynomial._wrap(p, m, _unpack(keys, top, m), coeffs)

    def substitute_linear(self, matrix: Sequence[Sequence[int]]) -> "FpPolynomial":
        """Linear change of variables: x_i becomes sum_j matrix[j][i] * x_j.
        Each image is built in canonical form, its unit rows x_n's first
        and its coefficients the nonzero entries mod p of column i."""
        n, p = self.nvars, self.prime
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError(f"need an {n}x{n} matrix")
        units = np.eye(n, dtype=np.int64)[::-1]
        rows = np.array([[c % p for c in matrix[j]] for j in range(n - 1, -1, -1)],
                        dtype=_dtype(p)).reshape(n, n)
        return self.substitute([FpPolynomial._wrap(p, n, units[c != 0], c[c != 0])
                                for c in rows.T])

    def is_symmetric(self) -> bool:
        if self.nvars <= 1:
            return True
        n = self.nvars
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        cycle = list(range(1, n)) + [0]
        return all(FpPolynomial._wrap(self.prime, n, *_canonical(
            self.exps[:, perm], self.coeffs, self.prime)) == self
            for perm in (swap, cycle))

    # -- printing -----------------------------------------------------

    def format(self, varname: str = "x") -> str:
        """The terms in graded lexicographic order, joined by " + ": a
        term is its coefficient, unless 1 and the term not constant, and
        its factors x{i} or x{i}^{e}, joined by "*".  Each variable's
        factor strings are built once, for the exponents present, and
        looked up along its exponent column."""
        if self.is_zero():
            return "0"
        order = np.lexsort((*(-self.exps[:, ::-1].T), self.exps.sum(axis=1)))
        columns = []
        for i, col in enumerate(self.exps[order].T.tolist()):
            names = {e: f"{varname}{i + 1}^{e}" if e > 1 else f"{varname}{i + 1}" if e else ""
                     for e in set(col)}
            columns.append(map(names.__getitem__, col))
        parts = []
        rows = zip(*columns) if columns else itertools.repeat(())
        for c, factors in zip(self.coeffs[order].tolist(), rows):
            term = "*".join(filter(None, factors))
            parts.append(f"{c}*{term}" if term and c != 1 else term or str(c))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"FpPolynomial(p={self.prime}, {self.format()})"


def product_tree(prime: int, nvars: int, node: np.ndarray, exps: np.ndarray,
                 coeffs: np.ndarray, arity: int) -> FpPolynomial:
    """Product of the polynomials 0, 1, ..., given as terms (exps[t],
    coeffs[t]) of polynomial node[t], node increasing, as an arity-ary
    tree in node order, one level at a time: owner g of the next level
    starts as node g*arity, and position i = 1..arity-1 is one product
    that multiplies each owner by its i-th node, if it has one."""
    # the sum of all the terms' exponents bounds the product's
    count, top = int(node[-1]) + 1, int(exps.sum(axis=0).max(initial=0))
    span = (top + 1) ** nvars
    keys, coeffs = _own(_pack(exps, top, count), node, span), coeffs.astype(_dtype(prime))
    if count == 1:
        keys, coeffs = _collect(keys, coeffs, prime)
    while count > 1:
        owners = _owners(keys, span)
        pos, held, held_coeffs = owners % arity, _own(keys, owners // arity, span), coeffs
        keys, coeffs, size = held[pos == 0], coeffs[pos == 0], -(-count // arity)
        for i in range(1, min(arity, count)):
            at, g = pos == i, _owners(keys, span)
            keys, coeffs = _times(keys, coeffs, _table(held[at], held_coeffs[at], size, span),
                                  prime, span, np.where(g * arity + i < count, g, -1))
        count = size
    return FpPolynomial._wrap(prime, nvars, _unpack(keys, top, nvars), coeffs)


@lru_cache(maxsize=None)
def elementary_symmetric(prime: int, nvars: int, k: int) -> FpPolynomial:
    """The k-th elementary symmetric polynomial in nvars variables."""
    terms: dict[Exponents, int] = {}
    for combo in itertools.combinations(range(nvars), k):
        terms[tuple(1 if i in combo else 0 for i in range(nvars))] = 1
    return FpPolynomial(prime, nvars, terms)


def symmetric_reduce(f: FpPolynomial) -> FpPolynomial:
    """Rewrite a symmetric polynomial in the elementary symmetric basis.

    Returns g with g(e_1, ..., e_n) == f; variable i of the result stands
    for e_{i+1}.  Standard leading-term elimination: the graded-lex
    leading exponent of a symmetric polynomial is weakly decreasing, and
    subtracting the matching product of elementary symmetric polynomials
    strictly lowers it.  Raises NotSymmetric for non-symmetric input.
    """
    if not f.is_symmetric():
        raise NotSymmetric(f"{f} is not symmetric in its {f.nvars} variables")
    n = f.nvars
    p = f.prime
    sigmas = [elementary_symmetric(p, n, k) for k in range(1, n + 1)]
    out: dict[Exponents, int] = {}
    powers: dict[tuple[int, int], FpPolynomial] = {}
    rest = f
    while not rest.is_zero():
        # rows are in lex order: the last one of top degree leads
        deg = rest.exps.sum(axis=1)
        at = np.flatnonzero(deg == deg.max())[-1]
        lead, c = rest.exps[at].tolist(), int(rest.coeffs[at])
        shape = tuple(lead[i] - (lead[i + 1] if i + 1 < n else 0)
                      for i in range(n))
        prod = FpPolynomial.constant(p, n, -c)
        for i, m in enumerate(shape):
            if m:
                if (i, m) not in powers:
                    powers[i, m] = sigmas[i] ** m
                prod = prod * powers[i, m]
        rest = rest + prod
        out[shape] = c
    return FpPolynomial(p, n, out)
