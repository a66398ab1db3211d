"""Sparse multivariate polynomials over a prime field.

Terms live in a dict keyed by exponent tuples; zero coefficients are never
stored, so equality is plain dict equality.  Printing uses graded
lexicographic order (total degree ascending, earlier variables first
within a degree), the same order the symmetric reduction walks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from .config import cap as _cap
from .errors import CapExceeded, NotSymmetric

Exponents = tuple[int, ...]


class FpPolynomial:
    __slots__ = ("prime", "nvars", "terms")

    def __init__(self, prime: int, nvars: int,
                 terms: dict[Exponents, int] | None = None):
        self.prime = prime
        self.nvars = nvars
        clean: dict[Exponents, int] = {}
        for exps, c in (terms or {}).items():
            c %= prime
            if c:
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} has wrong length")
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, prime: int, nvars: int) -> "FpPolynomial":
        return cls(prime, nvars, {})

    @classmethod
    def constant(cls, prime: int, nvars: int, c: int) -> "FpPolynomial":
        return cls(prime, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, prime: int, nvars: int) -> "FpPolynomial":
        return cls.constant(prime, nvars, 1)

    @classmethod
    def variable(cls, prime: int, nvars: int, i: int) -> "FpPolynomial":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(prime, nvars, {exps: 1})

    @classmethod
    def linear_form(cls, prime: int, coeffs: Sequence[int]) -> "FpPolynomial":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c % prime:
                terms[tuple(1 if j == i else 0 for j in range(n))] = c % prime
        return cls(prime, n, terms)

    # -- ring operations ----------------------------------------------

    def _compat(self, other: "FpPolynomial"):
        if self.prime != other.prime or self.nvars != other.nvars:
            raise ValueError("mixed primes or variable counts")

    def __add__(self, other):
        if isinstance(other, int):
            other = FpPolynomial.constant(self.prime, self.nvars, other)
        self._compat(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = (out.get(exps, 0) + c) % self.prime
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return FpPolynomial(self.prime, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(self.prime - 1)

    def __sub__(self, other):
        if isinstance(other, int):
            other = FpPolynomial.constant(self.prime, self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._compat(other)
        limit = _cap("term_cap")
        out: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = (out.get(exps, 0) + c1 * c2) % self.prime
                if s:
                    out[exps] = s
                    if len(out) > limit:
                        raise CapExceeded(
                            "term_cap",
                            f"polynomial product passed {limit} terms; "
                            f"raise ELABCAT_TERM_CAP to allow more")
                else:
                    out.pop(exps, None)
        return FpPolynomial(self.prime, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = FpPolynomial.one(self.prime, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: int) -> "FpPolynomial":
        c %= self.prime
        return FpPolynomial(self.prime, self.nvars,
                            {e: (v * c) % self.prime for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = FpPolynomial.constant(self.prime, self.nvars, other)
        return (isinstance(other, FpPolynomial) and self.prime == other.prime
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.prime, self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ----------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degrees(self) -> list[int]:
        """Sorted list of total degrees with a nonzero homogeneous part."""
        return sorted({sum(e) for e in self.terms})

    def homogeneous_part(self, d: int) -> "FpPolynomial":
        return FpPolynomial(self.prime, self.nvars,
                            {e: c for e, c in self.terms.items() if sum(e) == d})

    def substitute(self, images: Sequence["FpPolynomial"]) -> "FpPolynomial":
        """Plug images[i] in for variable i (images share one variable set)."""
        if len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} substitution images")
        if images:
            p, m = images[0].prime, images[0].nvars
        else:
            p, m = self.prime, 0
        if p != self.prime:
            raise ValueError("substitution images over a different prime")
        out = FpPolynomial.zero(p, m)
        power_memo: dict[tuple[int, int], FpPolynomial] = {}

        def power(i: int, k: int) -> FpPolynomial:
            key = (i, k)
            got = power_memo.get(key)
            if got is None:
                got = images[i] ** k
                power_memo[key] = got
            return got

        for exps, c in self.terms.items():
            term = FpPolynomial.constant(p, m, c)
            for i, k in enumerate(exps):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    def substitute_linear(self, matrix: Sequence[Sequence[int]]) -> "FpPolynomial":
        """Linear change of variables: x_i becomes sum_j matrix[j][i] * x_j."""
        n = self.nvars
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError(f"need an {n}x{n} matrix")
        images = [FpPolynomial.linear_form(self.prime,
                                           [matrix[j][i] for j in range(n)])
                  for i in range(n)]
        return self.substitute(images)

    def is_symmetric(self) -> bool:
        if self.nvars <= 1:
            return True
        n = self.nvars
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        cycle = list(range(1, n)) + [0]
        for perm in (swap, cycle):
            permuted = {tuple(e[perm[i]] for i in range(n)): c
                        for e, c in self.terms.items()}
            if permuted != self.terms:
                return False
        return True

    # -- printing -----------------------------------------------------

    @staticmethod
    def _order_key(exps: Exponents):
        return (sum(exps), tuple(-e for e in exps))

    def format(self, varname: str = "x") -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=self._order_key):
            c = self.terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"{varname}{i + 1}")
                elif e > 1:
                    factors.append(f"{varname}{i + 1}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"FpPolynomial(p={self.prime}, {self.format()})"


@lru_cache(maxsize=None)
def elementary_symmetric(prime: int, nvars: int, k: int) -> FpPolynomial:
    """The k-th elementary symmetric polynomial in nvars variables."""
    if k == 0:
        return FpPolynomial.one(prime, nvars)
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
    out = FpPolynomial.zero(p, n)
    rest = f
    while not rest.is_zero():
        lead = max(rest.terms, key=lambda e: (sum(e), e))
        c = rest.terms[lead]
        if any(lead[i] < lead[i + 1] for i in range(n - 1)):
            raise NotSymmetric("leading exponent not weakly decreasing")
        shape = [lead[i] - (lead[i + 1] if i + 1 < n else 0) for i in range(n)]
        prod = FpPolynomial.one(p, n)
        for i, m in enumerate(shape):
            if m:
                prod = prod * (sigmas[i] ** m)
        rest = rest - prod.scale(c)
        out = out + FpPolynomial(p, n, {tuple(shape): c})
    return out


def expand_in_elementaries(g: FpPolynomial) -> FpPolynomial:
    """Inverse direction of symmetric_reduce: plug e_k in for variable k-1."""
    sigmas = [elementary_symmetric(g.prime, g.nvars, k)
              for k in range(1, g.nvars + 1)]
    return g.substitute(sigmas)
