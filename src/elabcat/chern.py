"""Total Chern classes of abelian character lists, mod p.

A weight is a character of (Z/p)^n, written as its exponent vector; its
first Chern class is the corresponding linear form in n variables.  The
total Chern class of a list of weights is the product of (1 + form) over
the list, with Whitney multiplicativity by construction.  The regular
weight list (every character once) produces the Dickson invariants, whose
nonzero degrees are p^n - p^j for 0 <= j < n.  The regular product's
reduction and the p-regularity test read identities, not enumerations.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .config import cap as _cap, refuse
from .elabs import enumerate_elabs
from .errors import CatalogMismatch
from .fpmat import gl_generators
from .fppoly import FpPolynomial, product_tree
from .groups import FiniteGroup

Weight = tuple[int, ...]


class _Weights(NamedTuple):
    prime: int
    rank: int
    weights: tuple[Weight, ...]


class WeightList(_Weights):
    """A finite multiset of characters of (Z/p)^rank, order preserved;
    its length is the number of weights, so a changed list, joined or
    repeated, is built by WeightList(prime, rank, weights), not by the
    tuple's _replace or _make."""

    __slots__ = ()

    def __new__(cls, prime: int, rank: int, weights: tuple[Weight, ...]):
        for w in weights:
            if len(w) != rank:
                raise ValueError(f"weight {w} has length != {rank}")
            if any(not 0 <= x < prime for x in w):
                raise ValueError(f"weight {w} not reduced mod {prime}")
        return super().__new__(cls, prime, rank, weights)

    def __len__(self) -> int:
        return len(self.weights)


def _check_count(base: int, exp: int = 1) -> None:
    """CapExceeded("term_cap") before base^exp weights, or terms of the
    regular product, are built or multiplied out."""
    limit = _cap("term_cap")
    # a base of at least 2 passes the cap once exp passes its bit length
    if base ** min(exp, limit.bit_length()) > limit:
        refuse("term_cap", f"{base}^{exp} weights pass the term cap ({limit})")


def regular_weights(p: int, n: int) -> WeightList:
    """Every character of (Z/p)^n exactly once, in lex order."""
    _check_count(p, n)
    return WeightList(p, n, tuple(itertools.product(range(p), repeat=n)))


def total_chern(weights: WeightList) -> FpPolynomial:
    """Product of (1 + linear form of w) over the weight list.

    The factors are multiplied as a p-ary product tree in list order:
    each node is the product of p consecutive nodes of the level below.
    On the regular weights, which are in lex order, the node over the
    weights s*p^j, ..., (s+1)*p^j - 1 is then a product over a coset
    a + U_j, where U_j holds the characters supported on the last j
    coordinates.  For a subspace U the polynomial V_U(t) = prod over
    u in U of (t + l_u) is additive in t (Wilkerson, "A primer on the
    Dickson invariants", 1983), so the node is
    prod over u in U_j of (1 + l_a + l_u) = V_U(1) + V_U(l_a),
    which has few terms.  A left-to-right product would instead carry
    every prefix of the list, and prefixes are not subspaces.

    ``fppoly.product_tree`` builds the tree a level at a time, p - 1
    batched products per level however many nodes it has.
    """
    p, n = weights.prime, weights.rank
    _check_count(len(weights))
    if not len(weights):
        return FpPolynomial.constant(p, n, 1)
    # factor s is 1 + sum_i w_i x_i: a term for the 1 and for each w_i != 0
    w = np.concatenate((np.ones((len(weights), 1), dtype=np.int64), weights.weights), axis=1)
    node, var = w.nonzero()
    return product_tree(p, n, node, np.eye(n + 1, dtype=np.int64)[var, 1:], w[node, var], p)


class DicksonReport(NamedTuple):
    prime: int
    rank: int
    expected_degrees: tuple[int, ...]
    found_degrees: tuple[int, ...]
    degrees_ok: bool
    invariant_ok: bool
    total: FpPolynomial

    @property
    def ok(self) -> bool:
        return self.degrees_ok and self.invariant_ok


def dickson_check(p: int, n: int) -> DicksonReport:
    """Total Chern class of the regular weight list, with two checks:
    the positive degrees present are exactly {p^n - p^j : 0 <= j < n},
    and the polynomial is invariant under generators of GL_n(F_p).
    """
    D = total_chern(regular_weights(p, n))
    expected = tuple(sorted(p ** n - p ** j for j in range(n)))
    found = tuple(d for d in D.degrees() if d > 0)
    invariant = all(D.substitute_linear(g) == D for g in gl_generators(p, n))
    return DicksonReport(p, n, expected, found, found == expected, invariant, D)


def regular_reduced(p: int, n: int) -> str:
    """symmetric_reduce(regular_rep_product(p, n)).format("s"), from
    the closed form ((-1)^n + sum_k (-1)^(n-k) s_k)^(p-1) (over F_p,
    1 + t + ... + t^(p-1) = (t - 1)^(p-1)): as (p-1)!/(p-1-d)! = (-1)^d d!,
    its term s^a of degree d < p has coefficient (-1)^(a_2 + a_4 + ...)
    d!/(a_1! ... a_n!), never 0 mod p: C(n+p-1, n) terms, which term_cap bounds.
    terms() walks them in graded lex order, a term's first variable
    increasing, then its exponent decreasing, then the rest so; the last
    variable takes all the degree left."""
    limit, k = _cap("term_cap"), min(n, p - 1)
    if k > limit.bit_length() or math.comb(n + p - 1, k) > limit:  # C(n+p-1, k) >= 2^k
        refuse("term_cap", f"reduced regular product passed {limit} terms")
    fact = list(itertools.accumulate(range(1, p if n else 1), lambda f, j: f * j % p, initial=1))
    inv = [pow(f, -1, p) for f in fact]

    def terms(d, start, c, sign, factors):
        if not d:
            c, term = p - c if sign else c, "*".join(factors)
            yield f"{c}*{term}" if term and c != 1 else term or str(c)
            return
        for v in range(start, n):
            for e in range(d, 0, -1) if v < n - 1 else (d,):
                name = f"s{v + 1}^{e}" if e > 1 else f"s{v + 1}"
                yield from terms(d - e, v + 1, c * inv[e] % p, sign ^ (v & e & 1),
                                 factors + [name])

    return " + ".join(t for d in range(len(fact)) for t in terms(d, 0, fact[d], 0, []))


def regular_rep_product(p: int, n: int) -> FpPolynomial:
    """Product over variables of (1 + t_i + ... + t_i^(p-1)).

    Expanding it enumerates every exponent vector in {0,...,p-1}^n once,
    so this is the multiplicative form of the regular character list; it
    is symmetric and reduces to the elementary symmetric basis.  It is
    built expanded: coefficient 1 on every such vector.  No command
    builds it: it is the oracle of regular_reduced.
    """
    _check_count(p, n)
    return FpPolynomial(p, n, dict.fromkeys(itertools.product(range(p), repeat=n), 1))


# -- characters and p-regularity --------------------------------------


class _Character(NamedTuple):
    group: FiniteGroup
    values: tuple[int, ...]


class CharacterVector(_Character):
    """Integer class function on a fully enumerated group.

    values[c] is the value on conjugacy class c, in the group's canonical
    class order, so constancy on classes holds by construction.
    """

    __slots__ = ()

    def __new__(cls, group: FiniteGroup, values: tuple[int, ...]):
        if len(values) != group.conjugacy.class_count():
            raise ValueError("one value per conjugacy class required")
        return super().__new__(cls, group, values)

    def at_element(self, i: int) -> int:
        return self.values[self.group.conjugacy.class_of[i]]

    @property
    def degree_value(self) -> int:
        return self.at_element(self.group.identity_index)


def regular_character(G: FiniteGroup) -> CharacterVector:
    ident = G.identity_index
    values = tuple(len(G) if rep == ident else 0
                   for rep in G.conjugacy.reps)
    return CharacterVector(G, values)


def permutation_character(G: FiniteGroup) -> CharacterVector:
    values = tuple(sum(1 for x, y in enumerate(G.element(rep)) if x == y)
                   for rep in G.conjugacy.reps)
    return CharacterVector(G, values)


def trivial_character(G: FiniteGroup) -> CharacterVector:
    return CharacterVector(G, (1,) * G.conjugacy.class_count())


def p_regular_failures(G: FiniteGroup, p: int, chi: CharacterVector) -> list[str]:
    """Reasons chi fails the p-regularity test; empty when it passes.

    The conditions: positive degree, vanishing on every element of order
    p, and degree divisible by the order of every maximal elementary
    abelian p-subgroup.  Together these say each maximal subgroup sees
    chi as a multiple of its regular character.  Every such order divides
    |G|_p (Lagrange), so the catalog is enumerated, and catalog_cap can
    refuse, only when |G|_p does not divide the degree: never for the
    regular character, nor when p does not divide |G|.
    """
    if chi.group is not G:
        raise CatalogMismatch("character belongs to a different group")
    failures = []
    deg = chi.degree_value
    if deg <= 0:
        failures.append(f"degree {deg} is not positive")
    orders = G.element_orders
    for c, rep in enumerate(G.conjugacy.reps):
        if orders[rep] == p and chi.values[c] != 0:
            failures.append(
                f"value {chi.values[c]} on class {c} of order-{p} elements")
    if deg % math.gcd(G.order, p ** G.order.bit_length()):        # |G|_p
        catalog = enumerate_elabs(G, p)
        ranks = catalog.ranks()[catalog.class_reps].tolist()
        failures += [f"degree {deg} not divisible by maximal subgroup order {p ** ranks[c]}"
                     for c in catalog.maximal_class_indices() if deg % p ** ranks[c]]
    return failures
