"""Enumeration of elementary abelian p-subgroups.

A subgroup is stored by its sorted tuple of element indices in the ambient
group plus a canonical basis chosen greedily: repeatedly take the smallest
element (in ambient index order) outside the span so far.  Two subgroups
with equal element sets therefore compare equal and print identically, no
matter how they were produced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import cap as _cap
from .errors import (CapExceeded, CatalogMismatch, ElementNotInSubgroup,
                     InvalidPermutation)
from .groups import FiniteGroup, Perm

Vector = tuple[int, ...]


class ElabSubgroup:
    """An elementary abelian p-subgroup of a fixed ambient group.

    basis is the canonical ordered basis (ambient element indices), and
    the vector tables identify the subgroup with F_p^rank.  vector_element
    maps exponent vectors to elements via b1^v1 * ... * br^vr.
    """

    __slots__ = ("ambient", "prime", "rank", "basis", "elements",
                 "_vec_of", "_elt_of")

    def __init__(self, ambient: FiniteGroup, prime: int, basis: Sequence[int],
                 elements: Sequence[int], vec_of: dict[int, Vector],
                 elt_of: dict[Vector, int]):
        self.ambient = ambient
        self.prime = prime
        self.rank = len(basis)
        self.basis = tuple(basis)
        self.elements = tuple(elements)
        self._vec_of = vec_of
        self._elt_of = elt_of

    @classmethod
    def from_element_indices(cls, ambient: FiniteGroup, prime: int,
                             indices: Iterable[int]) -> "ElabSubgroup":
        """Canonicalize an element-index set into a subgroup object.

        Validates that the set is closed, every non-identity member has
        order prime, and the size is a power of the prime.
        """
        idx = sorted(set(int(i) for i in indices))
        ident = ambient.identity_index
        if ident not in idx:
            idx = sorted(idx + [ident])
        orders = ambient.element_orders
        for i in idx:
            if i != ident and orders[i] != prime:
                raise InvalidPermutation(
                    f"element {i} has order {orders[i]}, expected {prime}")
        idx_set = set(idx)
        basis: list[int] = []
        span = {ident}
        while len(span) < len(idx_set):
            outside = [i for i in idx if i not in span]
            if not outside:
                raise InvalidPermutation("element set is not closed")
            b = outside[0]
            basis.append(b)
            new_span = set()
            for s in span:
                cur = s
                for _ in range(prime):
                    new_span.add(cur)
                    cur = ambient.mul(cur, b)
            if not new_span <= idx_set:
                raise InvalidPermutation("element set is not closed under products")
            span = new_span
        rank = len(basis)
        if prime ** rank != len(idx_set):
            raise InvalidPermutation(
                f"size {len(idx_set)} is not {prime}^{rank}")
        vec_of: dict[int, Vector] = {}
        elt_of: dict[Vector, int] = {}
        for vec in itertools.product(range(prime), repeat=rank):
            e = ident
            for b, exp in zip(basis, vec):
                for _ in range(exp):
                    e = ambient.mul(e, b)
            if e in vec_of:
                raise InvalidPermutation("basis does not generate freely")
            vec_of[e] = vec
            elt_of[vec] = e
        return cls(ambient, prime, basis, idx, vec_of, elt_of)

    @classmethod
    def generated_by(cls, ambient: FiniteGroup, prime: int,
                     gens: Iterable[int]) -> "ElabSubgroup":
        """Subgroup generated by commuting order-p element indices."""
        ident = ambient.identity_index
        span = {ident}
        for g in gens:
            new_span = set()
            for s in span:
                cur = s
                for _ in range(prime):
                    new_span.add(cur)
                    cur = ambient.mul(cur, g)
            span = new_span
        return cls.from_element_indices(ambient, prime, span)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ElabSubgroup)
                and self.ambient is other.ambient
                and self.prime == other.prime
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return hash((id(self.ambient), self.prime, self.elements))

    def __repr__(self) -> str:
        return (f"ElabSubgroup(rank={self.rank}, basis={self.basis}, "
                f"ambient={self.ambient.name!r})")

    def contains_index(self, i: int) -> bool:
        return i in self._vec_of

    def vector_of_index(self, i: int) -> Vector:
        try:
            return self._vec_of[i]
        except KeyError:
            raise ElementNotInSubgroup(f"element index {i} not in subgroup")

    def index_of_vector(self, v: Sequence[int]) -> int:
        vec = tuple(x % self.prime for x in v)
        if len(vec) != self.rank:
            raise ElementNotInSubgroup(
                f"vector length {len(vec)} != rank {self.rank}")
        return self._elt_of[vec]

    def element_perms(self) -> list[Perm]:
        return [self.ambient.element(i) for i in self.elements]


def element_vector(E: ElabSubgroup, e: Perm) -> Vector:
    """Exponent vector of e over E's canonical basis."""
    return E.vector_of_index(E.ambient.index(e))


def vector_element(E: ElabSubgroup, v: Sequence[int]) -> Perm:
    """Element b1^v1 * ... * br^vr of E."""
    return E.ambient.element(E.index_of_vector(v))


@dataclass
class ElabCatalog:
    """Every elementary abelian p-subgroup of one group, classified.

    subgroups is sorted by (rank, element tuple).  class_of labels
    conjugacy classes in order of first appearance; class_witness[i] is a
    group element index conjugating the class representative onto
    subgroup i (setwise).  maximal[i] is rank-maximality under inclusion
    into other catalog members.  homs caches hom-sets under keys
    (canonical kind, i, j) for every category over this catalog; only
    categories.SubgroupCategory.hom reads or fills it.
    """

    group: FiniteGroup
    prime: int
    subgroups: list[ElabSubgroup]
    class_of: list[int]
    class_reps: list[int]
    class_witness: list[int]
    maximal: list[bool]
    _by_elements: dict[tuple[int, ...], int] = field(default_factory=dict, repr=False)
    homs: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.subgroups)

    def index_of(self, E: ElabSubgroup) -> int:
        if E.ambient is not self.group or E.prime != self.prime:
            raise CatalogMismatch("subgroup is not from this catalog's group")
        try:
            return self._by_elements[E.elements]
        except KeyError:
            raise CatalogMismatch("subgroup not present in catalog")

    def class_count(self) -> int:
        return len(self.class_reps)

    def ranks(self) -> list[int]:
        return [E.rank for E in self.subgroups]

    def classes_by_rank(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for rep in self.class_reps:
            r = self.subgroups[rep].rank
            out[r] = out.get(r, 0) + 1
        return out

    def maximal_class_indices(self) -> list[int]:
        # maximality is a class invariant; checked in the test suite
        return [c for c, rep in enumerate(self.class_reps) if self.maximal[rep]]


def _order_p_indices(G: FiniteGroup, p: int) -> list[int]:
    return [int(i) for i in np.nonzero(G.element_orders == p)[0]]


def _centralizer_of_set(G: FiniteGroup, idxs: Sequence[int]) -> np.ndarray:
    keep = None
    for i in idxs:
        cent = G.centralizer_indices(i)
        keep = cent if keep is None else np.intersect1d(keep, cent, assume_unique=True)
    if keep is None:
        keep = np.arange(len(G), dtype=np.int64)
    return keep


def enumerate_elabs(G: FiniteGroup, p: int,
                    catalog_cap: int | None = None) -> ElabCatalog:
    """Full catalog of elementary abelian p-subgroups of G.

    Rank induction: rank r+1 subgroups arise from rank r ones by
    adjoining an order-p element of the centralizer not already inside.
    Exceeding the catalog cap raises CapExceeded("catalog_cap").
    """
    limit = catalog_cap if catalog_cap is not None else _cap("catalog_cap")
    ident = G.identity_index

    def guard(count: int):
        if count > limit:
            raise CapExceeded(
                "catalog_cap",
                f"subgroup catalog passed the cap ({limit}); "
                f"raise ELABCAT_CATALOG_CAP to allow more")

    trivial = ElabSubgroup.from_element_indices(G, p, [ident])
    by_key: dict[tuple[int, ...], ElabSubgroup] = {trivial.elements: trivial}
    current = [trivial]
    while current:
        nxt: dict[tuple[int, ...], ElabSubgroup] = {}
        for E in current:
            cent = _centralizer_of_set(G, E.basis)
            orders = G.element_orders[cent]
            candidates = cent[orders == p]
            inside = set(E.elements)
            for x in candidates:
                x = int(x)
                if x in inside:
                    continue
                new_elems = set(E.elements)
                for e in E.elements:
                    cur = e
                    for _ in range(p - 1):
                        cur = G.mul(cur, x)
                        new_elems.add(cur)
                key = tuple(sorted(new_elems))
                if key in by_key or key in nxt:
                    continue
                F = ElabSubgroup.from_element_indices(G, p, key)
                nxt[key] = F
                guard(len(by_key) + len(nxt))
        by_key.update(nxt)
        current = list(nxt.values())

    subgroups = sorted(by_key.values(), key=lambda E: (E.rank, E.elements))
    by_elements = {E.elements: i for i, E in enumerate(subgroups)}

    # conjugacy classes of subgroups, orbit search along group generators
    gen_idx = [G.index(g) for g in G.generators]
    class_of = [-1] * len(subgroups)
    class_reps: list[int] = []
    class_witness = [ident] * len(subgroups)
    for start in range(len(subgroups)):
        if class_of[start] >= 0:
            continue
        label = len(class_reps)
        class_reps.append(start)
        class_of[start] = label
        class_witness[start] = ident
        frontier = [start]
        while frontier:
            nxt_frontier = []
            # one lookup per generator for the whole frontier (members of
            # one class have one size), then visited in (s, g) order
            elems = np.array([subgroups[s].elements for s in frontier], dtype=np.int64)
            conj = [G.conjugate_indices(g, elems.ravel()).reshape(elems.shape).tolist()
                    for g in gen_idx]
            for k, s in enumerate(frontier):
                for g, rows in zip(gen_idx, conj):
                    t = by_elements.get(tuple(sorted(rows[k])))
                    if t is None:
                        raise InvalidPermutation(
                            "catalog not closed under conjugation")
                    if class_of[t] < 0:
                        class_of[t] = label
                        class_witness[t] = G.mul(class_witness[s], g)
                        nxt_frontier.append(t)
            frontier = nxt_frontier

    # maximality: contained in no rank+1 member
    by_rank: dict[int, list[int]] = {}
    for i, E in enumerate(subgroups):
        by_rank.setdefault(E.rank, []).append(i)
    elem_sets = [frozenset(E.elements) for E in subgroups]
    maximal = []
    for i, E in enumerate(subgroups):
        bigger = by_rank.get(E.rank + 1, [])
        maximal.append(not any(elem_sets[i] <= elem_sets[j] for j in bigger))

    return ElabCatalog(G, p, subgroups, class_of, class_reps, class_witness,
                       maximal, by_elements)


def p_rank(catalog: ElabCatalog) -> int:
    return max(E.rank for E in catalog.subgroups)


def is_conjugate_subgroup(G: FiniteGroup, E: ElabSubgroup,
                          F: ElabSubgroup) -> Optional[Perm]:
    """A witness g with conjugate(g, E) == F setwise, or None.

    Searches the transporter coset of one basis element against each
    order-p element of F, so the cost is bounded by
    |F| * |centralizer(basis element)|.
    """
    if E.ambient is not G or F.ambient is not G or E.prime != F.prime:
        raise CatalogMismatch("subgroups must live in the given group")
    if E.rank != F.rank:
        return None
    if E.rank == 0:
        return G.element(G.identity_index)
    target = set(F.elements)
    b = E.basis[0]
    e_arr = np.array(E.elements, dtype=np.int64)
    for y in F.elements:
        if y == F.ambient.identity_index:
            continue
        for g in G.transporter_indices(b, y):
            conj = G.conjugate_indices(int(g), e_arr)
            if set(int(c) for c in conj) == target:
                return G.element(int(g))
    return None


def conjugate_subgroup(G: FiniteGroup, g: Perm, E: ElabSubgroup) -> ElabSubgroup:
    """The subgroup g^-1 * E * g."""
    gi = G.index(g)
    conj = G.conjugate_indices(gi, np.array(E.elements, dtype=np.int64))
    return ElabSubgroup.from_element_indices(G, E.prime, (int(c) for c in conj))
