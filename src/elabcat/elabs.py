"""Enumeration of elementary abelian p-subgroups.

A subgroup is stored by its sorted tuple of element indices in the ambient
group plus a canonical basis chosen greedily: repeatedly take the smallest
element (in ambient index order) outside the span so far.  Two subgroups
with equal element sets therefore compare equal and print identically, no
matter how they were produced.

Its coordinates over F_p are one array in one order: by_code[c] is the
element b1^v1 * ... * br^vr for the code c = sum v_i p^i.  That is the
order in which a span grows, span * b^t for t = 0, ..., p-1, so a span
is a few batched products of the ambient group, and the hom-set searches
and the closure read their coordinates from the same array.

The catalog is built rank by rank by centralizer descent (see
enumerate_elabs), each rank in a few array passes: each member is built
once, from one parent E and one x in C_G(E), and its basis and by_code
are E's extended by x, read off the span E*<x> that built it.  Which x
lie in C_G(E) comes from one commuting-pairs relation on the order-p
elements, tested on conjugacy class representatives only and carried to
the other elements by their class witnesses (_commuting_pairs); every
rank reads it by sorted lookups.  from_element_indices, with its
checks, serves every other caller.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import cap as _cap
from .errors import (CapExceeded, CatalogMismatch, ElementNotInSubgroup,
                     InvalidPermutation)
from .groups import (FiniteGroup, Perm, blocks, find_sorted, orbits, ranges,
                     row_keys, row_positions, sorted_distinct)

Vector = tuple[int, ...]


class ElabSubgroup:
    """An elementary abelian p-subgroup of a fixed ambient group.

    basis is the canonical ordered basis (ambient element indices), and
    by_code identifies the subgroup with F_p^rank: by_code[c] is the
    ambient index of b1^v1 * ... * br^vr for the code c = sum v_i p^i.
    elements is the sorted tuple of the same indices.
    """

    __slots__ = ("ambient", "prime", "rank", "basis", "elements", "by_code", "_order")

    def __init__(self, ambient: FiniteGroup, prime: int, basis: Sequence[int],
                 by_code: np.ndarray, order: Optional[np.ndarray] = None):
        self.ambient = ambient
        self.prime = prime
        self.rank = len(basis)
        self.basis = tuple(basis)
        self.by_code = by_code
        self.by_code.flags.writeable = False
        # codes in element order; order, when given, is np.argsort(by_code)
        self._order = np.argsort(by_code) if order is None else order
        self.elements = tuple(by_code[self._order].tolist())

    @classmethod
    def from_element_indices(cls, ambient: FiniteGroup, prime: int,
                             indices: Iterable[int]) -> "ElabSubgroup":
        """Canonicalize an element-index set into a subgroup object.

        Validates that the set is closed, every non-identity member has
        order prime, and the basis generates it freely.
        """
        ident = ambient.identity_index
        idx = sorted_distinct(np.append(np.fromiter(indices, dtype=np.int64), ident))
        orders = ambient.element_orders[idx]
        bad = (orders != prime) & (idx != ident)
        if bad.any():
            k = int(np.argmax(bad))
            raise InvalidPermutation(
                f"element {idx[k]} has order {orders[k]}, expected {prime}")
        basis: list[int] = []
        span = idx[:1]                      # the identity, the smallest index
        covered = np.zeros(len(idx), dtype=bool)     # which of idx span holds
        covered[0] = True
        while not covered.all():
            b = int(idx[np.argmin(covered)])   # the smallest element outside
            basis.append(b)
            span = _times_powers(ambient, span, b, prime)
            at, found = find_sorted(idx, span)
            if not found.all():
                raise InvalidPermutation("element set is not closed under products")
            covered[at] = True
            if covered.sum() != len(span):
                raise InvalidPermutation("basis does not generate freely")
        return cls(ambient, prime, basis, span)

    @classmethod
    def generated_by(cls, ambient: FiniteGroup, prime: int,
                     gens: Iterable[int]) -> "ElabSubgroup":
        """Subgroup generated by commuting order-p element indices."""
        span = np.array([ambient.identity_index], dtype=np.int64)
        for g in gens:
            span = sorted_distinct(_times_powers(ambient, span, g, prime))
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

    def codes_of(self, indices) -> np.ndarray:
        """Code of each ambient element index, -1 for those outside."""
        at, found = find_sorted(self.by_code[self._order], np.asarray(indices))
        return np.where(found, self._order[at], -1)

    def contains_index(self, i: int) -> bool:
        return i in self.elements

    def vector_of_index(self, i: int) -> Vector:
        # the scalar form of codes_of: a bisection of the sorted elements
        at = bisect_left(self.elements, i)
        if at == len(self.elements) or self.elements[at] != i:
            raise ElementNotInSubgroup(f"element index {i} not in subgroup")
        code = int(self._order[at])
        return tuple(code // self.prime ** k % self.prime for k in range(self.rank))

    def index_of_vector(self, v: Sequence[int]) -> int:
        if len(v) != self.rank:
            raise ElementNotInSubgroup(
                f"vector length {len(v)} != rank {self.rank}")
        code = 0
        for x in reversed(v):
            code = code * self.prime + x % self.prime
        return int(self.by_code[code])


def _times_powers(G: FiniteGroup, span: np.ndarray, g, p: int) -> np.ndarray:
    """span * g^t for t = 0, ..., p-1, joined in that order along the last
    axis: the code order of a span grown by one basis element.  Rows of
    spans may each take their own g (a column of indices)."""
    parts = [span]
    for _ in range(p - 1):
        parts.append(G.mul(parts[-1], g))
    return np.concatenate(parts, axis=-1)


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
    (canonical kind, i, j) for every category over this catalog, a_rows
    holds row i of A, every A-morphism out of a class representative i,
    once it is built, and sizes holds each kind's class_sizes matrix; only
    categories reads or fills them.
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
    a_rows: dict = field(default_factory=dict, repr=False, compare=False)
    sizes: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.subgroups)

    def index_of(self, E: ElabSubgroup) -> int:
        if E.ambient is not self.group or E.prime != self.prime:
            raise CatalogMismatch("subgroup is not from this catalog's group")
        return self.index_of_elements(E.elements)

    def index_of_elements(self, indices: Iterable[int]) -> int:
        """The member whose element set is the given ambient indices, in
        any order; CatalogMismatch when no member has it."""
        try:
            return self._by_elements[tuple(sorted(indices))]
        except KeyError:
            raise CatalogMismatch("subgroup not present in catalog") from None

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

    @cached_property
    def class_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, members, witnesses): members[starts[c]:starts[c + 1]]
        are the members of class c, increasing, each beside its witness."""
        class_of = np.array(self.class_of)
        members = np.argsort(class_of, kind="stable")
        starts = np.searchsorted(class_of[members], np.arange(len(self.class_reps) + 1))
        return starts, members, np.array(self.class_witness)[members]

    @cached_property
    def conjugation_codes(self) -> np.ndarray:
        """(members, largest order) table: row i holds, for each code c of
        the representative E of i's class, the code in member i of
        w^-1 * E.by_code[c] * w, w = class_witness[i]: the conjugation
        isomorphism E -> member i, in codes.  A row of rank r holds p^r
        codes, then -1.  A representative, its class's first member, has
        witness 1 and the identity row."""
        starts, members, witnesses = self.class_table
        sizes = np.array([len(E) for E in self.subgroups])[:, None]
        out = np.where(np.arange(sizes.max()) < sizes, np.arange(sizes.max()), -1)
        for c in np.flatnonzero(np.diff(starts) > 1).tolist():
            E, span = self.subgroups[self.class_reps[c]], slice(starts[c] + 1, starts[c + 1])
            conj = self.group.conjugate_indices(witnesses[span], E.by_code)
            out[members[span], :len(E)] = self.codes_in(members[span, None], conj)
        return out

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, codes) of every (member j, element x of it): the sorted
        keys j * |G| + x, and the code of x in member j at each key."""
        sizes = np.array([len(E) for E in self.subgroups])
        owner = np.repeat(np.arange(len(sizes)), sizes)
        keys = owner * len(self.group) + np.concatenate([E.by_code for E in self.subgroups])
        order = np.argsort(keys)
        codes = np.arange(len(keys)) - (np.cumsum(sizes) - sizes)[owner]
        return keys[order], codes[order]

    def codes_in(self, members, elements) -> np.ndarray:
        """Code of each element index in the member beside it (the two
        broadcast together), -1 where the element lies outside."""
        keys, codes = self._incidence
        at, found = find_sorted(keys, np.asarray(members) * len(self.group) + elements)
        return np.where(found, codes[at], -1)

    @cached_property
    def containers(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, supers): supers[starts[i]:starts[i + 1]] are the j
        with member i inside member j, increasing.

        Besides i itself, the candidates are the members of higher rank
        (members are sorted by rank) holding i's first basis element, read
        off the incidence sorted by element; each further basis element
        is one batched lookup.  Basis element k has code p^k; bases are
        padded with the identity, which every member holds.
        """
        n, order, p = len(self.subgroups), len(self.group), self.prime
        ranks = np.array(self.ranks())
        width = max(1, ranks[-1])
        keys, codes = self._incidence
        powers = np.array([p ** k for k in range(width)])
        k = np.minimum(np.searchsorted(powers, codes), width - 1)
        at = powers[k] == codes                     # basis element k
        basis = np.full((n, width), self.group.identity_index, dtype=np.int64)
        basis[keys[at] // order, k[at]] = keys[at] % order
        by_element = np.sort(keys % order * n + keys // order)     # x * n + j
        above = np.searchsorted(ranks, ranks + 1)   # the first member of higher rank
        src, at = ranges(np.searchsorted(by_element, basis[:, 0] * n + above),
                         np.searchsorted(by_element, basis[:, 0] * n + n))
        dst = by_element[at] % n
        for k in range(1, width):
            keep = find_sorted(keys, dst * order + basis[src, k])[1]
            src, dst = src[keep], dst[keep]
        src, dst = np.append(np.arange(n), src), np.append(np.arange(n), dst)
        by_src = np.argsort(src, kind="stable")     # i itself, then larger j
        return np.searchsorted(src[by_src], np.arange(n + 1)), dst[by_src]


def _commuting_pairs(G: FiniteGroup, xs: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Sorted keys g * |G| + y of the pairs (g in gens, y in xs) with
    g*y == y*g, xs sorted.

    Commutation is invariant under conjugation: g = w^-1 * r * w for r
    the representative of g's conjugacy class and w its class witness, so
    C_G(g) = w^-1 * C_G(r) * w.  Only the representatives of the classes
    of gens are tested against xs: x*y and y*x are elements of G, so they
    are equal exactly when they agree on G.base.  The row of each g is
    then its class's row conjugated by its witness, one batched lookup
    of base images for all the g with w != 1.
    """
    n, arr, base, table = len(G), G.array, G.base, G.conjugacy
    gen_list = gens.tolist()
    cls = np.array([table.class_of[g] for g in gen_list], dtype=np.int64)
    classes = sorted_distinct(cls)
    reps = np.array([table.reps[c] for c in classes.tolist()], dtype=np.int64)
    hits, cents = [], []
    for b in blocks(len(reps), 4 * len(base) * len(xs)):
        r, y = reps[b, None, None], xs[None, :, None]
        # images of the base under r*y and y*r, r applied first
        rep, at = np.nonzero((arr[y, arr[r, base]] == arr[r, arr[y, base]]).all(axis=2))
        hits.append(rep + b.start)
        cents.append(xs[at])
    rep, cent = np.concatenate(hits), np.concatenate(cents)
    of_class = np.searchsorted(classes, cls)
    owner, at = ranges(np.searchsorted(rep, of_class), np.searchsorted(rep, of_class, "right"))
    w = np.array([table.witness[g] for g in gen_list], dtype=np.int64)[owner]
    y = cent[at]
    moved = np.flatnonzero(w != G.identity_index)
    for b in blocks(len(moved), 3 * len(base)):
        m = moved[b]
        # w^-1 * y * w sends a base point x to w[y[w^-1[x]]]
        inner = arr[y[m, None], arr[G.inverse_indices[w[m]][:, None], base]]
        y[m] = G.indices_of_base_images(arr[w[m, None], inner])
    return np.sort(gens[owner] * n + y)


def enumerate_elabs(G: FiniteGroup, p: int,
                    catalog_cap: int | None = None) -> ElabCatalog:
    """Full catalog of elementary abelian p-subgroups of G.

    Rank induction by centralizer descent.  Each member E carries X(E),
    the order-p elements of C_G(E) outside E: exactly the x for which
    E*<x> is a member of the next rank, so E is maximal exactly when X(E)
    is empty.  X(trivial) is X0, every order-p element of G, and
    C_G(E*<x>) = C_{C_G(E)}(x) makes X(E*<x>) the members y of X(E) that
    commute with x and lie outside E*<x>.

    A member F of rank r+1 is built once, from its parent E = the span of
    its first r greedy basis elements and x = min(F minus E), which lies
    above E's last basis element; the candidates x that are not
    min(E*<x> minus E) are dropped.  F's greedy basis is then E's basis
    followed by x, and the span E*<x>, grown in the code order of (E's
    basis, x), is F's by_code.

    Commutation is one relation on X0, built once the members of rank 1
    exist and have passed the cap: its row for g = min(<g> minus 1), the
    generator of a member of rank 1, is C_G(g) meet X0, held as sorted
    keys g * |G| + y (see _commuting_pairs, which tests only class
    representatives).  C_G(x) = C_G(gen(x)), so X(E*<x>) is the meet of
    the row of gen(x) with X(E), less E*<x>.  Each rank walks whichever
    side holds fewer pairs in total and looks every y up in the other's
    sorted keys, X(E) packed as E * |G| + y; at rank 1 that is the rows,
    whose total is the number of commuting pairs, and no rank walks more
    pairs than X(E) holds.

    Each rank is one batch: the spans of all its (E, x) candidates, then
    the meets for all its members, both in blocks whose temporaries stay
    within BLOCK_ENTRIES entries.  Members are sorted by (rank, elements)
    at the end; their conjugacy classes are the orbits of the
    permutations the generators induce on the catalog, searched source
    by source (see groups.orbits).  Once more than catalog_cap members
    exist, CapExceeded("catalog_cap") is raised.
    """
    limit = catalog_cap if catalog_cap is not None else _cap("catalog_cap")
    n, ident = len(G), G.identity_index

    def guard(count: int):
        if count > limit:
            raise CapExceeded(
                "catalog_cap",
                f"subgroup catalog passed the cap ({limit}); "
                f"raise ELABCAT_CATALOG_CAP to allow more")

    trivial = ElabSubgroup(G, p, (), np.array([ident], dtype=np.int64))
    found = [trivial]               # every member, in the order it is built
    maximal_of: list[bool] = []     # and its maximality, once it is extended
    # a rank at a time: its members, their by_code rows, their last basis
    # elements, and X(E) of each as (owner, xs): member position and
    # element, sorted by both
    level, spans, last = [trivial], trivial.by_code[None], np.array([ident])
    xs = np.flatnonzero(G.element_orders == p)
    owner = np.zeros(len(xs), dtype=np.int64)
    pairs = None                    # the commuting pairs, once rank 1 is built
    while level:
        counts = np.bincount(owner, minlength=len(level))
        starts = np.cumsum(counts) - counts
        maximal_of += (counts == 0).tolist()
        width = spans.shape[1]
        sel = xs > last[owner]
        cand_parent, cand_x = owner[sel], xs[sel]
        children, parents, kept_x, kept_spans = [], [], [], []
        for b in blocks(len(cand_x), p * width * G.degree):
            # E * <x> for each candidate, one row each, in code order
            grown = _times_powers(G, spans[cand_parent[b]], cand_x[b, None], p)
            keep = grown[:, width:].min(axis=1) == cand_x[b]
            parents.append(cand_parent[b][keep])
            kept_x.append(cand_x[b][keep])
            kept_spans.append(grown[keep])
            children += [ElabSubgroup(G, p, level[j].basis + (x,), span, order)
                         for j, x, span, order in zip(parents[-1].tolist(), kept_x[-1].tolist(),
                                                      kept_spans[-1], kept_spans[-1].argsort())]
            guard(len(found) + len(children))
        found += children
        if not children:
            break
        parents, kept_x = np.concatenate(parents), np.concatenate(kept_x)
        kept_spans = np.concatenate(kept_spans)
        if pairs is None:
            # the members of rank 1 are the <g>, g = gen(x) for each x in them
            gen_of = np.zeros(n, dtype=np.int64)
            gen_of[kept_spans[:, 1:]] = kept_x[:, None]
            pairs = _commuting_pairs(G, xs, kept_x)

        # X(F) for F = E * <x>: the row of gen(x) meet X(E), outside F.
        # Each side is (sorted keys, each child's bounds in them, each
        # child's key of y = 0); walk the side with fewer pairs and look
        # every y up in the other
        rows = gen_of[kept_x] * n
        walk = (pairs, np.searchsorted(pairs, rows), np.searchsorted(pairs, rows + n), rows)
        other = (owner * n + xs, starts[parents], starts[parents] + counts[parents],
                 parents * n)
        if (walk[2] - walk[1]).sum() > counts[parents].sum():
            walk, other = other, walk
        (keys, lo, hi, shift), (look, _, _, offset) = walk, other
        new_owner, new_xs = [], []
        for c in blocks(len(parents), int((hi - lo).max()) * (2 + p * width)):
            child, at = ranges(lo[c], hi[c])
            child += c.start
            y = keys[at] - shift[child]
            keep = find_sorted(look, offset[child] + y)[1]
            keep &= (kept_spans[child, width:] != y[:, None]).all(axis=1)
            new_owner.append(child[keep])
            new_xs.append(y[keep])
        level, spans, last = children, kept_spans, kept_x
        owner, xs = np.concatenate(new_owner), np.concatenate(new_xs)

    order = sorted(range(len(found)), key=lambda i: (found[i].rank, found[i].elements))
    subgroups = [found[i] for i in order]
    maximal = [maximal_of[i] for i in order]
    by_elements = {E.elements: i for i, E in enumerate(subgroups)}

    # each generator's permutation of the catalog, a rank at a time: the
    # members of one rank are its rows of elements, sorted
    conj, right = G.generator_tables
    perms = np.empty((len(conj), len(subgroups)), dtype=np.int64)
    ranks = np.array([E.rank for E in subgroups])
    edges = np.searchsorted(ranks, np.arange(ranks[-1] + 2))
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        rows = np.array([E.elements for E in subgroups[lo:hi]], dtype=np.int64)
        images = np.sort(conj[:, rows], axis=2).reshape(-1, rows.shape[1])
        try:
            at = row_positions(rows, row_keys(rows), images)
        except KeyError:
            raise InvalidPermutation("catalog not closed under conjugation") from None
        perms[:, lo:hi] = lo + at.reshape(len(conj), hi - lo)
    class_of, class_reps, _, class_witness = orbits(perms, right, by_source=True)
    return ElabCatalog(G, p, subgroups, class_of.tolist(), class_reps.tolist(),
                       class_witness.tolist(), maximal, by_elements)


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
    # g maps E onto F once it conjugates E's basis into F
    gs = G.transporter_indices(E.basis[0], F.elements[1:])    # y != identity
    hits = np.flatnonzero((F.codes_of(G.conjugate_indices(gs, E.basis)) >= 0).all(axis=1))
    return G.element(int(gs[hits[0]])) if len(hits) else None


def conjugate_subgroup(G: FiniteGroup, g: Perm, E: ElabSubgroup) -> ElabSubgroup:
    """The subgroup g^-1 * E * g."""
    conj = G.conjugate_indices(G.index(g), E.elements)
    return ElabSubgroup.from_element_indices(G, E.prime, conj)
