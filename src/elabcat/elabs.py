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
rank reads it by sorted lookups.

What the descent builds is what the catalog stores: each rank is one
block of by_code rows, sorted once by the row_keys of their sorted
elements, so a member is found from its element set by one sorted
lookup, and the basis of a row is its entries at the codes p^k.  No
ElabSubgroup is made while the catalog is built; catalog.subgroups, read
by the tests alone, makes every member's from its row when first read.
from_element_indices, with its checks, serves every other caller.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import Iterable

import numpy as np

from .config import cap as _cap, refuse
from .errors import CatalogMismatch, InvalidPermutation
from .fpmat import subspace_codes
from .groups import (FiniteGroup, blocks, find_sorted, orbits, ranges, row_keys,
                     row_positions, sorted_distinct)


class ElabSubgroup:
    """An elementary abelian p-subgroup of a fixed ambient group.

    basis is the canonical ordered basis (ambient element indices), and
    by_code identifies the subgroup with F_p^rank: by_code[c] is the
    ambient index of b1^v1 * ... * br^vr for the code c = sum v_i p^i.
    elements is the sorted tuple of the same indices.
    """

    __slots__ = ("ambient", "prime", "rank", "basis", "elements", "by_code", "_order")

    def __init__(self, ambient: FiniteGroup, prime: int, basis: Sequence[int],
                 by_code: np.ndarray):
        self.ambient = ambient
        self.prime = prime
        self.rank = len(basis)
        self.basis = tuple(basis)
        self.by_code = by_code
        self.by_code.flags.writeable = False
        self._order = np.argsort(by_code)           # codes in element order
        self.elements = tuple(by_code[self._order].tolist())

    @classmethod
    def from_element_indices(cls, ambient: FiniteGroup, prime: int,
                             indices: Iterable[int]) -> "ElabSubgroup":
        """Canonicalize an element-index set into a subgroup object.

        Validates that every non-identity member has order prime, that
        each basis element commutes with those before it, and that the
        set is closed; the basis then generates it freely.
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
            if basis and not np.array_equal(ambient.mul(basis, b), ambient.mul(b, basis)):
                raise InvalidPermutation(f"element {b} does not commute with the basis {basis}")
            basis.append(b)
            span = _times_powers(ambient, span, b, prime)
            at, found = find_sorted(idx, span)
            if not found.all():
                raise InvalidPermutation("element set is not closed under products")
            covered[at] = True
        return cls(ambient, prime, basis, span)

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


def _times_powers(G: FiniteGroup, span: np.ndarray, g, p: int) -> np.ndarray:
    """span * g^t for t = 0, ..., p-1, joined in that order along the last
    axis: the code order of a span grown by one basis element.  Rows of
    spans may each take their own g (a column of indices)."""
    parts = [span]
    for _ in range(p - 1):
        parts.append(G.mul(parts[-1], g))
    return np.concatenate(parts, axis=-1)


class ElabCatalog:
    """Every elementary abelian p-subgroup of one group, classified.

    Members are numbered in (rank, element tuple) order, and stored as
    arrays, a block per rank r: codes[r] holds the by_code rows of the
    members of rank r, in member order, beside each row's sorted elements
    and their row_keys (increasing), so a member is found from its element
    set by one sorted lookup (indices_of_sets).  rank_starts[r] is the
    first member of rank r.  subgroups[i] is the ElabSubgroup of member i;
    the list is built on its first read, and no catalog loop reads it.

    class_of labels conjugacy classes in order of first appearance;
    class_witness[i] is a group element index conjugating the class
    representative onto subgroup i (setwise).  maximal[i] is
    rank-maximality under inclusion into other catalog members.  These,
    class_reps and ranks() are read-only int64 (maximal bool) arrays.
    Inclusions are read only into class representatives: inside lists
    each member inside each of them, from their subspaces.  homs caches
    the hom-sets between class representatives under keys (canonical
    kind, i, j) for every category over this catalog, each once built,
    and sizes iso_classes and class_sizes by the kind's canonical form at
    each rank; only categories uses them.
    """

    def __init__(self, group: FiniteGroup, prime: int, codes: list[np.ndarray],
                 rows: list[np.ndarray], keys: list[np.ndarray], class_of: np.ndarray,
                 class_reps: np.ndarray, class_witness: np.ndarray, maximal: np.ndarray):
        self.group, self.prime = group, prime
        self.codes, self._rows, self._keys = codes, rows, keys
        self.class_of, self.class_reps = class_of, class_reps
        self.class_witness, self.maximal = class_witness, maximal
        counts = [len(c) for c in codes]
        self.rank_starts = np.cumsum([0] + counts)
        self._ranks = np.repeat(np.arange(len(codes)), counts)
        for a in (*codes, *rows, self._ranks, class_of, class_reps, class_witness, maximal):
            a.flags.writeable = False
        self.homs: dict = {}
        self.sizes: dict = {}

    def __len__(self) -> int:
        return len(self._ranks)

    @cached_property
    def subgroups(self) -> list[ElabSubgroup]:
        """Member i's ElabSubgroup at i, each built from its row."""
        p = self.prime
        return [ElabSubgroup(self.group, p, codes[p ** np.arange(r)].tolist(), codes)
                for r, rows in enumerate(self.codes) for codes in rows]

    def by_code(self, i: int) -> np.ndarray:
        """Member i's by_code row, read without building its ElabSubgroup."""
        r = self._ranks.item(i)
        return self.codes[r][i - self.rank_starts.item(r)]

    def by_codes(self, rank: int, members) -> np.ndarray:
        """The by_code rows of members, all of the given rank, as one
        (len(members), p^rank) array."""
        return self.codes[rank][np.asarray(members) - self.rank_starts[rank]]

    def index_of(self, E: ElabSubgroup) -> int:
        if E.ambient is not self.group or E.prime != self.prime:
            raise CatalogMismatch("subgroup is not from this catalog's group")
        return self.index_of_elements(E.elements)

    def index_of_elements(self, indices: Iterable[int]) -> int:
        """The member whose element set is the given ambient indices, in
        any order; CatalogMismatch when no member has it."""
        try:
            sets = np.fromiter(indices, dtype=np.int64)[None]
        except (OverflowError, TypeError, ValueError):
            raise CatalogMismatch("subgroup not present in catalog") from None
        return int(self.indices_of_sets(sets)[0])

    def indices_of_sets(self, sets: np.ndarray) -> np.ndarray:
        """The member of each row of sets, an element set in any order, all
        of one length p^r; CatalogMismatch when a row is no member's.  One
        lookup in the sorted rows of rank r."""
        r = 0
        while self.prime ** r < sets.shape[1]:
            r += 1
        if self.prime ** r != sets.shape[1] or r >= len(self.codes):
            raise CatalogMismatch("subgroup not present in catalog")
        try:
            at = row_positions(self._rows[r], self._keys[r], np.sort(sets, axis=1))
        except KeyError:
            raise CatalogMismatch("subgroup not present in catalog") from None
        return self.rank_starts[r] + at

    def class_count(self) -> int:
        return len(self.class_reps)

    def ranks(self) -> np.ndarray:
        """The rank of each member, non-decreasing; read-only."""
        return self._ranks

    def rank_reps(self, rank: int) -> np.ndarray:
        """The class representatives of the given rank, in class order."""
        return self.class_reps[self._ranks[self.class_reps] == rank]

    def classes_by_rank(self) -> dict[int, int]:
        counts = np.bincount(self._ranks[self.class_reps]).tolist()
        return {r: c for r, c in enumerate(counts) if c}

    def maximal_class_indices(self) -> list[int]:
        # maximality is a class invariant; checked in the test suite
        return np.flatnonzero(self.maximal[self.class_reps]).tolist()

    @cached_property
    def class_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, members): members[starts[c]:starts[c + 1]] are the
        members of class c, increasing."""
        members = np.argsort(self.class_of, kind="stable")
        starts = np.searchsorted(self.class_of[members], np.arange(len(self.class_reps) + 1))
        return starts, members

    @cached_property
    def conjugation_codes(self) -> np.ndarray:
        """(members, largest order) table: row i holds, for each code c of
        the representative E of i's class, the code in member i of
        w^-1 * E.by_code[c] * w, w = class_witness[i]: the conjugation
        isomorphism E -> member i, in codes.  A row of rank r holds p^r
        codes, then -1.  A representative, its class's first member, has
        witness 1 and the identity row; the others of each rank are
        conjugated in one step."""
        sizes = self.prime ** self._ranks[:, None]
        out = np.where(np.arange(sizes.max()) < sizes, np.arange(sizes.max()), -1)
        reps = self.class_reps[self.class_of]
        for r, (lo, hi) in enumerate(zip(self.rank_starts.tolist(), self.rank_starts[1:].tolist())):
            # every member of the rank but the representatives, at once
            i = lo + np.flatnonzero(reps[lo:hi] != np.arange(lo, hi))
            conj = self.group.conjugate_indices(self.class_witness[i], self.by_codes(r, reps[i]))
            out[i, :self.prime ** r] = self.codes_in(i[:, None], conj)
        return out

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, codes) of every (member j, element x of it): the sorted
        keys j * |G| + x, and the code of x in member j at each key."""
        sizes = self.prime ** self._ranks
        owner = np.repeat(np.arange(len(sizes)), sizes)
        keys = owner * len(self.group) + np.concatenate([c.ravel() for c in self.codes])
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
    def inside(self) -> tuple[np.ndarray, np.ndarray]:
        """(members, reps): every pair of a member m inside a class
        representative R, sorted by (m, R); read-only.

        Inside R of rank s lie the trivial member, R itself, and for each
        0 < r < s the members whose element sets are R's rank-r subspaces,
        looked up for every representative of rank s at once
        (indices_of_sets).  The subspaces are read for every s from one
        fpmat.subspace_codes(p, top, r) per r, top the p-rank: its rows
        whose codes all lie below p^s are subspace_codes(p, s, r), in order.
        """
        p, reps, top = self.prime, self.class_reps, len(self.codes) - 1
        # reps[0] is the trivial member
        members, supers = [np.zeros(len(reps) - 1, dtype=np.int64), reps], [reps[1:], reps]
        tops = {r: subspace_codes(p, top, r) for r in range(1, top)}
        for s in range(2, top + 1):
            R = self.rank_reps(s)
            for r in range(1, s):
                subs = tops[r][(tops[r] < p ** s).all(axis=1)]
                members.append(self.indices_of_sets(
                    self.by_codes(s, R)[:, subs].reshape(-1, p ** r)))
                supers.append(R.repeat(len(subs)))
        members, supers = np.concatenate(members), np.concatenate(supers)
        order = np.argsort(members * len(self) + supers)
        members, supers = members[order], supers[order]
        members.flags.writeable = supers.flags.writeable = False
        return members, supers


def _commuting_pairs(G: FiniteGroup, xs: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Sorted keys g * |G| + y of the pairs (g in gens, y in xs) with
    g*y == y*g, xs sorted.

    Commutation is invariant under conjugation: g = w^-1 * r * w for r
    the representative of g's conjugacy class and w its class witness, so
    C_G(g) = w^-1 * C_G(r) * w.  Only the representatives of the classes
    of gens are tested against xs: x*y and y*x are elements of G, so they
    are equal exactly when they agree on G.base.  The row of each g is
    then its class's row conjugated by its witness, one conjugate_indices
    call for every row.
    """
    n, arr, base, table = len(G), G.array, G.base, G.conjugacy
    cls = table.class_of[gens]
    classes = sorted_distinct(cls)
    reps = table.reps[classes]
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
    y = G.conjugate_indices(table.witness[gens[owner]], cent[at, None])[:, 0]
    return np.sort(gens[owner] * n + y)


def enumerate_elabs(G: FiniteGroup, p: int) -> ElabCatalog:
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
    within BLOCK_ENTRIES entries.  Each rank's members are sorted by
    their elements as soon as it is built, so the next rank's parents
    are catalog positions and the blocks are the catalog's (see
    ElabCatalog); their conjugacy classes are the orbits of the
    permutations the generators induce on the catalog (see
    groups.orbits).  Once more members exist than the catalog cap
    allows, CapExceeded("catalog_cap") is raised.
    """
    limit = _cap("catalog_cap")
    n, ident = len(G), G.identity_index

    # a rank at a time: its members' by_code rows, each row's sorted
    # elements, their row_keys, and maximality, once extended
    spans = np.array([[ident]], dtype=np.int64)
    codes, rows, keys = [spans], [spans], [row_keys(spans)]
    maximal = []
    total = 1
    # X(E) of each member E of the rank as (owner, xs): member position
    # and element, sorted by both; and each member's last basis element
    last = np.array([ident])
    xs = np.flatnonzero(G.element_orders == p)
    owner = np.zeros(len(xs), dtype=np.int64)
    pairs = None                    # the commuting pairs, once rank 1 is built
    while True:
        counts = np.bincount(owner, minlength=len(spans))
        starts = np.cumsum(counts) - counts
        maximal.append(counts == 0)
        width = spans.shape[1]
        sel = xs > last[owner]
        cand_parent, cand_x = owner[sel], xs[sel]
        parents, kept_x, kept_spans, before = [], [], [], total
        for b in blocks(len(cand_x), p * width * G.degree):
            # E * <x> for each candidate, one row each, in code order
            grown = _times_powers(G, spans[cand_parent[b]], cand_x[b, None], p)
            keep = grown[:, width:].min(axis=1) == cand_x[b]
            parents.append(cand_parent[b][keep])
            kept_x.append(cand_x[b][keep])
            kept_spans.append(grown[keep])
            total += len(kept_spans[-1])
            if total > limit:
                refuse("catalog_cap", f"subgroup catalog passed the cap ({limit})")
        if total == before:
            break
        # the rank's members in order of their sorted elements
        kept_spans = np.concatenate(kept_spans)
        sorted_rows = np.sort(kept_spans, axis=1)
        key = row_keys(sorted_rows)
        at = np.argsort(key)
        parents, kept_x = np.concatenate(parents)[at], np.concatenate(kept_x)[at]
        spans = kept_spans[at]
        codes.append(spans)
        rows.append(sorted_rows[at])
        keys.append(key[at])
        if pairs is None:
            # the members of rank 1 are the <g>, g = gen(x) for each x in them
            gen_of = np.zeros(n, dtype=np.int64)
            gen_of[spans[:, 1:]] = kept_x[:, None]
            pairs = _commuting_pairs(G, xs, kept_x)

        # X(F) for F = E * <x>: the row of gen(x) meet X(E), outside F.
        # Each side is (sorted keys, each child's bounds in them, each
        # child's key of y = 0); walk the side with fewer pairs and look
        # every y up in the other
        heads = gen_of[kept_x] * n
        walk = (pairs, np.searchsorted(pairs, heads), np.searchsorted(pairs, heads + n), heads)
        other = (owner * n + xs, starts[parents], starts[parents] + counts[parents],
                 parents * n)
        if (walk[2] - walk[1]).sum() > counts[parents].sum():
            walk, other = other, walk
        (pair_keys, lo, hi, shift), (look, _, _, offset) = walk, other
        new_owner, new_xs = [], []
        for c in blocks(len(parents), int((hi - lo).max()) * (2 + p * width)):
            child, at = ranges(lo[c], hi[c])
            child += c.start
            y = pair_keys[at] - shift[child]
            keep = find_sorted(look, offset[child] + y)[1]
            keep &= (spans[child, width:] != y[:, None]).all(axis=1)
            new_owner.append(child[keep])
            new_xs.append(y[keep])
        last = kept_x
        owner, xs = np.concatenate(new_owner), np.concatenate(new_xs)

    # each generator's permutation of the catalog, a rank at a time: the
    # members of one rank are its sorted rows of elements
    conj, right = G.generator_tables
    perms = np.zeros((len(conj), total), dtype=np.int64)
    lo = 1
    for r in range(1, len(rows)):
        hi = lo + len(rows[r])
        images = np.sort(conj[:, rows[r]], axis=2).reshape(-1, rows[r].shape[1])
        at = row_positions(rows[r], keys[r], images)
        perms[:, lo:hi] = lo + at.reshape(len(conj), hi - lo)
        lo = hi
    class_of, class_reps, _, class_witness = orbits(perms, right)
    return ElabCatalog(G, p, codes, rows, keys, class_of, class_reps, class_witness,
                       np.concatenate(maximal))


def p_rank(catalog: ElabCatalog) -> int:
    return int(catalog.ranks()[-1])

