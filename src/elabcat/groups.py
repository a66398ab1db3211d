"""Finite permutation groups with exhaustive element enumeration.

Conventions, fixed once for the whole package:

* permutations are tuples of images on {0, ..., degree-1}, so ``p[x]`` is
  the image of the point ``x``;
* composition reads left to right: ``compose(p, q)`` applies ``p`` first,
  ``compose(p, q)[x] == q[p[x]]``;
* ``conjugate(g, e)`` is ``g^-1 * e * g``, hence
  ``conjugate(g*h, e) == conjugate(h, conjugate(g, e))``.

A group is one table, the (order, degree) array of its elements' images
with rows sorted as the image tuples sort; element indices everywhere are
positions in it, which makes class labels, transporter cosets and catalog
layouts reproducible between runs.  A lookup of arbitrary rows (index,
membership, products with arbitrary elements, conjugates) is one binary
search of the rows' byte keys for a whole batch of rows (indices_of_rows).

Every group comes from one breadth-first closure (close_generators),
whose walk of the Cayley graph forms each product e * g once (Seress,
Permutation Group Algorithms, 2003).  It hands the group its sorted rows,
their keys and the right tables (the index of e * g for each generator g
and every element e), from which, with no further lookup, come

* the conjugation tables, the index of g^-1 * e * g, gathered through
  the right tables and the inverses (the one whole-group lookup);
  orbits under the generators (conjugacy classes here, subgroup
  classes in elabs) are then gathers from these tables: min-label
  propagation numbers each orbit by its smallest member, and one
  breadth-first search from all those members at once finds witnesses
  (see orbits);
* a base: points whose images already tell all elements of G apart, so
  two elements of G are equal exactly when they agree on the base, and a
  commutation test x*y == y*x is a comparison of 2*len(base) images;
  the catalog makes these tests only while it builds its commuting-pairs
  relation, on class representatives (elabs._commuting_pairs).

``elements``, the rows as a list of tuples, is built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .config import cap as _cap
from .errors import CapExceeded, DegreeMismatch, InvalidPermutation

Perm = tuple[int, ...]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of images, ordered as the rows are as tuples.

    Each row becomes its big-endian unsigned bytes; those compare (and
    sort) byte by byte exactly as the image tuples do, so the keys of a
    group's sorted elements come out sorted.
    """
    rows = rows.astype(">u4", order="C")
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def row_positions(table: np.ndarray, keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Position of each row of rows in table, whose rows are distinct and
    sorted with keys = row_keys(table); KeyError if a row is absent."""
    idx = np.searchsorted(keys, row_keys(rows))
    np.minimum(idx, len(keys) - 1, out=idx)
    if not (table[idx] == rows).all():
        raise KeyError("a row is not in the table")
    return idx


def find_sorted(sorted_arr: np.ndarray,
                values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, found) of each value in a sorted array: found says
    whether sorted_arr[position] is the value."""
    at = np.searchsorted(sorted_arr, values)
    if not len(sorted_arr):
        return at, np.zeros(np.shape(at), dtype=bool)
    at = np.minimum(at, len(sorted_arr) - 1)
    return at, sorted_arr[at] == values


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries (np.unique would import numpy.ma)."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


# entries per block of a temporary array (Aprime search, closure products,
# polynomial products)
BLOCK_ENTRIES = 1 << 18


def blocks(rows: int, width: int) -> Iterable[slice]:
    """Slices over range(rows) whose temporaries of width entries per row
    stay within BLOCK_ENTRIES entries."""
    step = max(1, BLOCK_ENTRIES // max(1, width))
    return (slice(s, s + step) for s in range(0, rows, step))


def ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, x) for every x in range(lo[t], hi[t]), t increasing."""
    sizes = hi - lo
    t = np.repeat(np.arange(len(sizes)), sizes)
    return t, np.arange(len(t)) - np.repeat(np.cumsum(sizes) - sizes, sizes) + lo[t]


def orbits(perms: np.ndarray, right: np.ndarray, by_source: bool = False
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(class_of, reps, sizes, witness) of the orbits of range(n) under the
    permutations perms[k] (a (k, n) array), with witnesses in G.

    Orbits are numbered in order of their smallest member, found by
    min-label propagation along perms and their inverses with pointer
    jumping.  Witnesses come from one breadth-first search started from
    every orbit's smallest member at once: each level visits its
    candidates (k, s), target perms[k][s], generator by generator over the
    frontier, or source by source when by_source; the first candidate to
    reach a target t sets witness[t] = right[k][witness[s]], and the
    targets reached, in that order, are the next frontier.  An orbit's
    candidates keep their relative order in the joint frontier, so each
    orbit comes out as a search from its own smallest member would give
    it.  Every smallest member has witness 0, the identity.
    """
    n = perms.shape[1]
    inverse = np.empty_like(perms)
    np.put_along_axis(inverse, perms, np.arange(n), axis=1)
    label = np.arange(n)
    while True:
        new = np.vstack((label[None], label[perms], label[inverse])).min(axis=0)
        new = new[new]
        if (new == label).all():
            break
        label = new
    reps = np.flatnonzero(label == np.arange(n))
    class_of = np.searchsorted(reps, label)
    sizes = np.bincount(class_of, minlength=len(reps))

    witness = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[reps] = True
    frontier = reps
    while len(frontier):
        targets = perms[:, frontier]
        flat = (targets.T if by_source else targets).ravel()
        fresh = np.flatnonzero(~seen[flat])
        # the first fresh candidate for each target, in candidate order:
        # sort (target, position) pairs packed into one int64
        hit, at = np.divmod(np.sort(flat[fresh] * len(flat) + fresh), len(flat))
        keep = np.ones(len(hit), dtype=bool)
        keep[1:] = hit[1:] != hit[:-1]
        first = np.sort(at[keep])
        if by_source:
            src, gen = np.divmod(first, len(perms))
        else:
            gen, src = np.divmod(first, len(frontier))
        reached = flat[first]
        witness[reached] = right[gen, witness[frontier[src]]]
        seen[reached] = True
        frontier = reached
    return class_of, reps, sizes, witness


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def _perm_rows(perms, degree: int) -> np.ndarray:
    """(n, degree) int32 array of image lists, each checked to be a
    bijection of {0, ..., degree-1}; InvalidPermutation otherwise."""
    try:
        rows = np.array(perms if isinstance(perms, np.ndarray) else list(perms),
                        dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidPermutation(f"image lists are not integer lists of one length: {e}")
    if rows.ndim == 1 and not len(rows):
        rows = rows.reshape(0, degree)
    if rows.ndim != 2 or rows.shape[1] != degree:
        raise InvalidPermutation(f"expected degree {degree}, got {rows.shape[-1]}")
    ok = (np.sort(rows, axis=1) == np.arange(degree)).all(axis=1)
    if not ok.all():
        bad = tuple(rows[np.argmin(ok)].tolist())
        raise InvalidPermutation(f"images {bad!r} are not a bijection")
    return rows.astype(np.int32)


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(q[x] for x in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def conjugate(g: Perm, e: Perm) -> Perm:
    """g^-1 * e * g under the left-to-right composition convention."""
    if len(g) != len(e):
        raise DegreeMismatch(f"degrees {len(g)} and {len(e)} differ")
    ginv = inverse(g)
    return tuple(g[e[x]] for x in ginv)


def perm_order(p: Perm) -> int:
    """Multiplicative order, via cycle lengths."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        order = lcm(order, length)
    return order


def perm_power(p: Perm, k: int) -> Perm:
    """p composed with itself k times (k may be negative)."""
    if k < 0:
        return perm_power(inverse(p), -k)
    result = identity_perm(len(p))
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


@dataclass(frozen=True)
class ConjugacyTable:
    """Conjugacy data for a fully enumerated group.

    class_of[i] is the class label of element i, classes numbered in order
    of their smallest member.  witness[i] is the index of some g with
    conjugate(g, rep) == element i, where rep is the class representative;
    witness[rep] is the identity.
    """

    class_of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    witness: tuple[int, ...]

    def class_count(self) -> int:
        return len(self.reps)


class FiniteGroup:
    """An exhaustively enumerated permutation group (see close_generators).

    Elements are kept sorted; all index-valued APIs refer to positions in
    that sorted order, and the identity, the smallest permutation, is
    index 0.  Derived tables (inverses, orders, conjugacy data,
    centralizers) are computed lazily and cached.  Everything observable
    is immutable after construction, so concurrent readers are safe.
    """

    def __init__(self, degree: int, generators: np.ndarray, table: np.ndarray,
                 keys: np.ndarray, right: np.ndarray, name: str = ""):
        # rows sorted by their keys, identity first; right as in generator_tables
        self.degree = degree
        self.generators = list(map(tuple, generators.tolist()))
        self._arr, self._keys, self._right = table, keys, right
        self.name = name or f"group<deg {degree}, order {len(table)}>"
        self.identity_index = 0
        self._inv_idx: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._conj: ConjugacyTable | None = None
        self._conj_table: np.ndarray | None = None
        self._base: np.ndarray | None = None
        self._cent_memo: dict[int, np.ndarray] = {}

    # -- basic lookups ------------------------------------------------

    def __len__(self) -> int:
        return len(self._arr)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm) -> bool:
        try:
            self.index(perm)
        except KeyError:
            return False
        return True

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, degree={self.degree}, order={len(self)})"

    @property
    def order(self) -> int:
        return len(self._arr)

    @cached_property
    def elements(self) -> list[Perm]:
        """The rows as a list of tuples, built on first read; do not mutate."""
        return list(map(tuple, self._arr.tolist()))

    def element(self, i: int) -> Perm:
        return tuple(self._arr[i].tolist())

    def index(self, perm: Perm) -> int:
        try:
            return int(self.indices_of_rows(_perm_rows([perm], self.degree))[0])
        except (KeyError, InvalidPermutation):
            raise KeyError(f"permutation {perm!r} not in {self.name}") from None

    def indices_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each row of an (n, degree) image array."""
        try:
            return row_positions(self._arr, self._keys, rows)
        except KeyError:
            raise KeyError(f"a row is not an element of {self.name}") from None

    @property
    def array(self) -> np.ndarray:
        """(order, degree) array of images; do not mutate."""
        return self._arr

    @property
    def generator_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(conj, right), each a (len(generators), order) int64 array:
        conj[k][i] is the index of g^-1 * e * g and right[k][i] the index
        of e * g, for e = element i and g = generators[k].  right is the
        closure's; conj[k] = r[inv[r[inv]]] for r = right[k] and
        inv = inverse_indices, as g^-1 * e * g = ((e^-1 * g)^-1) * g.  Do
        not mutate."""
        if self._conj_table is None:
            r, inv = self._right, self.inverse_indices
            self._conj_table = np.take_along_axis(r, inv[r[:, inv]], axis=1)
        return self._conj_table, self._right

    @property
    def base(self) -> np.ndarray:
        """A greedy base: int64 points whose images tell every element
        apart.  Each point is the first one moved by the pointwise
        stabilizer of the points before it, until that stabilizer is
        trivial; two elements agreeing on the base differ by an element of
        it, so they are equal.  Do not mutate."""
        if self._base is None:
            points = np.arange(self.degree)
            stab, base = self._arr, []
            while len(stab) > 1:
                x = int(np.argmax((stab != points).any(axis=0)))
                base.append(x)
                stab = stab[stab[:, x] == x]
            self._base = np.array(base, dtype=np.int64)
        return self._base

    # -- index-level arithmetic ---------------------------------------

    def mul(self, i, j):
        """Index of the product of elements i and j, i applied first.

        i and j may be index arrays, broadcast against each other; the
        result is then an index array of their common shape.
        """
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        # row x of the product is j's image of i's image of x
        rows = self._arr.ravel()[j[..., None] * self.degree + self._arr[i]]
        out = self.indices_of_rows(rows.reshape(-1, self.degree))
        return int(out[0]) if rows.ndim == 1 else out.reshape(rows.shape[:-1])

    @property
    def inverse_indices(self) -> np.ndarray:
        if self._inv_idx is None:
            # argsort of each row is the inverse permutation
            self._inv_idx = self.indices_of_rows(np.argsort(self._arr, axis=1))
        return self._inv_idx

    @property
    def element_orders(self) -> np.ndarray:
        """Order of each element: the lcm of the cycle lengths of its points,
        a point's cycle length being the first k with e^k(x) == x.  Order is
        a class function, so only class representatives are scanned."""
        if self._orders is None:
            table = self.conjugacy
            reps = self._arr[list(table.reps)]
            points = np.arange(self.degree)
            cycle = np.zeros(reps.shape, dtype=np.int64)
            power = reps
            for k in range(1, self.degree + 1):
                cycle[(power == points) & (cycle == 0)] = k
                if cycle.all():
                    break
                power = np.take_along_axis(reps, power, axis=1)
            self._orders = np.lcm.reduce(cycle, axis=1)[list(table.class_of)]
        return self._orders

    def conjugate_indices(self, g, targets) -> np.ndarray:
        """Indices of g^-1 * e * g for each element index e in targets.

        g is an index, giving shape (len(targets),), or a 1-D index array,
        giving shape (len(g), len(targets)) with row i for g[i].  Each
        block of the g's (see blocks) is one gather and one lookup.
        """
        gs = np.atleast_1d(np.asarray(g, dtype=np.int64))
        t_rows = self._arr[np.asarray(targets, dtype=np.int64)]
        out = np.empty((len(gs), len(t_rows)), dtype=np.int64)
        for b in blocks(len(gs), len(t_rows) * self.degree):
            ginv = np.argsort(self._arr[gs[b]], axis=1)
            # row x of g^-1 * e * g is g[e[ginv[x]]]
            conj = self._arr.ravel()[gs[b, None, None] * self.degree
                                     + t_rows[:, ginv].swapaxes(0, 1)]
            out[b] = self.indices_of_rows(conj.reshape(-1, self.degree)).reshape(conj.shape[:2])
        return out if np.ndim(g) else out[0]

    # -- conjugacy ----------------------------------------------------

    @property
    def conjugacy(self) -> ConjugacyTable:
        if self._conj is None:
            self._conj = self._build_conjugacy()
        return self._conj

    def _build_conjugacy(self) -> ConjugacyTable:
        """Orbits under conjugation by the generators (see orbits): a class
        is numbered by its smallest member, and a witness is the first
        product witness(source) * g to reach an element, the search taking
        each level generator by generator."""
        conj, right = self.generator_tables
        class_of, reps, sizes, witness = orbits(conj, right)
        return ConjugacyTable(tuple(class_of.tolist()), tuple(reps.tolist()),
                              tuple(sizes.tolist()), tuple(witness.tolist()))

    # -- centralizers and transporters --------------------------------

    def centralizer_indices(self, e: int) -> np.ndarray:
        """Sorted int64 indices of the elements commuting with element e:
        one scan of G, memoized for transporter_indices, which asks for
        class representatives, and for the gallery checks."""
        cent = self._cent_memo.get(e)
        if cent is None:
            ep = self._arr[e]
            # g*e == e*g  <=>  e(g(x)) == g(e(x)) for all x
            mask = np.all(ep[self._arr] == self._arr[:, ep], axis=1)
            cent = self._cent_memo[e] = np.flatnonzero(mask).astype(np.int64)
        return cent

    def transporter_indices(self, a: int, b) -> np.ndarray:
        """Sorted indices of all g with conjugate(g, a) == b; for a list of
        b's, those cosets joined in the order of the b's.

        With rep the representative of a's class and w_a, w_b the class
        witnesses of a and b, g qualifies exactly when w_a * g * w_b^-1
        centralizes rep: the set w_a^-1 * C(rep) * w_b, one gather over the
        memoized C(rep) and one lookup for all the b's.
        """
        table = self.conjugacy
        bs = [t for t in np.atleast_1d(b).tolist() if table.class_of[t] == table.class_of[a]]
        # row x of w_a^-1 * h is h[w_a^-1[x]], and of h * w_b it is w_b[h[x]]
        left = self._arr[self.centralizer_indices(table.reps[table.class_of[a]])][
            :, self._arr[self.inverse_indices[table.witness[a]]]]
        rows = self._arr[[table.witness[t] for t in bs]][:, left]
        idx = self.indices_of_rows(rows.reshape(-1, self.degree)).reshape(len(bs), len(left))
        idx.sort(axis=1)
        return idx.ravel()


def close_generators(degree: int, generators: Iterable[Sequence[int]],
                     element_cap: int | None = None, name: str = "") -> FiniteGroup:
    """Breadth-first closure of a generator list into a FiniteGroup, the
    only way one is built.

    Each level multiplies the elements first found in the last one by
    every generator, a block of rows at a time; products whose keys are
    not among the sorted keys found so far, made distinct, are the next
    level.  Elements are numbered as found, a product's number is its
    entry of the right table, and numbers become sorted positions at the
    end.  Raises CapExceeded("element_cap") once the group has more
    elements than the cap (default from config, override via argument).
    """
    limit = element_cap if element_cap is not None else _cap("element_cap")
    gens = _perm_rows(generators, degree)
    rows = np.arange(degree, dtype=np.int32)[None]    # the last level, by key
    keys = row_keys(rows)                             # every key found, sorted
    number = np.zeros(1, dtype=np.int64)              # and the number of each
    found, right = [rows], []                         # rows and right, by level
    while len(rows):
        n = len(keys)
        if n > limit:
            raise CapExceeded(
                "element_cap",
                f"group closure passed the element cap ({limit}); "
                f"raise ELABCAT_ELEMENT_CAP to allow more")
        entries = np.empty((len(gens), len(rows)), dtype=np.int64)
        fresh_rows, fresh_at = [rows[:0]], [number[:0]]
        for k, g in enumerate(gens):
            for b in blocks(len(rows), degree):
                prods = g[rows[b]]                    # f then g
                prod_keys = row_keys(prods)
                at, old = find_sorted(keys, prod_keys)
                entries[k, b][old] = number[at[old]]
                fresh_rows.append(prods[~old])
                fresh_at.append(k * len(rows) + b.start + np.flatnonzero(~old))
        cand = row_keys(np.concatenate(fresh_rows))
        order = np.argsort(cand)
        cand = cand[order]
        first = np.ones(len(cand), dtype=bool)
        first[1:] = cand[1:] != cand[:-1]
        entries.ravel()[np.concatenate(fresh_at)[order]] = n - 1 + np.cumsum(first)
        rows, new_keys = np.concatenate(fresh_rows)[order[first]], cand[first]
        at = np.searchsorted(keys, new_keys)
        keys = np.insert(keys, at, new_keys)
        number = np.insert(number, at, np.arange(n, n + len(rows)))
        found.append(rows)
        right.append(entries)
    index = np.argsort(number)                        # sorted position of each number
    return FiniteGroup(degree, gens, np.concatenate(found)[number], keys,
                       index[np.concatenate(right, axis=1)[:, number]], name=name)


def from_elements(degree: int, elements: Iterable[Sequence[int]] | np.ndarray,
                  name: str = "") -> FiniteGroup:
    """The group of exactly the listed elements, closed from greedy
    generators: each the smallest listed element outside the subgroup so
    far, which it at least doubles, so there are at most log2 |G|.  Raises
    InvalidPermutation unless the closure is exactly the list."""
    rows = _perm_rows(elements, degree)
    keys = row_keys(rows)
    rows, keys = rows[np.argsort(keys)], np.sort(keys)
    gens = rows[:0]
    while True:
        try:
            G = close_generators(degree, gens, element_cap=len(rows), name=name)
        except CapExceeded:
            raise InvalidPermutation("element list is not closed under products") from None
        inside = find_sorted(G._keys, keys)[1]
        if inside.all():
            break
        gens = np.vstack((gens, rows[np.argmin(inside)]))
    if len(G) != len(rows) or (G._keys != keys).any():
        raise InvalidPermutation("element list is not a group")
    return G


def conjugacy_classes(G: FiniteGroup) -> ConjugacyTable:
    return G.conjugacy


def transporter(G: FiniteGroup, a: Perm, b: Perm) -> list[Perm]:
    """All g in G with conjugate(g, a) == b, sorted; empty if none."""
    idx = G.transporter_indices(G.index(a), G.index(b))
    return [G.element(int(i)) for i in idx]


def centralizer(G: FiniteGroup, elems: Iterable[Perm]) -> FiniteGroup:
    """Subgroup of G commuting with every listed element."""
    keep = np.arange(len(G), dtype=np.int64)
    for e in elems:
        keep = np.intersect1d(keep, G.centralizer_indices(G.index(e)), assume_unique=True)
    return from_elements(G.degree, G.array[keep], name=f"centralizer in {G.name}")


def normalizer(G: FiniteGroup, subgroup: Iterable[Perm]) -> FiniteGroup:
    """Elements g with conjugate(g, H) == H setwise.

    Conjugation is injective, so g qualifies as soon as it conjugates
    every member of H into H.
    """
    inside = np.zeros(len(G), dtype=bool)
    sub = [G.index(e) for e in subgroup]
    inside[sub] = True
    keep = inside[G.conjugate_indices(np.arange(len(G)), sub)].all(axis=1)
    return from_elements(G.degree, G.array[keep], name=f"normalizer in {G.name}")
