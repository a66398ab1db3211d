"""Finite permutation groups with exhaustive element enumeration.

Conventions, fixed once for the whole package:

* an element is named by its index, its row's position in the group's
  table, the (order, degree) array of images on {0, ..., degree-1}, so
  ``G.array[i][x]`` is element i's image of the point ``x``; the rows are
  sorted as the image tuples sort, which makes class labels, transporter
  cosets and catalog layouts reproducible between runs, and the
  identity, the smallest row, is index 0;
* products read left to right: ``G.mul(i, j)`` applies element i first,
  so its image of x is ``G.array[j][G.array[i][x]]``;
* conjugation is ``g^-1 * e * g`` (``conjugate_indices(g, e)``, the
  ``witness`` of ConjugacyTable, ``transporter_indices``), a right
  action: conjugating by g * h is conjugating by g, then by h.

Every group comes from a stabilizer chain (close_generators; Sims 1970,
Seress, Permutation Group Algorithms, 2003, ch. 4) on the greedy base:
b_k is the first point moved by G_k, the pointwise stabilizer of the
points before it.  Two elements that agree on the base are equal.  Each
element's int64 key packs its base images in mixed radix, digit k the
rank of its image of b_k in the G-orbit of b_k, so keys order elements
as their base images do, and that is the order of the rows: elements
first differing on b_k agree on every point before it, which G_k fixes.
Where the largest key is below ENTRIES_PER_ELEMENT per element, a
direct-address table maps each key to its index and a lookup is one
gather for a whole batch; groups with sparser keys keep one integer
binary search.  Elements of G found by arithmetic (products, inverses,
conjugates, transporters, the conjugators behind every A map, the
generator tables, the catalog's commuting pairs) are looked up by their
base images alone (indices_of_base_images); arbitrary rows
(indices_of_rows) are also compared with the element found, since a row
may agree with one on the base only.  Selections keep off numpy's
general indexing path: rows of an array of 2 or more dimensions by
``take(idx, axis=0)`` or ``compress(mask, axis=0)`` (2-8x faster at 30
to 11,232 rows; numpy 2.4, 2-core Xeon), a short array's columns by
``take(idx, axis=1)``, and, where measured faster, a gather by two
broadcast index arrays by one ``take`` on the flat view (gather, mul).
Subscripts stay for 1-D selections (0.16 us to 0.29 for ``take`` at 10
entries) and a tall table's few columns (9.6 us to 27 at 5,040 x 7).

One lookup builds the inverses, from base images the chain forms with
the rows (close_generators), and the right tables (the index of e * g for
each generator g and every element e), row-major with one row per
generator, from which come

* the conjugation tables, the index of g^-1 * e * g, gathered through
  the right tables and the inverses; orbits under the generators
  (conjugacy classes here, subgroup classes in elabs) are then gathers
  from these tables: min-label propagation numbers each orbit by its
  smallest member, and one breadth-first search (_search) from all
  those members at once finds witnesses (see orbits); the same search
  gives the chain's basic orbits, whose transversals read its levels;
* commutation tests x*y == y*x, a comparison of 2*len(base) images,
  for centralizers and the catalog's commuting-pairs relation.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import cap as _cap, refuse
from .errors import CapExceeded, InvalidPermutation

Perm = tuple[int, ...]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of a 2-D array of entries in [0, 2^32),
    ordered as the rows are as tuples: the one order of rows in groups and
    categories (elements, codes, images), for every sort and dedupe.

    Each row becomes its big-endian unsigned bytes; those compare (and
    sort) byte by byte exactly as the tuples do.
    """
    if not rows.shape[1]:                       # rows of no entries are equal
        return np.zeros(len(rows), dtype="V1")
    rows = rows.astype(">u4", order="C")
    return rows.view(f"V{4 * rows.shape[1]}").ravel()   # (np.void, n) runs a Python ctypes check


def row_positions(table: np.ndarray, keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Position of each row of rows in table, whose rows are distinct and
    sorted with keys = row_keys(table); KeyError if a row is absent."""
    idx = np.minimum(keys.searchsorted(row_keys(rows)), len(keys) - 1)
    if not (table.take(idx, axis=0) == rows).all():
        raise KeyError("a row is not in the table")
    return idx


def find_sorted(sorted_arr: np.ndarray,
                values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, found) of each value in a sorted array: found says
    whether sorted_arr[position] is the value."""
    at = sorted_arr.searchsorted(values)
    if not len(sorted_arr):
        return at, np.zeros(np.shape(at), dtype=bool)
    at = np.minimum(at, len(sorted_arr) - 1)
    return at, sorted_arr[at] == values


def sorted_in_place(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """a, a fresh array, sorted along the axis (np.sort copies first)."""
    a.sort(axis=axis)
    return a


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries (np.unique would import numpy.ma)."""
    values = sorted_in_place(values.copy())
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


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
    t = np.arange(len(sizes)).repeat(sizes)
    return t, np.arange(len(t)) - (sizes.cumsum() - sizes).repeat(sizes) + lo[t]


def gather(table: np.ndarray, rows, cols) -> np.ndarray:
    """table[rows, cols], index arrays broadcast together: one take on the flat view."""
    return table.ravel().take(rows * table.shape[1] + cols)


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array of entries in [0, 2^32), in
    lexicographic order (row_keys)."""
    if len(rows) < 2:
        return rows
    keys = row_keys(rows)
    order = keys.argsort()
    keys = keys[order]
    return rows.take(order[np.concatenate(([True], keys[1:] != keys[:-1]))], axis=0)


def runs(keys: np.ndarray) -> list[int]:
    """Where each run of equal entries of a non-empty array starts, then
    its length."""
    return np.concatenate(([True], keys[1:] != keys[:-1], [True])).nonzero()[0].tolist()


def split_rows(owner: np.ndarray, rows: np.ndarray, count: int) -> list[np.ndarray]:
    """Read-only views of the rows of each owner in range(count), from
    rows grouped by increasing owner."""
    rows = np.ascontiguousarray(rows)
    rows.flags.writeable = False
    bounds = owner.searchsorted(np.arange(count + 1)).tolist()
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def _inverse_rows(perms: np.ndarray) -> np.ndarray:
    """The inverse of each row of a (k, n) array of permutations."""
    inverse = np.empty_like(perms)
    inverse[np.arange(len(perms))[:, None], perms] = np.arange(perms.shape[1])
    return inverse


def _orbit_labels(perms: np.ndarray) -> np.ndarray:
    """The smallest member of each point's orbit under the permutations
    perms[k] (a (k, n) array): min-label propagation along each of perms,
    then its inverse, and a pointer jump a round.  Both directions are
    needed: along perms alone a label moves one step a round on a cycle."""
    steps = [row for pair in zip(perms, _inverse_rows(perms)) for row in pair]
    label = np.arange(perms.shape[1])
    while True:
        old = label
        for row in steps:
            label = np.minimum(label, label.take(row))
        label = label.take(label)
        if (label == old).all():
            return label


def _search(perms: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, list]:
    """(visit, levels) of one breadth-first search under the permutations
    perms[k] (a (k, n) array) from the distinct starts at once: visit
    lists the points reached, starts first, then level by level, and
    levels[j] = (src, gen, at) says visit[at] (a slice) is
    perms[gen][visit[src]].  A level takes its candidates generator by
    generator over the frontier, and the first to reach a point keeps it.
    A start's candidates keep their relative order in the joint frontier,
    so each orbit comes out as a search from its own start alone would
    give it.  finder[x], the first candidate to reach x, is -1 at the
    starts and unvisited (the int64 maximum) until then: it marks visits.
    """
    n = perms.shape[1]
    visit, levels, finder = np.empty(n, dtype=np.int64), [], np.full(n, _UNVISITED)
    visit[:len(starts)], finder[starts] = starts, -1
    lo, hi = 0, len(starts)
    while lo < hi:
        flat = perms.take(visit[lo:hi], axis=1).ravel()     # candidate gen * (hi - lo) + src
        fresh = (finder[flat] == _UNVISITED).nonzero()[0]
        hits = flat[fresh]
        np.minimum.at(finder, hits, fresh)          # each target's first candidate
        first = fresh[finder[hits] == fresh]
        gen, src = np.divmod(first, hi - lo)
        at = slice(hi, hi + len(first))
        visit[at] = flat[first]
        levels.append((src + lo, gen, at))
        lo, hi = hi, at.stop
    return visit[:hi], levels


def orbits(perms: np.ndarray, right: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(class_of, reps, sizes, witness) of the orbits of range(n) under the
    permutations perms[k] (a (k, n) array), with witnesses in G.

    Orbits are numbered in order of their smallest member (see
    _orbit_labels).  Witnesses come from one search (_search, generator
    by generator over each frontier) from every orbit's smallest member
    at once, whose witness is 0, the identity: a point reached from s by
    perms[k] has witness right[k][witness[s]].
    """
    n = perms.shape[1]
    label = _orbit_labels(perms)
    is_rep = label == np.arange(n)
    reps = is_rep.nonzero()[0]
    class_of = (is_rep.cumsum() - 1)[label]
    sizes = np.bincount(class_of, minlength=len(reps))
    visit, levels = _search(perms, reps)
    witness = np.zeros(n, dtype=np.int64)
    for src, gen, at in levels:
        witness[visit[at]] = right[gen, witness[visit[src]]]
    return class_of, reps, sizes, witness


def _perm_rows(perms, degree: int) -> np.ndarray:
    """(n, degree) int32 array of image lists, each checked to be a
    bijection of {0, ..., degree-1}; InvalidPermutation otherwise."""
    try:
        rows = np.array(perms if isinstance(perms, np.ndarray) else list(perms),
                        dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise InvalidPermutation("image lists are not integer lists of one length") from None
    if rows.ndim == 1 and not len(rows):
        rows = rows.reshape(0, degree)
    if rows.ndim != 2 or rows.shape[1] != degree:
        raise InvalidPermutation(f"expected degree {degree}, got {rows.shape[-1]}")
    ok = (np.sort(rows, axis=1) == np.arange(degree)).all(axis=1)
    if not ok.all():
        bad = tuple(rows[ok.argmin()].tolist())
        raise InvalidPermutation(f"images {bad!r} are not a bijection")
    return rows.astype(np.int32)


class ConjugacyTable(NamedTuple):
    """Conjugacy data for a fully enumerated group, as read-only int64
    arrays (FiniteGroup.conjugacy).

    class_of[i] is the class label of element i, classes numbered in order
    of their smallest member.  witness[i] is the index of some g with
    g^-1 * rep * g == element i, where rep is the class representative;
    witness[rep] is the identity.
    """

    class_of: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray
    witness: np.ndarray

    def class_count(self) -> int:
        return len(self.reps)


class FiniteGroup:
    """An exhaustively enumerated permutation group (see close_generators).

    Elements are kept sorted; all index-valued APIs refer to positions in
    that sorted order, and the identity, the smallest permutation, is
    index 0.  base is the chain's base, int64 points; an element's key is
    rank[images] @ weights for its base images, rank[x] being x's rank in
    its G-orbit and weights[k] the product of the base's G-orbit sizes
    after place k.  Keys below ENTRIES_PER_ELEMENT per element are looked
    up in a direct-address table, position[key] = index, of one int64
    entry per key up to the largest; sparser keys by binary search.
    Derived tables (inverses, orders, conjugacy data, centralizers) are
    computed lazily and cached.  Everything observable is immutable after
    construction (tables are read-only arrays): concurrent readers are safe.
    """

    def __init__(self, degree: int, generators: np.ndarray, rows: np.ndarray,
                 inverse_images: np.ndarray, base: np.ndarray, rank: np.ndarray,
                 weights: np.ndarray, name: str = ""):
        # rows: every element once, in any order, and inverse_images the
        # base images of each one's inverse, a column each; both kept sorted by key
        self.degree = degree
        self.generators = list(map(tuple, generators.tolist()))
        self.base, self._gens, self._rank, self._weights = base, generators, rank, weights
        keys = rank[rows[:, base]] @ weights
        order = keys.argsort()
        self._arr, self._keys = rows.take(order, axis=0), keys[order]
        self._inverse_images = inverse_images.take(order, axis=1)
        self._arr.flags.writeable = self.base.flags.writeable = False
        self._flat = self._arr.ravel()          # row e's image of x at e * degree + x
        # direct-address table of the keys, where they are dense enough
        self._position: np.ndarray | None = None
        if self._keys[-1] < ENTRIES_PER_ELEMENT * len(rows):
            self._position = np.zeros(self._keys[-1] + 1, dtype=np.int64)
            self._position[self._keys] = np.arange(len(rows))
        self.name = name or f"group<deg {degree}, order {len(rows)}>"
        self.identity_index = 0
        self._conj: ConjugacyTable | None = None
        self._cent_memo: dict[int, np.ndarray] = {}

    # -- basic lookups ------------------------------------------------

    def __len__(self) -> int:
        return len(self._arr)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, degree={self.degree}, order={len(self)})"

    @property
    def order(self) -> int:
        return len(self._arr)

    def element(self, i: int) -> Perm:
        return tuple(self._arr[i].tolist())

    def indices_of_base_images(self, images: np.ndarray) -> np.ndarray:
        """Element index of each element of G given by its images of the
        base, an (..., len(base)) array; the result has shape (...).  The
        images must be an element's: nothing is checked."""
        return self._lookup(self._rank[images] @ self._weights)

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Element index of each key: one gather from the direct-address
        table, else a binary search; some index for a key of no element."""
        if self._position is None:
            return np.minimum(self._keys.searchsorted(keys), len(self) - 1)
        return self._position.take(keys, mode="clip")

    def _find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position, found) of each row of an (n, degree) image array: its
        base images give the one candidate, found says whether that is it."""
        at = self._lookup(self._rank.take(rows[:, self.base], mode="clip") @ self._weights)
        return at, (self._arr.take(at, axis=0) == rows).all(axis=1)

    def indices_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each row of an (n, degree) image array;
        KeyError if a row is not an element."""
        at, found = self._find(rows)
        if not found.all():
            raise KeyError(f"a row is not an element of {self.name}")
        return at

    @property
    def array(self) -> np.ndarray:
        """(order, degree) array of images, read-only."""
        return self._arr

    @cached_property
    def generator_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(conj, right), each a C-contiguous (len(generators), order)
        int64 array: conj[k][i] is the index of g^-1 * e * g and right[k][i]
        the index of e * g, for e = element i and g = generators[k].  right
        comes with the inverses (_inverses_and_right); conj[k] =
        r[inv[r[inv]]] for r = right[k] and inv = inverse_indices, as
        g^-1 * e * g = ((e^-1 * g)^-1) * g, gathered row by row.
        Read-only."""
        inv, right = self._inverses_and_right
        conj = np.empty_like(right)
        for rk, ck in zip(right, conj):
            rk.take(inv[rk[inv]], out=ck)
        conj.flags.writeable = False
        return conj, right

    # -- index-level arithmetic ---------------------------------------

    def mul(self, i, j):
        """Index of the product of elements i and j, i applied first.

        i and j may be index arrays, broadcast against each other; the
        result is then an index array of their common shape.
        """
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        # the product's image of a base point is j's image of i's image
        at = self._flat.take(i[..., None] * self.degree + self.base)
        out = self.indices_of_base_images(self._flat.take(j[..., None] * self.degree + at))
        return int(out) if out.ndim == 0 else out

    @cached_property
    def _inverses_and_right(self) -> tuple[np.ndarray, np.ndarray]:
        """(inverse indices, right tables of generator_tables), built in one
        lookup: e^-1's base images come from the chain with the rows (see
        close_generators), and e * g sends a base point b to g[e[b]]."""
        idx = self.indices_of_base_images(np.concatenate(
            (self._inverse_images.T[None], self._gens.take(self._arr[:, self.base], axis=1))))
        idx.flags.writeable = False
        return idx[0], idx[1:]

    @property
    def inverse_indices(self) -> np.ndarray:
        """Index of each element's inverse; read-only."""
        return self._inverses_and_right[0]

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Order of each element, read-only: the lcm of its cycle lengths,
        read on class representatives (order is a class function).  After
        round t of pointer doubling least[x] is the least of x, e(x), ...,
        e^(2^t - 1)(x) and step = e^(2^t); a cycle's length is the count of
        points sharing its least point."""
        table = self.conjugacy
        step = self._arr.take(table.reps, axis=0)
        rows = np.arange(len(step))[:, None] * self.degree     # x of row r at rows[r] + x
        least = np.arange(self.degree)[None].repeat(len(step), axis=0)
        for _ in range((self.degree - 1).bit_length()):
            at = rows + step
            least, step = np.minimum(least, least.take(at)), step.take(at)
        at = rows + least
        cycle = np.bincount(at.ravel(), minlength=step.size)[at]
        orders = np.lcm.reduce(cycle, axis=1)[table.class_of]
        orders.flags.writeable = False
        return orders

    def conjugate_indices(self, g, targets) -> np.ndarray:
        """Indices of g^-1 * e * g for each element index e in targets.

        g is an index, giving shape (len(targets),), or a 1-D index array,
        giving shape (len(g), len(targets)) with row i for g[i]; targets
        may also be 2-D, one row of its own for each g.  Each block of
        the g's (see blocks) is one gather and one lookup.
        """
        gs = np.atleast_1d(np.asarray(g, dtype=np.int64))
        ts = np.asarray(targets, dtype=np.int64)
        flat, d = self._flat, self.degree
        # g^-1's images of the base
        ginv = flat.take(self.inverse_indices[gs][:, None] * d + self.base)
        out = np.empty((len(gs), ts.shape[-1]), dtype=np.int64)
        for b in blocks(len(gs), ts.shape[-1] * len(self.base)):
            # g^-1 * e * g sends a base point x to g[e[g^-1[x]]]
            inner = flat.take((ts[b] if ts.ndim == 2 else ts[None])[..., None] * d + ginv[b, None])
            out[b] = self.indices_of_base_images(flat.take(gs[b, None, None] * d + inner))
        return out if np.ndim(g) else out[0]

    # -- conjugacy ----------------------------------------------------

    @property
    def conjugacy(self) -> ConjugacyTable:
        """Orbits under conjugation by the generators (see orbits): a class
        is numbered by its smallest member, and a witness is the first
        product witness(source) * g to reach an element, the search taking
        each level generator by generator.  Built on first read."""
        if self._conj is None:
            self._conj = ConjugacyTable(*orbits(*self.generator_tables))
            for a in self._conj:
                a.flags.writeable = False
        return self._conj

    # -- centralizers and transporters --------------------------------

    def centralizer_indices(self, e: int) -> np.ndarray:
        """Sorted read-only int64 indices of the elements commuting with
        element e: one scan of G's base images, memoized for
        transporter_indices, which asks for class representatives, and for
        the gallery checks."""
        cent = self._cent_memo.get(e)
        if cent is None:
            ep, base = self._arr[e], self.base
            # g*e and e*g are elements, equal when e(g(b)) == g(e(b)) on the base
            mask = (ep[self._arr[:, base]] == self._arr[:, ep[base]]).all(axis=1)
            cent = self._cent_memo[e] = mask.nonzero()[0].astype(np.int64)
            cent.flags.writeable = False
        return cent

    def transporter_indices(self, a, b) -> np.ndarray:
        """Sorted indices of all g with g^-1 * a * g == b; for arrays of
        b's (and of a's beside them, or one a), the coset of each pair
        whose two are conjugate, joined in their order, each
        |C(a)| = |G| / |class of a| long.

        With rep the representative of a's class and w_a, w_b the class
        witnesses of a and b, g qualifies exactly when w_a * g * w_b^-1
        centralizes rep: the set w_a^-1 * C(rep) * w_b, one gather over the
        memoized C(rep) of each class met and one lookup for all pairs.
        """
        table = self.conjugacy
        a, bs = np.asarray(a, dtype=np.int64), np.atleast_1d(np.asarray(b, dtype=np.int64))
        keep = table.class_of[bs] == table.class_of[a]
        a, bs = a[keep] if a.ndim else a[None], bs[keep]
        cls, parts, flat, d = table.class_of[bs], [], self._flat, self.degree
        for c in sorted_distinct(cls).tolist():
            at = (cls == c).nonzero()[0]
            # w_a^-1 * h * w_b sends a base point x to w_b[h[w_a^-1[x]]]
            wa = table.witness[a[at] if len(a) > 1 else a]
            winv = flat.take(self.inverse_indices[wa][:, None, None] * d + self.base)
            left = flat.take(self.centralizer_indices(table.reps.item(c))[:, None] * d + winv)
            wb = table.witness[bs[at], None, None]
            idx = sorted_in_place(self.indices_of_base_images(flat.take(wb * d + left)), axis=1)
            parts.append((at, idx))
        size = len(self) // table.sizes[cls]
        out, starts = np.empty(size.sum(), dtype=np.int64), size.cumsum() - size
        for at, idx in parts:
            out[starts[at, None] + np.arange(idx.shape[1])] = idx
        return out

    def conjugators(self, bases, targets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(owner, g, images) over a stack of pairs of a basis bases[t] and
        a target's element indices targets[t]: each g taking bases[t, 0]
        into targets[t] (the transporter cosets to the target's elements
        of its class, in their order, in one transporter_indices call),
        owner t, and the row g^-1 * b * g of every b in bases[t] (one
        conjugate_indices call), which the caller looks up in the target.
        An empty basis gets the identity alone."""
        bases, targets = np.asarray(bases, dtype=np.int64), np.asarray(targets, dtype=np.int64)
        if not bases.shape[1]:
            return np.arange(len(bases)), np.zeros(len(bases), dtype=np.int64), bases
        table = self.conjugacy
        first = bases[:, 0]
        owner, at = (table.class_of[targets] == table.class_of[first, None]).nonzero()
        g = self.transporter_indices(first[owner], targets[owner, at])
        owner = owner.repeat(len(self) // table.sizes[table.class_of[first[owner]]])
        return owner, g, self.conjugate_indices(g, bases.take(owner, axis=0))


# bits of an element key, an int64
KEY_BITS = 63
# entries of an element table (order x degree) per element of the
# configured element cap: 16 MiB of int32 at the default cap; also the
# most keys per element for which a group keeps a direct-address table
ENTRIES_PER_ELEMENT = 64
# the mark of a point no search has reached yet (see _search)
_UNVISITED = np.iinfo(np.int64).max


def _transversal(gens: np.ndarray, orbit: np.ndarray, levels: list
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(trans, tree) of an orbit found by _search from orbit[0]: trans[i]
    maps orbit[0] to orbit[i] (trans[0] is the identity), and tree[i, s]
    marks the steps (orbit[i], gens[s]) that found a point, so that
    trans[i] * gens[s] is that point's trans row."""
    k, degree = gens.shape
    trans = np.empty((len(orbit), degree), dtype=np.int32)
    tree = np.zeros((len(orbit), k), dtype=bool)
    trans[0] = np.arange(degree)
    for src, s, at in levels:
        trans[at] = gens[s[:, None], trans.take(src, axis=0)]
        tree[src, s] = True
    return trans, tree


def _schreier_generators(gens: np.ndarray, orbit: np.ndarray, trans: np.ndarray,
                         inverse: np.ndarray, tree: np.ndarray) -> np.ndarray:
    """The distinct non-identity u_d * s * u_(d^s)^-1 (inverse[j] is u_j^-1)
    over the steps (d, s) of _transversal off its tree (on it they are the
    identity): they generate the stabilizer of orbit[0] (Schreier's lemma)."""
    degree = gens.shape[1]
    where = np.empty(degree, dtype=np.int64)
    where[orbit] = np.arange(len(orbit))
    src, s = (~tree).nonzero()
    found = [gens[:0]]
    for b in blocks(len(src), degree):
        i, g = src[b], s[b]
        rows = inverse[where[gens[g, orbit[i]]][:, None], gens[g[:, None], trans.take(i, axis=0)]]
        found.append(rows.compress((rows != np.arange(degree)).any(axis=1), axis=0))
    return distinct_rows(np.concatenate(found))


def close_generators(degree: int, generators: Iterable[Sequence[int]],
                     name: str = "") -> FiniteGroup:
    """The group generated by a generator list, from its stabilizer chain;
    the only way a FiniteGroup is built.

    The chain is built top down on the greedy base.  The generators of
    G_1 = G are the distinct non-identity ones given; b_k is the first
    point those of G_k move, a search from it (_search) gives its orbit
    D_k under G_k, and _transversal the u_d in G_k mapping b_k to each d.
    The Schreier generators u_d * s * u_(d^s)^-1 generate G_(k+1), the
    stabilizer of b_k in G_k; the chain ends when none is left.

    |G| is the product of the |D_k|: CapExceeded("element_cap") is raised
    once the orbits so far pass the cap, or their product times the
    degree, which bounds the element table and every transversal, passes
    ENTRIES_PER_ELEMENT times the cap; CapExceeded("element_key") once the keys would pass
    KEY_BITS bits.  All are checked before the transversal of D_k (|D_k|
    rows of length degree) is allocated, and D_1, the G-orbit of b_1, also
    before its search; the degree alone, the identity's row of the table,
    before any per-point array is built.  The elements are then the
    products u_m * ... * u_1, one from each transversal, each formed once,
    and the base images of their inverses u_1^-1 * ... * u_m^-1 through the
    inverted transversals; FiniteGroup sorts both by key.
    """
    limit = _cap("element_cap")
    if degree > ENTRIES_PER_ELEMENT * limit:       # before any per-point array
        refuse("element_cap", f"group element table of 1 x {degree} entries "
                              f"passed {ENTRIES_PER_ELEMENT} per element of the cap")
    gens = _perm_rows(generators, degree)
    points = np.arange(degree)
    # each point's rank in its G-orbit, and the orbit's size
    label = _orbit_labels(gens)
    by_orbit = label.argsort(kind="stable")
    rank = np.empty(degree, dtype=np.int64)
    rank[by_orbit] = points - label[by_orbit].searchsorted(label[by_orbit])
    size = np.bincount(label, minlength=degree)[label]

    def guard(order: int, radix: list[int]):
        bits = (prod(radix) - 1).bit_length()
        if order > limit:
            refuse("element_cap", f"group closure passed the element cap ({limit})")
        if order * degree > ENTRIES_PER_ELEMENT * limit:
            refuse("element_cap", f"group element table of {order} x {degree} entries "
                                  f"passed {ENTRIES_PER_ELEMENT} per element of the cap")
        if bits > KEY_BITS:
            raise CapExceeded("element_key", f"group element keys need {bits} bits, "
                                             f"more than the {KEY_BITS} an int64 key holds")

    stab = distinct_rows(gens.compress((gens != points).any(axis=1), axis=0))
    base, transversals, order = [], [], 1
    guard(order, [])
    while len(stab):
        base.append(int((stab != points).any(axis=0).argmax()))
        if len(base) == 1:
            guard(int(size[base[0]]), [])
        orbit, levels = _search(stab, np.array(base[-1:]))
        order *= len(orbit)
        guard(order, size[base].tolist())
        trans, tree = _transversal(stab, orbit, levels)
        transversals.append((trans, _inverse_rows(trans)))
        stab = _schreier_generators(stab, orbit, *transversals[-1], tree)
    rows = points.astype(np.int32)[None]
    for trans, _ in reversed(transversals):
        rows = trans.take(rows, axis=1).reshape(-1, degree)     # e * u: row x is u[e[x]]
    # the base images of each row's inverse u_1^-1 * ... * u_m^-1, one column per row
    images = np.array(base, dtype=np.int32)[:, None]
    for _, inverse in transversals:
        images = inverse.T.take(images, axis=0).reshape(len(base), -1)
    weights = [prod(size[base[k + 1:]].tolist()) for k in range(len(base))]
    return FiniteGroup(degree, gens, rows, images, np.array(base, dtype=np.int64), rank,
                       np.array(weights, dtype=np.int64), name=name)

