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
layouts reproducible between runs.  Every lookup (index, membership,
products, conjugates) is one binary search of the rows' byte keys for a
whole batch of rows (indices_of_rows).  ``elements``, the same rows as a
list of tuples, is built once and only read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .config import cap as _cap
from .errors import CapExceeded, DegreeMismatch, InvalidPermutation

Perm = tuple[int, ...]

# group elements (rows of images) per block of a temporary array
_BLOCK = 1024


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of images, ordered as the rows are as tuples.

    Each row becomes its big-endian unsigned bytes; those compare (and
    sort) byte by byte exactly as the image tuples do, so the keys of a
    group's sorted elements come out sorted.
    """
    rows = rows.astype(">u4", order="C")
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


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
    """An exhaustively enumerated permutation group.

    Elements are kept sorted; all index-valued APIs refer to positions in
    that sorted order, and the identity, the smallest permutation, is
    index 0.  Derived tables (inverses, orders, conjugacy data,
    centralizers) are computed lazily and cached.  Everything observable
    is immutable after construction, so concurrent readers are safe.
    """

    def __init__(self, degree: int, generators: Sequence[Perm],
                 elements: Sequence[Perm] | np.ndarray, name: str = ""):
        self.degree = degree
        self.generators = list(map(tuple, _perm_rows(generators, degree).tolist()))
        rows = _perm_rows(elements, degree)
        keys = _row_keys(rows)
        order = np.argsort(keys)
        self._arr, self._keys = rows[order], keys[order]
        self.name = name or f"group<deg {degree}, order {len(rows)}>"
        if (self._keys[1:] == self._keys[:-1]).any():
            raise InvalidPermutation("duplicate elements")
        if not len(rows) or (self._arr[0] != np.arange(degree)).any():
            raise InvalidPermutation("element list lacks the identity")
        self.identity_index = 0
        self.elements = list(map(tuple, self._arr.tolist()))
        self._inv_idx: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._conj: ConjugacyTable | None = None
        self._cent_memo: dict[int, np.ndarray] = {}

    # -- basic lookups ------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

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
        return len(self.elements)

    def element(self, i: int) -> Perm:
        return self.elements[i]

    def index(self, perm: Perm) -> int:
        try:
            return int(self.indices_of_rows(_perm_rows([perm], self.degree))[0])
        except (KeyError, InvalidPermutation):
            raise KeyError(f"permutation {perm!r} not in {self.name}") from None

    def indices_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each row of an (n, degree) image array."""
        idx = np.searchsorted(self._keys, _row_keys(rows))
        np.minimum(idx, len(self._keys) - 1, out=idx)
        if not (self._arr[idx] == rows).all():
            raise KeyError(f"a row is not an element of {self.name}")
        return idx

    @property
    def array(self) -> np.ndarray:
        """(order, degree) array of images; do not mutate."""
        return self._arr

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

    def inv(self, i: int) -> int:
        return int(self.inverse_indices[i])

    @property
    def inverse_indices(self) -> np.ndarray:
        if self._inv_idx is None:
            # argsort of each row is the inverse permutation
            self._inv_idx = self.indices_of_rows(np.argsort(self._arr, axis=1))
        return self._inv_idx

    @property
    def element_orders(self) -> np.ndarray:
        """Order of each element: the lcm of the cycle lengths of its points,
        a point's cycle length being the first k with e^k(x) == x."""
        if self._orders is None:
            points = np.arange(self.degree)
            cycle = np.zeros(self._arr.shape, dtype=np.int64)
            power = self._arr
            for k in range(1, self.degree + 1):
                cycle[(power == points) & (cycle == 0)] = k
                if cycle.all():
                    break
                power = np.take_along_axis(self._arr, power, axis=1)
            self._orders = np.lcm.reduce(cycle, axis=1)
        return self._orders

    def conjugate_indices(self, g: int, targets: np.ndarray) -> np.ndarray:
        """Indices of g^-1 * e * g for each element index e in targets."""
        gp = self._arr[g]
        ginv = np.argsort(gp)
        return self.indices_of_rows(gp[self._arr[targets][:, ginv]])

    def conjugates_by(self, gs: np.ndarray, targets: Sequence[int]) -> np.ndarray:
        """(len(gs), len(targets)) indices: row i holds g^-1 * e * g for
        g = gs[i] and each target e.

        One gather per target over a block of the gs at a time, so the
        temporary arrays stay small on large groups.
        """
        t_rows = self._arr[list(targets)]
        out = np.empty((len(gs), len(t_rows)), dtype=np.int64)
        for start in range(0, len(gs), _BLOCK):
            g = self._arr[gs[start:start + _BLOCK]]
            ginv = np.argsort(g, axis=1)
            for k, ep in enumerate(t_rows):
                # row x of g^-1 * e * g is g[e[ginv[x]]]
                conj = np.take_along_axis(g, ep[ginv], axis=1)
                out[start:start + _BLOCK, k] = self.indices_of_rows(conj)
        return out

    # -- conjugacy ----------------------------------------------------

    @property
    def conjugacy(self) -> ConjugacyTable:
        if self._conj is None:
            self._conj = self._build_conjugacy()
        return self._conj

    def _build_conjugacy(self) -> ConjugacyTable:
        """Orbits under conjugation by the generators, breadth first; the
        first generator to reach an element gives its witness, and a
        level's witnesses are one batched product."""
        n = len(self.elements)
        class_of = np.full(n, -1, dtype=np.int64)
        witness = np.zeros(n, dtype=np.int64)
        reps: list[int] = []
        sizes: list[int] = []
        gen_idx = self.indices_of_rows(_perm_rows(self.generators, self.degree))
        for start in range(n):
            if class_of[start] >= 0:
                continue
            label = len(reps)
            reps.append(start)
            class_of[start] = label
            witness[start] = self.identity_index
            frontier = np.array([start], dtype=np.int64)
            size = 1
            while len(frontier):
                conj = np.empty((len(gen_idx), len(frontier)), dtype=np.int64)
                new = np.empty(conj.shape, dtype=bool)
                for k, g in enumerate(gen_idx):
                    # conjugation by g is a bijection: the targets are distinct
                    conj[k] = self.conjugate_indices(g, frontier)
                    new[k] = class_of[conj[k]] < 0
                    class_of[conj[k][new[k]]] = label
                by_gen, src = np.nonzero(new)
                reached = conj[by_gen, src]
                witness[reached] = self.mul(witness[frontier[src]], gen_idx[by_gen])
                frontier = reached
                size += len(reached)
            sizes.append(size)
        return ConjugacyTable(tuple(class_of.tolist()), tuple(reps),
                              tuple(sizes), tuple(witness.tolist()))

    # -- centralizers and transporters --------------------------------

    def centralizer_indices(self, e: int) -> np.ndarray:
        """Sorted int64 indices of the elements commuting with element e.

        Only the representative rep of e's conjugacy class is found by a
        scan of G.  Every other e is conjugate(w, rep) for its witness
        w = conjugacy.witness[e], and conjugation by w is an automorphism,
        so C_G(e) = w^-1 * C_G(rep) * w: one conjugate_indices call over
        C_G(rep) and a sort.  Each result is memoized.
        """
        memo = self._cent_memo.get(e)
        if memo is not None:
            return memo
        table = self.conjugacy
        rep = table.reps[table.class_of[e]]
        cent = self._cent_memo.get(rep)
        if cent is None:
            rp = self._arr[rep]
            # g*rep == rep*g  <=>  rep(g(x)) == g(rep(x)) for all x
            mask = np.all(rp[self._arr] == self._arr[:, rp], axis=1)
            cent = self._cent_memo[rep] = np.flatnonzero(mask).astype(np.int64)
        if e != rep:
            cent = self._cent_memo[e] = np.sort(
                self.conjugate_indices(table.witness[e], cent))
        return cent

    def transporter_indices(self, a: int, b) -> np.ndarray:
        """Sorted indices of all g with conjugate(g, a) == b; for a list of
        b's, those cosets joined in the order of the b's.

        Each is the coset C(a) * g0 from a single witness g0, so the cost
        after the conjugacy table exists is one centralizer scan and one
        lookup for all the b's.
        """
        table = self.conjugacy
        bs = [t for t in np.atleast_1d(b).tolist() if table.class_of[t] == table.class_of[a]]
        # row of g0 = wa^-1 * wb for each b, so that conjugate(g0, a) == b
        g0 = self._arr[[table.witness[t] for t in bs]][:, self._arr[self.inv(table.witness[a])]]
        cent = self._arr[self.centralizer_indices(a)]
        rows = g0[np.arange(len(bs))[:, None, None], cent]    # c * g0 for c in C(a)
        idx = self.indices_of_rows(rows.reshape(-1, self.degree)).reshape(len(bs), len(cent))
        idx.sort(axis=1)
        return idx.ravel()


def _fresh(rows: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows whose keys are not among the sorted keys seen,
    sorted by key, and their keys."""
    keys = _row_keys(rows)
    order = np.argsort(keys)
    rows, keys = rows[order], keys[order]
    keep = np.concatenate(([True], keys[1:] != keys[:-1]))
    keep &= ~find_sorted(seen, keys)[1]
    return rows[keep], keys[keep]


def close_generators(degree: int, generators: Iterable[Sequence[int]],
                     element_cap: int | None = None, name: str = "") -> FiniteGroup:
    """Breadth-first closure of a generator list into a FiniteGroup.

    Each level multiplies the elements first found in the last one by
    every generator, a block of rows at a time, and keeps the products
    whose keys are new.  Raises CapExceeded("element_cap") once the group
    has more elements than the cap (default from config, override via
    argument).
    """
    limit = element_cap if element_cap is not None else _cap("element_cap")
    gens = _perm_rows(generators, degree)
    seen = _row_keys(np.zeros((0, degree), dtype=np.int32))   # sorted keys found
    found: list[np.ndarray] = []
    level = [np.arange(degree, dtype=np.int32)[None]]       # candidate blocks
    while level:
        rows, keys = _fresh(np.concatenate(level), seen)
        if len(seen) + len(rows) > limit:
            raise CapExceeded(
                "element_cap",
                f"group closure passed the element cap ({limit}); "
                f"raise ELABCAT_ELEMENT_CAP to allow more")
        seen = np.sort(np.concatenate((seen, keys)))
        found.append(rows)
        level = [_fresh(g[rows[s:s + _BLOCK]], seen)[0]    # f then g
                 for g in gens for s in range(0, len(rows), _BLOCK)]
        level = [block for block in level if len(block)]
    return FiniteGroup(degree, gens, np.concatenate(found), name=name)


def from_elements(degree: int, elements: Iterable[Sequence[int]] | np.ndarray,
                  name: str = "") -> FiniteGroup:
    """Wrap an already closed element list (no closure check performed)."""
    rows = _perm_rows(elements, degree)
    return FiniteGroup(degree, rows, rows, name=name)


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
    keep = inside[G.conjugates_by(np.arange(len(G)), sub)].all(axis=1)
    return from_elements(G.degree, G.array[keep], name=f"normalizer in {G.name}")
