"""Finite permutation groups with exhaustive element enumeration.

Conventions, fixed once for the whole package:

* permutations are tuples of images on {0, ..., degree-1}, so ``p[x]`` is
  the image of the point ``x``;
* composition reads left to right: ``compose(p, q)`` applies ``p`` first,
  ``compose(p, q)[x] == q[p[x]]``;
* ``conjugate(g, e)`` is ``g^-1 * e * g``, hence
  ``conjugate(g*h, e) == conjugate(h, conjugate(g, e))``.

Groups are stored fully enumerated in a canonical sorted order, which makes
every derived quantity (class labels, transporter cosets, catalog layouts)
reproducible between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .config import cap as _cap
from .errors import CapExceeded, DegreeMismatch, InvalidPermutation

Perm = tuple[int, ...]

# group elements per block in FiniteGroup.conjugates_by
_BLOCK = 1024


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of images, ordered as the rows are as tuples.

    Each row becomes its big-endian unsigned bytes; those compare (and
    sort) byte by byte exactly as the image tuples do, so the keys of a
    group's sorted elements come out sorted.
    """
    rows = rows.astype(">u4", order="C")
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def check_perm(images: Sequence[int], degree: int | None = None) -> Perm:
    """Validate an image list and return it as a tuple.

    Raises InvalidPermutation unless images is a bijection on
    {0, ..., len(images)-1} (of the given degree, when specified).
    """
    p = tuple(int(x) for x in images)
    n = len(p)
    if degree is not None and n != degree:
        raise InvalidPermutation(f"expected degree {degree}, got {n}")
    seen = [False] * n
    for x in p:
        if not 0 <= x < n or seen[x]:
            raise InvalidPermutation(f"images {p!r} are not a bijection")
        seen[x] = True
    return p


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
    that sorted order.  Derived tables (inverses, orders, conjugacy data,
    centralizers) are computed lazily and cached.  Everything observable
    is immutable after construction, so concurrent readers are safe.
    """

    def __init__(self, degree: int, generators: Sequence[Perm],
                 elements: Sequence[Perm], name: str = ""):
        self.degree = degree
        self.generators = [check_perm(g, degree) for g in generators]
        self.elements = sorted(check_perm(e, degree) for e in elements)
        self.name = name or f"group<deg {degree}, order {len(self.elements)}>"
        if len(set(self.elements)) != len(self.elements):
            raise InvalidPermutation("duplicate elements")
        self._index = {e: i for i, e in enumerate(self.elements)}
        if identity_perm(degree) not in self._index:
            raise InvalidPermutation("element list lacks the identity")
        self.identity_index = self._index[identity_perm(degree)]
        self._arr = np.array(self.elements, dtype=np.int32).reshape(len(self.elements), degree)
        self._keys = _row_keys(self._arr)
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
        return tuple(perm) in self._index

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, degree={self.degree}, order={len(self)})"

    @property
    def order(self) -> int:
        return len(self.elements)

    def element(self, i: int) -> Perm:
        return self.elements[i]

    def index(self, perm: Perm) -> int:
        try:
            return self._index[tuple(perm)]
        except KeyError:
            raise KeyError(f"permutation {perm!r} not in {self.name}")

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

    def mul(self, i: int, j: int) -> int:
        return self._index[compose(self.elements[i], self.elements[j])]

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
        if self._orders is None:
            self._orders = np.array([perm_order(e) for e in self.elements], dtype=np.int64)
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
        n = len(self.elements)
        class_of = np.full(n, -1, dtype=np.int64)
        witness = np.zeros(n, dtype=np.int64)
        reps: list[int] = []
        sizes: list[int] = []
        gen_idx = [self._index[g] for g in self.generators]
        ident = self.identity_index
        for start in range(n):
            if class_of[start] >= 0:
                continue
            label = len(reps)
            reps.append(start)
            class_of[start] = label
            witness[start] = ident
            frontier = [start]
            size = 1
            while frontier:
                nxt: list[int] = []
                for g in gen_idx:
                    conj = self.conjugate_indices(g, np.array(frontier, dtype=np.int64))
                    for src, tgt in zip(frontier, conj):
                        t = int(tgt)
                        if class_of[t] < 0:
                            class_of[t] = label
                            witness[t] = self.mul(int(witness[src]), g)
                            nxt.append(t)
                            size += 1
                frontier = nxt
            sizes.append(size)
        return ConjugacyTable(tuple(int(c) for c in class_of), tuple(reps),
                              tuple(sizes), tuple(int(w) for w in witness))

    # -- centralizers and transporters --------------------------------

    def centralizer_indices(self, e: int) -> np.ndarray:
        """Sorted indices of elements commuting with element e."""
        memo = self._cent_memo.get(e)
        if memo is not None:
            return memo
        ep = self._arr[e]
        # g*e == e*g  <=>  e(g(x)) == g(e(x)) for all x
        left = ep[self._arr]          # rows: x -> e(g(x))
        right = self._arr[:, ep]      # rows: x -> g(e(x))
        mask = np.all(left == right, axis=1)
        result = np.nonzero(mask)[0].astype(np.int64)
        self._cent_memo[e] = result
        return result

    def transporter_indices(self, a: int, b: int) -> np.ndarray:
        """Sorted indices of all g with conjugate(g, a) == b.

        Built as the coset C(a) * g0 from a single witness g0, so the cost
        after the conjugacy table exists is one centralizer scan.
        """
        table = self.conjugacy
        if table.class_of[a] != table.class_of[b]:
            return np.empty(0, dtype=np.int64)
        wa, wb = table.witness[a], table.witness[b]
        g0 = self.mul(self.inv(wa), wb)     # conjugate(g0, a) == b
        cent = self.centralizer_indices(a)
        g0p = self._arr[g0]
        idx = self.indices_of_rows(g0p[self._arr[cent]])   # c * g0 for c in C(a)
        idx.sort()
        return idx


def close_generators(degree: int, generators: Iterable[Sequence[int]],
                     element_cap: int | None = None, name: str = "") -> FiniteGroup:
    """Breadth-first closure of a generator list into a FiniteGroup.

    Raises CapExceeded("element_cap") as soon as the enumeration would
    pass the cap (default from config, override via argument).
    """
    limit = element_cap if element_cap is not None else _cap("element_cap")
    gens = [check_perm(g, degree) for g in generators]
    ident = identity_perm(degree)
    seen: dict[bytes, None] = {}
    rows: list[np.ndarray] = []

    def push(row: np.ndarray) -> bool:
        key = row.tobytes()
        if key in seen:
            return False
        if len(seen) >= limit:
            raise CapExceeded(
                "element_cap",
                f"group closure passed the element cap ({limit}); "
                f"raise ELABCAT_ELEMENT_CAP to allow more")
        seen[key] = None
        rows.append(row)
        return True

    gen_arrs = [np.array(g, dtype=np.int32) for g in gens]
    frontier = [np.array(ident, dtype=np.int32)]
    push(frontier[0])
    while frontier:
        nxt = []
        for f in frontier:
            for g in gen_arrs:
                prod = g[f]    # f then g, left to right
                if push(prod):
                    nxt.append(prod)
        frontier = nxt
    elements = [tuple(int(x) for x in r) for r in rows]
    return FiniteGroup(degree, gens, elements, name=name)


def from_elements(degree: int, elements: Iterable[Sequence[int]],
                  name: str = "") -> FiniteGroup:
    """Wrap an already closed element list (no closure check performed)."""
    elems = [check_perm(e, degree) for e in elements]
    return FiniteGroup(degree, elems, elems, name=name)


def conjugacy_classes(G: FiniteGroup) -> ConjugacyTable:
    return G.conjugacy


def transporter(G: FiniteGroup, a: Perm, b: Perm) -> list[Perm]:
    """All g in G with conjugate(g, a) == b, sorted; empty if none."""
    idx = G.transporter_indices(G.index(a), G.index(b))
    return [G.element(int(i)) for i in idx]


def centralizer(G: FiniteGroup, elems: Iterable[Perm]) -> FiniteGroup:
    """Subgroup of G commuting with every listed element."""
    targets = [G.index(e) for e in elems]
    keep = np.arange(len(G), dtype=np.int64)
    for t in targets:
        cent = G.centralizer_indices(t)
        keep = np.intersect1d(keep, cent, assume_unique=True)
    return from_elements(G.degree, [G.element(int(i)) for i in keep],
                         name=f"centralizer in {G.name}")


def normalizer(G: FiniteGroup, subgroup: Iterable[Perm]) -> FiniteGroup:
    """Elements g with conjugate(g, H) == H setwise."""
    sub_idx = sorted(G.index(e) for e in subgroup)
    target = set(sub_idx)
    sub_arr = np.array(sub_idx, dtype=np.int64)
    keep = []
    for g in range(len(G)):
        conj = G.conjugate_indices(g, sub_arr)
        if set(int(c) for c in conj) == target:
            keep.append(g)
    return from_elements(G.degree, [G.element(i) for i in keep],
                         name=f"normalizer in {G.name}")
