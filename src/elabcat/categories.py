"""Categories of elementary abelian p-subgroups and injective maps.

Objects are the members of an ElabCatalog.  Morphisms E -> F are injective
linear maps on the canonical coordinates of the two subgroups.  A map is
held as its column codes: entry k is the code in F (sum v_i p^i) of the
image of E's basis vector k, so row i of its (rank F x rank E) matrix is
digit i of every column code.  A hom-set is an int64 array of shape
(maps, rank E), its rows distinct and in lexicographic order, so equal
hom-sets are equal arrays.  Matrices as tuples of row tuples appear only
where data leaves or enters the library (fpmat.matrix_of, column_codes).
The kinds, from smallest to largest hom-sets:

  A            some single g in G conjugates every element of E onto its
               image (f(e) = g^-1 e g for all e);
  An(n)        every subgroup of E of rank at most n has such a single
               conjugator (An(0) is Creg, An(1) is Aprime, and An(n) is A
               once n reaches the rank of E);
  Aprime       each element separately is conjugate to its image;
  AprimeD(d)   each element maps into the conjugacy classes of e^t for t
               in the order-d subgroup of the units mod p (d divides p-1;
               AprimeD(1) is Aprime);
  Creg         every injective linear map.

All of these are closed under composition, restriction to subgroups, and
inverses of bijective members, which the closure operator below makes
checkable for arbitrary explicitly given hom collections.

Every kind holds the inclusions and the conjugation isomorphisms and is
closed under corestriction, so a morphism E -> F is an isomorphism of the
kind onto f(E) followed by an inclusion (Quillen's factorization of A,
Ann. of Math. 94, 1971; Green and Leary use it for Aprime, Comment. Math.
Helv. 73, 1998).  A category over a catalog builds every kind that one
way, on the pairs of class representatives (see SubgroupCategory): the
isomorphisms between representatives of one rank, the sizes from them
(class_sizes), and every map out of a representative into a larger rank
by carrying them onto each member inside each target (_rows).  Only
those isomorphisms are searched; hom_matrices builds any one pair from
the definition of its kind alone, with no catalog:

  A            the g with g^-1 E g inside F, which lie in the transporter
               cosets taking E's first basis element into F;
  Aprime,      a backtracking search over the images of E's basis vectors,
  AprimeD(d),  breadth first over numpy arrays: fixing the image of basis
  Creg         vector k fixes that of every vector whose last nonzero
               coordinate is k, and each one is checked against its
               allowed images at once (early pruning as in Seress,
               Permutation Group Algorithms, 2003, ch. 9).  Creg allows
               every image but the identity;
  An(n)        the Aprime maps whose restriction to every rank-n subspace
               U of E is one of the A maps U -> F, tested for every map
               and every U in one sorted lookup (fpmat.restricts_into).

closure requires every A-morphism in its input, so its result too is
decided by the hom-sets between class representatives: it closes that
skeleton alone, in semi-naive rounds (Abiteboul, Hull and Vianu,
Foundations of Databases, 1995, ch. 13).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import cap as _cap
from .elabs import ElabCatalog, ElabSubgroup
from .errors import CapExceeded, CatalogMismatch, ClosureGuardError, NotMaximal
# perfbench/tracing.py wraps categories.mat_mul; callers read column_codes here
from .fpmat import (Mat, code_digits, column_codes, image_tables,  # noqa: F401
                    injective_count, mat_mul, mat_rank, matrix_of, restricts_into,
                    subspace_codes)
from .groups import (FiniteGroup, blocks, distinct_rows, find_sorted, ranges, row_keys,
                     runs, sorted_distinct)

# -- kinds ------------------------------------------------------------


@dataclass(frozen=True)
class CategoryKind:
    tag: str
    param: Optional[int] = None

    def __post_init__(self):
        if self.tag not in ("Creg", "A", "Aprime", "AprimeD", "An"):
            raise ValueError(f"unknown category kind {self.tag!r}")
        if self.tag == "AprimeD" and (self.param is None or self.param < 1):
            raise ValueError("AprimeD needs a positive divisor parameter")
        if self.tag == "An" and (self.param is None or self.param < 0):
            raise ValueError("An needs a non-negative tuple-length parameter")
        if self.tag in ("Creg", "A", "Aprime") and self.param is not None:
            raise ValueError(f"{self.tag} takes no parameter")

    def label(self) -> str:
        if self.param is None:
            return self.tag
        return f"{self.tag}({self.param})"


def parse_kind(text: str, p: int) -> CategoryKind:
    """The kind labelled "Tag", "Tag(k)" or "Tag:k"; ValueError unless valid at p."""
    text = text.strip()
    if "(" in text and text.endswith(")"):
        text = text[:-1].replace("(", ":", 1)
    tag, colon, raw = text.partition(":")
    kind = CategoryKind(tag, int(raw) if colon else None)
    if kind.tag == "AprimeD" and (p - 1) % kind.param:
        raise ValueError(f"{kind.label()} needs a divisor of {p - 1} at p={p}")
    return kind


CREG = CategoryKind("Creg")
A = CategoryKind("A")
APRIME = CategoryKind("Aprime")


def aprime_d(d: int) -> CategoryKind:
    return CategoryKind("AprimeD", d)


def a_n(n: int) -> CategoryKind:
    return CategoryKind("An", n)


def canonical(kind: CategoryKind, rank: int) -> CategoryKind:
    """The kind with the same hom-sets out of a domain of the given rank.

    An(n) is A once n reaches the rank, An(0) is Creg, and An(1) and
    AprimeD(1) are Aprime; every other kind is its own canonical form.
    """
    if kind.tag == "An":
        if kind.param >= rank:
            return A
        if kind.param <= 1:
            return CREG if kind.param == 0 else APRIME
    if kind.tag == "AprimeD" and kind.param == 1:
        return APRIME
    return kind


# -- hom-set computation ----------------------------------------------

def _conjugation_images(G: FiniteGroup, elems: Sequence[int],
                        F: ElabSubgroup) -> np.ndarray:
    """Rows (code in F of g^-1 e g, for e in elems) over the g in G that
    conjugate every listed element into F, repeats included.

    Only the g taking elems[0] into F can qualify: the union of one
    transporter coset per member of F in its class.
    """
    if not elems:                           # the one empty map
        return np.zeros((1, 0), dtype=np.int64)
    class_of = G.conjugacy.class_of
    first = elems[0]
    targets = [c for c, f in enumerate(F.by_code.tolist())
               if class_of[f] == class_of[first]]
    if not targets:
        return np.zeros((0, len(elems)), dtype=np.int64)
    if len(elems) == 1:
        return np.array(targets, dtype=np.int64)[:, None]
    cosets = G.transporter_indices(first, F.by_code[targets])
    images = F.codes_of(G.conjugate_indices(cosets, elems))
    return images[np.all(images >= 0, axis=1)]


def class_counts(E: ElabSubgroup, kind: CategoryKind) -> tuple[np.ndarray, np.ndarray]:
    """(labels, counts): the conjugacy class of each element of E, by
    code, merged where the kind lets an element go, and how many elements
    of E lie in each merged class.  For AprimeD(d) the classes of e^t, for
    the units t with t^d = 1 mod p, are one (labelled by the least); for
    Creg every class but the identity's, class 0, is one.  A kind-morphism
    is injective and keeps each element's merged class, so Hom(E, F) is
    empty unless F's counts dominate E's."""
    kind, p = canonical(kind, 1), E.prime
    cls = np.array([E.ambient.conjugacy.class_of[e] for e in E.by_code.tolist()])
    if kind == CREG:
        cls = np.minimum(cls, 1)
    elif kind.tag == "AprimeD" and E.rank:
        digits, weights = code_digits(p, E.rank), p ** np.arange(E.rank)
        # the order-d units mod p; E has elements of order p, so p <= degree
        cls = np.min([cls[t * digits % p @ weights] for t in range(1, p)
                      if pow(t, kind.param, p) == 1], axis=0)
    return cls, np.bincount(cls, minlength=E.ambient.conjugacy.class_count())


def _refuse_past_cap(holds: str, total: int, limit: Optional[int] = None) -> None:
    """Raise CapExceeded("hom_count_cap") when total maps pass limit (default: that cap)."""
    limit = _cap("hom_count_cap") if limit is None else limit
    if total > limit:
        raise CapExceeded("hom_count_cap", f"{holds} {total} maps, more than the cap "
                          f"({limit}); raise ELABCAT_HOM_COUNT_CAP to allow more")


def _basis_search(E: ElabSubgroup, ok: np.ndarray, F: ElabSubgroup) -> np.ndarray:
    """Rows of basis-image codes of the linear maps E -> F that send each
    element of code c to one of code f with ok[c, f], in lexicographic
    order.

    Backtracking over the basis images, breadth first and vectorized:
    choosing the image of basis vector k fixes the image of every vector
    whose last nonzero coordinate is k, and each one is checked against
    ok at once.  ok never allows the identity as the image of another
    element, so every survivor is injective.

    Raises CapExceeded("hom_count_cap") before the search when the
    product over basis vectors of their allowed images, a bound on the
    maps, passes the hom count cap.
    """
    p, s = E.prime, F.rank
    _refuse_past_cap(f"a hom-set of rank {E.rank} into rank {s} may hold",
                     math.prod(int(ok[p ** k].sum()) for k in range(E.rank)))
    F_digits, F_weights = code_digits(p, s), p ** np.arange(s)
    coef = np.arange(1, p)
    cols = np.zeros((1, 0), dtype=np.int64)   # image codes of the basis so far
    imgs = np.zeros((1, 1), dtype=np.int64)   # image code of each E code < p^k
    for k in range(E.rank):
        if not len(cols):
            return np.zeros((0, E.rank), dtype=np.int64)
        q = p ** k
        cand = np.nonzero(ok[q])[0]
        codes = np.arange(q) + q * coef[:, None]           # (p-1, q), code order
        steps = F_digits[cand][:, None, :] * coef[None, :, None]  # (n, p-1, s)
        grown_cols, grown_imgs = [], []
        for b in blocks(len(cols), len(cand) * codes.size * s):
            base = F_digits[imgs[b]]                       # (m, q, s)
            new = ((base[:, None, None] + steps[None, :, :, None]) % p) @ F_weights
            mi, ni = np.nonzero(ok[codes, new].all(axis=(2, 3)))
            grown_cols.append(np.column_stack([cols[b][mi], cand[ni]]))
            grown_imgs.append(np.concatenate(
                [imgs[b][mi], new[mi, ni].reshape(len(mi), codes.size)], axis=1))
        cols = np.concatenate(grown_cols)
        imgs = np.concatenate(grown_imgs)
    return cols


def hom_matrices(kind: CategoryKind, E: ElabSubgroup,
                 F: ElabSubgroup) -> np.ndarray:
    """The kind-morphisms E -> F as an int64 array of column codes, one
    map per row, rows distinct and in lexicographic order.

    Each kind is built from its definition alone, with no catalog; see
    the module docstring.  A category over a catalog calls it only
    between representatives of one rank, for a kind other than A and
    An(n), and builds every other hom-set from those isomorphisms; this
    stays the definition they are tested against.
    """
    if E.ambient is not F.ambient or E.prime != F.prime:
        raise CatalogMismatch("hom-set needs a common ambient group and prime")
    kind = canonical(kind, E.rank)
    if kind.tag == "AprimeD" and (E.prime - 1) % kind.param:
        raise ValueError(f"parameter {kind.param} does not divide {E.prime - 1}")
    if not E.rank:                          # every kind holds the one empty map
        return np.zeros((1, 0), dtype=np.int64)
    (E_cls, E_counts), (F_cls, F_counts) = class_counts(E, kind), class_counts(F, kind)
    if (E_counts > F_counts).any():
        return np.zeros((0, E.rank), dtype=np.int64)
    if kind == A:
        # conjugators inducing the same map give repeated rows
        return distinct_rows(_conjugation_images(E.ambient, E.basis, F))
    # each element may go to any element of its merged class
    cols = _basis_search(E, E_cls[:, None] == F_cls, F)
    if kind.tag == "An" and len(cols):
        at = subspace_codes(E.prime, E.rank, kind.param)[:, E.prime ** np.arange(kind.param)]
        cols = cols[restricts_into(cols, E.prime, F.rank, at, [
            _conjugation_images(E.ambient, E.by_code[a].tolist(), F) for a in at])]
    return cols


def _rows(C: SubgroupCategory, i: int, limit: int) -> None:
    """Build row i of C's kind, every morphism out of a class
    representative i, as catalog.rows[kind, i] = (targets, bounds, cols):
    Hom(i, targets[t]) is cols[bounds[t]:bounds[t + 1]], if non-empty.

    With Y_k = w_k^-1 Y w_k the members of a class y of i's rank (w_k the
    class witnesses), Hom(E, F) is c_k o Iso(E, Y) over the Y_k inside F,
    c_k: Y -> Y_k the conjugation by w_k; maps through distinct Y_k have
    distinct images.  Refused (CapExceeded) before anything is built when
    the row, read off class_sizes, holds more than limit maps.
    """
    catalog, E = C.catalog, C.catalog.subgroups[i]
    kind, reps = canonical(C.kind, E.rank), catalog.class_reps
    starts, supers = catalog.containers
    class_starts, by_class, witnesses = catalog.class_table
    sizes = C.class_sizes()[catalog.class_of[i]]
    _refuse_past_cap(f"the {kind.label()} hom-sets out of 1 objects hold",
                     int(sizes @ np.diff(class_starts)), limit)
    targets, parts = [], []
    for y in np.flatnonzero(sizes * (np.array(catalog.ranks())[reps] == E.rank)).tolist():
        span = slice(class_starts[y], class_starts[y + 1])
        iso, members = C._base_hom(i, reps[y]), by_class[span]
        conj = catalog.group.conjugate_indices(witnesses[span], catalog.subgroups[reps[y]].by_code)
        k_of, at = ranges(starts[members], starts[members + 1])
        targets.append(supers[at].repeat(len(iso)))
        parts.append(conj[k_of[:, None, None], iso].reshape(len(targets[-1]), E.rank))
    target, cols = np.concatenate(targets), np.concatenate(parts)
    for b in blocks(len(target), E.rank):
        cols[b] = catalog.codes_in(target[b, None], cols[b])
    order = np.lexsort((*cols.T[::-1], target))
    target, cols = target[order], cols[order]
    cols.flags.writeable = False
    bounds = runs(target)
    catalog.rows[kind, i] = (target[bounds[:-1]].tolist(), bounds, cols)


# -- categories -------------------------------------------------------


class SubgroupCategory:
    """A catalog plus hom-sets: a base, held on the pairs of class
    representatives, and optional explicit maps keyed by pair.

    The base is a kind's, read from the catalog's hom cache that every
    category over that catalog shares under canonical kinds, or given on
    the representatives' pairs, as closure gives its result (closed like
    a kind, so its sizes too are read off its isomorphisms); an explicit
    category (kind None, nothing given) has an empty one.  Every kind and
    every closure holds the conjugation isomorphisms, so the base's
    Hom(i, j) off the representatives is c_j o Hom(rep i, rep j) o c_i^-1,
    one gather, c_k the conjugation isomorphism onto k (conjugation_codes).
    hom(i, j) unites it with the explicit maps at (i, j).  Hom-sets are
    read-only column-code arrays (see the module docstring).
    """

    def __init__(self, catalog: ElabCatalog, kind: Optional[CategoryKind],
                 homs: Optional[dict[tuple[int, int], np.ndarray]] = None,
                 reps: Optional[dict[tuple[int, int], np.ndarray]] = None):
        self.catalog = catalog
        self.kind = kind
        self.maps = {key: cols for key, cols in (homs or {}).items() if len(cols)}
        # the base's hom-sets by (canonical kind, i, j), kind None if given
        self._base = catalog.homs if kind is not None else {
            (None, i, j): cols for (i, j), cols in (reps or {}).items()}
        for cols in chain(self.maps.values(), (reps or {}).values()):
            cols.flags.writeable = False

    @property
    def provenance(self) -> str:
        return self.kind.label() if self.kind is not None else "explicit"

    def hom(self, i: int, j: int) -> np.ndarray:
        got, extra = self._base_hom(i, j), self.maps.get((i, j))
        if extra is not None:
            got = distinct_rows(np.concatenate([got, extra])) if len(got) else extra
            got.flags.writeable = False
        return got

    def _base_hom(self, i: int, j: int) -> np.ndarray:
        """The base's Hom(i, j): given or built on a pair of
        representatives (isomorphisms, or a row into a larger rank),
        carried to any other pair, kept once read."""
        catalog, E, F = self.catalog, self.catalog.subgroups[i], self.catalog.subgroups[j]
        kind = canonical(self.kind, E.rank) if self.kind is not None else None
        got = self._base.get((kind, i, j))
        if got is not None:
            return got
        ri, rj = (catalog.class_reps[catalog.class_of[k]] for k in (i, j))
        none = np.zeros((0, E.rank), dtype=np.int64)
        if (i, j) != (ri, rj):
            got = self._base_hom(ri, rj)
            if len(got):
                got = _carried(catalog, got, np.array([i]), np.array([j]))[0, 0]
        elif kind is None or E.rank > F.rank:
            return none
        elif E.rank < F.rank:
            if (kind, i) not in catalog.rows:
                _rows(self, i, _cap("hom_count_cap"))
            targets, bounds, cols = catalog.rows[kind, i]
            t = bisect_left(targets, j)
            got = cols[bounds[t]:bounds[t + 1]] if targets[t:t + 1] == [j] else none
        elif kind == A:       # members of different classes are not conjugate
            got = distinct_rows(_conjugation_images(catalog.group, E.basis, E)) if i == j else none
        elif kind.tag == "An":
            # A <= An(n) <= Aprime, so equal sizes decide; else keep the
            # Aprime maps f whose restriction to each rank-n member U inside
            # i is an A map: f o c_U, on the basis of U's representative
            in_a = SubgroupCategory(catalog, A)._base_hom
            got = SubgroupCategory(catalog, APRIME)._base_hom(i, j)
            if len(got) == len(in_a(i, j)):
                got = in_a(i, j)
            else:
                members = [catalog.index_of_elements(E.by_code[s].tolist())
                           for s in subspace_codes(E.prime, E.rank, kind.param)]
                at = np.array([E.codes_of(catalog.subgroups[u].by_code[catalog.conjugation_codes[
                    u, E.prime ** np.arange(kind.param)]]) for u in members])
                got = got[restricts_into(got, E.prime, F.rank, at, [
                    in_a(catalog.class_reps[catalog.class_of[u]], j) for u in members])]
        else:
            got = hom_matrices(kind, E, F)
        got.flags.writeable = False
        self._base[kind, i, j] = got
        return got

    def class_sizes(self) -> np.ndarray:
        """The base's |Hom(rep x, rep y)| for all classes x, y, kept in
        catalog.sizes for a kind: I @ catalog.class_inclusions (see _rows),
        I[x, y] the isomorphisms rep x -> rep y, read only where the
        class_counts rows (Creg's for an explicit base) are equal, and
        counted as |GL_r| for Creg.  Class labels follow rank order, so
        between classes of one rank this is I."""
        catalog, reps = self.catalog, self.catalog.class_reps
        if (got := catalog.sizes.get(self.kind)) is None:
            key = row_keys(np.array([class_counts(catalog.subgroups[r], self.kind or CREG)[1]
                                     for r in reps]))
            key = np.searchsorted(sorted_distinct(key), key)      # equal rows, equal keys
            same = key[:, None] == key
            if canonical(self.kind or A, 1) == CREG:
                iso = same * np.array([injective_count(catalog.prime, r, r)
                                       for r in catalog.ranks()])[reps, None]
            else:
                iso = np.zeros(same.shape, dtype=np.int64)
                for x, y in np.argwhere(same).tolist():
                    iso[x, y] = len(self._base_hom(reps[x], reps[y]))
            # Iso(x, y) is empty or one orbit of Aut(rep x), so row x of I is
            # I[x, x] on the classes isomorphic to x, the least of them first[x]
            first, sums = (iso > 0).argmax(axis=1), np.zeros_like(iso)
            np.add.at(sums, first, catalog.class_inclusions)
            got = iso.diagonal()[:, None] * sums[first]
            got.flags.writeable = False
            if self.kind is not None:
                catalog.sizes[self.kind] = got
        return got

    def pair_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, sizes) of the non-empty hom-sets, listing no map off
        the representatives' pairs and the explicit maps: keys i * n + j,
        increasing, and |Hom(i, j)|, which is |Hom(rep i, rep j)| where
        no explicit map lies."""
        catalog, reps, n = self.catalog, self.catalog.class_reps, len(self.catalog)
        starts, members, _ = catalog.class_table
        size = self.class_sizes().ravel()
        x, y = np.divmod(np.flatnonzero(size), len(reps))
        t, i = ranges(starts[x], starts[x + 1])
        u, j = ranges(starts[y[t]], starts[y[t] + 1])
        keys, size = members[i][u] * n + members[j], size[x * len(reps) + y][t][u]
        if self.maps:
            mine = np.array(sorted(i * n + j for i, j in self.maps), dtype=np.int64)
            keep = ~find_sorted(mine, keys)[1]
            keys = np.concatenate([keys[keep], mine])
            size = np.concatenate([size[keep], [len(self.hom(*divmod(k, n)))
                                                for k in mine.tolist()]])
        order = np.argsort(keys)
        return keys[order], size[order]

    def materialize(self, hom_count_cap: Optional[int] = None) -> None:
        """Compute every hom-set; guarded by the hom count cap."""
        self.hom_dict(hom_count_cap)

    def hom_dict(self, hom_count_cap: Optional[int] = None
                 ) -> dict[tuple[int, int], np.ndarray]:
        """Every non-empty hom-set in row-major order, refused when they
        hold more maps than the hom count cap (pair_sizes counts them
        before any is listed).  The base is carried a pair of classes at
        a time, and every hom-set is kept as hom reads it."""
        keys, sizes = self.pair_sizes()
        _refuse_past_cap("the category holds", int(sizes.sum()), hom_count_cap)
        catalog, n, reps = self.catalog, len(self.catalog), self.catalog.class_reps
        starts, members, _ = catalog.class_table
        at = np.empty(n, dtype=np.int64)            # each member's place in its class
        at[members] = np.arange(n) - np.repeat(starts[:-1], np.diff(starts))
        kinds = [canonical(self.kind, catalog.subgroups[r].rank) if self.kind is not None
                 else None for r in reps]
        carried = {}
        for x, y in np.argwhere(self.class_sizes()).tolist():
            carried[x, y] = _carried(catalog, self._base_hom(reps[x], reps[y]),
                                     members[starts[x]:starts[x + 1]],
                                     members[starts[y]:starts[y + 1]])
            carried[x, y].flags.writeable = False
        out = {}
        for i, j in map(divmod, keys.tolist(), repeat(n)):
            x, y = catalog.class_of[i], catalog.class_of[j]
            out[i, j] = self.hom(i, j) if (i, j) in self.maps else self._base.setdefault(
                (kinds[x], i, j), carried[x, y][at[i], at[j]])
        return out


def _carried(catalog: ElabCatalog, cols: np.ndarray, I: np.ndarray,
             J: np.ndarray) -> np.ndarray:
    """c_j o cols o c_i^-1 for each i in I and j in J, for a non-empty
    hom-set cols between the representatives of their classes, c_k the
    conjugation isomorphism onto k: shape (|I|, |J|, maps, rank of I),
    the rows of each pair in lexicographic order."""
    p, codes = catalog.prime, catalog.conjugation_codes
    (m, r), s = cols.shape, catalog.subgroups[J[0]].rank
    back = np.argsort(codes[I, :p ** r], axis=1)[:, p ** np.arange(r)]    # c_i^-1 on i's basis
    pulled = image_tables(cols, p, s)[:, back].swapaxes(0, 1)              # (i, map, column)
    got = codes[J[:, None, None], pulled[:, None]].reshape(len(I) * len(J) * m, r)
    order = np.lexsort((*got.T[::-1], np.arange(len(got)) // m))
    return got[order].reshape(len(I), len(J), m, r)


def build_category(kind: CategoryKind, catalog: ElabCatalog) -> SubgroupCategory:
    return SubgroupCategory(catalog, kind)


def explicit_category(catalog: ElabCatalog,
                      homs: dict[tuple[int, int], Iterable]) -> SubgroupCategory:
    """Wrap an explicit hom collection, each hom-set given as rows of
    column codes: validated for shape (one code per domain basis vector,
    each a vector of the codomain) and full column rank."""
    cleaned: dict[tuple[int, int], np.ndarray] = {}
    p = catalog.prime
    for (i, j), rows in homs.items():
        E, F = catalog.subgroups[i], catalog.subgroups[j]
        rows = list(rows)
        cols = (np.array(rows, dtype=np.int64) if rows
                else np.zeros((0, E.rank), dtype=np.int64))
        if cols.shape != (len(rows), E.rank) or ((cols < 0) | (cols >= p ** F.rank)).any():
            raise ValueError(f"column codes do not map rank {E.rank} into rank {F.rank}")
        for M in code_digits(p, F.rank)[cols].transpose(0, 2, 1).tolist():
            if mat_rank(M, p) != E.rank:
                raise ValueError("matrix does not have full column rank")
        cleaned[(i, j)] = distinct_rows(cols)
    return SubgroupCategory(catalog, None, cleaned)


# -- closure ----------------------------------------------------------


def _key_dtype(p: int, max_rank: int, n: int):
    """int64 when every hom key over n objects of rank at most max_rank
    fits in it, else object (exact Python ints)."""
    return np.int64 if p ** (max_rank * max_rank) * n * n <= 2 ** 63 else object


def _hom_keys(cols: np.ndarray, dom: np.ndarray, cod: np.ndarray, base: int,
              n: int, dtype) -> np.ndarray:
    """Exact key (code * n + dom) * n + cod of each hom dom -> cod given by
    its column codes, where code = sum_k cols[:, k] base^k and base is the
    number of vectors of the codomain.  (dom, cod) fixes the shape, so
    keys of different shapes never meet."""
    places = np.array([base ** k for k in range(cols.shape[1])], dtype=dtype)
    code = cols.astype(dtype) @ places
    return (code * n + dom.astype(dtype)) * n + cod.astype(dtype)


def _decode(keys: np.ndarray, base: int, width: int,
            n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dom, cod, column codes) of keys made by _hom_keys for one shape."""
    places = np.array([base ** k for k in range(width)], dtype=keys.dtype)
    code, pair = keys // (n * n), keys % (n * n)
    cols = (code[:, None] // places % base).astype(np.int64)
    return (pair // n).astype(np.int64), (pair % n).astype(np.int64), cols


def _shape_keys(homs: dict[tuple[int, int], np.ndarray], ranks: list[int],
                p: int, dtype) -> dict[tuple[int, int], np.ndarray]:
    """Sorted _hom_keys of the hom-sets in homs, by (codomain rank, domain
    rank)."""
    n, top, sets = len(ranks), max(ranks) + 1, list(homs.values())
    dom, cod = np.fromiter(chain.from_iterable(homs), dtype=np.int64,
                           count=2 * len(sets)).reshape(-1, 2).T
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    shape = np.array(ranks)[cod] * top + np.array(ranks)[dom]
    out = {}
    for s in sorted_distinct(shape).tolist():
        at, (rows, width) = np.flatnonzero(shape == s), divmod(s, top)
        out[rows, width] = np.sort(_hom_keys(
            np.concatenate([sets[k] for k in at.tolist()]), np.repeat(dom[at], sizes[at]),
            np.repeat(cod[at], sizes[at]), p ** rows, n, dtype))
    return out


def _by_object(obj: np.ndarray, other: np.ndarray,
               data: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Split (other, data) by the object in obj."""
    order = np.argsort(obj, kind="stable")
    obj = obj[order]
    bounds = runs(obj) if len(obj) else []
    return {int(obj[a]): (other[order[a:b]], data[order[a:b]])
            for a, b in zip(bounds, bounds[1:])}


def _extend(index: dict, parts: dict) -> None:
    """Append each (far ends, data) part to the index entry of its rank."""
    for r, (ends, data) in parts.items():
        old = index.get(r)
        index[r] = (ends, data) if old is None else (
            np.concatenate((old[0], ends)), np.concatenate((old[1], data)))


def _conjugated(cols: np.ndarray, rows: int, at: np.ndarray, onto: np.ndarray,
                p: int) -> np.ndarray:
    """For maps f given by column codes into a rank-rows codomain, the maps
    whose column k is onto[f(x_k)], x_k the vector of code at[k]: at and
    onto give one row per map, or one row for all of them."""
    images = np.take_along_axis(image_tables(cols, p, rows), at, axis=1)
    return np.take_along_axis(onto, images, axis=1)


def closure(C: SubgroupCategory) -> SubgroupCategory:
    """Smallest hom collection containing C that is closed under
    composition, restriction (both domain and codomain), and inverses of
    bijective members, as a category whose base is given on the pairs of
    class representatives (see SubgroupCategory).

    The input must contain every A-morphism (conjugation-induced maps and
    inclusions), on every pair.  Every kind does; an input without one,
    its maps all explicit, is checked, and ClosureGuardError names the
    first pair that misses some.  Restricting a map's domain to S is then
    composing it with the inclusion of S, so restriction reduces to
    corestriction: narrowing the codomain to a catalog subgroup that
    holds the image.  With every conjugation isomorphism c present,
    Hom(E', F') = c o Hom(E, F) o c' for conjugates E' of E and F' of F,
    so the full subcategory on the class representatives, a skeleton,
    decides the closure.  Its seed is the input's base on the
    representatives' pairs (A, for an explicit input; a kind's is
    counted first, and refused past the hom count cap) and every other
    input hom, carried to its representatives' pair by the class
    witnesses; each corestriction onto a subgroup is carried on the same
    way.

    The fixpoint runs in semi-naive rounds.  Each round takes the homs
    first found in the last one, D, and joins them only with the homs at
    their endpoints: new = D o K_new  u  K_old o D, where K_old is the
    collection before the round and K_new = K_old u D, so each composable
    pair is multiplied exactly once.  A map out of an object is also held
    as the table of the image code of every vector, so g o f is a gather
    of f's columns from g's table: one numpy gather per middle object and
    (domain rank, codomain rank).  Each hom is known by an exact integer
    key (_hom_keys), and a sorted array of the keys found so far sorts the
    products into known and new.  D's corestrictions and the inverses of
    its square members, read off the inverse permutations of their tables,
    join the candidates of the next round.
    """
    catalog = C.catalog
    n, p, ranks = len(catalog), catalog.prime, catalog.ranks()
    dtype = _key_dtype(p, max(ranks), n)
    reps = catalog.class_reps
    rep_of, codes = np.array(reps)[catalog.class_of], catalog.conjugation_codes
    is_rep = rep_of == np.arange(n)
    if C.kind is None:
        # every kind holds A; an explicit input must list it on every pair
        base = _shape_keys(build_category(A, catalog).hom_dict(), ranks, p, dtype)
        given = _shape_keys(C.hom_dict(), ranks, p, dtype)
        # a key mod n^2 is its pair dom * n + cod
        missing = np.concatenate([keys[~find_sorted(given.get(shape, keys[:0]), keys)[1]]
                                  % (n * n) for shape, keys in base.items()])
        if len(missing):
            i, j = divmod(int(missing.min()), n)
            count = int((missing == i * n + j).sum())
            raise ClosureGuardError(
                f"input omits {count} conjugation-induced "
                f"morphism{'s' if count != 1 else ''} "
                f"on object pair ({i}, {j})")
        extra = {shape: keys[~find_sorted(base.get(shape, keys[:0]), keys)[1]]
                 for shape, keys in given.items()}
    else:
        _refuse_past_cap("the base between class representatives holds",
                         int(C.class_sizes().sum()))
        base = _shape_keys({(reps[x], reps[y]): C._base_hom(reps[x], reps[y])
                            for x, y in np.argwhere(C.class_sizes()).tolist()}, ranks, p, dtype)
        extra = _shape_keys(C.maps, ranks, p, dtype) if C.maps else {}

    known = np.zeros(0, dtype=dtype)      # sorted keys of every hom found
    found: dict[tuple[int, int], list] = {}   # the same, by shape
    pool: dict[tuple[int, int], list] = {}    # new keys, by shape

    def offer(cols: np.ndarray, dom: np.ndarray, cod: np.ndarray, rows: int) -> None:
        """Queue the homs (column codes into a rank-rows codomain) that are
        not known yet."""
        keys = _hom_keys(cols, dom, cod, p ** rows, n, dtype)
        keys = keys[~find_sorted(known, keys)[1]]
        if len(keys):
            pool.setdefault((rows, cols.shape[1]), []).append(keys)

    # the seed: the base on the representatives' pairs, and every other
    # hom f: dom -> cod carried to theirs, c_cod^-1 o f o c_dom
    for (rows, width), keys in base.items():
        pair = (keys % (n * n)).astype(np.int64)
        mine = keys[is_rep[pair // n] & is_rep[pair % n]]
        if len(mine):
            pool[rows, width] = [mine]
    for (rows, width), keys in extra.items():
        dom, cod, cols = _decode(keys, p ** rows, width, n)
        basis = codes[dom[:, None], p ** np.arange(width)]     # c_dom on rep dom's basis
        offer(_conjugated(cols, rows, basis, np.argsort(codes[cod, :p ** rows], axis=1), p),
              rep_of[dom], rep_of[cod], rows)

    # per representative j and rank: the representatives of the objects t
    # strictly inside j, and the code there of each vector code of j
    # carried by c_t^-1 (-1 off t), so a corestriction lands carried
    starts, supers = catalog.containers
    inner, at = ranges(starts[:-1], starts[1:])
    outer = supers[at]
    keep = (inner != outer) & is_rep[outer]
    inner, outer = inner[keep], outer[keep]
    narrowing: list[dict] = [{} for _ in range(n)]
    top = max(ranks) + 1
    for key, (ts, _) in _by_object(outer * top + np.array(ranks)[inner], inner, inner).items():
        j, r = divmod(key, top)
        inside = catalog.codes_in(ts[:, None], catalog.subgroups[j].by_code)
        back = np.argsort(codes[ts, :p ** r], axis=1)
        narrowing[j][r] = (rep_of[ts], np.where(
            inside >= 0, np.take_along_axis(back, np.maximum(inside, 0), axis=1), -1))

    # per object, by rank of the far end: (far ends, column codes) of the
    # homs into it, (far ends, image tables) of the homs out of it
    into: list[dict] = [{} for _ in range(n)]    # every hom found
    out_of: list[dict] = [{} for _ in range(n)]  # homs found before this round
    while pool:
        delta = {shape: sorted_distinct(np.concatenate(chunks))
                 for shape, chunks in pool.items()}
        pool.clear()
        known = np.sort(np.concatenate([known, *delta.values()]))
        d_in: list[dict] = [{} for _ in range(n)]
        d_out: list[dict] = [{} for _ in range(n)]
        for (rows, width), keys in delta.items():
            found.setdefault((rows, width), []).append(keys)
            dom, cod, cols = _decode(keys, p ** rows, width, n)
            tables = image_tables(cols, p, rows)
            for j, part in _by_object(cod, dom, cols).items():
                d_in[j][width] = part
            for i, part in _by_object(dom, cod, tables).items():
                d_out[i][rows] = part
            if rows == width > 0:
                inverse = np.argsort(tables, axis=1)[:, p ** np.arange(rows)]
                offer(inverse, cod, dom, rows)
        for j in reps:
            _extend(into[j], d_in[j])
            for width, (dom, cols) in d_in[j].items():
                for rows, (ts, inside) in narrowing[j].items():
                    if rows < width:
                        continue
                    for b in blocks(len(cols), len(ts) * width):
                        img = inside[:, cols[b]]            # (t, f, column)
                        t, f = np.nonzero((img >= 0).all(axis=2))
                        offer(img[t, f], dom[b][f], ts[t], rows)
            pairs = [(r, g, f) for r, g in d_out[j].items() for f in into[j].values()]
            pairs += [(r, g, f) for r, g in out_of[j].items() for f in d_in[j].values()]
            for rows, (cod, tables), (dom, cols) in pairs:
                width = cols.shape[1]
                for b in blocks(len(cols), len(tables) * width):
                    prod = tables[:, cols[b]]               # (g, f, column)
                    offer(prod.reshape(prod.shape[0] * prod.shape[1], width),
                          np.tile(dom[b], len(tables)), np.repeat(cod, prod.shape[1]),
                          rows)
            _extend(out_of[j], d_out[j])

    # each pair's rows in lexicographic order, as every hom-set is held
    homs: dict[tuple[int, int], np.ndarray] = {}
    for (rows, width), chunks in found.items():
        dom, cod, cols = _decode(np.concatenate(chunks), p ** rows, width, n)
        pair = dom * n + cod
        order = np.lexsort((*cols.T[::-1], pair))
        pair, cols = pair[order], cols[order]
        bounds = runs(pair)
        i, j = np.divmod(pair[bounds[:-1]], n)
        homs.update(zip(zip(i.tolist(), j.tolist()),
                        map(cols.__getitem__, map(slice, bounds, bounds[1:]))))
    return SubgroupCategory(catalog, None, reps=homs)


# -- invariants -------------------------------------------------------


def maximal_objects(C: SubgroupCategory) -> list[list[int]]:
    """Isomorphism classes of maximal objects, as sorted subgroup indices,
    in order of their smallest member.

    An object is maximal when every outgoing morphism is bijective, which
    for injective linear maps means no morphism reaches a strictly larger
    rank.  Both are read off class_sizes and the explicit maps, not pair
    by pair.  A base holds the conjugation isomorphisms and is closed
    under composition and inverses of bijections, so each of its classes
    is one node (n + class), joined to every class of its rank it maps
    to, and no class that is not maximal joins two that are; an explicit
    map joins its ends.  Min-label propagation finds the components.
    """
    catalog, n = C.catalog, len(C.catalog)
    ranks, cls = np.array(catalog.ranks()), np.array(catalog.class_of)
    found = C.class_sizes() > 0
    rank = ranks[catalog.class_reps]
    maximal = ~(found & (rank[:, None] < rank)).any(axis=1)[cls]
    dom, cod = np.array(list(C.maps), dtype=np.int64).reshape(-1, 2).T
    maximal[dom[ranks[dom] < ranks[cod]]] = False
    keep = np.flatnonzero(maximal)
    glued = keep[found.diagonal()[cls[keep]]]
    x, y = np.nonzero(found & (rank[:, None] == rank))
    ends = maximal[dom] & maximal[cod]
    src = np.concatenate([n + x, glued, dom[ends]])
    dst = np.concatenate([n + y, n + cls[glued], cod[ends]])
    label, old = np.arange(n + len(rank)), None
    while not np.array_equal(label, old):
        old, label = label, label.copy()
        np.minimum.at(label, src, old[dst])
        np.minimum.at(label, dst, old[src])
    keep = keep[np.argsort(label[keep], kind="stable")]
    bounds = runs(label[keep])
    return [keep[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class EqualityVerdict:
    equal: bool
    domain_class: Optional[int] = None
    codomain_class: Optional[int] = None
    matrix: Optional[Mat] = None
    only_in: Optional[str] = None

    def __bool__(self) -> bool:
        return self.equal


def categories_equal(kind1: CategoryKind, kind2: CategoryKind,
                     catalog: ElabCatalog) -> EqualityVerdict:
    """Hom-set equality over class representative pairs, with a witness.

    Hom-sets between conjugate objects differ only by composition with
    conjugation isomorphisms, which both kinds contain, so representative
    pairs decide equality on the whole category.  (The test suite spot
    checks this against all pairs on small groups.)  Beside A, Creg or
    An(0) a kind is nested, so only pairs whose class_sizes differ are
    read; otherwise every pair where either is non-zero, in row-major
    order.  The witness, at the first pair that differs, is the smallest
    matrix, as a tuple of row tuples, in one hom-set only.
    """
    C1, C2 = build_category(kind1, catalog), build_category(kind2, catalog)
    reps, p = catalog.class_reps, catalog.prime
    S1, S2 = C1.class_sizes(), C2.class_sizes()
    nested = {kind1, kind2} & {A, CREG, a_n(0)}
    for ci, cj in np.argwhere(S1 != S2 if nested else (S1 > 0) | (S2 > 0)).tolist():
        h1, h2 = C1.hom(reps[ci], reps[cj]), C2.hom(reps[ci], reps[cj])
        if not np.array_equal(h1, h2):
            s1, s2 = set(map(tuple, h1.tolist())), set(map(tuple, h2.tolist()))
            rows = catalog.subgroups[reps[cj]].rank
            M, cols = min((matrix_of(c, p, rows), c) for c in s1 ^ s2)
            side = kind1.label() if cols in s1 else kind2.label()
            return EqualityVerdict(False, ci, cj, M, side)
    return EqualityVerdict(True)


def generic_fibre_index(catalog: ElabCatalog, E: ElabSubgroup) -> Fraction:
    """|Aut_Aprime(E)| / |Aut_A(E)| for a maximal catalog member E."""
    idx = catalog.index_of(E)
    if not catalog.maximal[idx]:
        raise NotMaximal(f"subgroup {idx} is not maximal in its catalog")
    c = catalog.class_of[idx]
    num, den = (int(build_category(k, catalog).class_sizes()[c, c]) for k in (APRIME, A))
    return Fraction(num, den)

