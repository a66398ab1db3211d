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
isomorphisms between representatives of one rank, classified once, a
rank at a time, every representative of the rank at once (iso_classes,
_isos), the sizes of the non-empty pairs from them (class_sizes,
sorted), every map out of a representative into a representative of a
larger rank by carrying them onto each member inside it (_rows), and
any other pair's from its representatives' pair (_carried).  Only those
isomorphisms are searched; hom_matrices builds any one pair from the
definition of its kind alone, with no catalog:

  A            the g with g^-1 E g inside F, which lie in the transporter
               cosets taking E's first basis element into F
               (FiniteGroup.conjugators, which builds every A map);
  Aprime,      a backtracking search over the images of E's basis vectors,
  AprimeD(d),  breadth first over numpy arrays: fixing the image of basis
  Creg         vector k fixes that of every vector whose last nonzero
               coordinate is k, and each one is checked against its
               allowed images at once (early pruning as in Seress,
               Permutation Group Algorithms, 2003, ch. 9).  Creg allows
               every image but the identity;
  An(n)        the Aprime maps whose restriction to every rank-n subspace
               U of E is one of the A maps U -> F, listed one block of
               U's at a time (one conjugators call, at most |G| maps per
               U) and tested for every map and every U of the block in
               one sorted lookup (fpmat.restricts_into, the test the
               catalog's _conjugations_on shares).

closure requires every A-morphism in its input, so its result too is an
isomorphism followed by an inclusion, and is decided by its isomorphisms
between class representatives of one rank: it closes that groupoid alone,
a rank at a time from the top, seeding each rank with the restrictions
of the one above (semi-naive rounds, as in Abiteboul, Hull and Vianu,
Foundations of Databases, 1995, ch. 13, within a rank).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .config import cap as _cap, refuse
from .elabs import ElabCatalog, ElabSubgroup
from .errors import CatalogMismatch, ClosureGuardError, InputFormatError
# perfbench/tracing.py wraps categories.mat_mul; callers read column_codes here
from .fpmat import (Mat, basis_search, code_digits, column_codes,  # noqa: F401
                    image_tables, injective_count, mat_mul, matrix_of,
                    restricts_into, subspace_codes)
from .groups import (FiniteGroup, blocks, distinct_rows, find_sorted, gather, ranges, row_keys,
                     runs, sorted_distinct, sorted_in_place, split_rows)

# -- kinds ------------------------------------------------------------


class _Kind(NamedTuple):
    tag: str
    param: Optional[int] = None


class CategoryKind(_Kind):
    """A category kind, its tag and parameter checked when it is made."""

    __slots__ = ()

    def __new__(cls, tag, param=None):
        if tag not in ("Creg", "A", "Aprime", "AprimeD", "An"):
            raise ValueError(f"unknown category kind {tag!r}")
        if tag == "AprimeD" and (param is None or param < 1):
            raise ValueError("AprimeD needs a positive divisor parameter")
        if tag == "An" and (param is None or param < 0):
            raise ValueError("An needs a non-negative tuple-length parameter")
        if tag in ("Creg", "A", "Aprime") and param is not None:
            raise ValueError(f"{tag} takes no parameter")
        return super().__new__(cls, tag, param)

    def label(self) -> str:
        if self.param is None:
            return self.tag
        return f"{self.tag}({self.param})"


def parse_kind(text: str, p: int, place: str) -> CategoryKind:
    """The kind labelled "Tag", "Tag(k)" or "Tag:k"; InputFormatError,
    its message after place, unless it is valid at p."""
    text = text.strip()
    if "(" in text and text.endswith(")"):
        text = text[:-1].replace("(", ":", 1)
    tag, colon, raw = text.partition(":")
    try:
        param = int(raw) if colon else None
    except ValueError:
        raise InputFormatError(
            f"{place}: the parameter of {tag} must be an integer, got {raw!r}") from None
    try:
        kind = CategoryKind(tag, param)
    except ValueError as e:
        raise InputFormatError(f"{place}: {e}") from None
    if kind.tag == "AprimeD" and (p - 1) % kind.param:
        raise InputFormatError(f"{place}: {kind.label()} needs a divisor of {p - 1} at p={p}")
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

    An(n) is A once n reaches the rank, An(0) is Creg, An(1) and
    AprimeD(1) are Aprime, Aprime is A at rank 1 (one conjugator of the
    generator), and every kind is A at rank 0; other kinds are their own.
    """
    if kind.tag == "An":
        if kind.param >= rank:
            return A
        if kind.param <= 1:
            kind = CREG if kind.param == 0 else APRIME
    if kind.tag == "AprimeD" and kind.param == 1:
        kind = APRIME
    return A if not rank or (kind == APRIME and rank == 1) else kind


# -- hom-set computation ----------------------------------------------

def _labels(G: FiniteGroup, p: int, rank: int, by_code: np.ndarray,
            kind: CategoryKind) -> np.ndarray:
    """The conjugacy class of each element of by_code, one row per
    subgroup of the given rank (or one by_code), merged where the kind
    lets an element go (see class_counts): one gather for every row."""
    kind = canonical(kind, 1)
    cls = G.conjugacy.class_of[by_code]
    if kind == CREG:
        return np.minimum(cls, 1)
    if kind.tag == "AprimeD":
        digits, weights = code_digits(p, rank), p ** np.arange(rank)
        # the order-d units mod p; E has elements of order p, so p <= degree
        return np.min([cls[..., t * digits % p @ weights] for t in range(1, p)
                       if pow(t, kind.param, p) == 1], axis=0)
    return cls


def class_counts(E: ElabSubgroup, kind: CategoryKind) -> tuple[np.ndarray, np.ndarray]:
    """(labels, counts): the conjugacy class of each element of E, by
    code, merged where the kind lets an element go, and how many elements
    of E lie in each merged class.  For AprimeD(d) the classes of e^t, for
    the units t with t^d = 1 mod p, are one (labelled by the least); for
    Creg every class but the identity's, class 0, is one.  A kind-morphism
    is injective and keeps each element's merged class, so Hom(E, F) is
    empty unless F's counts dominate E's, and an isomorphism needs equal
    counts: equal sorted label rows, which iso_classes compares for every
    representative of a rank at once (_labels)."""
    cls = _labels(E.ambient, E.prime, E.rank, E.by_code, kind)
    return cls, np.bincount(cls, minlength=E.ambient.conjugacy.class_count())


def _refuse_past_cap(holds: str, total: int) -> None:
    """Raise CapExceeded("hom_count_cap") when total maps pass that cap."""
    limit = _cap("hom_count_cap")
    if total > limit:
        refuse("hom_count_cap", f"{holds} {total} maps, more than the cap ({limit})")


def hom_matrices(kind: CategoryKind, E: ElabSubgroup,
                 F: ElabSubgroup) -> np.ndarray:
    """The kind-morphisms E -> F as an int64 array of column codes, one
    map per row, rows distinct and in lexicographic order.

    Each kind is built from its definition alone, with no catalog; see
    the module docstring.  A category over a catalog never calls it: it
    searches the isomorphisms between representatives of one rank for
    many pairs at once (_isos) and builds every other hom-set from them;
    this stays the definition they are tested against.
    """
    if E.ambient is not F.ambient or E.prime != F.prime:
        raise CatalogMismatch("hom-set needs a common ambient group and prime")
    if kind.tag == "AprimeD" and (E.prime - 1) % kind.param:
        raise ValueError(f"parameter {kind.param} does not divide {E.prime - 1}")
    kind = canonical(kind, E.rank)          # A at rank 0: the one empty map
    (E_cls, E_counts), (F_cls, F_counts) = class_counts(E, kind), class_counts(F, kind)
    if (E_counts > F_counts).any():
        return np.zeros((0, E.rank), dtype=np.int64)
    if kind == A:
        # conjugators inducing the same map give repeated rows
        cols = F.codes_of(E.ambient.conjugators([E.basis], F.by_code[None])[2])
        return distinct_rows(cols.compress((cols >= 0).all(axis=1), axis=0))
    # each element may go to any element of its merged class
    cols = basis_search(E.prime, E_cls[None], F_cls[None], E.rank, F.rank)[1]
    if kind.tag == "An" and len(cols):
        at = subspace_codes(E.prime, E.rank, kind.param)[:, E.prime ** np.arange(kind.param)]
        # the A maps into F of a block of rank-n subspaces, at most |G| each
        for b in blocks(len(at), len(E.ambient) * (kind.param + 2)):
            owner, _, images = E.ambient.conjugators(E.by_code[at[b]],
                                                     F.by_code[None].repeat(len(at[b]), axis=0))
            rows = np.concatenate((owner[:, None], F.codes_of(images)), axis=1)
            rows = distinct_rows(rows.compress((rows >= 0).all(axis=1), axis=0))
            cols = cols.compress(restricts_into(
                cols, np.zeros(len(cols), dtype=np.int64), E.prime, F.rank, at[None, b],
                np.arange(len(at[b]))[None, :, None], rows), axis=0)
    return cols


def _isos(catalog: ElabCatalog, kind: CategoryKind, i: np.ndarray,
          j: np.ndarray) -> list[np.ndarray]:
    """Hom(i[t], j[t]) of a canonical kind for each pair of class
    representatives of one rank, in order: each built once per catalog,
    all those missing at once, and kept in catalog.homs.

      A            only an automorphism group is non-empty (members of
                   different classes are not conjugate), all those of a
                   rank from one FiniteGroup.conjugators call over every
                   representative, read by catalog.codes_in; at rank 1
                   <b> onto itself sends b to each of its class inside;
      An(n)        the maps of A where A and An(n-1) (built first if
                   missing; An(1) is Aprime) have as many, else those
                   maps of An(n-1) whose restriction to every rank-n
                   member inside i is an A map, every map at once
                   (_conjugations_on, through hom_matrices' restriction
                   test, restricts_into);
      others       one basis_search over the pairs whose sorted label
                   rows agree (an isomorphism keeps each label's count).
    """
    homs, p = catalog.homs, catalog.prime
    got = [homs.get((kind, a, b)) for a, b in zip(i.tolist(), j.tolist())]
    todo = [t for t, h in enumerate(got) if h is None]
    if not todo:
        return got
    i, j = i[todo], j[todo]
    r = catalog.ranks().item(i[0])
    if kind == A:                           # members of different classes are not conjugate
        if any((A, a, a) not in homs for a in i.tolist()):      # all of rank r at once
            reps = catalog.rank_reps(r)
            by_code = catalog.by_codes(r, reps)
            if r == 1:                      # <b> onto itself: b to each of its class inside
                cls = catalog.group.conjugacy.class_of[by_code]
                owner, f = (cls == cls[:, 1, None]).nonzero()
                cols = f[:, None]
            else:
                owner, _, images = catalog.group.conjugators(by_code[:, p ** np.arange(r)], by_code)
                cols = catalog.codes_in(reps[owner, None], images)
                rows = np.concatenate((owner[:, None], cols), axis=1)
                rows = distinct_rows(rows.compress((cols >= 0).all(axis=1), axis=0))
                owner, cols = rows[:, 0], rows[:, 1:]
            homs.update(zip([(A, a, a) for a in reps.tolist()], split_rows(owner, cols, len(reps))))
        built = [homs[A, a, a] if a == b else homs[A, a, a][:0]
                 for a, b in zip(i.tolist(), j.tolist())]
    elif kind.tag == "An":
        built = _isos(catalog, A, i, j)
        maps = _isos(catalog, canonical(a_n(kind.param - 1), r), i, j)    # A <= An(n) <= An(n-1)
        wide = [t for t, (a, b) in enumerate(zip(built, maps)) if len(a) != len(b)]
        if wide:                            # equal sizes decide the others
            reps = catalog.rank_reps(kind.param)
            for t, h in zip(wide, _conjugations_on(catalog, kind.param, i[wide], j[wide], [
                    maps[t] for t in wide], _isos(catalog, A, reps, reps))):
                built[t] = h
    else:
        labels = _labels(catalog.group, p, r, catalog.by_codes(r, np.concatenate((i, j))), kind)
        dom, cod = labels[:len(i)], labels[len(i):]
        at = (np.sort(dom, axis=1) == np.sort(cod, axis=1)).all(axis=1).nonzero()[0]
        pair, cols = basis_search(p, dom.take(at, axis=0), cod.take(at, axis=0), r, r)
        built = split_rows(at[pair], cols, len(i))
    for t, a, b, h in zip(todo, i.tolist(), j.tolist(), built):
        got[t] = homs[kind, a, b] = h
    return got


def _conjugations_on(catalog: ElabCatalog, n: int, members: np.ndarray, targets: np.ndarray,
                     maps: list, autos: list) -> list:
    """The maps f of maps[t], column codes from members[t] into
    targets[t], all of one rank above n, whose restriction to every
    rank-n member U inside the domain is induced by conjugation: f o c_U
    is one of the maps c_V o a, V a member of U's class inside the
    target and a one of autos, the A automorphisms of their
    representative, as column-code arrays in class order (c_X the
    conjugation isomorphism onto X, conjugation_codes).  Those maps are
    listed once per target, tagged by (t, U's class), for one call of
    restricts_into over every map and every U; read-only, in order."""
    of, cols = np.arange(len(maps)).repeat([len(f) for f in maps]), np.concatenate(maps)
    p, r = catalog.prime, catalog.ranks().item(members[0])
    subs = subspace_codes(p, r, n)
    U, V = (catalog.indices_of_sets(catalog.by_codes(r, x).take(subs, axis=1).reshape(-1, p ** n))
            for x in (members, targets))
    # autos[k] belongs to the k-th class of rank n (classes follow rank order)
    k = (catalog.class_of[V] - catalog.class_of[catalog.rank_starts[n]]).tolist()
    count = [len(autos[x]) for x in k]
    W, a = V.repeat(count), np.concatenate([autos[x] for x in k])
    # the codes of c_U on the basis of U's representative in each domain,
    # and of every c_V o a in each target
    at, into = (catalog.codes_in(x.repeat(len(subs)).repeat(reps)[:, None], gather(
        catalog.by_codes(n, X), np.arange(len(X))[:, None],
        gather(catalog.conjugation_codes, X[:, None], codes)))
        for x, X, reps, codes in ((members, U, 1, p ** np.arange(n)), (targets, W, count, a)))
    pair = np.arange(len(targets)).repeat(len(subs))
    tag = np.concatenate((pair[:, None], catalog.class_of[U][:, None]), axis=1)
    keep = restricts_into(cols, of, p, r, at.reshape(len(members), len(subs), n), tag.reshape(
        len(members), len(subs), 2), np.concatenate((pair.repeat(count)[:, None],
                                                      catalog.class_of[W][:, None], into), axis=1))
    return split_rows(of[keep], cols.compress(keep, axis=0), len(maps))


def _rows(C: SubgroupCategory, i: int) -> None:
    """Build row i of C's base, every morphism out of a class
    representative i into a class representative R of its rank or
    larger, and keep each non-empty Hom(i, R) in the base's hom cache (an
    array already there stays); _carried takes them to the other members
    of R's class.

    Such a map is c_m o Iso(i, Y), then the inclusion of m in R, for m a
    member inside R (catalog.inside) of a class y isomorphic to i's
    (first of iso_classes), Y its representative and c_m: Y -> m the
    conjugation isomorphism (conjugation_codes); maps through distinct m
    have distinct images.  Refused (CapExceeded) before anything is built
    when the row holds more maps than the hom count cap allows: row x of
    class_sizes, summed.
    """
    catalog, reps, cls = C.catalog, C.catalog.class_reps, C.catalog.class_of
    x, rank = cls.item(i), catalog.ranks().item(i)
    kind = C._kind_at(rank)
    class_starts, by_class = catalog.class_table
    first, (keys, sizes) = C.iso_classes()[1], C.class_sizes()
    a, b = keys.searchsorted([x * len(reps), x * len(reps) + len(reps)])
    _refuse_past_cap(f"the {C.provenance if kind is None else kind.label()} hom-sets "
                     f"out of 1 objects hold", int(sizes[a:b].sum()))
    ys = (first == first[x]).nonzero()[0]
    isos = [C._base_hom(i, reps[y]) for y in ys.tolist()]
    # the pairs (m, R) of catalog.inside with m in a class ys[y], by
    # sorted lookups of those members; each beside each map i -> rep ys[y]
    members, supers = catalog.inside
    y, at = ranges(class_starts[ys], class_starts[ys + 1])
    k, at = ranges(*(members.searchsorted(by_class[at], side) for side in ("left", "right")))
    m, R, y = members[at], supers[at], y[k]
    lengths = np.array([len(h) for h in isos])
    starts = lengths.cumsum() - lengths
    pair, row = ranges(starts[y], starts[y] + lengths[y])
    target = R[pair]        # c_m o iso on the codes of the representative, then into R
    conj = gather(catalog.conjugation_codes, m[pair, None], np.concatenate(isos).take(row, axis=0))
    cols = catalog.codes_in(target[:, None], gather(catalog.by_codes(rank, m), pair[:, None], conj))
    order = row_keys(np.concatenate((target[:, None], cols), axis=1)).argsort()
    target, cols = target[order], cols.take(order, axis=0)
    cols.flags.writeable = False
    bounds = runs(target)
    for t, a, b in zip(target[bounds[:-1]].tolist(), bounds, bounds[1:]):
        C._base.setdefault((kind, i, t), cols[a:b])


# -- categories -------------------------------------------------------


class SubgroupCategory:
    """A catalog plus hom-sets: a base, held on the pairs of class
    representatives, and optional explicit maps keyed by pair.

    The base is a kind's, read from the catalog's hom cache that every
    category over that catalog shares under canonical kinds, or given by
    its isomorphisms between representatives of one rank, as closure
    gives its result (a groupoid on each rank's classes, which its keys
    classify; its class_sizes and rows are built from them and kept on
    the category); an explicit category (kind None, nothing given) has
    an empty one.  Sizes are read per pair of classes (class_sizes,
    hom_count).  Only hom-sets between representatives are built and
    kept, in one cache that never replaces an array it holds (_base_hom);
    every kind and every closure holds the conjugation isomorphisms, so
    the base's Hom(i, j) off them is c_j o Hom(rep i, rep j) o c_i^-1,
    one gather (_carried) at each read, c_k the conjugation isomorphism
    onto k (conjugation_codes).  hom(i, j) unites it with the explicit
    maps at (i, j).  Hom-sets are read-only column-code arrays (see the
    module docstring).
    """

    def __init__(self, catalog: ElabCatalog, kind: Optional[CategoryKind],
                 homs: Optional[dict[tuple[int, int], np.ndarray]] = None,
                 reps: Optional[dict[tuple[int, int], np.ndarray]] = None):
        self.catalog = catalog
        self.kind = kind
        self.maps = {key: cols for key, cols in (homs or {}).items() if len(cols)}
        self.given = reps or {}         # a given base's isomorphisms, by pair of reps
        # the base's hom-sets by (canonical kind, i, j), shared by a kind's categories
        self._base = catalog.homs if kind is not None else {
            (None, i, j): cols for (i, j), cols in self.given.items()}
        for cols in chain(self.maps.values(), self.given.values()):
            cols.flags.writeable = False
        if kind is None:
            # a groupoid: aut[x] is its (rep x, rep x) size, first[y] the least x with (x, y)
            x, y = catalog.class_of[np.array(list(self.given), dtype=np.int64).reshape(-1, 2)].T
            aut, first = np.zeros_like(catalog.class_reps), np.arange(len(catalog.class_reps))
            aut[x[x == y]] = [len(cols) for (i, j), cols in self.given.items() if i == j]
            np.minimum.at(first, y, x)
            aut.flags.writeable = first.flags.writeable = False
            self._classes = {"iso": (aut, first)}

    @property
    def provenance(self) -> str:
        return self.kind.label() if self.kind is not None else "explicit"

    def _kind_at(self, rank: int) -> Optional[CategoryKind]:
        """The canonical kind out of a domain of that rank; None if given."""
        return canonical(self.kind, rank) if self.kind is not None else None

    def hom(self, i: int, j: int) -> np.ndarray:
        got, extra = self._base_hom(i, j), self.maps.get((i, j))
        if extra is not None:
            got = distinct_rows(np.concatenate([got, extra])) if len(got) else extra
            got.flags.writeable = False
        return got

    def _base_hom(self, i: int, j: int) -> np.ndarray:
        """The base's Hom(i, j).  On a pair of class representatives it is
        given, or built and kept (_isos at one rank, the row out of i into
        a larger rank by _rows, none into a smaller one); any other pair's
        is carried from its representatives' pair (_carried) at each read
        and never kept, so the cache holds only representatives' pairs."""
        catalog = self.catalog
        ranks, cls, reps = catalog.ranks(), catalog.class_of, catalog.class_reps
        r, s = ranks.item(i), ranks.item(j)
        kind = self._kind_at(r)
        got = self._base.get((kind, i, j))
        if got is not None:
            return got
        ci, cj = cls.item(i), cls.item(j)
        ri, rj = reps.item(ci), reps.item(cj)
        if (i, j) != (ri, rj):
            got = self._base_hom(ri, rj)
            got = _carried(catalog, got, np.array([i]), np.array([j]))[0] if len(got) else got[:0]
            got.flags.writeable = False
            return got
        # empty into a smaller rank, and into a larger one unless a class
        # isomorphic to i's has a member inside j
        if r < s and find_sorted(self.class_sizes()[0], ci * len(reps) + cj)[1]:
            _rows(self, i)
            got = self._base.get((kind, i, j))
        elif kind and r == s:
            got = _isos(catalog, kind, np.array([i]), np.array([j]))[0]
        return np.zeros((0, r), dtype=np.int64) if got is None else got

    @cached_property
    def _classes(self) -> dict:
        """Where a kind's iso_classes and class_sizes are kept once read:
        the catalog's entry for the kind's canonical form at each rank, so
        kinds with equal hom-sets share one; a given base sets its own."""
        return self.catalog.sizes.setdefault(tuple(
            canonical(self.kind, r) for r in range(len(self.catalog.codes))), {})

    def iso_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(aut, first): aut[x] = |Aut(rep x)| in the base (0 if it is
        empty) and first[x] the least class isomorphic to x, the one test
        of isomorphism between classes; a given base's are read off its
        keys when it is made.  A kind's are read a rank at a time, every
        representative of the rank at once (_classify)."""
        if "iso" not in self._classes:
            catalog, reps = self.catalog, self.catalog.class_reps
            aut, first = np.zeros(len(reps), dtype=np.int64), np.arange(len(reps))
            for r in range(len(catalog.codes)):         # every rank up to the p-rank
                xs = (catalog.ranks()[reps] == r).nonzero()[0]
                _classify(catalog, canonical(self.kind, r), r, xs, aut, first)
            aut.flags.writeable = first.flags.writeable = False
            self._classes["iso"] = aut, first
        return self._classes["iso"]

    def class_sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, sizes): keys x * k + y, increasing, over the classes x, y
        of k with a non-empty Hom(rep x, rep y) in the base, and its size;
        read-only, kept with iso_classes.  A map out of rep x is an
        isomorphism onto a member of a class isomorphic to x, aut[x] of
        them onto each, then the inclusion: aut[x] times the members
        inside rep y (catalog.inside) of classes isomorphic to x."""
        if "sizes" not in self._classes:
            catalog, k, cls = self.catalog, self.catalog.class_count(), self.catalog.class_of
            (m, R), (aut, first) = catalog.inside, self.iso_classes()
            pairs = sorted_in_place(first[cls[m]] * k + cls[R])
            bounds = np.array(runs(pairs))
            pairs, count = pairs[bounds[:-1]], bounds[1:] - bounds[:-1]
            xs = aut.nonzero()[0]
            s, t = _matches(first[xs], pairs // k)       # each row onto its leader's
            got = xs[s] * k + pairs[t] % k, aut[xs[s]] * count[t]
            got[0].flags.writeable = got[1].flags.writeable = False
            self._classes["sizes"] = got
        return self._classes["sizes"]

    def _sizes_at(self, xy: np.ndarray) -> np.ndarray:
        """The class_sizes entry at each key x * k + y, 0 off its keys."""
        keys, sizes = self.class_sizes()
        at, found = find_sorted(keys, xy)
        return np.concatenate((sizes, [0]))[np.where(found, at, len(sizes))]

    def hom_count(self) -> int:
        """The maps of every hom-set, listing none: size * |x| * |y| over
        class_sizes (|x| the members of class x), each explicit pair's
        hom-set in place of the base's there, read in row-major order."""
        (keys, sizes), k = self.class_sizes(), self.catalog.class_count()
        starts = self.catalog.class_table[0]
        members = starts[1:] - starts[:-1]
        return int(sizes @ (members[keys // k] * members[keys % k])) + sum(
            len(self.hom(*key)) - len(self._base_hom(*key)) for key in sorted(self.maps))

    def materialize(self) -> None:
        """Compute every hom-set; guarded by the hom count cap."""
        self.hom_dict()

    def hom_dict(self) -> dict[tuple[int, int], np.ndarray]:
        """Every non-empty hom-set in row-major order, refused when they
        hold more maps than the hom count cap (hom_count counts them
        before any is listed).  Each class pair of class_sizes with more
        than one member pair is carried to them at once, a pair of
        one-member classes is its representatives' own array, and the
        explicit pairs are read by hom; nothing is kept."""
        _refuse_past_cap("the category holds", self.hom_count())
        catalog, reps, out = self.catalog, self.catalog.class_reps.tolist(), {}
        starts, members = catalog.class_table
        for x, y in zip(*(a.tolist() for a in np.divmod(self.class_sizes()[0], len(reps)))):
            I, J = members[starts[x]:starts[x + 1]], members[starts[y]:starts[y + 1]]
            got = self._base_hom(reps[x], reps[y])
            out.update(zip(product(I.tolist(), J.tolist()),
                           _carried(catalog, got, I, J) if len(I) * len(J) > 1 else [got]))
        out.update((key, self.hom(*key)) for key in self.maps)
        return dict(sorted(out.items()))


def _classify(catalog: ElabCatalog, kind: CategoryKind, r: int, xs: np.ndarray,
              aut: np.ndarray, first: np.ndarray) -> None:
    """Set aut and first (see iso_classes) on the classes xs of rank r,
    for a canonical kind.  Creg's aut is |GL_r|, counted, and all of them
    are isomorphic.  Otherwise the classes are grouped, each of A's alone
    (members of different classes are not conjugate), any other kind's by
    one row_keys sort of their sorted label rows (class_counts), which
    isomorphic classes share.  In rounds every class left is tested
    against the least one left in its group, which leads it; the first
    round searches every automorphism group too, so most ranks are one
    _isos call, and a rank whose groups have one class each is exactly
    that call."""
    reps, p = catalog.class_reps[xs], catalog.prime
    if kind == CREG:
        aut[xs], first[xs] = injective_count(p, r, r), xs[0]
        return
    group = range(len(xs))
    if kind != A and len(xs) > 1:
        group = row_keys(sorted_in_place(_labels(catalog.group, p, r, catalog.by_codes(r, reps),
                                                 kind), axis=1)).tolist()
    left = dom = list(range(len(xs)))               # dom: the automorphism groups
    while left:
        lead: dict = {}                             # each group's least class left
        for t in left:
            lead.setdefault(group[t], t)
        left = [t for t in left if lead[group[t]] != t]
        led = [lead[group[t]] for t in left]
        pairs = reps[np.array([dom + led, dom + left], dtype=np.int64)]
        sizes = [len(h) for h in _isos(catalog, kind, *pairs)]
        aut[xs[dom]], found = sizes[:len(dom)], sizes[len(dom):]
        for t, a, f in zip(left, led, found):
            if f:
                first[xs[t]] = xs[a]
        left, dom = [t for t, f in zip(left, found) if not f], []


def _carried(catalog: ElabCatalog, cols: np.ndarray, I: np.ndarray,
             J: np.ndarray) -> np.ndarray:
    """c_j o cols o c_i^-1 for each i in I and j in J, for a non-empty
    hom-set cols between the representatives of their classes, c_k the
    conjugation isomorphism onto k: one read-only array of shape
    (|I| * |J|, maps, rank of I), the pairs (i, j) in row-major order and
    the rows of each in lexicographic order."""
    p, codes = catalog.prime, catalog.conjugation_codes
    (m, r), s = cols.shape, catalog.ranks().item(J[0])
    back = codes.take(I, axis=0)[:, :p ** r].argsort(axis=1)[:, p ** np.arange(r)]    # c_i^-1
    pulled = image_tables(cols, p, s).take(back, axis=1).swapaxes(0, 1)   # (i, map, column)
    got = gather(codes, J[:, None, None], pulled[:, None]).reshape(len(I) * len(J) * m, r)
    order = row_keys(np.concatenate((np.arange(len(got))[:, None] // m, got), axis=1)).argsort()
    got = got.take(order, axis=0).reshape(len(I) * len(J), m, r)
    got.flags.writeable = False
    return got


def build_category(kind: CategoryKind, catalog: ElabCatalog) -> SubgroupCategory:
    return SubgroupCategory(catalog, kind)


def explicit_category(catalog: ElabCatalog, homs: dict[tuple[int, int], Iterable],
                      kind: Optional[CategoryKind] = None) -> SubgroupCategory:
    """The category over a kind's base (none when kind is None) whose
    explicit maps are the given hom collection, each hom-set given as
    rows of column codes: validated for shape (one code per domain basis
    vector, each a vector of the codomain) and full column rank (no
    non-zero vector goes to 0)."""
    cleaned: dict[tuple[int, int], np.ndarray] = {}
    p = catalog.prime
    for (i, j), rows in homs.items():
        r, s = catalog.ranks().item(i), catalog.ranks().item(j)
        rows = list(rows)
        cols = (np.array(rows, dtype=np.int64) if rows
                else np.zeros((0, r), dtype=np.int64))
        if cols.shape != (len(rows), r) or ((cols < 0) | (cols >= p ** s)).any():
            raise ValueError(f"column codes do not map rank {r} into rank {s}")
        if (image_tables(cols, p, s)[:, 1:] == 0).any():
            raise ValueError("matrix does not have full column rank")
        cleaned[(i, j)] = distinct_rows(cols)
    return SubgroupCategory(catalog, kind, cleaned)


def _matches(keys: np.ndarray, among: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, t) for every keys[s] == among[t], in increasing order of s, then t."""
    order = among.argsort(kind="stable")
    s, at = ranges(*(among[order].searchsorted(keys, side=side)
                     for side in ("left", "right")))
    return s, order[at]


# -- closure ----------------------------------------------------------

# Isomorphisms between class representatives of one rank r, as arrays
# (domain classes, codomain classes, image tables): row t of the table
# holds the code in the codomain representative of the image of every
# vector code of the domain representative.
Isos = tuple[np.ndarray, np.ndarray, np.ndarray]


def _iso_keys(dom: np.ndarray, cod: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact key of each map dom -> cod between classes, given by its
    column codes: the keys order as the tuples (dom, cod, *cols) do,
    however many places the codes take."""
    return row_keys(np.concatenate((dom[:, None], cod[:, None], cols), axis=1))


def _joined(parts: Sequence[Isos]) -> Isos:
    return tuple(map(np.concatenate, zip(*parts)))


def _unknown(maps: Isos, known: np.ndarray, basis: np.ndarray) -> tuple[Isos, np.ndarray]:
    """The distinct maps among maps whose keys are not in known (sorted),
    and their keys; basis holds the codes of the domain's basis."""
    keys = _iso_keys(maps[0], maps[1], maps[2][:, basis])
    order = keys.argsort()
    keys = keys[order]
    keep = np.concatenate(([True], keys[1:] != keys[:-1])) & ~find_sorted(known, keys)[1]
    at = order[keep]
    return (maps[0][at], maps[1][at], maps[2].take(at, axis=0)), keys[keep]


def _composed(f: Isos, g: Isos) -> Isos:
    """g o h for every h in f and g in g with h's codomain g's domain."""
    t, at = _matches(f[1], g[0])
    return f[0][t], g[1][at], gather(g[2], at[:, None], f[2].take(t, axis=0))


def _groupoid(old: Isos, seeds: Isos, basis: np.ndarray) -> Optional[Isos]:
    """The isomorphisms that seeds add to old, a groupoid that holds
    every identity (None if they add none).  Every member of the
    groupoid they generate is a word in old, the seeds and their
    inverses (the argsort of a table), so it is the least set holding
    old that is closed under composing on the left with one of those:
    semi-naive rounds, each composing only the maps first found in the
    last one.  Old is closed, so the first round composes the seeds and
    their inverses with old's members."""
    known = sorted_in_place(_iso_keys(old[0], old[1], old[2][:, basis]))
    seeds = _unknown(seeds, known, basis)[0]
    gens = _joined([seeds, (seeds[1], seeds[0], seeds[2].argsort(axis=1))])
    delta, keys = _unknown(_composed(old, gens), known, basis)
    gens, added = _joined([gens, old]), []
    while len(keys):
        known = sorted_in_place(np.concatenate([known, keys]))
        added.append(delta)
        delta, keys = _unknown(_composed(delta, gens), known, basis)
    return _joined(added) if added else None


def _onto_images(catalog: ElabCatalog, dom: np.ndarray, elems: np.ndarray) -> Isos:
    """Maps out of the representatives of the classes dom, each given by
    the ambient elements its codes go to (one row of p^rank per map),
    corestricted onto their images, catalog members T found by their
    element sets, and carried to the representative of T by c_T^-1."""
    T = catalog.indices_of_sets(elems)
    back = catalog.conjugation_codes.take(T, axis=0)[:, :elems.shape[1]].argsort(axis=1)
    return dom, catalog.class_of[T], gather(back, np.arange(len(T))[:, None],
                                            catalog.codes_in(T[:, None], elems))


def _restricted(catalog: ElabCatalog, maps: Isos, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(domain classes, image elements), as _onto_images reads them, of
    every map x -> y of maps restricted to each member S of rank - 1
    inside rep x, read on rep S through c_S."""
    ranks, cls, reps = catalog.ranks(), catalog.class_of, catalog.class_reps
    ys = (ranks[reps] == rank).nonzero()[0]    # classes follow rank order
    by_code = catalog.by_codes(rank, reps[ys])
    s, x = catalog.inside
    keep = (ranks[s] == rank - 1) & (ranks[x] == rank)
    s, x = s[keep], x[keep]
    inner = gather(catalog.by_codes(rank - 1, s), np.arange(len(s))[:, None],
                   catalog.conjugation_codes.take(s, axis=0)[:, :catalog.prime ** (rank - 1)])
    pull = catalog.codes_in(x[:, None], inner)     # codes in rep x
    f, k = _matches(maps[0], cls[x])
    images = gather(maps[2], f[:, None], pull.take(k, axis=0))
    return cls[s][k], gather(by_code, (maps[1][f] - ys[0])[:, None], images)


def _holds_a(C: SubgroupCategory, base: SubgroupCategory) -> None:
    """Raise ClosureGuardError at the first pair, in row-major order, where
    C, a category of explicit maps alone, misses maps of base (A's), once
    base's maps pass the hom count cap.  A pair C does not list misses all
    of base's there, so the first such pair is read off base's
    class_sizes, spread to member pairs as in changed_pairs; only it and
    the listed pairs before it are compared, by sorted row keys."""
    catalog, n, k = C.catalog, len(C.catalog), C.catalog.class_count()
    _refuse_past_cap("the category holds", base.hom_count())
    (starts, members), (x, y) = catalog.class_table, np.divmod(base.class_sizes()[0], k)
    t, at = ranges(starts[x], starts[x + 1])              # member at of class x[t]
    u, to = ranges(starts[y[t]], starts[y[t] + 1])        # and member to of class y[t]
    pairs = members[at[u]] * n + members[to]
    listed = np.array(sorted(C.maps), dtype=np.int64).reshape(-1, 2) @ [n, 1]
    stop = int(pairs[~find_sorted(listed, pairs)[1]].min(initial=n * n))
    for g in listed[listed < stop].tolist() + [stop] * (stop < n * n):
        mine, maps = (row_keys(D.hom(*divmod(g, n))) for D in (C, base))
        if count := int((~find_sorted(mine, maps)[1]).sum()):
            raise ClosureGuardError(f"input omits {count} conjugation-induced morphism"
                                    f"{'s' if count != 1 else ''} on object pair {divmod(g, n)}")


def closure(C: SubgroupCategory) -> SubgroupCategory:
    """Smallest hom collection containing C that is closed under
    composition, restriction (both domain and codomain), and inverses of
    bijective members, as a category whose base is given by its
    isomorphisms between class representatives of one rank (see
    SubgroupCategory).

    The input must contain every A-morphism (conjugation-induced maps and
    inclusions), on every pair.  Every kind and closure does; an input of
    explicit maps alone is checked (_holds_a), and ClosureGuardError names
    the first pair that misses some.  The closure then holds the inclusions
    and the conjugation isomorphisms and is closed under corestriction,
    so each of its maps is an isomorphism onto its image followed by an
    inclusion (Quillen's factorization; see the module docstring), and
    its isomorphisms between representatives, a groupoid on the classes
    of each rank, decide it.  A restriction of f is f o incl, whose
    corestriction restricts f's isomorphism; and g o f corestricts to
    the restriction of g's isomorphism to f's image, composed with f's.
    So that groupoid is the least one that holds the seeds below and the
    restriction, corestricted and carried, of each of its members to
    every member inside the domain.  A restriction to a member of rank
    r - 2 restricts one to a member of rank r - 1 that holds it, so the
    members of one rank less suffice.

    The seeds are the input base's isomorphisms (A's, for an explicit
    input; a kind's is counted first, and refused past the hom count
    cap) and each input map, corestricted onto its image and carried to
    the representatives' pair by the conjugation isomorphisms.  The base
    is closed under all three rules, so only the isomorphisms it lacks
    are worked on.  Ranks are closed from the top down: each rank closes
    its seeds and its base under composition and inverse (_groupoid),
    then restricts the isomorphisms it added to every member of one rank
    less inside their domain (_restricted), which seed the rank below.
    No map between ranks is built; the result reads those through _rows.
    """
    catalog, p, reps = C.catalog, C.catalog.prime, C.catalog.class_reps.tolist()
    rank, inputs = catalog.ranks()[reps], list(C.maps.items()) + list(C.given.items())
    if C.kind is None:
        base = build_category(A, catalog)
        if not C.given:         # a closure's result holds A, as its input did
            _holds_a(C, base)
    else:
        _refuse_past_cap("the base between class representatives holds",
                         int(C.class_sizes()[1].sum()))
        base = C
    top = int(rank.max())
    # by rank: (domain classes, image elements) of the maps to seed it, as
    # _onto_images reads them; each input map E -> F through c_E
    pending: list[list] = [[] for _ in range(top + 1)]
    for (i, j), cols in inputs:
        r, s = catalog.ranks().item(i), catalog.ranks().item(j)
        images = image_tables(cols, p, s)
        pending[r].append((np.full(len(cols), catalog.class_of[i]), catalog.by_code(j)[
            images[:, catalog.conjugation_codes[i, :p ** r]]]))
    homs: dict[tuple[int, int], np.ndarray] = {}
    first = base.iso_classes()[1]
    xs, ys = _matches(first, first)           # the pairs of isomorphic classes
    for r in range(top, -1, -1):
        at = rank[xs] == r
        x, y = xs[at], ys[at]
        mine = [base._base_hom(reps[a], reps[b]) for a, b in zip(x.tolist(), y.tolist())]
        if pending[r]:
            count, basis = [len(cols) for cols in mine], p ** np.arange(r)
            old = (x.repeat(count), y.repeat(count), image_tables(np.concatenate(mine), p, r))
            dom, elems = map(np.concatenate, zip(*pending[r]))
            added = _groupoid(old, _onto_images(catalog, dom, elems), basis)
            if added is not None:
                if r:
                    pending[r - 1].append(_restricted(catalog, added, r))
                dom, cod, tables = _joined([old, added])
                cols, pair = tables[:, basis], dom * len(reps) + cod
                order = _iso_keys(dom, cod, cols).argsort()
                cols, bounds = cols.take(order, axis=0), runs(pair[order])
                x, y = np.divmod(pair[order][bounds[:-1]], len(reps))
                mine = [cols[a:b] for a, b in zip(bounds, bounds[1:])]
        homs.update(zip([(reps[a], reps[b]) for a, b in zip(x.tolist(), y.tolist())], mine))
    return SubgroupCategory(catalog, None, reps=homs)


def changed_pairs(C: SubgroupCategory,
                  closed: SubgroupCategory) -> list[tuple[int, int, int, int]]:
    """(i, j, |Hom(i, j)| in C, in closed) for every pair whose sizes
    differ between C and its closure, in row-major order.  Off C's
    explicit pairs, read by hom, a pair has its classes' sizes, so only
    the class pairs whose sizes differ (closed's keys hold C's, as the
    closure only adds) are spread to their members."""
    catalog, n, k = C.catalog, len(C.catalog), C.catalog.class_count()
    (starts, members), cls = catalog.class_table, catalog.class_of
    keys, sizes = closed.class_sizes()
    x, y = np.divmod(keys[C._sizes_at(keys) != sizes], k)
    t, at = ranges(starts[x], starts[x + 1])              # member at of class x[t]
    u, to = ranges(starts[y[t]], starts[y[t] + 1])        # and member to of class y[t]
    mine = np.array(sorted(C.maps), dtype=np.int64).reshape(-1, 2) @ [n, 1]   # explicit pairs
    i, j = np.divmod(sorted_distinct(np.concatenate([members[at[u]] * n + members[to], mine])), n)
    before, after = C._sizes_at(cls[i] * k + cls[j]), closed._sizes_at(cls[i] * k + cls[j])
    before[(i * n + j).searchsorted(mine)] = [len(C.hom(*divmod(g, n))) for g in mine.tolist()]
    keep = before != after
    return list(zip(*(a[keep].tolist() for a in (i, j, before, after))))


# -- invariants -------------------------------------------------------


def maximal_objects(C: SubgroupCategory) -> list[list[int]]:
    """Isomorphism classes of maximal objects, as sorted subgroup indices,
    in order of their smallest member.

    An object is maximal when every outgoing morphism is bijective, which
    for injective linear maps means no morphism reaches a strictly larger
    rank.  Both are read off iso_classes and the explicit maps, not pair
    by pair: a base maps a class into a larger rank when some class
    isomorphic to it is not maximal in the catalog.  A base is closed
    under composition and inverses of bijections, so each of its classes
    is one node (n + class), joined to first[class], and no class that is
    not maximal joins two that are; an explicit map joins its ends.
    Min-label propagation finds the components.
    """
    catalog, n = C.catalog, len(C.catalog)
    ranks, cls = catalog.ranks(), catalog.class_of
    aut, first = C.iso_classes()
    grows = np.zeros(len(first), dtype=bool)
    grows[first[~catalog.maximal[catalog.class_reps]]] = True
    maximal = ~(grows[first] & (aut > 0))[cls]
    dom, cod = np.array(list(C.maps), dtype=np.int64).reshape(-1, 2).T
    maximal[dom[ranks[dom] < ranks[cod]]] = False
    keep = maximal.nonzero()[0]
    glued = keep[aut[cls[keep]] > 0]
    ends = maximal[dom] & maximal[cod]
    src = np.concatenate([n + np.arange(len(first)), glued, dom[ends]])
    dst = np.concatenate([n + first, n + cls[glued], cod[ends]])
    label, old = np.arange(n + len(first)), None
    while old is None or (label != old).any():
        old, label = label, label.copy()
        np.minimum.at(label, src, old[dst])
        np.minimum.at(label, dst, old[src])
    keep = keep[label[keep].argsort(kind="stable")]
    bounds = runs(label[keep])
    return [keep[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


class EqualityVerdict(NamedTuple):
    equal: bool
    domain_class: Optional[int] = None
    codomain_class: Optional[int] = None
    matrix: Optional[Mat] = None
    only_in: Optional[str] = None


def categories_equal(kind1: CategoryKind, kind2: CategoryKind,
                     catalog: ElabCatalog) -> EqualityVerdict:
    """Hom-set equality over class representative pairs, with a witness.

    Hom-sets between conjugate objects differ only by composition with
    conjugation isomorphisms, which both kinds contain, so representative
    pairs decide equality on the whole category.  (The test suite spot
    checks this against all pairs on small groups.)  A hom-set into a
    larger rank is carried from isomorphisms between representatives of
    one rank (see _rows), and class labels follow rank order, so the
    first pair that differs, in row-major order, is one of equal rank:
    only pairs isomorphic in either kind are read (iso_classes).  Beside
    A, Creg or An(0) a kind is nested, so only those whose sizes differ.
    The witness, at the first pair that differs, is the smallest matrix,
    as a tuple of row tuples, in one hom-set only.
    """
    C1, C2 = build_category(kind1, catalog), build_category(kind2, catalog)
    reps, p, k = catalog.class_reps.tolist(), catalog.prime, catalog.class_count()
    (a1, f1), (a2, f2) = C1.iso_classes(), C2.iso_classes()
    x, y = np.divmod(sorted_distinct(np.concatenate(
        [np.ravel_multi_index(_matches(f, f), (k, k)) for f in (f1, f2)])), k)
    if {kind1, kind2} & {A, CREG, a_n(0)}:
        walk = a1[x] * (f1[x] == f1[y]) != a2[x] * (f2[x] == f2[y])
        x, y = x[walk], y[walk]
    for ci, cj in zip(x.tolist(), y.tolist()):
        h1, h2 = C1.hom(reps[ci], reps[cj]), C2.hom(reps[ci], reps[cj])
        if not (h1.shape == h2.shape and (h1 == h2).all()):
            s1, s2 = set(map(tuple, h1.tolist())), set(map(tuple, h2.tolist()))
            M, cols = min((matrix_of(c, p, catalog.ranks().item(reps[cj])), c) for c in s1 ^ s2)
            side = kind1.label() if cols in s1 else kind2.label()
            return EqualityVerdict(False, ci, cj, M, side)
    return EqualityVerdict(True)


def fibre_indices(catalog: ElabCatalog) -> dict[int, tuple[int, int, tuple[int, int]]]:
    """For each maximal class c, increasing: |Aut_A(E)| and |Aut_Aprime(E)|
    of its members E, and the fibre index |Aut_Aprime(E)| / |Aut_A(E)| in
    lowest terms, as (numerator, denominator)."""
    aut_a, aut_aprime = (build_category(k, catalog).iso_classes()[0] for k in (A, APRIME))
    out = {}
    for c in catalog.maximal_class_indices():
        a, b = aut_a.item(c), aut_aprime.item(c)
        out[c] = a, b, (b // gcd(a, b), a // gcd(a, b))
    return out
