"""Categories of elementary abelian p-subgroups and injective maps.

Objects are the members of an ElabCatalog.  Morphisms E -> F are injective
linear maps, stored as (rank F x rank E) matrices over F_p acting on the
canonical coordinates of the two subgroups.  The kinds, from smallest to
largest hom-sets:

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

hom_matrices builds each hom-set from the definition of its kind, once
canonical() has merged the kinds that coincide out of the domain:

  A            Quillen's transporter description (Ann. of Math. 94, 1971):
               the maps induced by the g with g^-1 E g inside F.  Such g
               lie in the transporter cosets taking E's first basis
               element into F; the rest of the basis is conjugated by all
               of them in one gather, and the distinct images are read off
               as matrices;
  Aprime,      a backtracking search over the images of E's basis vectors,
  AprimeD(d)   breadth first over numpy arrays: fixing the image of basis
               vector k fixes that of every vector whose last nonzero
               coordinate is k, and each one is checked against its
               allowed classes at once (early pruning as in Seress,
               Permutation Group Algorithms, 2003, ch. 9);
  An(n)        the Aprime maps whose restriction to every rank-n subspace
               U of E is one of the A maps U -> F, built as above;
  Creg         every injective matrix, enumerated.

hom_in_kind checks a single matrix against the definition instead.

closure requires every A-morphism in its input.  Inclusions are among
them, so restricting a map's domain is composing it with an inclusion,
and the restriction rule reduces to corestriction: narrowing a codomain
to a catalog subgroup that holds the image.  The fixpoint runs in
semi-naive rounds (Abiteboul, Hull and Vianu, Foundations of Databases,
1995, ch. 13): each round joins only the homs new in the last round with
the homs at their endpoints, so each composable pair is multiplied once,
as one numpy gather per middle object and pair of ranks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import cap as _cap
from .elabs import ElabCatalog, ElabSubgroup
from .errors import CapExceeded, CatalogMismatch, ClosureGuardError, NotMaximal
from .fpmat import (Mat, injective_count, injective_matrices, mat_inv,
                    mat_mul, mat_rank, mat_vec, subspace_bases)
from .groups import FiniteGroup, blocks, find_sorted, sorted_distinct

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

    @staticmethod
    def parse(text: str) -> "CategoryKind":
        text = text.strip()
        if "(" in text and text.endswith(")"):
            tag, raw = text[:-1].split("(", 1)
            return CategoryKind(tag, int(raw))
        if ":" in text:
            tag, raw = text.split(":", 1)
            return CategoryKind(tag, int(raw))
        return CategoryKind(text)


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


# -- morphisms --------------------------------------------------------


@dataclass(frozen=True)
class LinearHom:
    """Injective linear map between two subgroups of one ambient group."""

    domain: ElabSubgroup
    codomain: ElabSubgroup
    matrix: Mat

    def __post_init__(self):
        E, F = self.domain, self.codomain
        if E.ambient is not F.ambient or E.prime != F.prime:
            raise CatalogMismatch("domain and codomain from different settings")
        if len(self.matrix) != F.rank or any(len(r) != E.rank for r in self.matrix):
            raise ValueError(
                f"matrix shape {len(self.matrix)}x? does not map "
                f"rank {E.rank} into rank {F.rank}")
        if mat_rank(self.matrix, E.prime) != E.rank:
            raise ValueError("matrix does not have full column rank")

    def apply_index(self, i: int) -> int:
        v = self.domain.vector_of_index(i)
        return self.codomain.index_of_vector(mat_vec(self.matrix, v, self.domain.prime))

    def is_bijective(self) -> bool:
        return self.domain.rank == self.codomain.rank

    def compose_with(self, other: "LinearHom") -> "LinearHom":
        """self followed by other (other.domain must be self.codomain)."""
        if other.domain is not self.codomain and other.domain != self.codomain:
            raise CatalogMismatch("composition needs matching middle object")
        p = self.domain.prime
        return LinearHom(self.domain, other.codomain,
                         mat_mul(other.matrix, self.matrix, p))

    def inverse_hom(self) -> "LinearHom":
        if not self.is_bijective():
            raise ValueError("only bijective maps invert")
        inv = mat_inv(self.matrix, self.domain.prime)
        assert inv is not None
        return LinearHom(self.codomain, self.domain, inv)


# -- hom-set computation ----------------------------------------------

def _unit_subgroup(p: int, d: int) -> tuple[int, ...]:
    """The order-d subgroup of the units mod p; d must divide p-1."""
    if (p - 1) % d != 0:
        raise ValueError(f"parameter {d} does not divide {p - 1}")
    return tuple(t for t in range(1, p) if pow(t, d, p) == 1)


def _allowed_classes(E: ElabSubgroup, d: int) -> dict[int, frozenset[int]]:
    """For each non-identity element, the class labels of its allowed images.

    e^t is the element of t times e's vector, so no group product is taken.
    """
    class_of = E.ambient.conjugacy.class_of
    units = _unit_subgroup(E.prime, d)
    out = {}
    for e in E.elements:
        v = E.vector_of_index(e)
        if any(v):
            out[e] = frozenset(class_of[E.index_of_vector([t * x for x in v])]
                               for t in units)
    return out


def _witness_exists(G: FiniteGroup, pairs: Sequence[tuple[int, int]]) -> bool:
    """Is there a single g with conjugate(g, a) == b for every pair."""
    if not pairs:
        return True
    table = G.conjugacy
    # a transporter is a centralizer coset, so start from the smallest one
    sized = sorted(pairs, key=lambda ab: table.sizes[table.class_of[ab[0]]],
                   reverse=True)
    a0, b0 = sized[0]
    T = G.transporter_indices(a0, b0)
    if len(T) == 0:
        return False
    for a, b in sized[1:]:
        if len(T) == 0:
            return False
        rows = G.array[T]
        inv_rows = np.argsort(rows, axis=1)
        tmp = G.array[a][inv_rows]
        conj = np.take_along_axis(rows, tmp, axis=1)
        T = T[np.all(conj == G.array[b], axis=1)]
    return len(T) > 0


def _check_matrix(kind: CategoryKind, E: ElabSubgroup, F: ElabSubgroup,
                  M: Mat) -> bool:
    """Kind membership for one injective matrix."""
    G = E.ambient
    p = E.prime
    table = G.conjugacy
    if kind.tag == "Creg":
        return True
    if kind.tag in ("Aprime", "AprimeD"):
        d = 1 if kind.tag == "Aprime" else kind.param
        allowed = _allowed_classes(E, d)
        for e, classes in allowed.items():
            img = F.index_of_vector(mat_vec(M, E.vector_of_index(e), p))
            if table.class_of[img] not in classes:
                return False
        return True
    if kind.tag == "A":
        m = E.rank
    else:
        assert kind.tag == "An"
        m = min(kind.param, E.rank)
    if m == 0:
        return True
    if m == E.rank:
        subspaces: Iterable[tuple] = [tuple(
            tuple(1 if i == j else 0 for i in range(E.rank))
            for j in range(E.rank))]
    else:
        subspaces = subspace_bases(p, E.rank, m)
    for basis in subspaces:
        pairs = []
        ok = True
        for v in basis:
            a = E.index_of_vector(v)
            b = F.index_of_vector(mat_vec(M, v, p))
            if table.class_of[a] != table.class_of[b]:
                ok = False
                break
            pairs.append((a, b))
        if not ok:
            return False
        # one matched pair always has a witness (its transporter coset)
        if len(pairs) >= 2 and not _witness_exists(G, pairs):
            return False
    return True


def _code_digits(p: int, r: int) -> np.ndarray:
    """(p^r, r) array whose row c is the vector of code c = sum v_i p^i.

    The vectors supported on the first k coordinates are the codes below
    p^k, which is the order the Aprime search fills them in.
    """
    return np.arange(p ** r)[:, None] // p ** np.arange(r) % p


def _conjugation_images(G: FiniteGroup, elems: Sequence[int],
                        F: ElabSubgroup) -> np.ndarray:
    """Rows (code in F of g^-1 e g, for e in elems) over the g in G that
    conjugate every listed element into F, repeats included.

    Only the g taking elems[0] into F can qualify: the union of one
    transporter coset per member of F in its class.
    """
    class_of = G.conjugacy.class_of
    first = elems[0]
    targets = [c for c, f in enumerate(F.by_code.tolist())
               if class_of[f] == class_of[first]]
    if not targets:
        return np.zeros((0, len(elems)), dtype=np.int64)
    if len(elems) == 1:
        return np.array(targets, dtype=np.int64)[:, None]
    cosets = G.transporter_indices(first, F.by_code[targets])
    images = F.codes_of(G.conjugates_by(cosets, elems))
    return images[np.all(images >= 0, axis=1)]


def _class_respecting(E: ElabSubgroup, d: int, F: ElabSubgroup) -> np.ndarray:
    """Rows of basis-image codes of the AprimeD(d) maps E -> F.

    Backtracking over the basis images, breadth first and vectorized:
    choosing the image of basis vector k fixes the image of every vector
    whose last nonzero coordinate is k, and each one is checked against
    its allowed classes at once.  An identity image is never allowed, so
    every survivor is injective.
    """
    p, s = E.prime, F.rank
    class_of = E.ambient.conjugacy.class_of
    E_digits, F_digits = _code_digits(p, E.rank), _code_digits(p, s)
    E_cls = np.array([class_of[e] for e in E.by_code.tolist()])
    F_cls = np.array([class_of[e] for e in F.by_code.tolist()])
    weights = p ** np.arange(E.rank)
    ok = np.zeros((len(E), len(F)), dtype=bool)
    for t in _unit_subgroup(p, d):
        powers = E_cls[(t * E_digits % p) @ weights]     # class of e^t
        ok |= powers[:, None] == F_cls[None, :]
    F_weights = p ** np.arange(s)
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


def _single_conjugator(E: ElabSubgroup, n: int, cols: np.ndarray,
                       F: ElabSubgroup) -> np.ndarray:
    """Mask of the maps (rows of basis-image codes) whose restriction to
    every rank-n subspace U of E is one of the A maps U -> F."""
    p = E.prime
    weights = p ** np.arange(F.rank)
    images = _code_digits(p, F.rank)[cols]             # (maps, rank E, rank F)
    keep = np.ones(len(cols), dtype=bool)
    for basis in subspace_bases(p, E.rank, n):
        U = [E.index_of_vector(v) for v in basis]
        allowed = set(map(tuple, _conjugation_images(E.ambient, U, F).tolist()))
        rest = np.nonzero(keep)[0]
        on_U = (np.einsum("nr,mrs->mns", np.array(basis), images[rest]) % p) @ weights
        keep[rest] = [row in allowed for row in map(tuple, on_U.tolist())]
    return keep


def _matrices(cols: np.ndarray, F_digits: np.ndarray) -> tuple[Mat, ...]:
    """Sorted distinct matrices whose column k is the vector of code cols[:, k]."""
    mats = F_digits[cols].transpose(0, 2, 1).tolist()
    return tuple(sorted({tuple(map(tuple, M)) for M in mats}))


def hom_matrices(kind: CategoryKind, E: ElabSubgroup,
                 F: ElabSubgroup) -> tuple[Mat, ...]:
    """All matrices of kind-morphisms E -> F, sorted.

    Each kind is built from its definition; see the module docstring.
    """
    if E.ambient is not F.ambient or E.prime != F.prime:
        raise CatalogMismatch("hom-set needs a common ambient group and prime")
    kind = canonical(kind, E.rank)
    d = kind.param if kind.tag == "AprimeD" else 1
    _unit_subgroup(E.prime, d)              # rejects d not dividing p-1
    if E.rank > F.rank:
        return ()
    if kind == CREG or E.rank == 0:
        return injective_matrices(E.prime, F.rank, E.rank)
    class_of = E.ambient.conjugacy.class_of
    # A, Aprime and An(n) send elements to distinct conjugates, so F must
    # have at least E's number of elements in every class
    if d == 1 and (Counter(class_of[e] for e in E.elements)
                   - Counter(class_of[f] for f in F.elements)):
        return ()
    if kind == A:
        cols = _conjugation_images(E.ambient, E.basis, F)
    else:
        cols = _class_respecting(E, d, F)
        if kind.tag == "An":
            cols = cols[_single_conjugator(E, kind.param, cols, F)]
    return _matrices(cols, _code_digits(E.prime, F.rank))


def hom_in_kind(kind: CategoryKind, h: LinearHom) -> bool:
    """Membership test for a single map, without enumerating the hom-set."""
    return _check_matrix(kind, h.domain, h.codomain, h.matrix)


# -- categories -------------------------------------------------------


class SubgroupCategory:
    """A catalog plus hom-sets, either kind-backed (lazy) or explicit.

    Hom-sets are tuples of matrices keyed by ordered pairs of catalog
    subgroup indices.  Kind-backed categories are views over the
    catalog's hom cache, which every category over that catalog shares
    under canonical kinds; explicit categories carry a finished dict.
    """

    def __init__(self, catalog: ElabCatalog, kind: Optional[CategoryKind],
                 homs: Optional[dict[tuple[int, int], tuple[Mat, ...]]] = None):
        self.catalog = catalog
        self.kind = kind
        if kind is None:
            self._homs: dict[tuple[int, int], tuple[Mat, ...]] = dict(homs or {})
        self._sized = False

    @property
    def provenance(self) -> str:
        return self.kind.label() if self.kind is not None else "explicit"

    def hom(self, i: int, j: int) -> tuple[Mat, ...]:
        if self.kind is None:
            return self._homs.get((i, j), ())
        E, F = self.catalog.subgroups[i], self.catalog.subgroups[j]
        key = (canonical(self.kind, E.rank), i, j)
        got = self.catalog.homs.get(key)
        if got is None:
            if key[0] == CREG and not self._sized:
                # Creg lists every injective matrix: refuse the category
                # here as materialize() would, before the first one
                self._check_size()
                self._sized = True
            got = self.catalog.homs[key] = hom_matrices(key[0], E, F)
        return got

    def estimated_total(self) -> int:
        """Injective matrices over all ordered pairs, a bound for any kind."""
        p = self.catalog.prime
        ranks = Counter(self.catalog.ranks())
        return sum(ni * nj * injective_count(p, rj, ri)
                   for ri, ni in ranks.items() for rj, nj in ranks.items())

    def _check_size(self, hom_count_cap: Optional[int] = None) -> None:
        """Raise CapExceeded when estimated_total() passes the hom count cap."""
        limit = hom_count_cap if hom_count_cap is not None else _cap("hom_count_cap")
        est = self.estimated_total()
        if est > limit:
            raise CapExceeded(
                "hom_count_cap",
                f"estimated {est} morphisms exceeds the cap ({limit}); "
                f"raise ELABCAT_HOM_COUNT_CAP to allow more")

    def materialize(self, hom_count_cap: Optional[int] = None) -> None:
        """Compute every hom-set; guarded by the hom count estimate."""
        if self.kind is None:
            return
        self._check_size(hom_count_cap)
        n = len(self.catalog)
        for i in range(n):
            for j in range(n):
                self.hom(i, j)

    def total_homs(self) -> int:
        return sum(len(v) for v in self.hom_dict().values())

    def hom_dict(self) -> dict[tuple[int, int], tuple[Mat, ...]]:
        """Every non-empty hom-set, materializing a kind-backed category."""
        if self.kind is None:
            return {k: v for k, v in self._homs.items() if v}
        self._check_size()
        n = len(self.catalog)
        pairs = ((i, j) for i in range(n) for j in range(n))
        return {(i, j): h for i, j in pairs if (h := self.hom(i, j))}


def build_category(kind: CategoryKind, catalog: ElabCatalog,
                   materialize: bool = False) -> SubgroupCategory:
    C = SubgroupCategory(catalog, kind)
    if materialize:
        C.materialize()
    return C


def explicit_category(catalog: ElabCatalog,
                      homs: dict[tuple[int, int], Iterable[Mat]]) -> SubgroupCategory:
    """Wrap an explicit hom collection (validated for shape and injectivity)."""
    cleaned: dict[tuple[int, int], tuple[Mat, ...]] = {}
    p = catalog.prime
    for (i, j), mats in homs.items():
        E, F = catalog.subgroups[i], catalog.subgroups[j]
        out = set()
        for M in mats:
            M = tuple(tuple(int(x) % p for x in row) for row in M)
            LinearHom(E, F, M)    # validates shape and rank
            out.add(M)
        if out:
            cleaned[(i, j)] = tuple(sorted(out))
    return SubgroupCategory(catalog, None, cleaned)


# -- closure ----------------------------------------------------------


def _containment_lists(catalog: ElabCatalog) -> list[list[int]]:
    sets = [frozenset(E.elements) for E in catalog.subgroups]
    return [[j for j in range(len(sets)) if sets[j] <= sets[i]]
            for i in range(len(sets))]


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


def _keys_by_shape(homs: dict[tuple[int, int], Sequence[Mat]], ranks: list[int],
                   p: int, dtype) -> dict[tuple[int, int], np.ndarray]:
    """Sorted _hom_keys of the matrices in homs, by (codomain rank, domain
    rank)."""
    n = len(ranks)
    shapes: dict[tuple[int, int], tuple[list, list, list]] = {}
    for (i, j), mats in homs.items():
        doms, cods, ms = shapes.setdefault((ranks[j], ranks[i]), ([], [], []))
        doms += [i] * len(mats)
        cods += [j] * len(mats)
        ms += mats
    out = {}
    for (rows, width), (doms, cods, ms) in shapes.items():
        mats = np.array(ms, dtype=np.int64).reshape(len(ms), rows, width)
        cols = (mats * p ** np.arange(rows)[:, None]).sum(axis=1)
        out[(rows, width)] = np.sort(_hom_keys(cols, np.array(doms), np.array(cods),
                                               p ** rows, n, dtype))
    return out


def _image_tables(cols: np.ndarray, p: int, rows: int) -> np.ndarray:
    """Code of the image of every domain vector code, for each map given
    by its column codes in a codomain of the given rank."""
    width = cols.shape[1]
    vecs, col_vecs = _code_digits(p, width), _code_digits(p, rows)
    places = p ** np.arange(rows)
    out = np.empty((len(cols), len(vecs)), dtype=np.int64)
    for b in blocks(len(cols), len(vecs) * rows):
        images = np.einsum("vc,mck->mvk", vecs, col_vecs[cols[b]]) % p
        out[b] = images @ places
    return out


def _by_object(obj: np.ndarray, other: np.ndarray,
               data: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Split (other, data) by the object in obj."""
    order = np.argsort(obj, kind="stable")
    obj = obj[order]
    starts = np.flatnonzero(np.concatenate(([True], obj[1:] != obj[:-1])))
    ends = np.append(starts[1:], len(obj))
    return {int(obj[a]): (other[order[a:b]], data[order[a:b]])
            for a, b in zip(starts, ends)}


def _extend(index: dict, parts: dict) -> None:
    """Append each (far ends, data) part to the index entry of its rank."""
    for r, (ends, data) in parts.items():
        old = index.get(r)
        index[r] = (ends, data) if old is None else (
            np.concatenate((old[0], ends)), np.concatenate((old[1], data)))


def closure(C: SubgroupCategory) -> SubgroupCategory:
    """Smallest hom collection containing C that is closed under
    composition, restriction (both domain and codomain), and inverses of
    bijective members.

    The input must contain every A-morphism (conjugation-induced maps and
    inclusions); otherwise ClosureGuardError is raised.  With every
    inclusion present, restricting a map's domain to S is composing it
    with the inclusion of S, so restriction reduces to corestriction:
    narrowing the codomain of a map to a catalog subgroup that holds its
    image.

    The fixpoint runs in semi-naive rounds (Abiteboul, Hull and Vianu,
    Foundations of Databases, 1995, ch. 13).  Each round takes the homs
    first found in the last one, D, and joins them only with the homs at
    their endpoints: new = D o K_new  u  K_old o D, where K_old is the
    collection before the round and K_new = K_old u D, so each composable
    pair is multiplied exactly once.  A map is held as the codes of its
    columns, and a map out of an object also as the table of the image
    code of every vector, so g o f is a gather of f's columns from g's
    table: one numpy gather per middle object and (domain rank, codomain
    rank).  Each hom is known by an exact integer key (_hom_keys), and a
    sorted array of the keys found so far sorts the products into known
    and new.  D's corestrictions and the inverses of its square members,
    read off the inverse permutations of their tables, join the
    candidates of the next round.
    """
    catalog = C.catalog
    n, p, ranks = len(catalog), catalog.prime, catalog.ranks()
    dtype = _key_dtype(p, max(ranks), n)
    seed = _keys_by_shape(C.hom_dict(), ranks, p, dtype)
    base = build_category(A, catalog)
    # A-maps need rank i <= rank j; a key mod n^2 is its pair dom * n + cod
    a_homs = {(i, j): base.hom(i, j) for i in range(n) for j in range(n)
              if ranks[i] <= ranks[j]}
    missing = [keys[~find_sorted(seed.get(shape, keys[:0]), keys)[1]] % (n * n)
               for shape, keys in _keys_by_shape(a_homs, ranks, p, dtype).items()]
    missing = np.concatenate(missing)
    if len(missing):
        i, j = divmod(int(missing.min()), n)
        count = int((missing == i * n + j).sum())
        raise ClosureGuardError(
            f"input omits {count} conjugation-induced "
            f"morphism{'s' if count != 1 else ''} "
            f"on object pair ({i}, {j})")

    # code in t of each vector code of j (-1 off t), for each t < j
    subgroups = catalog.subgroups
    narrowing = [[(t, subgroups[t].codes_of(subgroups[j].by_code))
                  for t in subs if t != j]
                 for j, subs in enumerate(_containment_lists(catalog))]
    known = np.zeros(0, dtype=dtype)      # sorted keys of every hom found
    found: list[tuple[tuple[int, int], np.ndarray]] = []
    pool = {shape: [keys] for shape, keys in seed.items() if len(keys)}  # new keys

    def offer(cols: np.ndarray, dom: np.ndarray, cod: np.ndarray, rows: int) -> None:
        """Queue the homs (column codes into a rank-rows codomain) that are
        not known yet."""
        keys = _hom_keys(cols, dom, cod, p ** rows, n, dtype)
        keys = keys[~find_sorted(known, keys)[1]]
        if len(keys):
            pool.setdefault((rows, cols.shape[1]), []).append(keys)

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
            found.append(((rows, width), keys))
            dom, cod, cols = _decode(keys, p ** rows, width, n)
            tables = _image_tables(cols, p, rows)
            for j, part in _by_object(cod, dom, cols).items():
                d_in[j][width] = part
            for i, part in _by_object(dom, cod, tables).items():
                d_out[i][rows] = part
            if rows == width > 0:
                inverse = np.argsort(tables, axis=1)[:, p ** np.arange(rows)]
                offer(inverse, cod, dom, rows)
        for j in range(n):
            _extend(into[j], d_in[j])
            for dom, cols in d_in[j].values():
                for t, code_t in narrowing[j]:
                    img = code_t[cols]
                    ok = (img >= 0).all(axis=1)
                    if ok.any():
                        offer(img[ok], dom[ok], np.full(int(ok.sum()), t), ranks[t])
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

    homs: dict[tuple[int, int], list[Mat]] = {}
    for (rows, width), keys in found:
        dom, cod, cols = _decode(keys, p ** rows, width, n)
        mats = _code_digits(p, rows)[cols].transpose(0, 2, 1)
        for i, j, M in zip(dom.tolist(), cod.tolist(), mats.tolist()):
            homs.setdefault((i, j), []).append(tuple(map(tuple, M)))
    return SubgroupCategory(catalog, None,
                            {k: tuple(sorted(v)) for k, v in homs.items()})


# -- invariants -------------------------------------------------------


def maximal_objects(C: SubgroupCategory) -> list[list[int]]:
    """Isomorphism classes of maximal objects, as sorted subgroup indices.

    An object is maximal when every outgoing morphism is bijective, which
    for injective linear maps means no morphism reaches a strictly larger
    rank.  Non-emptiness of hom-sets is constant on conjugacy classes for
    kind-backed categories, so those are processed by class
    representatives; explicit categories are processed object by object.
    """
    catalog = C.catalog
    ranks = catalog.ranks()
    n = len(catalog)
    if C.kind is not None:
        reps = catalog.class_reps
        maximal_classes = []
        for c, rep in enumerate(reps):
            if all(not C.hom(rep, rep2)
                   for rep2 in reps if ranks[rep2] > ranks[rep]):
                maximal_classes.append(c)
        # group maximal classes into isomorphism classes
        comps = _components(
            maximal_classes,
            lambda c1, c2: (ranks[reps[c1]] == ranks[reps[c2]]
                            and bool(C.hom(reps[c1], reps[c2]))))
        return [sorted(i for i in range(n)
                       if catalog.class_of[i] in comp)
                for comp in comps]
    objs = [i for i in range(n)
            if all(not C.hom(i, j) for j in range(n) if ranks[j] > ranks[i])]
    comps = _components(objs, lambda a, b: (ranks[a] == ranks[b]
                                            and bool(C.hom(a, b))))
    return [sorted(comp) for comp in comps]


def _components(nodes: Sequence[int], related) -> list[list[int]]:
    nodes = list(nodes)
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    for a in nodes:
        if a in comp_of:
            continue
        label = len(comps)
        stack = [a]
        comp_of[a] = label
        members = [a]
        while stack:
            x = stack.pop()
            for y in nodes:
                if y not in comp_of and (related(x, y) or related(y, x)):
                    comp_of[y] = label
                    members.append(y)
                    stack.append(y)
        comps.append(sorted(members))
    return comps


def minimal_prime_count(kind: CategoryKind, catalog: ElabCatalog) -> int:
    """Number of isomorphism classes of maximal objects."""
    return len(maximal_objects(build_category(kind, catalog)))


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
    checks this against all pairs on small groups.)
    """
    C1 = build_category(kind1, catalog)
    C2 = build_category(kind2, catalog)
    reps = catalog.class_reps
    for ci, ri in enumerate(reps):
        for cj, rj in enumerate(reps):
            h1, h2 = set(C1.hom(ri, rj)), set(C2.hom(ri, rj))
            if h1 != h2:
                diff = sorted(h1 ^ h2)
                M = diff[0]
                side = kind1.label() if M in h1 else kind2.label()
                return EqualityVerdict(False, ci, cj, M, side)
    return EqualityVerdict(True)


def generic_fibre_index(catalog: ElabCatalog, E: ElabSubgroup) -> Fraction:
    """|Aut_Aprime(E)| / |Aut_A(E)| for a maximal catalog member E."""
    idx = catalog.index_of(E)
    if not catalog.maximal[idx]:
        raise NotMaximal(f"subgroup {idx} is not maximal in its catalog")
    num = len(build_category(APRIME, catalog).hom(idx, idx))
    den = len(build_category(A, catalog).hom(idx, idx))
    return Fraction(num, den)


def weyl_image(G: FiniteGroup, E: ElabSubgroup) -> tuple[Mat, ...]:
    """Matrices of the conjugation action of the normalizer of E on E."""
    if E.ambient is not G:
        raise CatalogMismatch("subgroup does not live in the given group")
    if E.rank == 0:
        return (() ,)
    # g normalizes E once it conjugates E's basis into E
    cols = E.codes_of(G.conjugates_by(np.arange(len(G)), E.basis))
    return _matrices(cols[np.all(cols >= 0, axis=1)], _code_digits(E.prime, E.rank))
