"""Categories of elementary abelian p-subgroups and injective maps.

Objects are the members of an ElabCatalog.  Morphisms E -> F are injective
linear maps on the canonical coordinates of the two subgroups.  A map is
held as its column codes: entry k is the code in F (sum v_i p^i) of the
image of E's basis vector k, so row i of its (rank F x rank E) matrix is
digit i of every column code.  A hom-set is an int64 array of shape
(maps, rank E), its rows distinct and in lexicographic order, so equal
hom-sets are equal arrays.  Matrices as tuples of row tuples appear only
where data leaves or enters the library (matrix_of, column_codes).  The
kinds, from smallest to largest hom-sets:

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
               of them in one gather, and the distinct images are kept;
  Aprime,      a backtracking search over the images of E's basis vectors,
  AprimeD(d),  breadth first over numpy arrays: fixing the image of basis
  Creg         vector k fixes that of every vector whose last nonzero
               coordinate is k, and each one is checked against its
               allowed images at once (early pruning as in Seress,
               Permutation Group Algorithms, 2003, ch. 9).  Creg allows
               every image but the identity;
  An(n)        the Aprime maps whose restriction to every rank-n subspace
               U of E is one of the A maps U -> F, built as above.

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
# perfbench/tracing.py counts closure joins through categories.mat_mul
from .fpmat import Mat, injective_count, mat_mul, mat_rank, subspace_bases  # noqa: F401
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


# -- morphisms as column codes ---------------------------------------


def column_codes(M: Sequence[Sequence[int]], p: int) -> tuple[int, ...]:
    """Column codes of a matrix given by its rows, entries taken mod p."""
    width = len(M[0]) if M else 0
    return tuple(sum(row[k] % p * p ** r for r, row in enumerate(M))
                 for k in range(width))


def matrix_of(cols: Sequence[int], p: int, rows: int) -> Mat:
    """The matrix, as a tuple of row tuples, with the given column codes."""
    return tuple(tuple(int(c) // p ** r % p for c in cols) for r in range(rows))


def distinct_rows(cols: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, in lexicographic order."""
    if len(cols) < 2:
        return cols
    if cols.shape[1]:                       # lexsort needs at least one key
        cols = cols[np.lexsort(cols.T[::-1])]
    keep = np.ones(len(cols), dtype=bool)
    keep[1:] = (cols[1:] != cols[:-1]).any(axis=1)
    return cols[keep]


# -- hom-set computation ----------------------------------------------

def _unit_subgroup(p: int, d: int) -> tuple[int, ...]:
    """The order-d subgroup of the units mod p; d must divide p-1."""
    if (p - 1) % d != 0:
        raise ValueError(f"parameter {d} does not divide {p - 1}")
    return tuple(t for t in range(1, p) if pow(t, d, p) == 1)


def _code_digits(p: int, r: int) -> np.ndarray:
    """(p^r, r) array whose row c is the vector of code c = sum v_i p^i.

    The vectors supported on the first k coordinates are the codes below
    p^k, which is the order the basis search fills them in.
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
    """ok[c, f]: is the element of code f in F in the class of e^t for
    the element e of code c in E and some unit t with t^d = 1 mod p."""
    p = E.prime
    class_of = E.ambient.conjugacy.class_of
    E_cls = np.array([class_of[e] for e in E.by_code.tolist()])
    F_cls = np.array([class_of[e] for e in F.by_code.tolist()])
    E_digits, weights = _code_digits(p, E.rank), p ** np.arange(E.rank)
    ok = np.zeros((len(E), len(F)), dtype=bool)
    for t in _unit_subgroup(p, d):
        powers = E_cls[(t * E_digits % p) @ weights]     # class of e^t
        ok |= powers[:, None] == F_cls[None, :]
    return ok


def _basis_search(E: ElabSubgroup, ok: np.ndarray, F: ElabSubgroup) -> np.ndarray:
    """Rows of basis-image codes of the linear maps E -> F that send each
    element of code c to one of code f with ok[c, f], in lexicographic
    order.

    Backtracking over the basis images, breadth first and vectorized:
    choosing the image of basis vector k fixes the image of every vector
    whose last nonzero coordinate is k, and each one is checked against
    ok at once.  ok never allows the identity as the image of another
    element, so every survivor is injective.
    """
    p, s = E.prime, F.rank
    F_digits, F_weights = _code_digits(p, s), p ** np.arange(s)
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


def hom_matrices(kind: CategoryKind, E: ElabSubgroup,
                 F: ElabSubgroup) -> np.ndarray:
    """The kind-morphisms E -> F as an int64 array of column codes, one
    map per row, rows distinct and in lexicographic order.

    Each kind is built from its definition; see the module docstring.
    """
    if E.ambient is not F.ambient or E.prime != F.prime:
        raise CatalogMismatch("hom-set needs a common ambient group and prime")
    kind = canonical(kind, E.rank)
    d = kind.param if kind.tag == "AprimeD" else 1
    _unit_subgroup(E.prime, d)              # rejects d not dividing p-1
    none = np.zeros((0, E.rank), dtype=np.int64)
    if E.rank > F.rank:
        return none
    if kind == CREG:                        # any image but code 0, the identity
        return _basis_search(E, np.broadcast_to(np.arange(len(F)) > 0, (len(E), len(F))), F)
    class_of = E.ambient.conjugacy.class_of
    # A, Aprime and An(n) send elements to distinct conjugates, so F must
    # have at least E's number of elements in every class
    if d == 1 and (Counter(class_of[e] for e in E.elements)
                   - Counter(class_of[f] for f in F.elements)):
        return none
    if kind == A and E.rank:
        # conjugators inducing the same map give repeated rows
        return distinct_rows(_conjugation_images(E.ambient, E.basis, F))
    cols = _basis_search(E, _class_respecting(E, d, F), F)
    if kind.tag == "An":
        cols = cols[_single_conjugator(E, kind.param, cols, F)]
    return cols


# -- categories -------------------------------------------------------


class SubgroupCategory:
    """A catalog plus hom-sets, either kind-backed (lazy) or explicit.

    Hom-sets are read-only column-code arrays (see the module docstring)
    keyed by ordered pairs of catalog subgroup indices.  Kind-backed
    categories are views over the catalog's hom cache, which every
    category over that catalog shares under canonical kinds; explicit
    categories carry a finished dict.
    """

    def __init__(self, catalog: ElabCatalog, kind: Optional[CategoryKind],
                 homs: Optional[dict[tuple[int, int], np.ndarray]] = None):
        self.catalog = catalog
        self.kind = kind
        if kind is None:
            self._homs: dict[tuple[int, int], np.ndarray] = dict(homs or {})
            for cols in self._homs.values():
                cols.flags.writeable = False
        self._sized = False

    @property
    def provenance(self) -> str:
        return self.kind.label() if self.kind is not None else "explicit"

    def hom(self, i: int, j: int) -> np.ndarray:
        E, F = self.catalog.subgroups[i], self.catalog.subgroups[j]
        if self.kind is None:
            return self._homs.get((i, j), np.zeros((0, E.rank), dtype=np.int64))
        key = (canonical(self.kind, E.rank), i, j)
        got = self.catalog.homs.get(key)
        if got is None:
            if key[0] == CREG and not self._sized:
                # Creg lists every injective matrix: refuse the category
                # here as materialize() would, before the first one
                self._check_size()
                self._sized = True
            got = self.catalog.homs[key] = hom_matrices(key[0], E, F)
            got.flags.writeable = False
        return got

    def _check_size(self, hom_count_cap: Optional[int] = None) -> None:
        """Raise CapExceeded when the injective matrices over all ordered
        pairs, a bound for any kind, pass the hom count cap."""
        limit = hom_count_cap if hom_count_cap is not None else _cap("hom_count_cap")
        p, ranks = self.catalog.prime, Counter(self.catalog.ranks())
        est = sum(ni * nj * injective_count(p, rj, ri)
                  for ri, ni in ranks.items() for rj, nj in ranks.items())
        if est > limit:
            raise CapExceeded(
                "hom_count_cap",
                f"estimated {est} morphisms exceeds the cap ({limit}); "
                f"raise ELABCAT_HOM_COUNT_CAP to allow more")

    def materialize(self, hom_count_cap: Optional[int] = None) -> None:
        """Compute every hom-set; guarded by the hom count estimate."""
        if self.kind is not None:
            self._check_size(hom_count_cap)
            self.hom_dict()

    def total_homs(self) -> int:
        return sum(len(v) for v in self.hom_dict().values())

    def hom_dict(self) -> dict[tuple[int, int], np.ndarray]:
        """Every non-empty hom-set, materializing a kind-backed category."""
        if self.kind is None:
            return {k: v for k, v in self._homs.items() if len(v)}
        self._check_size()
        n = len(self.catalog)
        pairs = ((i, j) for i in range(n) for j in range(n))
        return {(i, j): h for i, j in pairs if len(h := self.hom(i, j))}


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
        for M in _code_digits(p, F.rank)[cols].transpose(0, 2, 1).tolist():
            if mat_rank(M, p) != E.rank:
                raise ValueError("matrix does not have full column rank")
        if len(cols):
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
    shapes: dict[tuple[int, int], list] = {}
    for (i, j), cols in homs.items():
        shapes.setdefault((ranks[j], ranks[i]), []).append((i, j, cols))
    out = {}
    for shape, parts in shapes.items():
        doms, cods, sets = zip(*parts)
        sizes = [len(c) for c in sets]
        out[shape] = np.sort(_hom_keys(
            np.concatenate(sets), np.repeat(doms, sizes), np.repeat(cods, sizes),
            p ** shape[0], len(ranks), dtype))
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
    seed = _shape_keys(C.hom_dict(), ranks, p, dtype)
    base = build_category(A, catalog)
    # A-maps need rank i <= rank j; a key mod n^2 is its pair dom * n + cod
    a_homs = {(i, j): base.hom(i, j) for i in range(n) for j in range(n)
              if ranks[i] <= ranks[j]}
    missing = [keys[~find_sorted(seed.get(shape, keys[:0]), keys)[1]] % (n * n)
               for shape, keys in _shape_keys(a_homs, ranks, p, dtype).items()]
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
    sets = [frozenset(E.elements) for E in subgroups]
    narrowing = [[(t, subgroups[t].codes_of(F.by_code))
                  for t in range(n) if t != j and sets[t] <= sets[j]]
                 for j, F in enumerate(subgroups)]
    known = np.zeros(0, dtype=dtype)      # sorted keys of every hom found
    found: dict[tuple[int, int], list] = {}   # the same, by shape
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
            found.setdefault((rows, width), []).append(keys)
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

    # each pair's rows in lexicographic order, as every hom-set is held
    homs: dict[tuple[int, int], np.ndarray] = {}
    for (rows, width), chunks in found.items():
        dom, cod, cols = _decode(np.concatenate(chunks), p ** rows, width, n)
        pair = dom * n + cod
        order = np.lexsort((*cols.T[::-1], pair))
        pair, cols = pair[order], cols[order]
        cuts = np.flatnonzero(np.diff(pair)) + 1
        for key, part in zip(pair[np.append(0, cuts)].tolist(), np.split(cols, cuts)):
            homs[divmod(key, n)] = part
    return SubgroupCategory(catalog, None, homs)


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
        reps, label = catalog.class_reps, catalog.class_of
    else:
        reps = label = list(range(n))
    maximal = [c for c, rep in enumerate(reps)
               if all(not len(C.hom(rep, r)) for r in reps if ranks[r] > ranks[rep])]
    # group the maximal labels into isomorphism classes
    comps = _components(maximal, lambda a, b: (ranks[reps[a]] == ranks[reps[b]]
                                               and len(C.hom(reps[a], reps[b])) > 0))
    return [sorted(i for i in range(n) if label[i] in comp) for comp in comps]


def _components(nodes: Sequence[int], related) -> list[set[int]]:
    """Connected components of the symmetrized relation, in order of
    their first node."""
    left, comps = list(nodes), []
    while left:
        comp, stack = {left[0]}, [left.pop(0)]
        while stack:
            x = stack.pop()
            linked = [y for y in left if related(x, y) or related(y, x)]
            left = [y for y in left if y not in linked]
            comp.update(linked)
            stack += linked
        comps.append(comp)
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
    checks this against all pairs on small groups.)  The witness is the
    smallest matrix, as a tuple of row tuples, in one hom-set only.
    """
    C1 = build_category(kind1, catalog)
    C2 = build_category(kind2, catalog)
    reps = catalog.class_reps
    p = catalog.prime
    for ci, ri in enumerate(reps):
        for cj, rj in enumerate(reps):
            h1, h2 = C1.hom(ri, rj).tolist(), C2.hom(ri, rj).tolist()
            if h1 != h2:
                s1, s2 = set(map(tuple, h1)), set(map(tuple, h2))
                rows = catalog.subgroups[rj].rank
                M, cols = min((matrix_of(c, p, rows), c) for c in s1 ^ s2)
                side = kind1.label() if cols in s1 else kind2.label()
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

