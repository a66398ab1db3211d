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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import cap as _cap
from .elabs import ElabCatalog, ElabSubgroup
from .errors import CapExceeded, CatalogMismatch, ClosureGuardError, NotMaximal
from .fpmat import (Mat, injective_count, injective_matrices, mat_inv,
                    mat_mul, mat_rank, mat_vec, subspace_bases)
from .groups import FiniteGroup

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
    if kind == aprime_d(1):
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


def _power_index(G: FiniteGroup, e: int, t: int) -> int:
    out = G.identity_index
    for _ in range(t):
        out = G.mul(out, e)
    return out


def _allowed_classes(E: ElabSubgroup, d: int) -> dict[int, frozenset[int]]:
    """For each non-identity element, the class labels of its allowed images."""
    G = E.ambient
    table = G.conjugacy
    units = _unit_subgroup(E.prime, d)
    out = {}
    for e in E.elements:
        if e == G.identity_index:
            continue
        out[e] = frozenset(table.class_of[_power_index(G, e, t)] for t in units)
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


def hom_matrices(kind: CategoryKind, E: ElabSubgroup,
                 F: ElabSubgroup) -> tuple[Mat, ...]:
    """All matrices of kind-morphisms E -> F, sorted."""
    if E.ambient is not F.ambient or E.prime != F.prime:
        raise CatalogMismatch("hom-set needs a common ambient group and prime")
    candidates = injective_matrices(E.prime, F.rank, E.rank)
    return tuple(M for M in candidates if _check_matrix(kind, E, F, M))


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
            got = self.catalog.homs[key] = hom_matrices(key[0], E, F)
        return got

    def estimated_total(self) -> int:
        p = self.catalog.prime
        ranks = self.catalog.ranks()
        return sum(injective_count(p, rj, ri)
                   for ri in ranks for rj in ranks)

    def materialize(self, hom_count_cap: Optional[int] = None) -> None:
        """Compute every hom-set; guarded by the hom count estimate."""
        if self.kind is None:
            return
        limit = hom_count_cap if hom_count_cap is not None else _cap("hom_count_cap")
        est = self.estimated_total()
        if est > limit:
            raise CapExceeded(
                "hom_count_cap",
                f"estimated {est} morphisms exceeds the cap ({limit}); "
                f"raise ELABCAT_HOM_COUNT_CAP to allow more")
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
        self.materialize()
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


def closure(C: SubgroupCategory) -> SubgroupCategory:
    """Smallest hom collection containing C that is closed under
    composition, restriction (both domain and codomain), and inverses of
    bijective members.

    The input must contain every A-morphism (conjugation-induced maps and
    inclusions); otherwise ClosureGuardError is raised.
    """
    catalog = C.catalog
    C.materialize()
    base = build_category(A, catalog)
    n = len(catalog)
    for i in range(n):
        for j in range(n):
            missing = set(base.hom(i, j)) - set(C.hom(i, j))
            if missing:
                raise ClosureGuardError(
                    f"input omits {len(missing)} conjugation-induced "
                    f"morphism{'s' if len(missing) != 1 else ''} "
                    f"on object pair ({i}, {j})")

    subs_of = _containment_lists(catalog)
    elem_sets = [frozenset(E.elements) for E in catalog.subgroups]
    homs: dict[tuple[int, int], set[Mat]] = {}
    work: list[tuple[int, int, Mat]] = []

    def add(i: int, j: int, M: Mat) -> None:
        bucket = homs.setdefault((i, j), set())
        if M not in bucket:
            bucket.add(M)
            work.append((i, j, M))

    for (i, j), mats in C.hom_dict().items():
        for M in mats:
            add(i, j, M)

    p = catalog.prime
    while work:
        i, j, M = work.pop()
        E, F = catalog.subgroups[i], catalog.subgroups[j]
        # rule 1: compositions on either side
        for (a, b), mats in list(homs.items()):
            if a == j:
                for N in list(mats):
                    add(i, b, mat_mul(N, M, p))
            if b == i:
                for N in list(mats):
                    add(a, j, mat_mul(M, N, p))
        # rule 2: restrictions to subgroup pairs
        for s in subs_of[i]:
            S = catalog.subgroups[s]
            img_of = {e: F.index_of_vector(mat_vec(M, E.vector_of_index(e), p))
                      for e in S.elements}
            img_set = frozenset(img_of.values())
            for t in subs_of[j]:
                if not img_set <= elem_sets[t]:
                    continue
                T = catalog.subgroups[t]
                cols = [T.vector_of_index(img_of[b]) for b in S.basis]
                rows = tuple(tuple(col[r] for col in cols)
                             for r in range(T.rank))
                add(s, t, rows)
        # rule 3: inverses of bijective maps
        if E.rank == F.rank:
            inv = mat_inv(M, p)
            if inv is not None:
                add(j, i, inv)

    return SubgroupCategory(catalog, None,
                            {k: tuple(sorted(v)) for k, v in homs.items() if v})


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
    elems = np.array(E.elements, dtype=np.int64)
    out = set()
    target = set(E.elements)
    for g in range(len(G)):
        conj = G.conjugate_indices(g, elems)
        if set(int(c) for c in conj) != target:
            continue
        cols = [E.vector_of_index(int(
                    G.conjugate_indices(g, np.array([b], dtype=np.int64))[0]))
                for b in E.basis]
        out.add(tuple(tuple(col[r] for col in cols) for r in range(E.rank)))
    return tuple(sorted(out))
