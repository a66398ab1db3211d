"""Slow definitions, kept as test oracles.

Hom-sets here are sets of tuple matrices (tuples of row tuples); codes
and code_rows turn them into the column codes the library holds, and
matrix and matrices turn column codes back into tuple matrices.

injective_oracle: every matrix of a shape, kept when mat_rank says it
has full column rank.  hom_in_kind: membership of one matrix in a
kind, straight from the definition (one transporter per subspace basis
for A and An(n), the allowed classes of each element for Aprime and
AprimeD).  brute_hom_sets filters the first by the second, and
weyl_image reads the conjugation action of the normalizer by conjugating
E's basis by every element of G.  None of them shares code with the
breadth-first search in ``categories.hom_matrices``.

span, mat_rank, mat_inv, subspace_oracle and close_matrix_group: spans as
sets of vector tuples, a rank as the dimension of the column span read
off its size, an inverse as the power of a matrix that multiplies it to
1, subspaces by scanning every increasing tuple of independent vectors
and keeping the first basis of each span, and matrix groups by a
breadth-first closure over ``fpmat.mat_mul``; no elimination is used, and
they share no code with the reduced echelon enumeration of
``fpmat.subspace_bases`` or with ``groups.close_generators``.

affine_perm and matrix_perm_nonzero: matrices acting on the big-endian
vector codes one point at a time through mat_vec; gl3_oracle,
triangular_oracle and affine_oracle build the gallery's generators and
distinguished subgroups from them (the affine translations from field
additions).  They share no code with ``gallery.affine_images``.

SmallField: F_q's sum and product on the element codes, one base-p digit
at a time, the product by schoolbook multiplication and reduction by the
modulus of ``gallery.IRREDUCIBLE``; it shares no code with the companion
matrix table of ``gallery.field_product`` (the primitive element of both
is ``fpmat.primitive_element``).

counter_pruned: one pair at a time, a Counter of E's elements by the
classes the kind allows them (from _allowed_classes), less F's; it shares
no code with ``categories.class_counts``.  pairwise_maximal_objects and
_components: maximality and isomorphism components by one hom call per
pair, on class representatives for a kind without explicit maps and on
objects otherwise, the components by a worklist search.  pairwise_equal:
the first representative pair, row-major, on which two kinds'
hom_matrices differ, and its smallest witness.  None of the three reads
``SubgroupCategory.class_sizes``.  subgroups_of and class_inclusions:
the members inside each member, and the members of each class inside
each class representative, by comparing element sets one member at a
time; neither reads ``ElabCatalog.inside`` or its subspace lookups.

brute_closure: the worklist closure, which joins every new hom with every
stored one and restricts it to every pair of catalog subgroups.  It runs
no guard and shares no code with the semi-naive ``categories.closure``.

bfs_closure: the breadth-first closure over the numpy element table,
with lookups by byte keys of whole rows; it shares no code with the
stabilizer chain of ``groups.close_generators`` or its int64 keys.

identity_perm, compose, inverse, conjugate, perm_order and perm_power:
permutations as tuples of images, composed left to right (compose(p, q)
applies p first) and conjugated as g^-1 * e * g, the conventions of
``groups``; each forms its product one point at a time and reads no
group.  brute_group, brute_conjugacy and brute_coordinates take every
product through them, and brute_catalog its subgroup conjugations and
witnesses.  brute_group, brute_conjugacy and brute_coordinates hold
groups as sorted tuple lists with a tuple -> index dict; none of them
touches the numpy element table of ``FiniteGroup``.

elements_of, index_of and in_group: a FiniteGroup's rows as tuples, and
one tuple's index and membership through ``FiniteGroup.indices_of_rows``.
from_elements: the group of exactly a listed element set, closed by
``groups.close_generators`` from greedy generators.  transporter,
centralizer and normalizer: the tuple-level forms of the index-level
``transporter_indices``, ``centralizer_indices`` and
``conjugate_indices``, each result a tuple list or a group from
from_elements.

brute_search: the breadth-first search of ``groups._search`` as tuple
loops over lists, one candidate at a time, with a set of points seen.
brute_orbits: orbits as sets, grown from each point not yet placed by a
worklist over the permutations alone; it shares no code with the label
propagation of ``groups._orbit_labels`` or with ``groups.orbits``.

scan_centralizer and brute_catalog: centralizers by a scan of every
element, and the catalog by the rank induction that spans every
extension of every member, canonicalizes each span from its element set,
and tests maximality by subsets; they share no code with the descent in
``elabs.enumerate_elabs``.

generated_by and conjugate_subgroup: subgroups from commuting generators
and by conjugating an element set, each canonicalized through
``ElabSubgroup.from_element_indices``.

colimit_points: the F_q-points, q = p^m, of the colimit over A, Aprime and
Creg, counted from the homomorphisms (Z/p)^m -> G alone, the m-tuples of
pairwise commuting elements with x^p = 1, each tuple's products taken
through ``FiniteGroup.mul``; it reads no catalog, no hom-set and no
conjugacy table.

leader_scan: a kind's (aut, first) by the per-class scan that
``SubgroupCategory.iso_classes`` once made: class by class, the
automorphisms of its representative, and a test against the first class
of each isomorphism class found so far with its class_counts row, each a
``hom_matrices`` call on one pair of representatives (Creg's counted).
It reads no batched search and no catalog cache.

dict_add, dict_mul, dict_pow and dict_substitute: polynomials over F_p as
{exponent tuple: coefficient} dicts, multiplied one term pair at a time
and substituted one term at a time; left_to_right: a total Chern class
as the product of its linear factors, one dict_mul each; format_terms:
the printed form of ``FpPolynomial.format``, one term and one factor at
a time from the terms dict, sorted by a Python key.  None of them
touches the packed arrays of ``fppoly.FpPolynomial``.

build_parser: the argparse parser the command line was once read with;
it shares no code with ``cli.parse_args`` or its COMMANDS table.

vector_of_index, index_of_vector, is_conjugate_subgroup, affine_group,
triangular_group, linear_form, variable, expand_in_elementaries, make_weights,
chern_class, frobenius_identity_check and whitney_product_check: helpers
no command reaches, kept for the tests that read them.  Each is a scalar
or one-call form of what the library computes (is_conjugate_subgroup
searches ``G.conjugators`` beside the catalog's class_of), not an
independent derivation.

catalog_failures: the p-regularity test as ``chern.p_regular_failures``
made it before the Lagrange shortcut, every maximal class of a catalog
read whatever the degree, with the same failure texts.
"""

import argparse
import itertools
from collections import Counter
from functools import lru_cache
from math import lcm

import numpy as np

from elabcat import __version__, cli
from elabcat.categories import CREG, a_n, canonical, class_counts, hom_matrices, matrix_of
from elabcat.chern import WeightList, total_chern
from elabcat.elabs import ElabSubgroup
from elabcat.fppoly import FpPolynomial, elementary_symmetric
from elabcat.fpmat import (PRIME, gl_generators, injective_count, mat_mul,
                           primitive_element, subspace_bases)
from elabcat.gallery import IRREDUCIBLE, build_affine, build_triangular
from elabcat.config import cap
from elabcat.errors import CapExceeded, CatalogMismatch, ElabcatError, InvalidPermutation
from elabcat.groups import (ConjugacyTable, _perm_rows, blocks, close_generators, find_sorted,
                            orbits, row_keys, row_positions)


class DegreeMismatch(ElabcatError):
    """Permutations of different degrees were combined."""


class ElementNotInSubgroup(ElabcatError):
    """An element or coordinate vector does not lie in the subgroup."""


def codes(M, p):
    """Column codes of a tuple matrix: code k = sum_r M[r][k] p^r."""
    width = len(M[0]) if M else 0
    return tuple(sum(M[r][k] * p ** r for r in range(len(M))) for k in range(width))


def matrix(cols, p, rows):
    """The tuple matrix with the given column codes."""
    return tuple(tuple(c // p ** r % p for c in cols) for r in range(rows))


def code_rows(mats, p):
    """A hom-set of tuple matrices as the library holds it: distinct rows
    of column codes in lexicographic order, as lists."""
    return [list(c) for c in sorted({codes(M, p) for M in mats})]


def matrices(C):
    """Every non-empty hom-set of C as a sorted tuple of tuple matrices."""
    p, subgroups = C.catalog.prime, C.catalog.subgroups
    return {(i, j): tuple(sorted(matrix(c, p, subgroups[j].rank) for c in cols.tolist()))
            for (i, j), cols in C.hom_dict().items()}


@lru_cache(maxsize=None)
def injective_oracle(p, rows, cols):
    """Every rows x cols matrix over F_p of full column rank, sorted."""
    entries = itertools.product(range(p), repeat=rows * cols)
    mats = (tuple(tuple(e[r * cols:(r + 1) * cols]) for r in range(rows))
            for e in entries)
    return tuple(sorted(M for M in mats if mat_rank(M, p) == cols))


def span(p, vecs):
    """Every vector of the span of vecs, as a frozenset (empty for none)."""
    vecs = list(vecs)
    if not vecs:
        return frozenset()
    dim = len(vecs[0])
    out = {(0,) * dim}
    for v in vecs:
        addition = set()
        for s in out:
            for c in range(1, p):
                addition.add(tuple((x + c * y) % p for x, y in zip(s, v)))
        out |= addition
    return frozenset(out)


def mat_rank(M, p):
    """Rank of a tuple matrix: the dimension of its column span, whose
    size is p to that power."""
    size = len(span(p, zip(*M)))
    return next(r for r in itertools.count() if p ** r >= size)


def mat_inv(M, p):
    """Inverse of an invertible square tuple matrix: M^(k-1) for the least
    k with M^k = 1, which is below p^n for an n x n matrix (ValueError if
    there is none)."""
    one = identity_mat(len(M))
    power = one
    for _ in range(p ** len(M)):
        after = mat_mul(power, M, p)
        if after == one:
            return power
        power = after
    raise ValueError("matrix is not invertible")


@lru_cache(maxsize=None)
def subspace_oracle(p, dim, rank):
    """One basis per rank-dimensional subspace of F_p^dim, sorted: every
    increasing tuple of independent vectors in lex order, each span
    keeping the first basis seen."""
    if rank == 0:
        return ((),)
    seen = {}
    nonzero = [v for v in itertools.product(range(p), repeat=dim) if any(v)]

    def extend(chosen, spanned):
        if len(chosen) == rank:
            seen.setdefault(spanned, tuple(chosen))
            return
        for v in nonzero:
            if v not in spanned and (not chosen or v > chosen[-1]):
                extend(chosen + [v], span(p, chosen + [v]))

    extend([], frozenset([(0,) * dim]))
    return tuple(sorted(seen.values()))


def identity_mat(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(A, v, p):
    return tuple(sum(a * x for a, x in zip(row, v)) % p for row in A)


def with_entries(n, entries):
    """The n x n identity matrix with the {(i, j): value} entries set."""
    M = [list(r) for r in identity_mat(n)]
    for (i, j), x in entries.items():
        M[i][j] = x
    return tuple(map(tuple, M))


def vec_code(v, p):
    """Big-endian code of a vector: its first coordinate is the top digit."""
    out = 0
    for x in v:
        out = out * p + x % p
    return out


def code_vec(code, p, n):
    out = []
    for _ in range(n):
        out.append(code % p)
        code //= p
    return tuple(reversed(out))


def affine_perm(M, v, p, n):
    """x -> M x + v on the p^n vector codes, one point at a time."""
    images = []
    for code in range(p ** n):
        y = mat_vec(M, code_vec(code, p, n), p)
        images.append(vec_code(tuple((a + b) % p for a, b in zip(y, v)), p))
    return tuple(images)


def matrix_perm_nonzero(M, p, n):
    """M on the p^n - 1 nonzero vector codes, point = code - 1."""
    return tuple(vec_code(mat_vec(M, code_vec(code, p, n), p), p) - 1
                 for code in range(1, p ** n))


def gl3_oracle(p):
    """The gallery's GL_3(F_p) build, one point at a time: {part: the
    group's generators in order, or a subgroup's elements sorted}."""
    def block(at1, at2):
        return sorted(matrix_perm_nonzero(with_entries(3, {at1: a, at2: b}), p, 3)
                      for a, b in itertools.product(range(p), repeat=2))
    return {"group": [matrix_perm_nonzero(M, p, 3) for M in gl_generators(p, 3)],
            "e1": block((0, 1), (0, 2)), "e2": block((0, 2), (1, 2))}


def triangular_oracle(p, n):
    """The gallery's triangular build, as gl3_oracle gives GL_3's."""
    zero = (0,) * n

    def translations(vs):
        return [affine_perm(identity_mat(n), v, p, n) for v in vs]

    q_gens = [affine_perm(with_entries(n, {(i, i + k): 1 for i in range(n - k)}), zero, p, n)
              for k in range(1, n)]
    u_gens = [affine_perm(with_entries(n, {(i, i + 1): 1}), zero, p, n) for i in range(n - 1)]
    return {"group": q_gens + translations(identity_mat(n)), "q_group": q_gens,
            "u_group": u_gens,
            "kernel": sorted(translations(itertools.product(range(p), repeat=n)))}


class SmallField:
    """Arithmetic on the element codes 0..q-1 of F_q, for q a prime below
    PRIME_LIMIT or an order in IRREDUCIBLE (ValueError otherwise)."""

    def __init__(self, q: int):
        if q in IRREDUCIBLE:
            n = len(IRREDUCIBLE[q]) - 1
            p = round(q ** (1 / n))
        elif PRIME.test(q):
            p, n = q, 1
        else:
            raise ValueError(f"no field of order {q} on record: a field order is a "
                             f"prime or one of {sorted(IRREDUCIBLE)}")
        self.q, self.p, self.n = q, p, n
        self.modulus = IRREDUCIBLE.get(q)

    def digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.n):
            out.append(code % self.p)
            code //= self.p
        return out

    def code(self, digits) -> int:
        out = 0
        for d in reversed(list(digits)):
            out = out * self.p + d % self.p
        return out

    def add(self, a: int, b: int) -> int:
        return self.code(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return a * b % self.p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        # reduce: t^n = -(modulus without leading term)
        mod = self.modulus
        for e in range(len(prod) - 1, self.n - 1, -1):
            c = prod[e] % self.p
            prod[e] = 0
            for k in range(self.n):
                prod[e - self.n + k] -= c * mod[k]
        return self.code(prod[:self.n])

    def primitive(self) -> int:
        return primitive_element(self.q, self.mul)


def affine_oracle(q):
    """The gallery's affine build, as gl3_oracle gives GL_3's, with the
    translations by field additions."""
    field = SmallField(q)
    g = field.primitive()

    def translation(b):
        return tuple(field.add(x, b) for x in range(q))

    gens = [tuple(field.mul(g, x) for x in range(q)), translation(1)]
    return {"group": gens if q > 2 else gens[1:],
            "kernel": sorted(translation(b) for b in range(q))}


def close_matrix_group(gens, p, limit=10 ** 6):
    """Sorted elements of the matrix group gens generate, by a
    breadth-first closure under multiplication."""
    if not gens:
        return []
    n = len(gens[0])
    seen = {identity_mat(n)}
    frontier = [identity_mat(n)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g, p)
                if prod not in seen:
                    if len(seen) >= limit:
                        raise ValueError("matrix group closure passed limit")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return sorted(seen)


def _allowed_classes(E, d):
    """For each non-identity element, the class labels of its allowed images.

    e^t is the element of t times e's vector, so no group product is taken.
    """
    class_of = E.ambient.conjugacy.class_of
    p = E.prime
    units = [t for t in range(1, p) if pow(t, d, p) == 1]
    out = {}
    for e in E.elements:
        v = vector_of_index(E, e)
        if any(v):
            out[e] = frozenset(class_of[index_of_vector(E, [t * x for x in v])]
                               for t in units)
    return out


def _witness_exists(G, pairs):
    """Is there a single g with conjugate(g, a) == b for every pair."""
    if not pairs:
        return True
    table = G.conjugacy
    # a transporter is a centralizer coset, so start from the smallest one
    sized = sorted(pairs, key=lambda ab: table.sizes[table.class_of[ab[0]]],
                   reverse=True)
    a0, b0 = sized[0]
    T = G.transporter_indices(a0, b0)
    for a, b in sized[1:]:
        if len(T) == 0:
            return False
        rows = G.array[T]
        inv_rows = np.argsort(rows, axis=1)
        tmp = G.array[a][inv_rows]
        conj = np.take_along_axis(rows, tmp, axis=1)
        T = T[np.all(conj == G.array[b], axis=1)]
    return len(T) > 0


def hom_in_kind(kind, E, F, M):
    """Is the injective tuple matrix M: E -> F a kind-morphism."""
    G = E.ambient
    p = E.prime
    table = G.conjugacy
    if kind.tag == "Creg":
        return True
    if kind.tag in ("Aprime", "AprimeD"):
        d = 1 if kind.tag == "Aprime" else kind.param
        for e, classes in _allowed_classes(E, d).items():
            img = index_of_vector(F, mat_vec(M, vector_of_index(E, e), p))
            if table.class_of[img] not in classes:
                return False
        return True
    m = E.rank if kind.tag == "A" else min(kind.param, E.rank)
    if m == 0:
        return True
    if m == E.rank:
        subspaces = [tuple(tuple(1 if i == j else 0 for i in range(E.rank))
                           for j in range(E.rank))]
    else:
        subspaces = subspace_bases(p, E.rank, m)
    for basis in subspaces:
        pairs = []
        for v in basis:
            a = index_of_vector(E, v)
            b = index_of_vector(F, mat_vec(M, v, p))
            if table.class_of[a] != table.class_of[b]:
                return False
            pairs.append((a, b))
        # one matched pair always has a witness (its transporter coset)
        if len(pairs) >= 2 and not _witness_exists(G, pairs):
            return False
    return True


def counter_pruned(kind, E, F):
    """Is Hom(E, F) empty because some class, merged as the kind allows
    (every non-identity class for Creg and An(0)), holds more elements of
    E than of F."""
    if kind.tag == "Creg" or kind == a_n(0):
        return E.rank > F.rank
    d = kind.param if kind.tag == "AprimeD" else 1

    def merged(S):
        return Counter(min(classes) for classes in _allowed_classes(S, d).values())
    return E.rank > F.rank or bool(merged(E) - merged(F))


def brute_hom_sets(kinds, E, F):
    """For each kind, all kind-morphisms E -> F as code rows (code_rows),
    by filtering every injective matrix."""
    p = E.prime
    candidates = injective_oracle(p, F.rank, E.rank)
    return [code_rows([M for M in candidates if hom_in_kind(kind, E, F, M)], p)
            for kind in kinds]


def weyl_image(G, E):
    """Code rows of the conjugation action of the normalizer of E on E."""
    # g normalizes E once it conjugates E's basis into E
    cols = E.codes_of(G.conjugate_indices(np.arange(len(G)), E.basis))
    return sorted(set(map(tuple, cols[np.all(cols >= 0, axis=1)].tolist())))


def generated_by(G, p, gens):
    """The subgroup generated by commuting order-p element indices."""
    span = np.array([G.identity_index])
    for g in gens:
        parts = [span]
        for _ in range(p - 1):
            parts.append(G.mul(parts[-1], g))
        span = np.concatenate(parts)
    return ElabSubgroup.from_element_indices(G, p, span.tolist())


def conjugate_subgroup(G, g, E):
    """The subgroup g^-1 * E * g."""
    return ElabSubgroup.from_element_indices(
        G, E.prime, G.conjugate_indices(index_of(G, g), E.elements).tolist())


def colimit_points(G, p, m):
    """(A, Aprime, Creg): the number of F_q-points, q = p^m, of the colimit
    over each kind, from the homomorphisms (Z/p)^m -> G alone.

    Those are the m-tuples of pairwise commuting x with x^p = 1; a tuple's
    products x_1^c_1 ... x_m^c_m over c in F_p^m are its values.  For A a
    point is an orbit of tuples under simultaneous conjugation (Quillen);
    for Aprime it is the function c -> conjugacy class of the value, and
    for Creg the kernel, the c whose value is the identity.  Conjugacy
    classes are labelled by their smallest member, found by conjugating
    every element by every element.
    """
    n, ident = len(G), G.identity_index
    every = np.arange(n)
    power = every
    for _ in range(p - 1):
        power = G.mul(power, every)
    xs = np.flatnonzero(power == ident)
    commute = G.mul(xs[:, None], xs) == G.mul(xs, xs[:, None])
    tuples = np.zeros((1, 0), dtype=np.int64)
    for _ in range(m):
        rows, new = np.nonzero(commute[tuples].all(axis=1))
        tuples = np.column_stack([tuples[rows], new])
    tuples = xs[tuples]
    values = np.full((len(tuples), 1), ident)
    for k in range(m):
        parts = [values]
        for _ in range(p - 1):
            parts.append(G.mul(parts[-1], tuples[:, k:k + 1]))
        values = np.concatenate(parts, axis=1)
    seen, orbits = set(), 0
    for t in map(tuple, tuples.tolist()):
        if t not in seen:
            orbits += 1
            seen.update(map(tuple, G.conjugate_indices(every, t).tolist()))
    label = G.conjugate_indices(every, every).min(axis=0)
    return (orbits, len(set(map(tuple, label[values].tolist()))),
            len(set(map(tuple, (values == ident).tolist()))))


def leader_scan(kind, catalog):
    """(aut, first) of a kind, as lists over the classes: aut[x] the
    automorphisms of rep x and first[x] the least class isomorphic to x,
    testing x only against the first class of each isomorphism class with
    its class_counts row, one hom_matrices call per pair."""
    reps, p = catalog.class_reps.tolist(), catalog.prime
    aut, first, leaders = [], [], {}
    for x, i in enumerate(reps):
        E = catalog.subgroups[i]
        found = leaders.setdefault(class_counts(E, kind)[1].tobytes(), [])
        creg = canonical(kind, E.rank) == CREG
        aut.append(injective_count(p, E.rank, E.rank) if creg else len(hom_matrices(kind, E, E)))
        first.append(next((y for y in found if creg or len(
            hom_matrices(kind, catalog.subgroups[reps[y]], E))), x))
        if first[x] == x:
            found.append(x)
    return aut, first


def subgroups_of(catalog):
    """For each catalog member, the indices of the members inside it."""
    sets = [frozenset(E.elements) for E in catalog.subgroups]
    return [[j for j in range(len(sets)) if sets[j] <= sets[i]]
            for i in range(len(sets))]


def restriction(E, F, S, T, M, p):
    """M: E -> F restricted to S -> T, or None when M(S) is not inside T."""
    images = [index_of_vector(F, mat_vec(M, vector_of_index(E, b), p))
              for b in S.basis]
    if not all(e in T.elements for e in images):
        return None
    cols = [vector_of_index(T, e) for e in images]
    return tuple(tuple(col[r] for col in cols) for r in range(T.rank))


def class_inclusions(catalog):
    """(classes, classes) array: [y, z] counts the members of class y
    whose element set lies inside that of the representative of z."""
    k = catalog.class_count()
    reps = [frozenset(catalog.subgroups[r].elements) for r in catalog.class_reps]
    out = np.zeros((k, k), dtype=np.int64)
    for E, y in zip(catalog.subgroups, catalog.class_of):
        inner = frozenset(E.elements)
        for z, rep in enumerate(reps):
            out[y, z] += inner <= rep
    return out


def brute_closure(C):
    """Smallest hom collection containing C closed under composition,
    restriction and inverses of bijective members, by a worklist that
    joins each popped hom with every stored one."""
    catalog = C.catalog
    subs_of = subgroups_of(catalog)
    homs = {}
    work = []

    def add(i, j, M):
        bucket = homs.setdefault((i, j), set())
        if M not in bucket:
            bucket.add(M)
            work.append((i, j, M))

    for (i, j), mats in matrices(C).items():
        for M in mats:
            add(i, j, M)
    p = catalog.prime
    while work:
        i, j, M = work.pop()
        E, F = catalog.subgroups[i], catalog.subgroups[j]
        for (a, b), mats in list(homs.items()):
            if a == j:
                for N in list(mats):
                    add(i, b, mat_mul(N, M, p))
            if b == i:
                for N in list(mats):
                    add(a, j, mat_mul(M, N, p))
        for s in subs_of[i]:
            for t in subs_of[j]:
                R = restriction(E, F, catalog.subgroups[s], catalog.subgroups[t], M, p)
                if R is not None:
                    add(s, t, R)
        if E.rank == F.rank:
            add(j, i, mat_inv(M, p))
    return {k: tuple(sorted(v)) for k, v in homs.items() if v}


def pairwise_maximal_objects(C):
    """Isomorphism classes of maximal objects, as sorted subgroup indices,
    from one hom call per pair: per class representative for a kind
    without explicit maps, per object otherwise."""
    catalog = C.catalog
    ranks = catalog.ranks()
    n = len(catalog)
    if C.kind is not None and not C.maps:
        reps, label = catalog.class_reps, catalog.class_of
    else:
        reps = label = list(range(n))
    maximal = [c for c, rep in enumerate(reps)
               if all(not len(C.hom(rep, r)) for r in reps if ranks[r] > ranks[rep])]
    comps = _components(maximal, lambda a, b: (ranks[reps[a]] == ranks[reps[b]]
                                               and len(C.hom(reps[a], reps[b])) > 0))
    return [sorted(i for i in range(n) if label[i] in comp) for comp in comps]


def _components(nodes, related):
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


def pairwise_equal(kind1, kind2, catalog):
    """(domain class, codomain class, matrix, kind label) at the first
    pair of class representatives, row-major, whose hom_matrices differ,
    the matrix the smallest in one hom-set only; None if none differ."""
    reps, p = catalog.class_reps, catalog.prime
    for ci, ri in enumerate(reps):
        for cj, rj in enumerate(reps):
            E, F = catalog.subgroups[ri], catalog.subgroups[rj]
            s1 = set(map(tuple, hom_matrices(kind1, E, F).tolist()))
            s2 = set(map(tuple, hom_matrices(kind2, E, F).tolist()))
            if s1 != s2:
                M, cols = min((matrix_of(c, p, F.rank), c) for c in s1 ^ s2)
                return ci, cj, M, kind1.label() if cols in s1 else kind2.label()
    return None


# -- permutations as tuples and groups as tuple lists ----------------


def identity_perm(degree):
    return tuple(range(degree))


def compose(p, q):
    """Apply p first, then q."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(q[x] for x in p)


def inverse(p):
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def conjugate(g, e):
    """g^-1 * e * g under the left-to-right composition convention."""
    if len(g) != len(e):
        raise DegreeMismatch(f"degrees {len(g)} and {len(e)} differ")
    ginv = inverse(g)
    return tuple(g[e[x]] for x in ginv)


def perm_order(p):
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


def perm_power(p, k):
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


def elements_of(G):
    """G's elements as tuples, in index order."""
    return list(map(tuple, G.array.tolist()))


def index_of(G, perm):
    """The index of the element perm of G; KeyError if it is none."""
    try:
        return int(G.indices_of_rows(_perm_rows([perm], G.degree))[0])
    except (KeyError, InvalidPermutation):
        raise KeyError(f"permutation {perm!r} not in {G.name}") from None


def in_group(G, perm):
    try:
        index_of(G, perm)
    except KeyError:
        return False
    return True


def from_elements(degree, elements, name=""):
    """The group of exactly the listed elements, closed from greedy
    generators: each the smallest listed element outside the subgroup so
    far, which it at least doubles, so there are at most log2 |G|.  Raises
    InvalidPermutation unless the closure is exactly the list: once a
    closure has more elements than the list, it is not closed."""
    rows = _perm_rows(elements, degree)
    rows = rows[np.argsort(row_keys(rows))]
    gens = rows[:0]
    while True:
        G = close_generators(degree, gens, name=name)
        if len(G) > len(rows):
            raise InvalidPermutation("element list is not closed under products")
        inside = G._find(rows)[1]
        if inside.all():
            break
        gens = np.vstack((gens, rows[np.argmin(inside)]))
    if len(G) != len(rows) or (G.array != rows).any():
        raise InvalidPermutation("element list is not a group")
    return G


def transporter(G, a, b):
    """All g in G with conjugate(g, a) == b, sorted; empty if none."""
    idx = G.transporter_indices(index_of(G, a), index_of(G, b))
    return [G.element(int(i)) for i in idx]


def centralizer(G, elems):
    """Subgroup of G commuting with every listed element."""
    keep = np.arange(len(G), dtype=np.int64)
    for e in elems:
        keep = np.intersect1d(keep, G.centralizer_indices(index_of(G, e)), assume_unique=True)
    return from_elements(G.degree, G.array[keep], name=f"centralizer in {G.name}")


def normalizer(G, subgroup):
    """Elements g with conjugate(g, H) == H setwise.

    Conjugation is injective, so g qualifies as soon as it conjugates
    every member of H into H.
    """
    inside = np.zeros(len(G), dtype=bool)
    sub = [index_of(G, e) for e in subgroup]
    inside[sub] = True
    keep = inside[G.conjugate_indices(np.arange(len(G)), sub)].all(axis=1)
    return from_elements(G.degree, G.array[keep], name=f"normalizer in {G.name}")


def brute_group(degree, generators):
    """Sorted elements of the group the generators span, by a breadth-first
    closure over tuples with a dict of the elements seen."""
    gens = [tuple(g) for g in generators]
    ident = identity_perm(degree)
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = compose(f, g)
                if h not in seen:
                    seen[h] = None
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def bfs_closure(degree, generators):
    """The breadth-first closure of a generator list, as groups built it
    before the stabilizer chain, with its element lookups on byte keys of
    whole rows: (array, conj, right, base, conjugacy), each computed as
    the FiniteGroup of that closure computed it.

    Each level multiplies the elements first found in the last one by
    every generator, a block of rows at a time; products whose keys are
    not among the sorted keys found so far, made distinct, are the next
    level.  Elements are numbered as found, a product's number is its
    entry of the right table, and numbers become sorted positions at the
    end.  Raises CapExceeded("element_cap") once the group has more
    elements than the cap.
    """
    limit = cap("element_cap")
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
    table = np.concatenate(found)[number]
    right = index[np.concatenate(right, axis=1)[:, number]]
    # argsort of each row is the inverse permutation
    inv = row_positions(table, keys, np.argsort(table, axis=1))
    conj = np.take_along_axis(right, inv[right[:, inv]], axis=1)
    points = np.arange(degree)
    stab, base = table, []
    while len(stab) > 1:
        x = int(np.argmax((stab != points).any(axis=0)))
        base.append(x)
        stab = stab[stab[:, x] == x]
    conjugacy = ConjugacyTable(*orbits(conj, right))
    return table, conj, right, np.array(base, dtype=np.int64), conjugacy


def brute_conjugacy(elements, generators):
    """(class_of, reps, sizes, witness) of the sorted element list, classes
    found in index order by orbits under conjugation by the generators,
    generator by generator over each frontier; a witness is the first
    product witness(source) * g to reach an element."""
    index = {e: i for i, e in enumerate(elements)}
    gens = [tuple(g) for g in generators]
    class_of = [-1] * len(elements)
    witness = [0] * len(elements)
    reps, sizes = [], []
    for start in range(len(elements)):
        if class_of[start] >= 0:
            continue
        label = len(reps)
        reps.append(start)
        class_of[start] = label
        witness[start] = index[identity_perm(len(elements[0]))]
        frontier = [start]
        size = 1
        while frontier:
            nxt = []
            for g in gens:
                for src in frontier:
                    t = index[conjugate(g, elements[src])]
                    if class_of[t] < 0:
                        class_of[t] = label
                        witness[t] = index[compose(elements[witness[src]], g)]
                        nxt.append(t)
                        size += 1
            frontier = nxt
        sizes.append(size)
    return tuple(class_of), tuple(reps), tuple(sizes), tuple(witness)


def brute_search(perms, starts):
    """(visit, steps) of the breadth-first search under the permutations
    perms (tuples) from the starts at once: each level tries its
    candidates generator by generator over the frontier, and the first
    to reach an unseen point keeps it; steps[t] = (s, k) for the point
    t = perms[k][s] so reached."""
    visit, steps = list(starts), {}
    seen, frontier = set(starts), list(starts)
    while frontier:
        candidates = [(s, k) for k in range(len(perms)) for s in frontier]
        frontier = []
        for s, k in candidates:
            t = perms[k][s]
            if t not in seen:
                seen.add(t)
                steps[t] = (s, k)
                frontier.append(t)
        visit += frontier
    return visit, steps


def brute_orbits(perms, n):
    """(class_of, reps, sizes) of the orbits of range(n) under the
    permutations perms (tuples), numbered in order of their smallest
    member, each orbit the set reached from that member by applying the
    permutations until nothing new appears."""
    class_of, reps, sizes = [-1] * n, [], []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit, todo = {x}, [x]
        while todo:
            y = todo.pop()
            fresh = {p[y] for p in perms} - orbit
            orbit |= fresh
            todo += fresh
        for y in orbit:
            class_of[y] = len(reps)
        reps.append(x)
        sizes.append(len(orbit))
    return class_of, reps, sizes


def brute_coordinates(elements, prime, members):
    """(basis, {vector: element index}) of the subgroup whose element
    indices are members: the greedy basis (the smallest member outside
    the span so far), and b1^v1 * ... * br^vr for every vector."""
    index = {e: i for i, e in enumerate(elements)}
    members = sorted(members)
    basis = []
    span = {members[0]}     # the identity, index 0
    while len(span) < len(members):
        b = next(i for i in members if i not in span)
        basis.append(b)
        grown = set()
        for s in span:
            cur = s
            for _ in range(prime):
                grown.add(cur)
                cur = index[compose(elements[cur], elements[b])]
        span = grown
    table = {}
    for vec in itertools.product(range(prime), repeat=len(basis)):
        e = elements[members[0]]
        for b, t in zip(basis, vec):
            for _ in range(t):
                e = compose(e, elements[b])
        table[vec] = index[e]
    return tuple(basis), table


def scan_centralizer(G, e):
    """Sorted indices of the elements of G commuting with element e, by a
    scan of every element's images."""
    rows, ep = G.array, G.array[e]
    return np.flatnonzero((ep[rows] == rows[:, ep]).all(axis=1))


def brute_catalog(G, p):
    """(subgroups, class_of, class_reps, class_witness, maximal) of the
    elementary abelian p-subgroups of G.

    Rank r+1 members are E * <x> for every member E of rank r and every
    order-p x outside E that commutes with E's basis (the intersection of
    their scanned centralizers), each span made a member through
    ElabSubgroup.from_element_indices.  Members sort by (rank, elements);
    classes are orbits under conjugation by the generators, taken with
    tuples generator by generator over each frontier, the first product
    witness(source) * g to reach a member giving its witness; a member is
    maximal when no member of the next rank holds it.
    """
    elements = elements_of(G)
    index = {e: i for i, e in enumerate(elements)}
    orders = G.element_orders
    cents = {}
    trivial = ElabSubgroup.from_element_indices(G, p, [0])
    by_key = {trivial.elements: trivial}
    current = [trivial]
    while current:
        nxt = {}
        for E in current:
            keep = np.arange(len(G))
            for b in E.basis:
                if b not in cents:
                    cents[b] = scan_centralizer(G, b)
                keep = np.intersect1d(keep, cents[b], assume_unique=True)
            xs = np.array([x for x in keep.tolist()
                           if orders[x] == p and x not in E.elements], dtype=np.int64)
            # E * <x>, one row per x
            parts = [np.broadcast_to(np.array(E.elements), (len(xs), len(E)))]
            for _ in range(p - 1):
                parts.append(G.mul(parts[-1], xs[:, None]))
            for key in map(tuple, np.sort(np.concatenate(parts, axis=1)).tolist()):
                if key not in by_key and key not in nxt:
                    nxt[key] = ElabSubgroup.from_element_indices(G, p, key)
        by_key.update(nxt)
        current = list(nxt.values())
    subgroups = sorted(by_key.values(), key=lambda E: (E.rank, E.elements))
    position = {E.elements: i for i, E in enumerate(subgroups)}

    class_of = [-1] * len(subgroups)
    class_reps, class_witness = [], [0] * len(subgroups)
    for start in range(len(subgroups)):
        if class_of[start] >= 0:
            continue
        label = len(class_reps)
        class_reps.append(start)
        class_of[start] = label
        frontier = [start]
        while frontier:
            reached = []
            for g in G.generators:
                for s in frontier:
                    conj = tuple(sorted(index[conjugate(g, elements[e])]
                                        for e in subgroups[s].elements))
                    t = position[conj]
                    if class_of[t] < 0:
                        class_of[t] = label
                        class_witness[t] = index[compose(elements[class_witness[s]], g)]
                        reached.append(t)
            frontier = reached

    sets = {}
    for E in subgroups:
        sets.setdefault(E.rank, []).append(frozenset(E.elements))
    maximal = [not any(S < F for F in sets.get(r + 1, ()))
               for r in sorted(sets) for S in sets[r]]
    return subgroups, class_of, class_reps, class_witness, maximal


# -- polynomials as {exponent tuple: coefficient} dicts ---------------


def dict_add(p, f, g):
    out = dict(f)
    for exps, c in g.items():
        out[exps] = (out.get(exps, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def dict_mul(p, f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            out[exps] = (out.get(exps, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def dict_pow(p, nvars, f, k):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = dict_mul(p, out, f)
    return out


def dict_substitute(p, nvars, f, images):
    """f with images[i] (dicts in nvars variables) put in for variable i."""
    out = {}
    for exps, c in f.items():
        term = {(0,) * nvars: c % p}
        for img, k in zip(images, exps):
            term = dict_mul(p, term, dict_pow(p, nvars, img, k))
        out = dict_add(p, out, term)
    return out


def left_to_right(p, rank, rows):
    """The product of (1 + sum_i w_i x_i) over rows, as a dict, factor by factor."""
    out = {(0,) * rank: 1}
    for w in rows:
        factor = {(0,) * rank: 1}
        factor.update({tuple(int(j == i) for j in range(rank)): c for i, c in enumerate(w) if c})
        out = dict_mul(p, out, factor)
    return out


def format_terms(f, varname="x"):
    """f's terms in graded lexicographic order (total degree ascending,
    earlier variables first within a degree), joined by " + "."""
    if not f.terms:
        return "0"
    parts = []
    for exps, c in sorted(f.terms.items(), key=lambda t: (sum(t[0]), [-e for e in t[0]])):
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"{varname}{i + 1}")
            elif e > 1:
                factors.append(f"{varname}{i + 1}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elabcat",
        description="subgroup category and Chern class reports")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for one group")
    pa.add_argument("group", help="path to a group JSON document")
    pa.add_argument("--prime", type=int, required=True)
    pa.add_argument("--kinds", help="comma list, e.g. A,Aprime,An(2),Creg")
    pa.add_argument("--max-n", type=int, default=None,
                    help="largest An(n) kind to include")
    pa.add_argument("--pretty", action="store_true")
    pa.set_defaults(func=cli.cmd_analyze)

    pg = sub.add_parser("gallery", help="recheck the bundled example claims")
    pg.add_argument("entry", nargs="?", help="one entry name (default: all)")
    pg.set_defaults(func=cli.cmd_gallery)

    pd = sub.add_parser("dickson", help="regular weight list invariants")
    pd.add_argument("--prime", type=int, required=True)
    pd.add_argument("--rank", type=int, required=True)
    pd.set_defaults(func=cli.cmd_dickson)

    ps = sub.add_parser("symreduce",
                        help="regular product in the elementary symmetric basis")
    ps.add_argument("--prime", type=int, required=True)
    ps.add_argument("--rank", type=int, required=True)
    ps.set_defaults(func=cli.cmd_symreduce)

    pp = sub.add_parser("pregular", help="p-regularity test for a character")
    pp.add_argument("group", help="path to a group JSON document")
    pp.add_argument("--prime", type=int, required=True)
    pp.add_argument("--character", required=True,
                    help="regular, permutation, trivial, or a values file")
    pp.set_defaults(func=cli.cmd_pregular)

    pc = sub.add_parser("closure", help="close an explicit hom collection")
    pc.add_argument("group", help="path to a group JSON document")
    pc.add_argument("--prime", type=int, required=True)
    pc.add_argument("--category", required=True,
                    help="path to a category JSON document")
    pc.add_argument("--pretty", action="store_true")
    pc.set_defaults(func=cli.cmd_closure)
    return parser


# -- helpers no command reaches ---------------------------------------


def vector_of_index(E, i):
    """The coordinates of element index i in E's basis."""
    code = E.codes_of([i]).item()
    if code < 0:
        raise ElementNotInSubgroup(f"element index {i} not in subgroup")
    return tuple(code // E.prime ** k % E.prime for k in range(E.rank))


def index_of_vector(E, v):
    """The element index of the coordinate vector v, read mod p."""
    if len(v) != E.rank:
        raise ElementNotInSubgroup(f"vector length {len(v)} != rank {E.rank}")
    return int(E.by_code[sum(x % E.prime * E.prime ** k for k, x in enumerate(v))])


def is_conjugate_subgroup(G, E, F):
    """A witness g with conjugate(g, E) == F setwise, or None: the
    transporters of E's first basis element to the elements of F in its
    class (``FiniteGroup.conjugators``), kept when they carry E's basis
    into F."""
    if E.ambient is not G or F.ambient is not G or E.prime != F.prime:
        raise CatalogMismatch("subgroups must live in the given group")
    if E.rank != F.rank:
        return None
    _, gs, images = G.conjugators(np.array([E.basis], dtype=np.int64), np.array([F.elements]))
    hits = np.flatnonzero((F.codes_of(images) >= 0).all(axis=1))
    return G.element(int(gs[hits[0]])) if len(hits) else None


def affine_group(q):
    return build_affine(q).group


def triangular_group(p, n):
    return build_triangular(p, n).group


def linear_form(prime, coeffs):
    """The polynomial sum_i coeffs[i] x_i."""
    n = len(coeffs)
    return FpPolynomial(prime, n, {tuple(int(j == i) for j in range(n)): c
                                   for i, c in enumerate(coeffs)})


def variable(prime, nvars, i):
    """The polynomial x_{i+1} in nvars variables."""
    return linear_form(prime, [int(j == i) for j in range(nvars)])


def expand_in_elementaries(g):
    """Inverse direction of symmetric_reduce: plug e_k in for variable k-1."""
    return g.substitute([elementary_symmetric(g.prime, g.nvars, k)
                         for k in range(1, g.nvars + 1)])


def make_weights(p, rank, rows):
    return WeightList(p, rank, tuple(tuple(int(x) % p for x in r) for r in rows))


def chern_class(weights, i):
    return total_chern(weights).homogeneous_part(i)


def frobenius_identity_check(weights, m):
    """Does the (p*m)-fold total Chern class equal the m-fold one to the p-th power."""
    p, rank, w = weights
    big, small = (total_chern(WeightList(p, rank, w * k)) for k in (p * m, m))
    return big == small ** p


def whitney_product_check(w1, w2):
    """Does concatenation multiply total Chern classes."""
    both = WeightList(w1.prime, w1.rank, w1.weights + w2.weights)
    return total_chern(both) == total_chern(w1) * total_chern(w2)


def catalog_failures(G, p, chi, catalog):
    """Reasons chi fails p-regularity, the degree tested against the
    order of every maximal class of the catalog."""
    deg, orders = chi.degree_value, G.element_orders
    failures = [f"degree {deg} is not positive"] if deg <= 0 else []
    failures += [f"value {chi.values[c]} on class {c} of order-{p} elements"
                 for c, rep in enumerate(G.conjugacy.reps)
                 if orders[rep] == p and chi.values[c] != 0]
    ranks = catalog.ranks()[catalog.class_reps].tolist()
    return failures + [f"degree {deg} not divisible by maximal subgroup order {p ** ranks[c]}"
                       for c in catalog.maximal_class_indices() if deg % p ** ranks[c]]
