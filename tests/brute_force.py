"""Slow definitions, kept as test oracles.

Hom-sets here are sets of tuple matrices (tuples of row tuples); codes
and code_rows turn them into the column codes the library holds, and
matrix and matrices turn column codes back into tuple matrices.

injective_oracle: every matrix of a shape, kept when ``fpmat.mat_rank``
says it has full column rank.  hom_in_kind: membership of one matrix in a
kind, straight from the definition (one transporter per subspace basis
for A and An(n), the allowed classes of each element for Aprime and
AprimeD).  brute_hom_sets filters the first by the second, and
weyl_image reads the conjugation action of the normalizer by conjugating
E's basis by every element of G.  None of them shares code with the
breadth-first search in ``categories.hom_matrices``.

brute_closure: the worklist closure, which joins every new hom with every
stored one and restricts it to every pair of catalog subgroups.  It runs
no guard and shares no code with the semi-naive ``categories.closure``.

brute_group, brute_conjugacy and brute_coordinates: groups as sorted
tuple lists with a tuple -> index dict, every product taken one at a time
through ``groups.compose``; none of them touches the numpy element table
of ``FiniteGroup``.

scan_centralizer and brute_catalog: centralizers by a scan of every
element, and the catalog by the rank induction that spans every
extension of every member, canonicalizes each span from its element set,
and tests maximality by subsets; they share no code with the descent in
``elabs.enumerate_elabs``.

dict_add, dict_mul, dict_pow and dict_substitute: polynomials over F_p as
{exponent tuple: coefficient} dicts, multiplied one term pair at a time
and substituted one term at a time; none of them touches the packed
arrays of ``fppoly.FpPolynomial``.
"""

import itertools
from functools import lru_cache

import numpy as np

from elabcat.elabs import ElabSubgroup
from elabcat.fpmat import mat_inv, mat_mul, mat_rank, mat_vec, subspace_bases
from elabcat.groups import compose, conjugate, identity_perm


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


def _allowed_classes(E, d):
    """For each non-identity element, the class labels of its allowed images.

    e^t is the element of t times e's vector, so no group product is taken.
    """
    class_of = E.ambient.conjugacy.class_of
    p = E.prime
    units = [t for t in range(1, p) if pow(t, d, p) == 1]
    out = {}
    for e in E.elements:
        v = E.vector_of_index(e)
        if any(v):
            out[e] = frozenset(class_of[E.index_of_vector([t * x for x in v])]
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
            img = F.index_of_vector(mat_vec(M, E.vector_of_index(e), p))
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
            a = E.index_of_vector(v)
            b = F.index_of_vector(mat_vec(M, v, p))
            if table.class_of[a] != table.class_of[b]:
                return False
            pairs.append((a, b))
        # one matched pair always has a witness (its transporter coset)
        if len(pairs) >= 2 and not _witness_exists(G, pairs):
            return False
    return True


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
    cols = E.codes_of(G.conjugates_by(np.arange(len(G)), E.basis))
    return sorted(set(map(tuple, cols[np.all(cols >= 0, axis=1)].tolist())))


def subgroups_of(catalog):
    """For each catalog member, the indices of the members inside it."""
    sets = [frozenset(E.elements) for E in catalog.subgroups]
    return [[j for j in range(len(sets)) if sets[j] <= sets[i]]
            for i in range(len(sets))]


def restriction(E, F, S, T, M, p):
    """M: E -> F restricted to S -> T, or None when M(S) is not inside T."""
    images = [F.index_of_vector(mat_vec(M, E.vector_of_index(b), p))
              for b in S.basis]
    if not all(T.contains_index(e) for e in images):
        return None
    cols = [T.vector_of_index(e) for e in images]
    return tuple(tuple(col[r] for col in cols) for r in range(T.rank))


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
    tuples member by member and generator by generator, the first product
    witness(source) * g to reach a member giving its witness; a member is
    maximal when no member of the next rank holds it.
    """
    elements = G.elements
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
            for s in frontier:
                for g in G.generators:
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
