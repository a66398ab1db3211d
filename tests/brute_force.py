"""Slow definitions, kept as test oracles.

brute_hom_sets: every injective matrix of the right shape is enumerated
and kept when the single-matrix membership test accepts it.  Nothing here
shares code with the constructive search in ``categories.hom_matrices``
beyond the Creg enumeration itself.

brute_closure: the worklist closure, which joins every new hom with every
stored one and restricts it to every pair of catalog subgroups.  It runs
no guard and shares no code with the semi-naive ``categories.closure``.
"""

from elabcat import categories as cg
from elabcat.fpmat import injective_matrices, mat_inv, mat_mul, mat_vec


def brute_hom_sets(kinds, E, F):
    """For each kind, all kind-morphisms E -> F, sorted, by filtering
    every injective matrix."""
    candidates = [cg.LinearHom(E, F, M)
                  for M in injective_matrices(E.prime, F.rank, E.rank)]
    return [tuple(h.matrix for h in candidates if cg.hom_in_kind(kind, h))
            for kind in kinds]


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

    for (i, j), mats in C.hom_dict().items():
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
