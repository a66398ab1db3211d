"""Constructive hom-sets against the generate-and-test oracle, and against
invariants that neither computes: Weyl images and kind inclusion chains.

The groups are random two-generator subgroups of S5 and S6, and every
ordered pair of their catalogs is checked.  The Creg search is also
checked on its own against every full-rank matrix, for p up to 5 and
every shape up to rank 3.
"""

from functools import lru_cache


import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from brute_force import brute_hom_sets, code_rows, injective_oracle, weyl_image
from elabcat import categories as cg
from elabcat.elabs import ElabSubgroup, enumerate_elabs, p_rank
from elabcat.gallery import affine_group
from elabcat.groups import close_generators
from test_hom_cache import small_groups


def chain(p, top):
    """Kinds from the smallest hom-sets to the largest."""
    divisors = [d for d in range(1, p) if (p - 1) % d == 0]
    return ([cg.A] + [cg.a_n(n) for n in range(top + 1, 0, -1)] + [cg.APRIME]
            + [cg.aprime_d(d) for d in divisors] + [cg.a_n(0), cg.CREG])


def check_catalog(G, p):
    catalog = enumerate_elabs(G, p)
    kinds = chain(p, p_rank(catalog))
    for E in catalog.subgroups:
        a_auts = cg.hom_matrices(cg.A, E, E).tolist()
        assert weyl_image(G, E) == list(map(tuple, a_auts))
        for F in catalog.subgroups:
            homs = [cg.hom_matrices(kind, E, F) for kind in kinds]
            for kind, got, want in zip(kinds, homs, brute_hom_sets(kinds, E, F)):
                assert got.dtype == np.int64 and got.shape == (len(want), E.rank)
                assert got.tolist() == want, kind.label()
            for small, large in zip(homs, homs[1:]):
                assert set(map(tuple, small.tolist())) <= set(map(tuple, large.tolist()))


# products of small symmetric groups: rank 2 at p=3 and rank 3 at p=2,
# which random generator pairs rarely hit under the catalog bound
S3xS3 = close_generators(6, [(1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5),
                             (0, 1, 2, 4, 5, 3), (0, 1, 2, 4, 3, 5)])
S4xS2 = close_generators(6, [(1, 2, 3, 0, 4, 5), (1, 0, 2, 3, 4, 5),
                             (0, 1, 2, 3, 5, 4)])


# S6 itself at p=2 has 271 subgroups; its pairs take minutes by brute force
@given(G=small_groups(), p=st.sampled_from([2, 3]))
@example(G=S3xS3, p=3)
@example(G=S4xS2, p=2)
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_constructive_homs_match_brute_force(G, p):
    assume(len(enumerate_elabs(G, p)) <= 50)
    check_catalog(G, p)


def test_full_general_linear_aut_group():
    # every translation of affine-16 is conjugate to every other, so the
    # Aprime automorphisms of the translations are all of GL_4(F_2); the
    # A ones are the multiplications by the 15 units of F_16
    G = affine_group(16)
    catalog = enumerate_elabs(G, 2)
    V = catalog.subgroups[-1]
    assert V.rank == 4
    assert len(cg.hom_matrices(cg.APRIME, V, V)) == 20160
    assert len(cg.hom_matrices(cg.A, V, V)) == 15
    assert np.array_equal(cg.hom_matrices(cg.APRIME, V, V),
                          cg.hom_matrices(cg.CREG, V, V))


@lru_cache(maxsize=None)
def cycles(p, k=3):
    """(Z/p)^k as k disjoint p-cycles on p*k points, with the element
    index of each cycle."""
    gens = [tuple(x - x % p + (x + 1) % p if x // p == i else x for x in range(p * k))
            for i in range(k)]
    G = close_generators(p * k, gens)
    return G, [G.index(g) for g in gens]


@given(p=st.sampled_from([2, 3, 5]), rows=st.integers(0, 3), cols=st.integers(0, 3))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_creg_search_matches_every_full_rank_matrix(p, rows, cols):
    assume(p ** (rows * cols) <= 4096)
    G, gens = cycles(p)
    E = ElabSubgroup.generated_by(G, p, gens[:cols])
    F = ElabSubgroup.generated_by(G, p, gens[:rows])
    got = cg.hom_matrices(cg.CREG, E, F)
    want = code_rows(injective_oracle(p, rows, cols), p)
    assert got.dtype == np.int64 and got.shape == (len(want), cols)
    assert got.tolist() == want
