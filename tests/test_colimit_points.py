"""Colimit point counts: each kind's isomorphisms against a count that
needs no catalog.

The colimit over a category C of the F_q-points of E (x) F_q, q = p^m,
has one point for each surjection (Z/p)^m -> E up to the isomorphisms of
C, since each point has a unique smallest rational subspace holding it,
and Aut_C(E) acts freely on the surjections onto E.  So

    P_C(m) = sum over classes x of inj(p, m, rank x) / sum over y of I[x, y]

with I[x, y] the number of C-isomorphisms between the representatives,
which class_sizes is between classes of one rank.  brute_force counts the
same points from the homomorphisms (Z/p)^m -> G alone.
"""

from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from brute_force import colimit_points
from elabcat import categories as cg
from elabcat.cli import load_group
from elabcat.elabs import enumerate_elabs
from elabcat.fpmat import injective_count
from elabcat.groups import close_generators
from test_class_sizes import dense_sizes
from test_hom_cache import GOLDEN, S6, small_groups


def points(kind, catalog, m):
    sizes = dense_sizes(cg.build_category(kind, catalog))
    rank = np.array(catalog.ranks())[catalog.class_reps]
    iso = np.where(rank[:, None] == rank, sizes, 0).sum(axis=1)
    total = sum(Fraction(injective_count(catalog.prime, m, int(r)), int(k))
                for r, k in zip(rank, iso))
    assert total.denominator == 1
    return int(total)


def counts(G, p, m):
    catalog = enumerate_elabs(G, p)
    return tuple(points(kind, catalog, m) for kind in (cg.A, cg.APRIME, cg.CREG))


@given(G=small_groups(), p=st.sampled_from([2, 3]), m=st.integers(1, 2))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_points_match_the_brute_force_count(G, p, m):
    assert counts(G, p, m) == colimit_points(G, p, m)


def test_s6_points_at_m3():
    G = close_generators(6, S6, name="S6")
    assert counts(G, 2, 3) == colimit_points(G, 2, 3) == (176, 169, 16)


def test_a4xa4_points_separate_a_from_aprime():
    G = load_group(str(GOLDEN / "a4xa4.group.json"))
    assert counts(G, 2, 2) == colimit_points(G, 2, 2) == (36, 25, 5)
