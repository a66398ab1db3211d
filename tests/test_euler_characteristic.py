"""The Brown-Quillen Euler characteristic of the catalog, an invariant
computed from the catalog's ranks alone and independent of how the
catalog is enumerated.

Quillen (Homotopy properties of the poset of nontrivial p-subgroups of a
group, Adv. Math. 28, 1978) shows that A_p(G), the poset of non-trivial
elementary abelian p-subgroups, is homotopy equivalent to S_p(G), and
that it is contractible when G has a non-trivial normal p-subgroup.
Brown (Euler characteristics of groups: the p-fractional part, Invent.
Math. 29, 1975) shows that |G|_p divides the reduced Euler
characteristic of S_p(G).  The Moebius function of a rank-r subspace
lattice is (-1)^r p^(r(r-1)/2), so that reduced Euler characteristic is
minus the sum of those numbers over every catalog member, the trivial
group included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elabcat import gallery
from elabcat.elabs import enumerate_elabs
from elabcat.groups import close_generators
from test_hom_cache import small_groups


def euler_sum(catalog):
    """The sum over the catalog of (-1)^r p^(r(r-1)/2), r the rank."""
    p = catalog.prime
    return sum((-1) ** r * p ** (r * (r - 1) // 2) for r in catalog.ranks())


def p_part(order, p):
    part = 1
    while order % p == 0:
        order //= p
        part *= p
    return part


def check_brown_quillen(G, p):
    catalog = enumerate_elabs(G, p)
    total = euler_sum(catalog)
    assert total % p_part(len(G), p) == 0
    # a class of rank >= 1 with one member is a normal p-subgroup
    sizes = np.bincount(catalog.class_of).tolist()
    if any(size == 1 and catalog.subgroups[rep].rank >= 1
           for rep, size in zip(catalog.class_reps, sizes)):
        assert total == 0
    return total


def symmetric(n):
    return close_generators(n, [[1, 0] + list(range(2, n)), list(range(1, n)) + [0]])


def regular(p, k):
    """(Z/p)^k acting regularly on its p^k elements."""
    n = p ** k
    return close_generators(n, [[(x // p ** i % p + 1) % p * p ** i + x - x // p ** i % p * p ** i
                                 for x in range(n)] for i in range(k)])


@pytest.mark.parametrize("n, p, total", [
    (6, 2, 16), (6, 3, -9), (6, 5, -35),
    (7, 2, -160), (7, 3, 36), (7, 5, -125), (7, 7, -119),
])
def test_symmetric_groups(n, p, total):
    assert check_brown_quillen(symmetric(n), p) == total


@pytest.mark.parametrize("p, k", [(2, 5), (3, 4)])
def test_elementary_abelian_groups_are_contractible(p, k):
    G = regular(p, k)
    assert len(G) == p ** k
    assert check_brown_quillen(G, p) == 0


# a 2-group of order 1,024 holding (Z/2)^10, whose subspaces alone pass
# the catalog cap many times over
TOO_LARGE = {("prop10-2-1", 2)}


@pytest.mark.parametrize("name", gallery.entry_names())
def test_gallery_groups(name):
    entry = gallery.load_entry(name)
    G = gallery._build_entry(entry).group
    for p in sorted({2, 3, 5, entry.prime}):
        if (name, p) not in TOO_LARGE:
            check_brown_quillen(G, p)


@given(G=small_groups(), p=st.sampled_from([2, 3, 5]))
@settings(max_examples=25, deadline=None)
def test_random_small_groups(G, p):
    check_brown_quillen(G, p)
