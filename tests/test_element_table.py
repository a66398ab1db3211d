"""The numpy element table of FiniteGroup and the code-ordered coordinates
of ElabSubgroup against tuple oracles (brute_force.py), on random groups
of degree at most 7, plus the element cap at its boundary.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import brute_conjugacy, brute_coordinates, brute_group
from elabcat.elabs import enumerate_elabs
from elabcat.errors import CapExceeded
from elabcat.groups import close_generators, compose, conjugate, perm_order


@st.composite
def generated_groups(draw):
    """(degree, generators) for two or three random permutations of
    degree at most 7."""
    n = draw(st.integers(min_value=2, max_value=7))
    k = draw(st.integers(min_value=2, max_value=3))
    return n, [tuple(draw(st.permutations(range(n)))) for _ in range(k)]


S7_GENS = [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]


@given(group=generated_groups(), rnd=st.randoms())
@example(group=(7, S7_GENS), rnd=random.Random(0))
@example(group=(6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)]),
         rnd=random.Random(0))
@settings(max_examples=12, deadline=None)
def test_element_table_matches_tuple_oracle(group, rnd):
    n, gens = group
    G = close_generators(n, gens)
    elements = brute_group(n, gens)
    assert G.elements == elements
    assert (G.array == np.array(elements)).all()
    assert elements[G.identity_index] == tuple(range(n))
    inv = G.inverse_indices
    assert all(compose(e, elements[inv[i]]) == tuple(range(n))
               for i, e in enumerate(elements))
    assert G.element_orders.tolist() == [perm_order(e) for e in elements]

    table = G.conjugacy
    class_of, reps, sizes, witness = brute_conjugacy(elements, gens)
    assert (table.class_of, table.reps, table.sizes) == (class_of, reps, sizes)
    assert table.witness == witness
    for i, e in enumerate(elements):
        rep = elements[table.reps[table.class_of[i]]]
        assert conjugate(elements[table.witness[i]], rep) == e

    # lookups and products on members
    for i, e in enumerate(elements):
        assert G.index(e) == i and e in G
    js = [G.index(g) for g in gens] + [rnd.randrange(len(G)) for _ in range(3)]
    for j in js:
        want = [G.index(compose(e, elements[j])) for e in elements]
        assert G.mul(np.arange(len(G)), j).tolist() == want
        assert G.mul(len(G) - 1, j) == want[-1]

    # non-members and wrong degrees
    members = set(elements)
    outside = [p for p in (tuple(rnd.sample(range(n), n)) for _ in range(5))
               if p not in members]
    for p in outside + [tuple(range(n + 1)), tuple(range(n - 1)), ()]:
        assert p not in G
        with pytest.raises(KeyError):
            G.index(p)

    for p in (2, 3):
        for E in enumerate_elabs(G, p).subgroups:
            basis, coords = brute_coordinates(elements, p, E.elements)
            assert E.basis == basis
            assert E.elements == tuple(sorted(coords.values()))
            for vec, i in coords.items():
                assert E.index_of_vector(vec) == i
                assert E.vector_of_index(i) == vec


def test_element_cap_boundary():
    with pytest.raises(CapExceeded) as e:
        close_generators(7, S7_GENS, element_cap=5039)
    assert e.value.guard == "element_cap"
    assert len(close_generators(7, S7_GENS, element_cap=5040)) == 5040
