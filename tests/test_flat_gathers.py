"""The group kernels that gather from the flat element table (FiniteGroup.mul,
conjugate_indices, transporter_indices and the catalog's commuting pairs,
elabs._commuting_pairs), and the centralizers transporter_indices reads,
against scans with the permutation-tuple oracles compose and conjugate of
brute_force.py, for
every broadcast shape the library passes: an index against an array,
(n, 1) against (1, m), 2-D targets with one row per conjugator, and empty
arrays.  Both element lookups are met: S7 keeps the direct-address table,
D17xD17 the binary search.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import compose, conjugate, elements_of
from elabcat import elabs
from elabcat.groups import close_generators
from test_chain import dihedral_squared, symmetric
from test_element_table import generated_groups


class Oracle:
    """Products, conjugates, transporters and centralizers of G's elements
    as index arrays, each entry from permutation tuples."""

    def __init__(self, G):
        self.el = elements_of(G)
        self.index = {e: i for i, e in enumerate(self.el)}

    def mul(self, i, j):
        return np.vectorize(lambda a, b: self.index[compose(self.el[a], self.el[b])],
                            otypes=[np.int64])(i, j)

    def conj(self, g, e):
        return np.vectorize(lambda a, b: self.index[conjugate(self.el[a], self.el[b])],
                            otypes=[np.int64])(g, e)

    def transporter(self, a, b):
        return [g for g, x in enumerate(self.el) if conjugate(x, self.el[a]) == self.el[b]]

    def centralizer(self, e):
        y = self.el[e]
        return [g for g, x in enumerate(self.el) if compose(x, y) == compose(y, x)]


def check_kernels(G, rng, picks=6):
    O, n = Oracle(G), len(G)
    i, j = rng.integers(n, size=picks), rng.integers(n, size=picks)
    # mul: index by index, an index against an array both ways, (n, 1) by
    # (1, m), equal 2-D shapes, and empty arrays
    assert G.mul(int(i[0]), int(j[0])) == O.mul(i[0], j[0])
    for a, b in ((int(i[0]), j), (i, int(j[0])), (i[:, None], j[None]),
                 (i.reshape(2, -1), j.reshape(2, -1)), (i[:0], j[0]), (i[:0, None], j[None])):
        got, want = G.mul(a, b), O.mul(a, b)
        assert got.shape == want.shape and (got == want).all()
    assert G.mul(np.arange(n), int(j[1])).tolist() == O.mul(np.arange(n), j[1]).tolist()

    # conjugate_indices: one g, a row of g's, 2-D targets one row per g, empties
    assert G.conjugate_indices(int(i[0]), j).tolist() == O.conj(i[0], j).tolist()
    assert G.conjugate_indices(i, j).tolist() == O.conj(i[:, None], j[None]).tolist()
    rows = rng.integers(n, size=(picks, 3))
    assert G.conjugate_indices(i, rows).tolist() == O.conj(i[:, None], rows).tolist()
    assert G.conjugate_indices(i, j[:0]).shape == (picks, 0)
    assert G.conjugate_indices(i[:0], j).shape == (0, picks)
    assert G.conjugate_indices(i[:0], rows[:0]).shape == (0, 3)

    # transporter_indices: each conjugate pair's coset, in the pairs' order
    table = G.conjugacy
    b = table.witness[rng.integers(n, size=picks)]      # conjugate to their class reps
    a = table.reps[table.class_of[b]]
    b = G.conjugate_indices(int(j[0]), b)               # and moved on by one more element
    for x, y in ((int(a[0]), int(b[0])), (int(a[0]), b), (a, b), (a, i)):
        pairs = np.broadcast_arrays(x, np.atleast_1d(y))
        want = [g for u, v in zip(*(p.tolist() for p in pairs)) for g in O.transporter(u, v)]
        assert G.transporter_indices(x, y).tolist() == want
    assert G.transporter_indices(int(a[0]), b[:0]).tolist() == []
    assert G.transporter_indices(a[:0], b[:0]).tolist() == []

    # centralizers, and the commuting pairs of distinct gens against xs, a
    # union of classes (the elements of order p, in the catalog)
    cent = {e: O.centralizer(e) for e in i.tolist()}
    for e, want in cent.items():
        assert G.centralizer_indices(e).tolist() == want
    xs = np.isin(table.class_of, table.class_of[j]).nonzero()[0]
    want = sorted(g * n + y for g, c in cent.items() for y in np.intersect1d(c, xs).tolist())
    assert elabs._commuting_pairs(G, xs, np.unique(i)).tolist() == want


@pytest.mark.parametrize("name, group, direct", [
    ("S7", symmetric(7), True), ("D17xD17", dihedral_squared(17), False)])
def test_kernels_on_both_lookups(name, group, direct):
    G = close_generators(*group)
    assert (G._position is not None) == direct
    check_kernels(G, np.random.default_rng(7))


@given(group=generated_groups(max_degree=6), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_kernels_on_random_groups(group, seed):
    check_kernels(close_generators(*group), np.random.default_rng(seed))


def test_the_flat_table_is_a_read_only_view():
    G = close_generators(*symmetric(5))
    assert np.shares_memory(G._flat, G.array) and not G._flat.flags.writeable
    assert G._flat.reshape(G.array.shape).tolist() == G.array.tolist()
