"""The numpy element table of FiniteGroup, its generator tables, base,
inverses and element orders (also on gallery groups and long cycles) and
conjugated centralizers, the code-ordered coordinates of ElabSubgroup and
the catalog by centralizer descent against the oracles in brute_force.py,
on random groups of degree at most 7, the descent's commuting-pairs
relation against scanned centralizers, plus the element cap at its
boundary and the catalog cap ahead of the relation.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import (brute_catalog, brute_conjugacy, brute_coordinates, brute_group,
                         centralizer, compose, conjugate, elements_of, in_group, index_of,
                         index_of_vector, normalizer, perm_order, scan_centralizer,
                         vector_of_index)
from elabcat import elabs, gallery
from elabcat.elabs import enumerate_elabs
from elabcat.errors import CapExceeded
from elabcat.groups import close_generators, sorted_distinct


@st.composite
def generated_groups(draw, max_degree=7):
    """(degree, generators) for zero to three random permutations of
    degree at most max_degree: no generators gives the trivial group and
    one a cyclic group."""
    n = draw(st.integers(min_value=2, max_value=max_degree))
    k = draw(st.integers(min_value=0, max_value=3))
    return n, [tuple(draw(st.permutations(range(n)))) for _ in range(k)]


S7_GENS = [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]
S2_CUBED = (6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)])
# S3 on {0, 1, 2} times a swap of {3, 4}, fixing 5 and 6: base (0, 1, 3)
INTRANSITIVE = (7, [(1, 2, 0, 3, 4, 5, 6), (1, 0, 2, 3, 4, 5, 6), (0, 1, 2, 4, 3, 5, 6)])


def regular(p, n):
    """(Z/p)^n acting on itself: the translations by the unit vectors of
    the p^n points, a point's base-p digits its coordinates.  Every
    element is its own conjugacy class."""
    def shift(k):
        return tuple(x - (p - 1) * p ** k if x // p ** k % p == p - 1 else x + p ** k
                     for x in range(p ** n))
    return p ** n, [shift(k) for k in range(n)]


@given(group=generated_groups(), rnd=st.randoms())
@example(group=(7, S7_GENS), rnd=random.Random(0))
@example(group=S2_CUBED, rnd=random.Random(0))
@example(group=INTRANSITIVE, rnd=random.Random(0))
@settings(max_examples=12, deadline=None)
def test_element_table_matches_tuple_oracle(group, rnd):
    n, gens = group
    G = close_generators(n, gens)
    elements = brute_group(n, gens)
    assert elements_of(G) == elements
    assert (G.array == np.array(elements)).all()
    assert elements[G.identity_index] == tuple(range(n))
    inv = G.inverse_indices
    assert all(compose(e, elements[inv[i]]) == tuple(range(n))
               for i, e in enumerate(elements))
    assert G.element_orders.tolist() == [perm_order(e) for e in elements]

    table = G.conjugacy
    class_of, reps, sizes, witness = brute_conjugacy(elements, gens)
    assert (table.class_of.tolist(), table.reps.tolist(), table.sizes.tolist()) == (
        list(class_of), list(reps), list(sizes))
    assert table.witness.tolist() == list(witness)
    for i, e in enumerate(elements):
        rep = elements[table.reps[table.class_of[i]]]
        assert conjugate(elements[table.witness[i]], rep) == e

    # lookups and products on members
    for i, e in enumerate(elements):
        assert index_of(G, e) == i and in_group(G, e)
    js = [index_of(G, g) for g in gens] + [rnd.randrange(len(G)) for _ in range(3)]
    for j in js:
        want = [index_of(G, compose(e, elements[j])) for e in elements]
        assert G.mul(np.arange(len(G)), j).tolist() == want
        assert G.mul(len(G) - 1, j) == want[-1]

    # non-members and wrong degrees
    members = set(elements)
    outside = [p for p in (tuple(rnd.sample(range(n), n)) for _ in range(5))
               if p not in members]
    for p in outside + [tuple(range(n + 1)), tuple(range(n - 1)), ()]:
        assert not in_group(G, p)
        with pytest.raises(KeyError):
            index_of(G, p)

    for p in (2, 3):
        for E in enumerate_elabs(G, p).subgroups:
            basis, coords = brute_coordinates(elements, p, E.elements)
            assert E.basis == basis
            assert E.elements == tuple(sorted(coords.values()))
            for vec, i in coords.items():
                assert index_of_vector(E, vec) == i
                assert vector_of_index(E, i) == vec


@pytest.mark.parametrize("make", [
    lambda: gallery.build_gl3(3).group, lambda: gallery.build_prop10(2, 1).group,
    lambda: gallery.cyclic_group(64), lambda: gallery.cyclic_group(257),
], ids=["gl3-3", "prop10-2-1", "cyclic-64", "cyclic-257"])
def test_inverses_and_orders_match_row_oracles(make):
    G = make()
    # a row's argsort is its inverse's row, found apart from the chain
    assert G.inverse_indices.tolist() == G.indices_of_rows(np.argsort(G.array, axis=1)).tolist()
    reps = G.conjugacy.reps.tolist()
    assert G.element_orders[reps].tolist() == [perm_order(G.element(r)) for r in reps]


@given(group=generated_groups())
@example(group=INTRANSITIVE)
@settings(max_examples=12, deadline=None)
def test_base_and_generator_tables_match_tuple_oracle(group):
    n, gens = group
    G = close_generators(n, gens)
    elements = brute_group(n, gens)
    index = {e: i for i, e in enumerate(elements)}
    base = G.base.tolist()
    assert len(set(base)) == len(base)
    assert len({tuple(e[x] for x in base) for e in elements}) == len(elements)
    conj, right = G.generator_tables
    assert conj.shape == right.shape == (len(gens), len(elements))
    for k, g in enumerate(gens):
        assert conj[k].tolist() == [index[conjugate(g, e)] for e in elements]
        assert right[k].tolist() == [index[compose(e, g)] for e in elements]


def test_greedy_base():
    assert close_generators(*INTRANSITIVE).base.tolist() == [0, 1, 3]
    assert close_generators(7, S7_GENS).base.tolist() == [0, 1, 2, 3, 4, 5]
    assert close_generators(4, []).base.tolist() == []


# degree at most 6: the oracle scans all of G once per element
@given(group=generated_groups(max_degree=6))
@example(group=(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]))
@settings(max_examples=12, deadline=None)
def test_centralizers_match_scan(group):
    G = close_generators(*group)
    # every element: the identity, each class representative and the rest
    for e in reversed(range(len(G))):
        cent = G.centralizer_indices(e)
        assert cent.dtype == np.int64
        assert (np.diff(cent) > 0).all()
        assert cent.tolist() == scan_centralizer(G, e).tolist()
        assert G.centralizer_indices(e) is cent
    assert G.centralizer_indices(G.identity_index).tolist() == list(range(len(G)))


@given(group=generated_groups(max_degree=6), rnd=st.randoms())
@example(group=(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]), rnd=random.Random(0))
@settings(max_examples=12, deadline=None)
def test_centralizer_and_normalizer_match_scan(group, rnd):
    n, gens = group
    G = close_generators(n, gens)
    elements = brute_group(n, gens)
    chosen = sorted({rnd.choice(elements) for _ in range(rnd.randint(1, 3))})
    cent = [g for g in elements if all(compose(g, e) == compose(e, g) for e in chosen)]
    norm = [g for g in elements if all(conjugate(g, e) in chosen for e in chosen)]
    for H, want in ((centralizer(G, chosen), cent), (normalizer(G, chosen), norm)):
        assert elements_of(H) == want
        # the greedy generators at least double the subgroup at each step
        assert len(H.generators) <= len(H).bit_length() - 1
        index = {e: i for i, e in enumerate(want)}
        conj, right = H.generator_tables
        for k, g in enumerate(H.generators):
            assert right[k].tolist() == [index[compose(e, g)] for e in want]
            assert conj[k].tolist() == [index[conjugate(g, e)] for e in want]


@given(group=generated_groups())
@example(group=(7, S7_GENS))
@example(group=S2_CUBED)
@example(group=INTRANSITIVE)
@example(group=regular(2, 3))
@example(group=regular(3, 2))
@settings(max_examples=12, deadline=None)
def test_catalog_matches_brute_force(group):
    G = close_generators(*group)
    for p in (2, 3, 5, 7):
        cat = enumerate_elabs(G, p)
        subgroups, class_of, class_reps, class_witness, maximal = brute_catalog(G, p)
        assert [E.elements for E in cat.subgroups] == [E.elements for E in subgroups]
        assert [E.basis for E in cat.subgroups] == [E.basis for E in subgroups]
        assert [E.by_code.tolist() for E in cat.subgroups] == [
            E.by_code.tolist() for E in subgroups]
        assert (cat.class_of.tolist(), cat.class_reps.tolist()) == (class_of, class_reps)
        assert cat.class_witness.tolist() == class_witness
        assert cat.maximal.tolist() == maximal


@pytest.mark.parametrize("group", [(7, S7_GENS), regular(2, 3), regular(3, 2)],
                         ids=["S7", "regular-2-3", "regular-3-2"])
def test_commuting_pairs_match_scan(group):
    G = close_generators(*group)
    for p in (2, 3, 5, 7):
        xs = np.flatnonzero(G.element_orders == p)
        if not len(xs):
            continue
        # gen(x) = min(<x> minus 1), the generator of x's member of rank 1
        powers = [xs]
        for _ in range(p - 2):
            powers.append(G.mul(powers[-1], xs))
        gen = np.min(powers, axis=0)
        pairs = elabs._commuting_pairs(G, xs, sorted_distinct(gen))
        assert (np.diff(pairs) > 0).all()
        for x, g in zip(xs.tolist(), gen.tolist()):
            row = pairs[pairs // len(G) == g] % len(G)
            assert row.tolist() == np.intersect1d(scan_centralizer(G, x), xs).tolist()


def test_catalog_cap_stops_before_commuting_pairs(monkeypatch):
    # regular (Z/2)^6 has 63 members of rank 1, so a cap of 40 stops the
    # catalog while they are built, before anything quadratic in them
    def never(*args):
        raise AssertionError("commuting pairs built before the rank-1 guard")

    monkeypatch.setattr(elabs, "_commuting_pairs", never)
    monkeypatch.setenv("ELABCAT_CATALOG_CAP", "40")
    with pytest.raises(CapExceeded) as e:
        enumerate_elabs(close_generators(*regular(2, 6)), 2)
    assert e.value.guard == "catalog_cap"
    assert str(e.value) == ("subgroup catalog passed the cap (40); "
                            "raise ELABCAT_CATALOG_CAP to allow more")


def test_element_cap_boundary(monkeypatch):
    monkeypatch.setenv("ELABCAT_ELEMENT_CAP", "5039")
    with pytest.raises(CapExceeded) as e:
        close_generators(7, S7_GENS)
    assert e.value.guard == "element_cap"
    monkeypatch.setenv("ELABCAT_ELEMENT_CAP", "5040")
    assert len(close_generators(7, S7_GENS)) == 5040
