"""Hom-sets built a row at a time by Quillen's factorization.

Each row (every hom-set of A, Aprime or An(1) out of one class
representative, the others carried) is checked against the pairwise
construction hom_matrices keeps for callers without a catalog, against
the count |Hom(E, F)| = #{members isomorphic to E inside F} * |Aut(E)|
with containment read off element sets, and for A against the Weyl
image of the brute-force oracle.  A row keeps the hom-sets into class
representatives alone, and a hom_dict of single-member classes carries
none.  Every kind's row is refused on the total the dense class sizes
give, and a single read into a larger rank builds no classes x classes
array.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from brute_force import weyl_image
from elabcat import categories as cg
from elabcat.cli import load_group
from elabcat.elabs import enumerate_elabs
from elabcat.errors import CapExceeded
from elabcat.groups import FiniteGroup, close_generators
from test_class_sizes import catalogs, dense_class_sizes, kinds_of, random_maps
from test_hom_cache import A4, GOLDEN, S6, small_groups


ROW_KINDS = [cg.A, cg.APRIME, cg.a_n(1)]
# an order-64 subgroup of S8 (78 members at p=2): two classes of Klein
# four-groups, not conjugate, are Aprime-isomorphic and lie inside larger
# ranks, so a row reads members of a class other than its own
G64 = close_generators(8, [(4, 3, 7, 6, 0, 1, 5, 2), (4, 5, 1, 7, 6, 0, 3, 2)])


@given(G=small_groups(), p=st.sampled_from([2, 3]), kind=st.sampled_from(ROW_KINDS))
@example(G=G64, p=2, kind=cg.APRIME)
@example(G=G64, p=2, kind=cg.a_n(1))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_rows_match_pairwise_homs_and_counts(G, p, kind):
    catalog = enumerate_elabs(G, p)
    assume(len(catalog) <= 80)
    built, inner = Counter(), cg._rows
    subgroups, ranks = list(catalog.subgroups), catalog.ranks()
    want = [[cg.hom_matrices(kind, E, F) for F in subgroups] for E in subgroups]

    def counting(C, i):
        built[C.catalog is catalog, i] += 1
        return inner(C, i)

    with mock.patch.object(cg, "_rows", counting):
        rows = cg.build_category(kind, catalog).hom_dict()
        # a second catalog whose rows are built one source at a time
        lazy = cg.build_category(kind, enumerate_elabs(G, p))
        sets = [frozenset(E.elements) for E in subgroups]
        for i, E in enumerate(subgroups):
            aut = len(want[i][i])
            if kind == cg.A:
                assert aut == len(weyl_image(G, E))
            isomorphic = [sets[k] for k in range(len(sets))
                          if ranks[k] == E.rank and len(want[i][k])]
            for j in range(len(subgroups)):
                assert np.array_equal(rows.get((i, j), want[i][j][:0]), want[i][j])
                assert np.array_equal(lazy.hom(i, j), want[i][j])
                assert lazy.hom(i, j).shape[1] == E.rank
                assert len(want[i][j]) == sum(S <= sets[j] for S in isomorphic) * aut
    # rows out of the representatives that map into a larger rank only,
    # once each on either catalog: every other hom-set is carried, or an
    # isomorphism
    grows = [r for r in sorted(catalog.class_reps.tolist())
             if any(len(h) for h, s in zip(want[r], ranks) if s > ranks[r])]
    for listed in (True, False):
        assert sorted(i for (mine, i) in built if mine is listed) == grows
    assert set(built.values()) <= {1}


@pytest.mark.parametrize("kind", ROW_KINDS, ids=lambda kind: kind.label())
@pytest.mark.parametrize("G", [close_generators(4, A4, name="a4"), G64], ids=["a4", "G64"])
def test_rows_keep_maps_into_representatives_only(G, kind):
    # a row holds Hom(i, R) for representatives R alone, every one of a
    # larger rank that i maps into; any other member's is carried
    catalog = enumerate_elabs(G, 2)
    C, subgroups, ranks = cg.build_category(kind, catalog), catalog.subgroups, catalog.ranks()
    reps = set(catalog.class_reps.tolist())
    for i in sorted(reps):
        cg._rows(C, i)
        row = {t: cols for (_, a, t), cols in catalog.homs.items() if a == i}
        assert set(row) <= reps, (i, sorted(set(row) - reps))
        assert {t for t in reps if ranks[t] > ranks[i]
                and len(cg.hom_matrices(kind, subgroups[i], subgroups[t]))} <= set(row)
        for t, cols in row.items():
            assert np.array_equal(cols, cg.hom_matrices(kind, subgroups[i], subgroups[t]))


def test_hom_dict_of_single_member_classes_carries_nothing():
    # regular (Z/2)^5 at p=2: every class has one member, so each of the
    # 5,769 non-empty hom-sets is its representatives' own
    catalog = enumerate_elabs(load_group(str(GOLDEN / "z2-5.group.json")), 2)
    with mock.patch.object(cg, "_carried", side_effect=AssertionError("carried")):
        homs = cg.build_category(cg.A, catalog).hom_dict()
    assert len(homs) == 5769
    assert sum(map(len, homs.values())) == cg.build_category(cg.A, catalog).hom_count()


def test_s6_rows_conjugate_once_per_class(monkeypatch):
    catalog = enumerate_elabs(close_generators(6, S6, name="S6"), 2)
    built = []
    inner = FiniteGroup.conjugators

    def counting(self, bases, targets):
        built.append(np.shape(bases)[1])
        return inner(self, bases, targets)

    monkeypatch.setattr(FiniteGroup, "conjugators", counting)
    monkeypatch.setattr(cg, "hom_matrices", None)      # never reached for A
    homs = cg.build_category(cg.A, catalog).hom_dict()
    # every representative's automorphisms, all those of a rank in one
    # conjugation step, and none at rank 1 (<b> onto itself sends b to
    # each element of its class inside)
    assert sorted(built) == [0, *range(2, len(catalog.codes))]
    assert sum(map(len, homs.values())) == 53146
    # An(n) is A out of objects of rank at most n: it reads A's cached
    # arrays and adds none
    cached = set(catalog.homs)
    an5 = cg.build_category(cg.a_n(5), catalog).hom_dict()
    assert set(catalog.homs) == cached
    assert an5.keys() == homs.keys() and all(np.array_equal(an5[k], homs[k]) for k in homs)


def test_row_is_refused_on_its_exact_total(monkeypatch):
    # A4 at p=2: the row out of a rank-1 representative holds 4 maps into
    # representatives, one onto itself and three into the Klein four-group
    catalog = enumerate_elabs(close_generators(4, A4, name="a4"), 2)
    rep = catalog.class_reps[1]
    monkeypatch.setenv("ELABCAT_HOM_COUNT_CAP", "3")
    with pytest.raises(CapExceeded, match="^the A hom-sets out of 1 objects hold 4 maps, "):
        cg.build_category(cg.A, catalog).hom(rep, len(catalog) - 1)
    monkeypatch.setenv("ELABCAT_HOM_COUNT_CAP", "4")
    assert len(cg.build_category(cg.A, catalog).hom(rep, len(catalog) - 1)) == 3


@given(catalog=catalogs(), data=st.data())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_row_totals_match_the_dense_class_sizes(catalog, data):
    # the total each row passes to the cap, aut times the members of the
    # isomorphic classes inside each representative, is row x of I @ M
    # summed over the representatives
    cases = [(cg.build_category(kind, catalog), kind) for kind in kinds_of(catalog)]
    cases.append((cg.closure(cg.SubgroupCategory(catalog, cg.A, random_maps(data, catalog))),
                  None))                                                # a given base
    totals, inner = [], cg._refuse_past_cap

    def recording(holds, total):
        if holds.endswith("hom-sets out of 1 objects hold"):
            totals.append(total)
        return inner(holds, total)

    with mock.patch.object(cg, "_refuse_past_cap", recording):
        for C, kind in cases:
            sizes = dense_class_sizes(C, kind)[1]
            for x, i in enumerate(catalog.class_reps.tolist()):
                cg._rows(C, i)
                assert totals.pop() == sizes[x].sum(), (C.provenance, x)
                assert not totals


def test_one_map_into_a_larger_rank_builds_no_class_sizes():
    # regular (Z/2)^5 at p=2: the one A map of a line into the whole group
    # is read off the line's row, decided empty or not by one lookup in the
    # class sizes, which hold the 5,769 non-empty pairs of the 374 x 374
    catalog = enumerate_elabs(load_group(str(GOLDEN / "z2-5.group.json")), 2)
    C, top = cg.build_category(cg.A, catalog), len(catalog) - 1
    got = C.hom(1, top)
    assert np.array_equal(got, cg.hom_matrices(cg.A, catalog.subgroups[1], catalog.subgroups[top]))
    assert len(got) == 1
    keys, sizes = C.class_sizes()
    assert keys.shape == sizes.shape == (5769,)
