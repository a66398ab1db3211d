"""The catalog held as per-rank arrays, its members built on read.

Every member read lazily is the subgroup that from_element_indices
canonicalizes from its element set; members come in (rank, elements)
order; index_of_elements finds each member from its elements in any
order and refuses sets that are no member's; inside lists the members
inside each class representative, as their element sets give them.
Counting ElabSubgroup constructions pins where member objects are
built: enumeration builds none, pregular only maximal class
representatives, analyze only class representatives.
"""

import contextlib
import io
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import subgroups_of
from elabcat import cli
from elabcat.cli import analyze_report, load_group
from elabcat.elabs import ElabSubgroup, enumerate_elabs
from elabcat.errors import CatalogMismatch
from elabcat.groups import close_generators
from test_hom_cache import small_groups

GOLDEN = Path(__file__).resolve().parent / "golden"
S7 = (7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)])


@given(G=small_groups(), p=st.sampled_from([2, 3]), rnd=st.randoms())
@example(G=close_generators(*S7), p=2, rnd=random.Random(0))
@settings(max_examples=12, deadline=None)
def test_members_match_from_element_indices(G, p, rnd):
    catalog = enumerate_elabs(G, p)
    members = list(catalog.subgroups)
    assert [(E.rank, E.elements) for E in members] == sorted(
        (E.rank, E.elements) for E in members)
    assert catalog.ranks().tolist() == [E.rank for E in members]
    for i, E in enumerate(members):
        assert catalog.subgroups[i] is E
        F = ElabSubgroup.from_element_indices(G, p, E.elements)
        assert (E.basis, E.elements) == (F.basis, F.elements)
        assert np.array_equal(E.by_code, F.by_code)
        assert np.array_equal(catalog.by_code(i), E.by_code)

        shuffled = list(E.elements)
        rnd.shuffle(shuffled)
        assert catalog.index_of_elements(shuffled) == i
        if E.rank:
            # {1, x} less x is the trivial member, so drop the identity there
            dropped = list(E.elements)
            del dropped[rnd.randrange(len(dropped)) if len(dropped) > 2 else 0]
            with pytest.raises(CatalogMismatch):
                catalog.index_of_elements(dropped)
            # p^r < p^r + 1 < p^(r+1): no rank has that many elements
            outside = next((x for x in range(len(G)) if x not in E.elements), None)
            if outside is not None:
                with pytest.raises(CatalogMismatch):
                    catalog.index_of_elements(shuffled + [outside])
    # a whole rank at once, members and their elements shuffled
    for r, codes in enumerate(catalog.codes):
        at = np.array(rnd.sample(range(len(codes)), len(codes)))
        sets = np.array([rnd.sample(row, len(row)) for row in codes[at].tolist()])
        assert np.array_equal(catalog.indices_of_sets(sets), catalog.rank_starts[r] + at)


@given(G=small_groups(), p=st.sampled_from([2, 3]))
@example(G=load_group(str(GOLDEN / "a4xa4.group.json")), p=2)      # rank 4
@settings(max_examples=12, deadline=None)
def test_inside_lists_the_members_inside_each_representative(G, p):
    catalog = enumerate_elabs(G, p)
    below = subgroups_of(catalog)
    want = sorted((m, R) for R in catalog.class_reps.tolist() for m in below[R])
    members, reps = catalog.inside
    assert list(zip(members.tolist(), reps.tolist())) == want      # the pairs, in (m, R) order


@pytest.fixture
def built(monkeypatch):
    """Every ElabSubgroup constructed while the test runs."""
    objects = []
    init = ElabSubgroup.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        objects.append(self)

    monkeypatch.setattr(ElabSubgroup, "__init__", counting)
    return objects


def sym7():
    return load_group(str(GOLDEN / "sym7.group.json"))


def test_enumeration_builds_no_member(built):
    for name, p, size in (("sym7", 2, 1317), ("z3-4", 3, 212)):
        catalog = enumerate_elabs(load_group(str(GOLDEN / f"{name}.group.json")), p)
        assert len(catalog) == size and built == []


def test_pregular_builds_at_most_one_per_maximal_class(built):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["pregular", str(GOLDEN / "sym7.group.json"), "--prime", "2",
                         "--character", "permutation"]) == 0
    catalog = enumerate_elabs(sym7(), 2)
    assert len(built) <= len(catalog.maximal_class_indices())


def test_analyze_builds_only_class_representatives(built):
    # class_counts, the A automorphisms, the equal-rank searches and the
    # fibre indices read representatives; the An(n) filter, the rows into
    # larger ranks and the subgroup listing read the arrays
    report = analyze_report(sym7(), 2)
    objects = list(built)
    catalog = enumerate_elabs(sym7(), 2)
    assert report["catalog"]["class_count"] == catalog.class_count()
    at = [catalog.index_of_elements(E.elements) for E in objects]
    assert len(set(at)) == len(at) <= catalog.class_count()
    assert set(at) <= set(catalog.class_reps.tolist())
