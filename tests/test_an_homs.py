"""An(n) hom-sets read off the cached A and An(n-1) hom-sets.

A <= An(n) <= An(n-1), and An(1) is Aprime, so a category over a catalog
takes A's hom-set where the A and An(n-1) sizes agree and otherwise keeps
the An(n-1) maps whose restriction to every rank-n member is an A map,
An(n-1) built first when missing.  Checked here: that construction
against hom_matrices, which builds An(n) from its definition alone, on
every representatives' pair, whatever the cache held before, the
inclusion chain on the same arrays, and which pairs analyze filters.
"""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from elabcat import categories as cg
from elabcat import cli
from elabcat.cli import analyze_report, load_group
from elabcat.elabs import ElabSubgroup, enumerate_elabs, p_rank
from elabcat.groups import close_generators
from test_constructive_homs import S3xS3, S4xS2
from test_hom_cache import small_groups

GOLDEN = Path(__file__).resolve().parent / "golden"
A4xA4 = load_group(str(GOLDEN / "a4xa4.group.json"))
S6 = load_group(str(GOLDEN / "sym6.group.json"))


@given(G=small_groups(), p=st.sampled_from([2, 3]))
@example(G=S3xS3, p=2)
@example(G=S3xS3, p=3)
@example(G=S4xS2, p=2)
@example(G=A4xA4, p=2)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_an_from_the_cache_matches_its_definition(G, p):
    catalog = enumerate_elabs(G, p)
    assume(len(catalog) <= 80)
    # A <= An(top - 1) <= ... <= An(2) <= Aprime
    kinds = [cg.A] + [cg.a_n(n) for n in range(p_rank(catalog) - 1, 1, -1)] + [cg.APRIME]
    views = [cg.build_category(kind, catalog) for kind in kinds]
    for i, j in itertools.product(catalog.class_reps, repeat=2):
        E, F = catalog.subgroups[i], catalog.subgroups[j]
        homs = [C.hom(i, j) for C in views]
        for kind, got in zip(kinds[1:-1], homs[1:-1]):
            assert np.array_equal(got, cg.hom_matrices(kind, E, F)), kind.label()
        sets = [set(map(tuple, cols.tolist())) for cols in homs]
        assert all(a <= b for a, b in zip(sets, sets[1:]))


@pytest.mark.parametrize("G", [A4xA4, S6], ids=["A4xA4", "S6"])
def test_restriction_test_keeps_pairs_and_classes_apart(G):
    # every injective map between representatives of rank 3 at p=2 as the
    # candidates, not only Aprime's: a restriction looked up among another
    # pair's maps, or another class's, lets some of them through
    catalog = enumerate_elabs(G, 2)
    reps = catalog.rank_reps(3)
    i, j = (x.ravel() for x in np.meshgrid(reps, reps, indexing="ij"))
    pairs = [(catalog.subgroups[a], catalog.subgroups[b]) for a, b in zip(i.tolist(), j.tolist())]
    autos = cg._isos(catalog, cg.A, catalog.rank_reps(2), catalog.rank_reps(2))
    got = cg._conjugations_on(catalog, 2, i, j, [cg.hom_matrices(cg.CREG, E, F)
                                                 for E, F in pairs], autos)
    for (E, F), h in zip(pairs, got):
        assert np.array_equal(h, cg.hom_matrices(cg.a_n(2), E, F))


def test_analyze_filters_the_pairs_sizes_leave_open(monkeypatch):
    # A4xA4 at p=2: An(2) lies strictly between A and Aprime on some
    # pairs, which are filtered; no hom-set is searched from its
    # definition, and An(3) is read off An(2), which has A's sizes
    filtered = []
    inner_filter = cg._conjugations_on

    def filtering(catalog, n, *args):
        filtered.append(n)
        return inner_filter(catalog, n, *args)

    monkeypatch.setattr(cg, "_conjugations_on", filtering)
    monkeypatch.setattr(cg, "hom_matrices", None)
    report = analyze_report(A4xA4, 2)
    assert report["verdicts"]["an_collapse"] == 2
    assert filtered and set(filtered) == {2}
    assert report["kinds"]["An(2)"]["hom_sizes"] != report["kinds"]["Aprime"]["hom_sizes"]


def test_an_reads_the_same_on_a_cold_and_a_warm_catalog(monkeypatch):
    # A4xA4 at p=2: An(3) on a catalog with nothing built is read off
    # An(2), built first; after analyze's default kinds, off what they
    # left in the cache; both are its definition
    cold, warm = enumerate_elabs(A4xA4, 2), []

    def recorded(*args):
        warm.append(enumerate_elabs(*args))
        return warm[-1]

    reps = cold.rank_reps(4).tolist()
    assert reps and not cold.homs
    got = {(i, j): cg.build_category(cg.a_n(3), cold).hom(i, j)
           for i, j in itertools.product(reps, repeat=2)}
    monkeypatch.setattr(cli, "enumerate_elabs", recorded)
    analyze_report(A4xA4, 2)
    assert len(warm) == 1 and warm[0].homs
    for (i, j), h in got.items():
        want = cg.hom_matrices(cg.a_n(3), cold.subgroups[i], cold.subgroups[j])
        assert np.array_equal(h, want)
        assert np.array_equal(cg.build_category(cg.a_n(3), warm[0]).hom(i, j), want)


def test_an_from_its_definition_takes_the_subspaces_a_block_at_a_time():
    # regular (Z/2)^7: 2,667 subspaces of rank 2, each with 128
    # conjugators; listing them all at once peaks at 32 MiB
    G = close_generators(128, [[x ^ (1 << k) for x in range(128)] for k in range(7)])
    V = ElabSubgroup.from_element_indices(G, 2, range(len(G)))
    want = cg.hom_matrices(cg.A, V, V)
    tracemalloc.start()
    try:
        got = cg.hom_matrices(cg.a_n(2), V, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 16 * 2 ** 20
