"""An(n) hom-sets read off the cached A and Aprime hom-sets.

A <= An(n) <= Aprime, so a category over a catalog takes A's hom-set
where the A and Aprime sizes agree and otherwise keeps the Aprime maps
whose restriction to every rank-n member is an A map (or those of An(m),
m < n, when already built).  Checked here: that construction against
hom_matrices, which builds An(n) from its definition alone, on every
representatives' pair, the inclusion chain on the same arrays, and which
pairs analyze filters.
"""

import itertools
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from elabcat import categories as cg
from elabcat.cli import analyze_report, load_group
from elabcat.elabs import ElabCatalog, enumerate_elabs, p_rank
from test_constructive_homs import S3xS3, S4xS2
from test_hom_cache import small_groups

GOLDEN = Path(__file__).resolve().parent / "golden"
A4xA4 = load_group(str(GOLDEN / "a4xa4.group.json"))


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


def test_analyze_filters_the_pairs_sizes_leave_open(monkeypatch):
    # A4xA4 at p=2: An(2) lies strictly between A and Aprime on some
    # pairs, which are filtered; no hom-set is searched from its
    # definition, and An(3) is read off An(2), which has A's sizes
    filtered = []
    inner_filter = ElabCatalog.conjugations_on

    def filtering(catalog, n, *args):
        filtered.append(n)
        return inner_filter(catalog, n, *args)

    monkeypatch.setattr(ElabCatalog, "conjugations_on", filtering)
    monkeypatch.setattr(cg, "hom_matrices", None)
    report = analyze_report(A4xA4, 2)
    assert report["verdicts"]["an_collapse"] == 2
    assert filtered and set(filtered) == {2}
    assert report["kinds"]["An(2)"]["hom_sizes"] != report["kinds"]["Aprime"]["hom_sizes"]
