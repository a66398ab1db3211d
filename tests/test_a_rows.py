"""A hom-sets built a row at a time by Quillen's factorization.

Each row (every A hom-set out of one class representative, the others
carried) is checked against the pairwise construction hom_matrices keeps
for callers without a catalog,
against the count |Hom_A(E, F)| = #{conjugates of E inside F} * |Aut_A(E)|
with containment read off element sets, and against the Weyl image of
the brute-force oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from brute_force import weyl_image
from elabcat import categories as cg
from elabcat.elabs import enumerate_elabs
from elabcat.errors import CapExceeded
from elabcat.groups import close_generators
from test_hom_cache import A4, S6, small_groups


@given(G=small_groups(), p=st.sampled_from([2, 3]))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_rows_match_pairwise_homs_and_counts(G, p):
    catalog = enumerate_elabs(G, p)
    assume(len(catalog) <= 80)
    rows = cg.build_category(cg.A, catalog).hom_dict()
    # a second catalog whose rows are built one source at a time
    lazy = cg.build_category(cg.A, enumerate_elabs(G, p))
    sets = [frozenset(E.elements) for E in catalog.subgroups]
    for i, E in enumerate(catalog.subgroups):
        aut = len(weyl_image(G, E))
        conjugates = [sets[k] for k, c in enumerate(catalog.class_of)
                      if c == catalog.class_of[i]]
        for j, F in enumerate(catalog.subgroups):
            want = cg.hom_matrices(cg.A, E, F)
            assert np.array_equal(rows.get((i, j), want[:0]), want)
            assert np.array_equal(lazy.hom(i, j), want)
            assert lazy.hom(i, j).shape[1] == E.rank
            assert len(want) == sum(S <= sets[j] for S in conjugates) * aut
    # rows out of the representatives that map into a larger rank only:
    # every other hom-set is carried, or an isomorphism
    assert sorted(i for _kind, i in catalog.rows) == [
        r for r in sorted(catalog.class_reps) if not catalog.maximal[r]]


def test_s6_rows_conjugate_once_per_class(monkeypatch):
    catalog = enumerate_elabs(close_generators(6, S6, name="S6"), 2)
    calls = []
    inner = cg._conjugation_images

    def counting(G, elems, F):
        calls.append((tuple(elems), F.elements))
        return inner(G, elems, F)

    monkeypatch.setattr(cg, "_conjugation_images", counting)
    monkeypatch.setattr(cg, "hom_matrices", None)      # never reached for A
    homs = cg.build_category(cg.A, catalog).hom_dict()
    reps = [catalog.subgroups[r] for r in catalog.class_reps]
    # one call per representative; the trivial one's returns its one map,
    # the empty one, without a conjugation
    assert sorted(calls) == sorted((E.basis, E.elements) for E in reps)
    assert sum(map(len, homs.values())) == 53146
    # An(n) is A out of objects of rank at most n: the same cached arrays
    an5 = cg.build_category(cg.a_n(5), catalog).hom_dict()
    assert an5.keys() == homs.keys() and all(an5[k] is homs[k] for k in homs)


def test_row_is_refused_on_its_exact_total(monkeypatch):
    # A4 at p=2: the row out of a rank-1 subgroup holds 6 maps, one into
    # each of its three conjugates and three into the Klein four-group
    catalog = enumerate_elabs(close_generators(4, A4, name="a4"), 2)
    rep = catalog.class_reps[1]
    monkeypatch.setenv("ELABCAT_HOM_COUNT_CAP", "5")
    with pytest.raises(CapExceeded, match="^the A hom-sets out of 1 objects hold 6 maps, "):
        cg.build_category(cg.A, catalog).hom(rep, len(catalog) - 1)
    monkeypatch.setenv("ELABCAT_HOM_COUNT_CAP", "6")
    assert len(cg.build_category(cg.A, catalog).hom(rep, len(catalog) - 1)) == 3
