"""One hom-set cache per catalog, keyed by canonical kind.

Golden analyze reports pin the output; a property test checks every
kind identity behind the canonical keys against uncached hom_matrices;
call counting checks that no (canonical kind, pair) is computed twice;
every cached hom-set is held in the one form: an int64 array of column
codes with distinct rows in lexicographic order.
"""

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import numpy as np

from elabcat import categories as cg
from elabcat import cli, gallery
from elabcat.cli import _dump, analyze_report, load_category, load_group
from elabcat.elabs import enumerate_elabs, p_rank
from elabcat.groups import close_generators

GOLDEN = Path(__file__).resolve().parent / "golden"
S6 = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
A4 = [[1, 0, 3, 2], [2, 0, 1, 3]]


@pytest.mark.parametrize("report", sorted(p.name for p in GOLDEN.glob("*.report.json")))
def test_golden_analyze_report(report):
    name, prime = report[:-len(".report.json")].rsplit("-p", 1)
    doc = analyze_report(load_group(str(GOLDEN / f"{name}.group.json")), int(prime))
    doc.pop("timing")
    assert _dump(doc, False) + "\n" == (GOLDEN / report).read_text()


class TestCanonical:
    def test_identities(self):
        assert cg.canonical(cg.a_n(0), 2) == cg.CREG
        assert cg.canonical(cg.a_n(1), 2) == cg.APRIME
        assert cg.canonical(cg.aprime_d(1), 2) == cg.APRIME
        assert cg.canonical(cg.a_n(2), 2) == cg.A
        assert cg.canonical(cg.a_n(5), 3) == cg.A
        assert cg.canonical(cg.a_n(1), 1) == cg.A

    def test_other_kinds_are_their_own_form(self):
        for kind in (cg.A, cg.APRIME, cg.CREG, cg.aprime_d(2), cg.a_n(2)):
            assert cg.canonical(kind, 3) == kind

    def test_categories_share_the_catalog_cache(self):
        catalog = enumerate_elabs(close_generators(4, A4), 2)
        V = len(catalog) - 1
        an1 = cg.build_category(cg.a_n(1), catalog).hom(V, V)
        assert cg.build_category(cg.APRIME, catalog).hom(V, V) is an1
        assert set(catalog.homs) == {(cg.APRIME, V, V)}


@st.composite
def small_groups(draw):
    """A subgroup of S5 or S6 generated by two random permutations."""
    n = draw(st.sampled_from([5, 6]))
    gens = [draw(st.permutations(range(n))) for _ in range(2)]
    return close_generators(n, gens)


# S6 itself at p=2 has 271 subgroups (73k pairs, minutes per example);
# its reports are pinned by the call-count test and perfbench instead
@given(G=small_groups(), p=st.sampled_from([2, 3]))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_canonical_kinds_agree_with_uncached_homs(G, p):
    catalog = enumerate_elabs(G, p)
    assume(len(catalog) <= 80)
    aliases = [cg.aprime_d(1)] + [cg.a_n(n) for n in range(p_rank(catalog) + 1)]
    views = [cg.build_category(kind, catalog) for kind in aliases]
    for i, E in enumerate(catalog.subgroups):
        kinds = set(aliases) | {cg.canonical(k, E.rank) for k in aliases}
        for j, F in enumerate(catalog.subgroups):
            direct = {k: cg.hom_matrices(k, E, F) for k in kinds}
            for kind, C in zip(aliases, views):
                assert np.array_equal(direct[cg.canonical(kind, E.rank)], direct[kind])
                assert np.array_equal(C.hom(i, j), direct[kind])


def assert_held_canonically(homs, catalog):
    """Each hom-set i -> j in homs is an int64 (maps, rank i) array of
    column codes below p^(rank j), rows distinct and increasing."""
    p, subgroups = catalog.prime, catalog.subgroups
    for (i, j), cols in homs.items():
        assert cols.dtype == np.int64
        assert cols.ndim == 2 and cols.shape[1] == subgroups[i].rank
        assert ((cols >= 0) & (cols < p ** subgroups[j].rank)).all()
        rows = list(map(tuple, cols.tolist()))
        assert all(a < b for a, b in zip(rows, rows[1:]))


@given(G=small_groups(), p=st.sampled_from([2, 3]))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_analyze_caches_hom_sets_as_sorted_code_arrays(G, p):
    catalogs = []

    def recorded(*args):
        catalogs.append(enumerate_elabs(*args))
        return catalogs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "enumerate_elabs", recorded)
        assume(len(enumerate_elabs(G, p)) <= 80)
        analyze_report(G, p)
    (catalog,) = catalogs
    assert catalog.homs
    assert_held_canonically({(i, j): cols for (_kind, i, j), cols in catalog.homs.items()},
                            catalog)


@pytest.fixture
def counted(monkeypatch):
    """Every (canonical kind, domain, codomain) passed to hom_matrices."""
    calls = Counter()
    inner = cg.hom_matrices

    def counting(kind, E, F):
        calls[(cg.canonical(kind, E.rank), E.elements, F.elements)] += 1
        return inner(kind, E, F)

    monkeypatch.setattr(cg, "hom_matrices", counting)
    return calls


def test_analyze_computes_each_hom_set_once(counted):
    analyze_report(close_generators(6, S6, name="S6"), 2)
    assert counted
    assert max(counted.values()) == 1


def test_closure_reuses_loaded_base_homs(counted, tmp_path):
    catalog = enumerate_elabs(close_generators(4, A4), 2)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"base_kind": "A", "homs": []}))
    cg.closure(load_category(str(path), catalog))
    assert len(counted) == len(catalog) ** 2
    assert max(counted.values()) == 1


@pytest.mark.parametrize("entry", gallery.entry_names())
def test_gallery_computes_each_hom_set_once(counted, entry):
    assert gallery.verify_gallery(gallery.load_entry(entry)).ok
    assert max(counted.values(), default=1) == 1
