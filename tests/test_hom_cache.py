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
        # a cyclic E: one conjugator for its generator conjugates E
        for kind in (cg.APRIME, cg.aprime_d(1)):
            assert cg.canonical(kind, 1) == cg.A
        assert cg.canonical(cg.a_n(0), 1) == cg.CREG
        assert cg.canonical(cg.aprime_d(2), 1) == cg.aprime_d(2)
        # the trivial E: every kind holds only the empty map
        for kind in (cg.A, cg.APRIME, cg.CREG, cg.a_n(0), cg.a_n(3), cg.aprime_d(1),
                     cg.aprime_d(2)):
            assert cg.canonical(kind, 0) == cg.A

    def test_bad_divisor_is_refused_before_the_canonical_form(self):
        catalog = enumerate_elabs(close_generators(4, A4), 2)
        E = catalog.subgroups[0]
        assert E.rank == 0 and cg.canonical(cg.aprime_d(3), 0) == cg.A
        with pytest.raises(ValueError, match="does not divide"):
            cg.hom_matrices(cg.aprime_d(3), E, E)
        assert len(cg.hom_matrices(cg.aprime_d(1), E, E)) == 1

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


@pytest.fixture
def built(monkeypatch):
    """Every (canonical kind, domain, codomain) whose hom-set _isos
    builds, rather than finds in the catalog's cache."""
    calls = Counter()
    inner = cg._isos

    def building(catalog, kind, i, j):
        for a, b in zip(i.tolist(), j.tolist()):
            if (kind, a, b) not in catalog.homs:
                E, F = catalog.subgroups[a], catalog.subgroups[b]
                calls[(cg.canonical(kind, E.rank), E.elements, F.elements)] += 1
        return inner(catalog, kind, i, j)

    monkeypatch.setattr(cg, "_isos", building)
    return calls


@pytest.fixture
def searched(monkeypatch):
    """(domain rank, codomain rank) of every pair basis_search searches."""
    pairs = []
    inner = cg.basis_search

    def searching(p, dom, cod, r, s):
        pairs.extend([(r, s)] * len(dom))
        return inner(p, dom, cod, r, s)

    monkeypatch.setattr(cg, "basis_search", searching)
    return pairs


def test_analyze_computes_each_hom_set_once(built, searched):
    analyze_report(close_generators(6, S6, name="S6"), 2)
    assert built
    assert max(built.values()) == 1
    # An(2) is read off the A and Aprime hom-sets: every search is Aprime's
    assert {kind.tag for kind, _, _ in built} == {"A", "Aprime", "An"}
    assert len(searched) == sum(n for (kind, _, _), n in built.items() if kind.tag == "Aprime")


@pytest.mark.parametrize("name, p, calls", [("z2-5", 2, 342), ("z3-4", 3, 382),
                                            ("a4xa4", 2, 12)])
def test_analyze_searches_only_between_equal_ranks(searched, name, p, calls):
    # every other hom-set is an isomorphism carried into a larger rank; at
    # rank 0 every kind, and at rank 1 Aprime, is A, which is not searched:
    # on (Z/2)^5 only Aprime's 342 automorphism groups of ranks 2 to 5, on
    # (Z/3)^4 those of ranks 2 to 4 and AprimeD(2)'s of ranks 1 to 4
    analyze_report(load_group(str(GOLDEN / f"{name}.group.json")), p)
    assert len(searched) == calls
    assert all(r == s for r, s in searched)


def test_closure_reuses_loaded_base_homs(counted, monkeypatch, tmp_path, capsys):
    # the closure command reads A's isomorphisms between representatives
    # of one rank, which it builds without hom_matrices; it builds no row
    # into a larger rank and never lists its input or its result pair by
    # pair
    catalogs, rows = [], Counter()
    inner_rows, inner_catalog = cg._rows, cli.enumerate_elabs

    def recorded(*args):
        catalogs.append(inner_catalog(*args))
        return catalogs[-1]

    def counting(C, i):
        rows[i] += 1
        return inner_rows(C, i)

    def listing(*args, **kwargs):
        raise AssertionError("hom_dict called")

    monkeypatch.setattr(cli, "enumerate_elabs", recorded)
    monkeypatch.setattr(cg, "_rows", counting)
    monkeypatch.setattr(cg.SubgroupCategory, "hom_dict", listing)
    group, category = tmp_path / "a4.json", tmp_path / "cat.json"
    group.write_text(json.dumps({"name": "a4", "degree": 4, "generators": A4}))
    # the Klein four-group's swap, an explicit map beside the base kind
    category.write_text(json.dumps({"base_kind": "A", "homs": [
        {"domain": [0, 3, 8, 11], "codomain": [0, 3, 8, 11],
         "matrices": [[[0, 1], [1, 0]]]}]}))
    assert cli.main(["closure", str(group), "--prime", "2",
                     "--category", str(category)]) == 0
    assert json.loads(capsys.readouterr().out)["hom_count_after"] == 29
    assert len(catalogs) == 1
    assert not counted
    assert not rows


@pytest.mark.parametrize("entry", gallery.entry_names())
def test_gallery_computes_each_hom_set_once(counted, entry):
    assert gallery.verify_gallery(gallery.load_entry(entry)).ok
    assert max(counted.values(), default=1) == 1
