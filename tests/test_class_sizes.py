"""Hom-set sizes from one isomorphism classification per distinct kind.

iso_classes tests each class only against the least class of each
isomorphism class with its sorted label row, a rank at a time;
class_sizes and every same-rank question read it.  Checked here: the
mask against the per-pair Counter prune and the generate-and-test
oracle, iso_classes against the isomorphisms between representatives,
class_sizes against every pair's hom_matrices and the dense I @ M (M
counted from element sets), hom_count and hom_dict against every member
pair's hom, the hom caches' keys against the class representatives,
maximal_objects and categories_equal against their pairwise
oracles, and the calls analyze makes on (Z/2)^5.
"""

import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from brute_force import (brute_hom_sets, class_inclusions, codes, counter_pruned,
                         injective_oracle, pairwise_equal, pairwise_maximal_objects)
from elabcat import categories as cg
from elabcat.cli import analyze_report, load_group
from elabcat.elabs import enumerate_elabs, p_rank
from elabcat.fpmat import injective_count
from elabcat.groups import close_generators
from test_constructive_homs import S3xS3, S4xS2
from test_hom_cache import small_groups

GOLDEN = Path(__file__).resolve().parent / "golden"


def affine7(a):
    """The translations of F_7 and x -> a x: Z/7 and its extensions by
    the subgroup of units that a generates."""
    return close_generators(7, [[(x + 1) % 7 for x in range(7)], [a * x % 7 for x in range(7)]])


@st.composite
def catalogs(draw):
    """The catalog of a small group at p in {2, 3, 5, 7}: a subgroup of S5
    or S6, and at p = 7, where those have no 7-torsion, a subgroup of
    AGL(1, 7) holding the translations."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    G = affine7(draw(st.integers(1, 6))) if p == 7 else draw(small_groups())
    catalog = enumerate_elabs(G, p)
    assume(len(catalog) <= 60)
    return catalog


def kinds_of(catalog):
    """Every kind at the catalog's prime: A, Aprime, each An(n), each
    AprimeD(d) with d > 1 and Creg."""
    p = catalog.prime
    return ([cg.A, cg.APRIME, cg.CREG] + [cg.a_n(n) for n in range(p_rank(catalog) + 1)]
            + [cg.aprime_d(d) for d in range(2, p) if (p - 1) % d == 0])


@given(catalog=catalogs())
@example(catalog=enumerate_elabs(S3xS3, 3))
@example(catalog=enumerate_elabs(S4xS2, 2))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_mask_prunes_only_empty_hom_sets(catalog):
    reps = [catalog.subgroups[r] for r in catalog.class_reps]
    for kind in kinds_of(catalog):
        counts = [cg.class_counts(E, kind)[1] for E in reps]
        sizes = dense_sizes(cg.build_category(kind, catalog))
        for (x, E), (y, F) in itertools.product(enumerate(reps), repeat=2):
            pruned = not (counts[x] <= counts[y]).all()
            assert pruned == counter_pruned(kind, E, F), kind.label()
            if pruned:
                assert brute_hom_sets([kind], E, F) == [[]], kind.label()
            assert sizes[x, y] == len(cg.hom_matrices(kind, E, F)), kind.label()


def dense_sizes(C):
    """C.class_sizes() as a dense (classes, classes) array, zero off its
    keys."""
    k = C.catalog.class_count()
    dense = np.zeros((k, k), dtype=np.int64)
    np.put(dense, *C.class_sizes())
    return dense


def random_maps(data, catalog):
    """A few random injective maps on pairs of objects of positive rank."""
    n, p, ranks = len(catalog), catalog.prime, catalog.ranks()
    pairs = [(i, j) for i in range(n) for j in range(n) if 1 <= ranks[i] <= ranks[j]]
    homs = {}
    for i, j in data.draw(st.lists(st.sampled_from(pairs), max_size=6) if pairs
                          else st.just([])):
        M = data.draw(st.sampled_from(injective_oracle(p, ranks[j], ranks[i])))
        homs.setdefault((i, j), []).append(codes(M, p))
    return cg.explicit_category(catalog, homs).maps


def dense_class_sizes(C, kind):
    """(I, I @ M), the sizes class_sizes holds, built densely: I[x, y] the
    isomorphisms rep x -> rep y, from hom_matrices for a kind and from the
    base's hom-sets for a given or empty base, on every pair of one rank,
    and M the class inclusions counted from element sets."""
    catalog = C.catalog
    reps = catalog.class_reps.tolist()
    I = np.zeros((len(reps), len(reps)), dtype=np.int64)
    for (x, i), (y, j) in itertools.product(enumerate(reps), repeat=2):
        if catalog.ranks()[i] == catalog.ranks()[j]:
            E, F = catalog.subgroups[i], catalog.subgroups[j]
            I[x, y] = len(C._base_hom(i, j) if kind is None else cg.hom_matrices(kind, E, F))
    return I, I @ class_inclusions(catalog)


@given(catalog=catalogs(), data=st.data())
@example(catalog=enumerate_elabs(S3xS3, 3), data=None)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_iso_classes_match_the_hom_sets_between_representatives(catalog, data):
    maps = random_maps(data, catalog) if data is not None else {}
    cases = [(cg.build_category(kind, catalog), kind) for kind in kinds_of(catalog)]
    cases += [(cg.closure(cg.SubgroupCategory(catalog, cg.A, maps)), None),   # a given base
              (cg.SubgroupCategory(catalog, None, maps), None)]                # an empty one
    for C, kind in cases:
        I, sizes = dense_class_sizes(C, kind)
        aut, first = C.iso_classes()
        assert aut.tolist() == I.diagonal().tolist(), C.provenance
        assert first.tolist() == [next((y for y in range(len(I)) if I[y, x]), x)
                                  for x in range(len(I))], C.provenance
        assert dense_sizes(C).tolist() == sizes.tolist(), C.provenance
        keys, got = C.class_sizes()
        assert (np.diff(keys) > 0).all() and (got > 0).all(), C.provenance
        n = len(catalog)
        want = {(i, j): C.hom(i, j) for i in range(n) for j in range(n)}
        assert C.hom_count() == sum(map(len, want.values())), C.provenance
        # row-major, and no empty pair listed; a pair off the
        # representatives is carried again at each read, read-only each time
        got = C.hom_dict()
        assert list(got) == [key for key, maps in want.items() if len(maps)], C.provenance
        for key, maps in got.items():
            again = C.hom(*key)
            assert np.array_equal(maps, want[key]) and np.array_equal(maps, again), key
            assert not (maps.flags.writeable or want[key].flags.writeable
                        or again.flags.writeable), key
    # only the hom-sets between class representatives are kept
    reps = set(catalog.class_reps.tolist())
    assert all({i, j} <= reps for _, i, j in itertools.chain(
        catalog.homs, *(C._base for C, _ in cases)))


def test_iso_classes_reach_past_the_first_class_of_a_row():
    # S3 x S3 at p=2: three classes of order-2 subgroups, whose counts rows
    # are equal in a given base; a closure that joins the last two makes
    # the third isomorphic to the second, not to the first
    catalog = enumerate_elabs(S3xS3, 2)
    reps = catalog.class_reps.tolist()
    x, y, z = [c for c, i in enumerate(reps) if catalog.ranks()[i] == 1]
    C = cg.closure(cg.SubgroupCategory(catalog, cg.A, {(reps[y], reps[z]): np.array([[1]])}))
    assert C.iso_classes()[1][[x, y, z]].tolist() == [x, y, y]
    assert dense_sizes(C).tolist() == dense_class_sizes(C, None)[1].tolist()


@given(catalog=catalogs(), data=st.data())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_maximal_objects_match_the_pairwise_oracle(catalog, data):
    kinds = kinds_of(catalog)
    maps = random_maps(data, catalog)
    cases = [cg.build_category(kind, catalog) for kind in kinds]
    cases += [cg.SubgroupCategory(catalog, None, maps),     # no base
              cg.SubgroupCategory(catalog, data.draw(st.sampled_from(kinds)), maps),
              cg.closure(cg.SubgroupCategory(catalog, cg.A, maps))]
    for C in cases:
        assert cg.maximal_objects(C) == pairwise_maximal_objects(C), C.provenance


@given(catalog=catalogs(), data=st.data())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_categories_equal_matches_a_pairwise_comparison(catalog, data):
    kinds = kinds_of(catalog)
    for _ in range(3):
        kind1, kind2 = data.draw(st.sampled_from(kinds)), data.draw(st.sampled_from(kinds))
        got = cg.categories_equal(kind1, kind2, catalog)
        assert (None if got.equal else (got.domain_class, got.codomain_class, got.matrix,
                                        got.only_in)) == pairwise_equal(kind1, kind2, catalog)


def test_categories_equal_on_kinds_that_are_not_nested():
    # Z/7 acting regularly: each element is its own class, so AprimeD(2)
    # allows x -> x^t for t = 1, 6 and AprimeD(3) for t = 1, 2, 4
    catalog = enumerate_elabs(affine7(1), 7)
    d2, d3 = cg.aprime_d(2), cg.aprime_d(3)
    for kind1, kind2 in ((d2, d3), (d3, d2)):
        got = cg.categories_equal(kind1, kind2, catalog)
        assert (got.domain_class, got.codomain_class, got.matrix, got.only_in) == (
            1, 1, ((2,),), "AprimeD(3)")
        assert pairwise_equal(kind1, kind2, catalog) == (1, 1, ((2,),), "AprimeD(3)")


@given(G=small_groups(), data=st.data())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_categories_equal_walks_only_equal_ranks(G, data):
    # kinds that are not nested at p = 3: the equal-rank walk finds the
    # pair and the witness that a walk over all pairs, row-major, finds
    catalog = enumerate_elabs(G, 3)
    assume(len(catalog) <= 60)
    kinds = [k for k in kinds_of(catalog) if k not in (cg.A, cg.CREG, cg.a_n(0))]
    for _ in range(3):
        kind1, kind2 = data.draw(st.sampled_from(kinds)), data.draw(st.sampled_from(kinds))
        got = cg.categories_equal(kind1, kind2, catalog)
        assert (None if got.equal else (got.domain_class, got.codomain_class, got.matrix,
                                        got.only_in)) == pairwise_equal(kind1, kind2, catalog)


def test_categories_equal_builds_no_row(monkeypatch):
    # S7 at p=3: Aprime and AprimeD(2) agree, and only the isomorphisms
    # between representatives of one rank are read to show it
    catalog = enumerate_elabs(load_group(str(GOLDEN / "sym7.group.json")), 3)

    def row(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(cg, "_rows", row)
    assert cg.categories_equal(cg.APRIME, cg.aprime_d(2), catalog).equal


@pytest.mark.parametrize("kind1, kind2", [(cg.A, cg.CREG), (cg.CREG, cg.A),
                                          (cg.APRIME, cg.CREG)])
def test_categories_equal_where_one_hom_set_is_empty(kind1, kind2):
    # S4 x S2 at p=2: Creg joins classes of involutions that A keeps
    # apart, so the first pair that differs has an empty A hom-set
    catalog = enumerate_elabs(S4xS2, 2)
    got = cg.categories_equal(kind1, kind2, catalog)
    assert not got.equal
    assert (got.domain_class, got.codomain_class, got.matrix, got.only_in) == pairwise_equal(
        kind1, kind2, catalog)


def test_analyze_reads_each_unpruned_pair_once(monkeypatch):
    # regular (Z/2)^5: 374 subgroups, each its own class, 5,769 of the
    # 139,876 pairs of them nested, the only ones a map of these kinds joins
    G = load_group(str(GOLDEN / "z2-5.group.json"))
    built, reads, searched = Counter(), Counter(), []
    inner_isos, inner_search = cg._isos, cg.basis_search

    def building(catalog, kind, i, j):
        for a, b in zip(i.tolist(), j.tolist()):
            if (kind, a, b) not in catalog.homs:
                E, F = catalog.subgroups[a], catalog.subgroups[b]
                assert not counter_pruned(kind, E, F)
                built[kind, E.elements, F.elements] += 1
        return inner_isos(catalog, kind, i, j)

    def searching(p, dom, *args):
        searched.append(len(dom))
        return inner_search(p, dom, *args)

    def filtering(*args):
        raise AssertionError("An(n) filtered where A and Aprime sizes agree")

    def reading(name):
        method = getattr(cg.SubgroupCategory, name)

        def read(self, i, j):
            reads[name] += 1
            return method(self, i, j)
        return read

    monkeypatch.setattr(cg, "_isos", building)
    monkeypatch.setattr(cg, "basis_search", searching)
    # A = Aprime on every pair, so the sizes decide every An(n) hom-set
    monkeypatch.setattr(cg, "_conjugations_on", filtering)
    for name in ("hom", "_base_hom"):
        monkeypatch.setattr(cg.SubgroupCategory, name, reading(name))
    report = analyze_report(G, 2)
    assert report["catalog"]["size"] == 374
    assert max(built.values()) == 1
    # An(n) is read off A and Aprime: every pair searched is Aprime's
    assert sum(searched) == sum(n for (kind, _, _), n in built.items() if kind == cg.APRIME)
    assert reads["hom"] + reads["_base_hom"] < 10 ** 5
    # the verdicts compare nested kinds, A with Aprime and An(1), by size
    assert reads["hom"] == 0


@pytest.mark.parametrize("G, p", [
    (close_generators(6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]), 2),   # S6
    (affine7(3), 7)])                                                    # AGL(1, 7)
@pytest.mark.parametrize("kind", [cg.CREG, cg.a_n(0)])
def test_creg_sizes_are_counted_not_built(monkeypatch, G, p, kind):
    def refuse(*args):
        raise AssertionError("hom_matrices called")

    catalog = enumerate_elabs(G, p)
    monkeypatch.setattr(cg, "hom_matrices", refuse)
    sizes = dense_sizes(cg.build_category(kind, catalog))
    ranks = [catalog.subgroups[r].rank for r in catalog.class_reps]
    assert sizes.tolist() == [[injective_count(p, s, r) for s in ranks] for r in ranks]


@pytest.mark.parametrize("kind", [cg.A, cg.APRIME, cg.a_n(2), cg.CREG])
def test_sizes_are_shared_by_every_category_of_a_kind(kind):
    # Z/2 x Z/2 at p=2, p-rank 2: An(2) is A, An(1) Aprime and An(0) Creg
    # at every rank, so each pair shares the one entry of its canonical forms
    catalog = enumerate_elabs(close_generators(6, [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 5, 4]]), 2)
    alias = {cg.A: cg.a_n(2), cg.APRIME: cg.a_n(1), cg.a_n(2): cg.A, cg.CREG: cg.a_n(0)}[kind]
    C = cg.build_category(kind, catalog)
    sizes, classes = C.class_sizes(), C.iso_classes()
    assert cg.build_category(kind, catalog).class_sizes() is sizes
    D = cg.build_category(alias, catalog)
    assert D.class_sizes() is sizes and D.iso_classes() is classes
    assert not any(a.flags.writeable for a in (*sizes, *classes))
    assert len(catalog.sizes) == 1


@given(catalog=catalogs())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_one_sizes_entry_per_canonical_tuple(catalog):
    kinds = kinds_of(catalog) + [cg.aprime_d(1)]
    tuples = {tuple(cg.canonical(k, r) for r in range(p_rank(catalog) + 1)) for k in kinds}
    for kind in kinds:
        cg.build_category(kind, catalog).class_sizes()
    assert len(catalog.sizes) == len(tuples)
