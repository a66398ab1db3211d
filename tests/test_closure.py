"""Closure: fixed points and laws on A4, the groupoid closure against the
worklist oracle and an independent closedness check on random groups,
exact isomorphism keys, and golden CLI reports frozen from the worklist
closure.
"""

import itertools
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from brute_force import (brute_closure, codes, injective_oracle, mat_inv, matrices,
                         restriction, subgroups_of)
from elabcat import categories as cg
from elabcat import gallery
from elabcat.cli import load_group, main
from elabcat.elabs import enumerate_elabs
from elabcat.errors import ClosureGuardError
from elabcat.fpmat import mat_mul
from elabcat.groups import close_generators
from test_hom_cache import assert_held_canonically, small_groups

A4_GENS = [(1, 0, 3, 2), (2, 0, 1, 3)]
GOLDEN = Path(__file__).resolve().parent / "golden"


def a4_catalog():
    return enumerate_elabs(close_generators(4, A4_GENS, name="a4"), 2)


def hom_dict(C):
    """Every non-empty hom-set of C as a set of column-code tuples."""
    return {k: set(map(tuple, v.tolist())) for k, v in C.hom_dict().items()}


def with_extra(catalog, extra_matrix):
    return a_category_plus(catalog, [((4, 4), extra_matrix)])


class TestFixedPoints:
    @pytest.mark.parametrize("kind", [cg.A, cg.APRIME, cg.CREG,
                                      cg.a_n(1), cg.a_n(2)])
    def test_kind_is_closed(self, kind):
        cat = a4_catalog()
        C = cg.build_category(kind, cat)
        assert hom_dict(cg.closure(C)) == hom_dict(C)

    def test_closed_on_odd_prime(self):
        cat = enumerate_elabs(close_generators(4, A4_GENS, name="a4"), 3)
        for kind in (cg.A, cg.APRIME, cg.aprime_d(2)):
            C = cg.build_category(kind, cat)
            assert hom_dict(cg.closure(C)) == hom_dict(C)


class TestClosureLaws:
    def test_extensive(self):
        cat = a4_catalog()
        C = with_extra(cat, ((0, 1), (1, 0)))
        closed = cg.closure(C)
        before, after = hom_dict(C), hom_dict(closed)
        for key, homs in before.items():
            assert homs <= after.get(key, set())

    def test_monotone(self):
        cat = a4_catalog()
        small = cg.build_category(cg.A, cat)
        big = with_extra(cat, ((0, 1), (1, 0)))
        c_small, c_big = hom_dict(cg.closure(small)), hom_dict(cg.closure(big))
        for key, homs in c_small.items():
            assert homs <= c_big.get(key, set())

    def test_idempotent(self):
        cat = a4_catalog()
        once = cg.closure(with_extra(cat, ((0, 1), (1, 0))))
        twice = cg.closure(once)
        assert hom_dict(once) == hom_dict(twice)

    def test_extra_automorphism_closes_to_aprime(self):
        cat = a4_catalog()
        closed = cg.closure(with_extra(cat, ((0, 1), (1, 0))))
        target = cg.build_category(cg.APRIME, cat)
        assert hom_dict(closed) == hom_dict(target)

    def test_guard_requires_all_base_homs(self):
        cat = a4_catalog()
        C = cg.explicit_category(cat, {(4, 4): [(1, 2)]})    # the identity
        with pytest.raises(ClosureGuardError):
            cg.closure(C)

    @pytest.mark.parametrize("cuts, message", [
        # (pair, how many of its A-maps to keep), message frozen from the
        # pairwise set comparison the key match replaced
        ({(4, 4): 1, (1, 4): 2}, "input omits 1 conjugation-induced morphism "
                                 "on object pair (1, 4)"),
        ({(4, 4): 1, (1, 4): 0}, "input omits 3 conjugation-induced morphisms "
                                 "on object pair (1, 4)"),
        ({(3, 2): 0, (2, 4): 2}, "input omits 1 conjugation-induced morphism "
                                 "on object pair (2, 4)"),
    ])
    def test_guard_names_first_pair_and_its_count(self, cuts, message):
        cat = a4_catalog()
        homs = dict(cg.build_category(cg.A, cat).hom_dict())
        for pair, keep in cuts.items():
            homs[pair] = homs[pair][:keep]
        with pytest.raises(ClosureGuardError) as e:
            cg.closure(cg.explicit_category(cat, homs))
        assert str(e.value) == message


def check_closed(catalog, seed, closed):
    """closed contains seed and is closed under composition, restriction
    to every pair of catalog subgroups, and inverses of bijective members
    (checked map by map, without the closure's own machinery)."""
    p = catalog.prime
    homs = defaultdict(set, {k: set(v) for k, v in closed.items()})
    for key, mats in seed.items():
        assert set(mats) <= homs[key]
    out_of = defaultdict(list)
    for (i, j), mats in closed.items():
        out_of[i].append((j, mats))
    subs_of = subgroups_of(catalog)
    for (i, j), mats in closed.items():
        E, F = catalog.subgroups[i], catalog.subgroups[j]
        for k, after in out_of[j]:
            assert all(mat_mul(N, M, p) in homs[(i, k)] for M in mats for N in after)
        for M in mats:
            for s in subs_of[i]:
                for t in subs_of[j]:
                    R = restriction(E, F, catalog.subgroups[s], catalog.subgroups[t], M, p)
                    assert R is None or R in homs[(s, t)]
            if E.rank == F.rank:
                assert mat_inv(M, p) in homs[(j, i)]


def check_against_oracle(C):
    seed = matrices(C)
    closed = cg.closure(C)
    assert_held_canonically(closed.hom_dict(), C.catalog)
    got = matrices(closed)
    assert got == brute_closure(C)
    check_closed(C.catalog, seed, got)
    assert matrices(cg.closure(closed)) == got


def a_category_plus(catalog, extra):
    """The A-category of catalog with the extra ((i, j), tuple matrix) maps."""
    homs = defaultdict(set, hom_dict(cg.build_category(cg.A, catalog)))
    for key, M in extra:
        homs[key].add(codes(M, catalog.prime))
    return cg.explicit_category(catalog, homs)


@st.composite
def seeded_categories(draw):
    """An A-category of a small group at p = 2 or 3 plus a few random
    injective maps: one square and one not, when the catalog has such
    pairs, and up to two more anywhere."""
    G = draw(small_groups())
    catalog = enumerate_elabs(G, draw(st.sampled_from([2, 3])))
    assume(len(catalog) <= 50)
    ranks = catalog.ranks()
    pairs = [(i, j) for i in range(len(catalog)) for j in range(len(catalog))
             if 1 <= ranks[i] <= ranks[j]]
    assume(pairs)
    square = [(i, j) for i, j in pairs if ranks[i] == ranks[j]]
    wide = [(i, j) for i, j in pairs if ranks[i] < ranks[j]]
    chosen = [draw(st.sampled_from(side)) for side in (square, wide) if side]
    chosen += draw(st.lists(st.sampled_from(pairs), max_size=2))
    extra = [((i, j), draw(st.sampled_from(
        injective_oracle(catalog.prime, ranks[j], ranks[i])))) for i, j in chosen]
    return a_category_plus(catalog, extra)


@given(C=seeded_categories())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_closure_matches_worklist_oracle(C):
    check_against_oracle(C)


@st.composite
def off_representative_categories(draw):
    """An A-category of a small group at p = 2 or 3 plus one to three
    random injective maps, each on a pair that is not a pair of class
    representatives: the maps the skeleton closure must carry."""
    G = draw(small_groups())
    catalog = enumerate_elabs(G, draw(st.sampled_from([2, 3])))
    assume(len(catalog) <= 50)
    ranks, reps = catalog.ranks(), set(catalog.class_reps)
    pairs = [(i, j) for i in range(len(catalog)) for j in range(len(catalog))
             if 1 <= ranks[i] <= ranks[j] and not {i, j} <= reps]
    assume(pairs)
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    extra = [((i, j), draw(st.sampled_from(
        injective_oracle(catalog.prime, ranks[j], ranks[i])))) for i, j in chosen]
    return a_category_plus(catalog, extra)


@given(C=off_representative_categories())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_skeleton_closure_carries_maps_off_the_representatives(C):
    # the oracle, canonical arrays, closedness and idempotence
    check_against_oracle(C)
    closed, catalog = cg.closure(C), C.catalog
    n, rep = len(catalog), [catalog.class_reps[c] for c in catalog.class_of]
    sizes = {(i, j): len(closed.hom(i, j)) for i in range(n) for j in range(n)}
    assert all(size == sizes[rep[i], rep[j]] for (i, j), size in sizes.items())
    assert closed.hom_count() == sum(sizes.values())
    # row-major, and no empty pair listed
    assert [(key, len(maps)) for key, maps in closed.hom_dict().items()] == [
        (key, size) for key, size in sizes.items() if size]


@st.composite
def based_categories(draw):
    """A category of kind A or Aprime over a small group at p = 2 or 3,
    one random injective map beside it on a pair that is not a pair of
    class representatives, and one A-morphism off the representatives."""
    G = draw(small_groups())
    p = draw(st.sampled_from([2, 3]))
    catalog = enumerate_elabs(G, p)
    assume(len(catalog) <= 40)
    n, ranks, reps = len(catalog), catalog.ranks(), set(catalog.class_reps)
    pairs = [(i, j) for i in range(n) for j in range(n)
             if 1 <= ranks[i] <= ranks[j] and not {i, j} <= reps]
    assume(pairs)
    key = draw(st.sampled_from(pairs))
    M = draw(st.sampled_from(injective_oracle(p, ranks[key[1]], ranks[key[0]])))
    a_homs = cg.build_category(cg.A, catalog).hom_dict()
    off = [k for k in a_homs if not set(k) <= reps]
    cut = draw(st.sampled_from(off))
    return (draw(st.sampled_from([cg.A, cg.APRIME])), catalog, key, codes(M, p),
            cut, draw(st.sampled_from(range(len(a_homs[cut])))))


@given(case=based_categories())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_based_categories_read_through_the_representatives(case):
    kind, catalog, key, extra, cut, drop = case
    subgroups = catalog.subgroups
    C = cg.SubgroupCategory(catalog, kind,
                            cg.explicit_category(catalog, {key: [extra]}).maps)
    # every pair: the kind's hom-set built pair by pair, united with the map
    union = {}
    for i, E in enumerate(subgroups):
        for j, F in enumerate(subgroups):
            want = set(map(tuple, cg.hom_matrices(kind, E, F).tolist()))
            want |= {extra} if (i, j) == key else set()
            assert C.hom(i, j).tolist() == sorted(map(list, want))
            if want:
                union[i, j] = want
    assert C.hom_count() == sum(map(len, union.values()))
    # row-major, and no empty pair listed
    assert [(pair, len(maps)) for pair, maps in C.hom_dict().items()] == [
        (pair, len(maps)) for pair, maps in union.items()]
    assert matrices(cg.closure(C)) == brute_closure(cg.explicit_category(catalog, union))
    # an explicit input without one A-morphism off the representatives
    homs = dict(cg.build_category(cg.A, catalog).hom_dict())
    homs[cut] = np.delete(homs[cut], drop, axis=0)
    with pytest.raises(ClosureGuardError) as e:
        cg.closure(cg.explicit_category(catalog, homs))
    assert str(e.value) == ("input omits 1 conjugation-induced morphism "
                            f"on object pair ({cut[0]}, {cut[1]})")


def changed_by_pairs(C, closed):
    """(i, j, before, after) of every pair whose hom-set closure changes in
    size, read pair by pair in row-major order."""
    n = len(C.catalog)
    sizes = [(i, j, len(C.hom(i, j)), len(closed.hom(i, j))) for i in range(n) for j in range(n)]
    return [size for size in sizes if size[2] != size[3]]


@given(case=based_categories())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_changed_pairs_match_every_member_pair(case):
    # the pairs cmd_closure prints: a kind with a map beside it, and the
    # same maps listed explicitly
    kind, catalog, key, extra = case[:4]
    homs = defaultdict(set, hom_dict(cg.build_category(cg.A, catalog)))
    homs[key].add(extra)
    for C in (cg.SubgroupCategory(catalog, kind,
                                  cg.explicit_category(catalog, {key: [extra]}).maps),
              cg.explicit_category(catalog, homs)):
        closed = cg.closure(C)
        assert cg.changed_pairs(C, closed) == changed_by_pairs(C, closed)


def test_changed_pairs_skip_an_explicit_pair_its_class_pair_outgrows():
    # S4 at p=2: one map from a transposition's line to a double
    # transposition's joins the two classes; every other pair of their
    # members grows from 0 to 1 map, the explicit pair keeps its 1
    catalog = enumerate_elabs(close_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]), 2)
    lines = [k for k, E in enumerate(catalog.subgroups) if E.rank == 1]
    i = lines[0]
    j = next(k for k in lines if catalog.class_of[k] != catalog.class_of[i])
    maps = cg.explicit_category(catalog, {(i, j): [(1,)]}).maps
    for C in (cg.SubgroupCategory(catalog, cg.A, maps),
              a_category_plus(catalog, [((i, j), ((1,),))])):
        closed = cg.closure(C)
        got = cg.changed_pairs(C, closed)
        assert got == changed_by_pairs(C, closed)
        assert len(C.hom(i, j)) == len(closed.hom(i, j)) == 1
        assert (i, j, 0, 1) not in got and (i, j, 1, 1) not in got
        grown = {(s, t) for s, t, before, after in got if (before, after) == (0, 1)}
        cls = catalog.class_of
        assert {(s, t) for s in range(len(catalog)) for t in range(len(catalog))
                if (cls[s], cls[t]) == (cls[i], cls[j])} - grown == {(i, j)}


def test_a_closure_is_classified_from_its_own_keys(monkeypatch):
    # S7 at p=2: the closure of A reads its isomorphism classes off the
    # isomorphisms it holds, with no hom-set read
    catalog = enumerate_elabs(load_group(str(GOLDEN / "sym7.group.json")), 2)
    closed = cg.closure(cg.build_category(cg.A, catalog))
    reads, read = [], cg.SubgroupCategory._base_hom

    def counting(self, i, j):
        reads.append((i, j))
        return read(self, i, j)

    monkeypatch.setattr(cg.SubgroupCategory, "_base_hom", counting)
    aut, first = closed.iso_classes()
    assert not reads
    A = cg.build_category(cg.A, catalog).iso_classes()
    assert aut.tolist() == A[0].tolist() and first.tolist() == A[1].tolist()
    assert closed.hom_count() == 1451178


def a4_grow():
    return a_category_plus(a4_catalog(), [((4, 4), ((0, 1), (1, 0)))])


def gl3_2_grow():
    # the Aprime map that no conjugation induces, as the benchmark adds
    catalog = enumerate_elabs(gallery.build_gl3(2).group, 2)
    verdict = cg.categories_equal(cg.A, cg.APRIME, catalog)
    key = (catalog.class_reps[verdict.domain_class],
           catalog.class_reps[verdict.codomain_class])
    return a_category_plus(catalog, [(key, verdict.matrix)])


class TestFixedExamples:
    def test_a4_grow(self):
        check_against_oracle(a4_grow())

    def test_gl3_2_grow(self):
        check_against_oracle(gl3_2_grow())

    def test_s4_iso_between_classes(self):
        # a transposition and a double transposition generate non-conjugate
        # subgroups, so only the inverse rule maps the second onto the first
        catalog = enumerate_elabs(close_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]), 2)
        lines = [k for k, E in enumerate(catalog.subgroups) if E.rank == 1]
        i = lines[0]
        j = next(k for k in lines if catalog.class_of[k] != catalog.class_of[i])
        check_against_oracle(a_category_plus(catalog, [((i, j), ((1,),))]))


@pytest.mark.parametrize("degree, gens, p", [
    # A4 at p = 3: no element of order 3 is conjugate to its inverse
    (4, [(1, 0, 3, 2), (2, 0, 1, 3)], 3),
    # A5 at p = 2: each Klein four-group has A-automorphisms of order 3 only
    (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 2),
], ids=["A4-p3", "A5-p2"])
def test_every_map_off_the_representatives(degree, gens, p):
    # every injective map that is no A-morphism, alone on a pair of first
    # or last members of two classes but no pair of representatives (the
    # first members): the skeleton closure carries it to them
    catalog = enumerate_elabs(close_generators(degree, gens), p)
    starts, members = catalog.class_table
    ranks = catalog.ranks()
    ends = sorted(set(members[starts[:-1]].tolist() + members[starts[1:] - 1].tolist()))
    base = hom_dict(cg.build_category(cg.A, catalog))
    for i, j in itertools.product(ends, repeat=2):
        if {i, j} <= set(catalog.class_reps) or not 1 <= ranks[i] <= ranks[j]:
            continue
        for M in injective_oracle(p, ranks[j], ranks[i]):
            if codes(M, p) not in base.get((i, j), ()):
                C = a_category_plus(catalog, [((i, j), M)])
                assert matrices(cg.closure(C)) == brute_closure(C)


@pytest.mark.parametrize("make", [a4_grow, gl3_2_grow])
def test_closure_keys_only_isomorphisms(make, monkeypatch):
    # the fixpoint runs on the isomorphisms between class representatives
    # of one rank: it keys no map between ranks, every map it keys is an
    # isomorphism of the result, and each one the result holds beyond A
    # is keyed; a kind base with no map beside it is closed already, and
    # nothing is keyed
    keyed = set()
    real = cg._iso_keys

    def recording(dom, cod, cols):
        keyed.update(zip(dom.tolist(), cod.tolist(), map(tuple, cols.tolist())))
        return real(dom, cod, cols)

    monkeypatch.setattr(cg, "_iso_keys", recording)
    C = make()
    catalog, reps = C.catalog, C.catalog.class_reps
    ranks = [catalog.ranks()[r] for r in reps]
    closed, base = cg.closure(C), cg.build_category(cg.A, catalog)
    assert all(ranks[x] == ranks[y] == len(cols) for x, y, cols in keyed)
    isos = {(x, y): set(map(tuple, closed.hom(reps[x], reps[y]).tolist()))
            for x, y in itertools.product(range(len(reps)), repeat=2) if ranks[x] == ranks[y]}
    assert all(cols in isos[x, y] for x, y, cols in keyed)
    added = {(x, y, cols) for (x, y), maps in isos.items()
             for cols in maps - set(map(tuple, base.hom(reps[x], reps[y]).tolist()))}
    assert added and added <= keyed
    keyed.clear()
    cg.closure(base)
    assert not keyed


class TestHomKeys:
    def test_exact_past_int64(self):
        # 8 x 8 over F_2: a matrix code has 64 binary places
        cols = np.array([[255] * 8, [255] * 7 + [127], [0] * 7 + [128], [255] * 8,
                         [255] * 8])
        dom, cod = np.array([2, 0, 1, 2, 2]), np.array([1, 2, 0, 0, 1])
        keys = cg._iso_keys(dom, cod, cols)
        rows = [(d, c, *m) for d, c, m in zip(dom.tolist(), cod.tolist(), cols.tolist())]
        assert [rows[k] for k in np.argsort(keys, kind="stable")] == sorted(rows)
        assert len(set(keys.tolist())) == len(set(rows)) == 4

    def test_closure_with_python_int_keys(self, monkeypatch):
        # the closure reads its keys only by order and equality
        C = gl3_2_grow()
        want = matrices(cg.closure(C))

        def int_keys(dom, cod, cols):
            keys = np.empty(len(dom), dtype=object)
            keys[:] = [sum(v << (32 * k) for k, v in enumerate(reversed(row)))
                       for row in np.column_stack([dom, cod, cols]).tolist()]
            return keys

        monkeypatch.setattr(cg, "_iso_keys", int_keys)
        assert matrices(cg.closure(C)) == want


def test_closures_over_one_catalog_keep_their_own_rows():
    # S4 at p=2: a map between the lines of a transposition and of a
    # double transposition, non-conjugate, joins their classes, so the two
    # given bases differ on the rows out of those lines into the planes;
    # each builds its rows from its own isomorphisms
    catalog = enumerate_elabs(close_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)]), 2)
    lines = [k for k, E in enumerate(catalog.subgroups) if E.rank == 1]
    i = lines[0]
    j = next(k for k in lines if catalog.class_of[k] != catalog.class_of[i])
    seeds = [a_category_plus(catalog, [((i, j), ((1,),))]), cg.build_category(cg.A, catalog)]
    closed = [cg.closure(C) for C in seeds]
    got = [matrices(C) for C in closed]
    assert any(len(closed[0].hom(i, k)) != len(closed[1].hom(i, k))
               for k, E in enumerate(catalog.subgroups) if E.rank == 2)
    for C, maps in zip(seeds, got):
        assert maps == brute_closure(C)


@pytest.mark.parametrize("kind", [cg.APRIME, cg.a_n(2), cg.aprime_d(2)])
def test_closure_of_a_kind_with_extra_maps_is_idempotent(kind):
    # (Z/3)^3 at p=3, with an automorphism of the top member that no kind
    # holds and a map of a line into a plane beside the kind's base
    catalog = enumerate_elabs(load_group(str(GOLDEN / "z3-3.group.json")), 3)
    top = len(catalog) - 1
    line, plane = catalog.rank_starts[1:3].tolist()     # the first of each rank
    extra = cg.explicit_category(catalog, {
        (top, top): [codes(((0, 1, 0), (1, 0, 0), (0, 0, 1)), 3)],
        (line, plane): [codes(((1,), (1,)), 3)]}).maps
    once = cg.closure(cg.SubgroupCategory(catalog, kind, extra))
    assert hom_dict(cg.closure(once)) == hom_dict(once)
    assert sum(map(len, once.hom_dict().values())) > sum(
        map(len, cg.build_category(kind, catalog).hom_dict().values()))


@pytest.mark.parametrize("report", sorted(p.name for p in GOLDEN.glob("*.closure.json")))
def test_golden_closure_report(report, capsys):
    # frozen from the worklist closure, which brute_force.py keeps
    # (the S5 and S6 reports were frozen from the pairwise A construction,
    # and their classes of more than one member exercise A's transport)
    stem = report[:-len(".closure.json")]
    group, rest = stem.rsplit("-p", 1)
    prime = rest.split("-", 1)[0]
    assert main(["closure", str(GOLDEN / f"{group}.group.json"), "--prime", prime,
                 "--category", str(GOLDEN / f"{stem}.category.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / report).read_text()
