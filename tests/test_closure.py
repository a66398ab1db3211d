"""Closure: fixed points and laws on A4, the semi-naive closure against the
worklist oracle and an independent closedness check on random groups,
exact hom keys, and golden CLI reports frozen from the worklist closure.
"""

from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from brute_force import (brute_closure, codes, injective_oracle, matrices,
                         restriction, subgroups_of)
from elabcat import categories as cg
from elabcat import gallery
from elabcat.cli import main
from elabcat.elabs import enumerate_elabs
from elabcat.errors import ClosureGuardError
from elabcat.fpmat import mat_inv, mat_mul
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


@pytest.mark.parametrize("make", [a4_grow, gl3_2_grow])
def test_each_composable_pair_is_multiplied_once(make, monkeypatch):
    # every hom is new in exactly one round, so the closure keys each seed
    # hom, product, corestriction and inverse once: no more, no fewer; the
    # guard keys each A-morphism once more, to match it against the seed
    keyed = []
    real = cg._hom_keys
    monkeypatch.setattr(cg, "_hom_keys",
                        lambda cols, *rest: keyed.append(len(cols)) or real(cols, *rest))
    C = make()
    catalog, p = C.catalog, C.catalog.prime
    closed = matrices(cg.closure(C))
    into, out_of = Counter(), Counter()
    for (i, j), mats in closed.items():
        out_of[i] += len(mats)
        into[j] += len(mats)
    subs_of = subgroups_of(catalog)
    corestrictions = inverses = 0
    for (i, j), mats in closed.items():
        E, F = catalog.subgroups[i], catalog.subgroups[j]
        inverses += len(mats) if E.rank == F.rank > 0 else 0
        corestrictions += sum(restriction(E, F, E, catalog.subgroups[t], M, p) is not None
                              for M in mats for t in subs_of[j] if t != j)
    seed = sum(map(len, C.hom_dict().values()))
    guard = sum(map(len, cg.build_category(cg.A, catalog).hom_dict().values()))
    products = sum(into[j] * out_of[j] for j in range(len(catalog)))
    assert sum(keyed) == guard + seed + products + corestrictions + inverses


class TestHomKeys:
    def test_int64_when_it_fits(self):
        assert cg._key_dtype(2, 3, 271) is np.int64

    def test_exact_past_int64(self):
        # 8 x 8 over F_2: a matrix code has 64 binary places
        dtype = cg._key_dtype(2, 8, 3)
        assert dtype is object
        cols = np.array([[255] * 8, [255] * 7 + [127], [0] * 7 + [128]])
        dom, cod = np.array([2, 0, 1]), np.array([1, 2, 0])
        keys = cg._hom_keys(cols, dom, cod, 2 ** 8, 3, dtype)
        codes = [2 ** 64 - 1, 2 ** 63 - 1, 2 ** 63]
        assert keys.tolist() == [(c * 3 + d) * 3 + e
                                 for c, d, e in zip(codes, dom.tolist(), cod.tolist())]
        back = cg._decode(keys, 2 ** 8, 8, 3)
        for want, got in zip((dom, cod, cols), back):
            assert (got == want).all()

    def test_closure_with_python_int_keys(self, monkeypatch):
        C = gl3_2_grow()
        want = matrices(cg.closure(C))
        monkeypatch.setattr(cg, "_key_dtype", lambda *args: object)
        assert matrices(cg.closure(C)) == want


@pytest.mark.parametrize("report", sorted(p.name for p in GOLDEN.glob("*.closure.json")))
def test_golden_closure_report(report, capsys):
    # frozen from the worklist closure, which brute_force.py keeps
    stem = report[:-len(".closure.json")]
    group = stem.rsplit("-p2-", 1)[0]
    assert main(["closure", str(GOLDEN / f"{group}.group.json"), "--prime", "2",
                 "--category", str(GOLDEN / f"{stem}.category.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / report).read_text()
