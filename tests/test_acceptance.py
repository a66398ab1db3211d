"""Acceptance gate: one test per criterion in the project checklist.

Every expected value here is frozen from an independent derivation (hand
counts, classical formulas, or literature values recorded in the gallery
fixtures); the tests recompute them from scratch and also enforce the
stated time budget for each criterion.  The last test runs the README's
library example as written.
"""
import json
import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

import numpy as np
import pytest

from elabcat import categories as cg
from elabcat.categories import column_codes, hom_matrices
from elabcat.chern import (dickson_check, p_regular_failures, permutation_character,
                           regular_character, regular_reduced, regular_rep_product,
                           trivial_character)
from elabcat.elabs import enumerate_elabs, p_rank
from elabcat.fppoly import symmetric_reduce
from elabcat.fpmat import gl_generators
from elabcat.gallery import (_orbit_partition, build_cyclic, build_gl3, build_prop10,
                             build_triangular, cyclic_group)
from brute_force import (affine_group, catalog_failures, close_matrix_group,
                         expand_in_elementaries, frobenius_identity_check, is_conjugate_subgroup,
                         make_weights, mat_vec, triangular_group, vec_code,
                         whitney_product_check)
from test_cli import run_cli


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def hom_set(kind, E, F):
    """The kind's hom-set E -> F as a set of column-code tuples."""
    return set(map(tuple, hom_matrices(kind, E, F).tolist()))


def fibre_index(cat, E):
    """The fibre index of a maximal member E, (numerator, denominator)."""
    return cg.fibre_indices(cat)[cat.class_of.item(cat.index_of(E))][2]


def rank_rep(cat, rank):
    for rep in cat.class_reps:
        E = cat.subgroups[rep]
        if E.rank == rank:
            return E
    raise AssertionError(f"no class of rank {rank}")


def test_criterion_01_alt4_kind_gap():
    with budget(1):
        G = affine_group(4)
        cat = enumerate_elabs(G, 2)
        V = rank_rep(cat, 2)
        assert not cg.categories_equal(cg.A, cg.APRIME, cat).equal
        assert len(hom_matrices(cg.A, V, V)) == 3
        assert len(hom_matrices(cg.APRIME, V, V)) == 6
        assert len(cg.maximal_objects(cg.build_category(cg.A, cat))) == 1
        assert len(cg.maximal_objects(cg.build_category(cg.APRIME, cat))) == 1
        assert fibre_index(cat, V) == (2, 1)


def test_criterion_02_sym3_kinds_agree():
    with budget(1):
        cat = enumerate_elabs(affine_group(3), 3)
        assert cg.categories_equal(cg.A, cg.APRIME, cat).equal


def test_criterion_03_gl3_f2_components_merge():
    with budget(10):
        G = build_gl3(2).group
        table = G.conjugacy
        orders = G.element_orders
        assert sum(1 for r in table.reps if orders[r] == 2) == 1
        cat = enumerate_elabs(G, 2)
        assert len(cg.maximal_objects(cg.build_category(cg.A, cat))) == 2
        assert len(cg.maximal_objects(cg.build_category(cg.APRIME, cat))) == 1


@pytest.mark.slow
def test_criterion_04_gl3_f3_jordan_forms():
    with budget(120):
        b = build_gl3(3)
        G = b.group
        table = G.conjugacy
        orders = G.element_orders
        assert sum(1 for r in table.reps if orders[r] == 3) == 2
        assert is_conjugate_subgroup(G, b.e1, b.e2) is None
        assert len(hom_matrices(cg.APRIME, b.e1, b.e2)) > 0
        cat = enumerate_elabs(G, 3)
        n_a = len(cg.maximal_objects(cg.build_category(cg.A, cat)))
        n_ap = len(cg.maximal_objects(cg.build_category(cg.APRIME, cat)))
        assert (n_a, n_ap) == (3, 2)
        assert n_ap < n_a


def test_criterion_05_triangular_orbit_stabilizer():
    with budget(10):
        b = build_triangular(2, 3)
        label = _orbit_partition(b.q_group)
        assert (label == _orbit_partition(b.u_group)).all()
        orbits = {frozenset(np.flatnonzero(label == r).tolist()) for r in set(label.tolist())}
        stab = 0
        for M in close_matrix_group(gl_generators(2, 3), 2):
            image = {frozenset(vec_code(mat_vec(M, (code // 4, code // 2 % 2,
                                                    code % 2), 2), 2)
                               for code in orbit) for orbit in orbits}
            stab += image == orbits
        assert stab == 8
        E = b.kernel
        assert len(hom_matrices(cg.A, E, E)) == 4
        cat = enumerate_elabs(b.group, 2)
        assert fibre_index(cat, E) == (2, 1)
        assert 2 == 2 ** ((3 - 1) * (3 - 2) // 2)


def test_criterion_06_jordan_block_separates_tuple_kinds():
    with budget(30):
        b = build_prop10(2, 1)
        E = b.distinguished
        a1 = hom_set(cg.a_n(1), E, E)
        a2 = hom_set(cg.a_n(2), E, E)
        plain = hom_set(cg.A, E, E)
        assert column_codes(b.c_matrix, 2) in a1
        assert column_codes(b.c_matrix, 2) not in a2
        assert a2 == plain


def test_criterion_07_cyclic3_rank_zero_separation():
    with budget(1):
        E = build_cyclic(3, 3).kernel
        assert len(hom_matrices(cg.CREG, E, E)) == 2
        assert len(hom_matrices(cg.APRIME, E, E)) == 1


def chain_on_pair(p, E, F):
    creg = hom_set(cg.CREG, E, F)
    plain = hom_set(cg.A, E, F)
    aprime = hom_set(cg.APRIME, E, F)
    top = max(E.rank, 1) + 1
    an = {n: hom_set(cg.a_n(n), E, F) for n in range(1, top + 1)}
    assert an[1] == aprime
    for n in range(1, top):
        assert an[n + 1] <= an[n]
    assert plain <= an[top]
    for n in range(max(E.rank, 1), top + 1):
        assert an[n] == plain
    divisors = [d for d in range(1, p) if (p - 1) % d == 0]
    ad = {d: hom_set(cg.aprime_d(d), E, F) for d in divisors}
    assert ad[1] == aprime
    for d in divisors:
        for d2 in divisors:
            if d2 % d == 0:
                assert ad[d] <= ad[d2]
        assert ad[d] <= creg
    assert plain <= aprime <= creg


def test_criterion_08_inclusion_chains_across_gallery():
    with budget(60):
        groups = [(affine_group(3), 3), (affine_group(4), 2),
                  (affine_group(8), 2), (cyclic_group(3), 3),
                  (build_gl3(2).group, 2), (build_gl3(3).group, 3),
                  (triangular_group(2, 3), 2)]
        for G, p in groups:
            cat = enumerate_elabs(G, p)
            reps = [cat.subgroups[r] for r in cat.class_reps]
            for E in reps:
                for F in reps:
                    chain_on_pair(p, E, F)
            n = p_rank(cat)
            assert cg.categories_equal(cg.a_n(n), cg.A, cat).equal
            assert cg.categories_equal(cg.a_n(n + 1), cg.A, cat).equal
        # the big extension group: its full subgroup lattice is out of
        # enumeration range, so the chain runs on the hand-built object
        E = build_prop10(2, 1).distinguished
        chain_on_pair(2, E, E)


def test_criterion_09_closure_laws_and_fixed_points():
    with budget(30):
        from elabcat.groups import close_generators
        G = close_generators(4, [(1, 0, 3, 2), (2, 0, 1, 3)], name="a4")
        cat = enumerate_elabs(G, 2)

        def hom_dict(C):
            C.materialize()
            return {k: set(map(tuple, v.tolist())) for k, v in C.hom_dict().items()}

        for kind in (cg.A, cg.APRIME, cg.CREG, cg.a_n(1), cg.a_n(2)):
            C = cg.build_category(kind, cat)
            assert hom_dict(cg.closure(C)) == hom_dict(C)
        cat3 = enumerate_elabs(G, 3)
        for kind in (cg.A, cg.APRIME, cg.aprime_d(2)):
            C = cg.build_category(kind, cat3)
            assert hom_dict(cg.closure(C)) == hom_dict(C)

        base = cg.build_category(cg.A, cat)
        homs = hom_dict(base)
        homs[(4, 4)] = homs[(4, 4)] | {column_codes(((0, 1), (1, 0)), 2)}
        seeded = cg.explicit_category(cat, homs)
        closed = hom_dict(cg.closure(seeded))
        for key, val in hom_dict(seeded).items():
            assert val <= closed.get(key, set())
        assert closed == hom_dict(cg.closure(cg.closure(seeded)))
        for key, val in hom_dict(cg.closure(base)).items():
            assert val <= closed.get(key, set())
        assert closed == hom_dict(cg.build_category(cg.APRIME, cat))


def test_criterion_10_dickson_degrees_and_invariance():
    with budget(5):
        for p, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
            rep = dickson_check(p, n)
            assert rep.degrees_ok and rep.invariant_ok
            assert set(rep.found_degrees) == {p ** n - p ** j
                                              for j in range(n)}
        golden = dickson_check(2, 2)
        assert golden.total.format() == ("1 + x1^2 + x1*x2 + x2^2 "
                                         "+ x1^2*x2 + x1*x2^2")


def test_criterion_11_frobenius_and_whitney_identities():
    with budget(10):
        rng = Random(422)
        for p in (2, 3, 5):
            for _ in range(20):
                rank = rng.randint(1, 3)
                def rows():
                    return [[rng.randrange(p) for _ in range(rank)]
                            for _ in range(rng.randint(1, 3))]
                w1 = make_weights(p, rank, rows())
                w2 = make_weights(p, rank, rows())
                assert frobenius_identity_check(w1, 1)
                assert whitney_product_check(w1, w2)


def test_criterion_12_symmetric_reduction_round_trips():
    with budget(5):
        for p, n in [(2, 2), (2, 3), (3, 2)]:
            f = regular_rep_product(p, n)
            assert expand_in_elementaries(symmetric_reduce(f)) == f
        assert symmetric_reduce(regular_rep_product(2, 2)).format("s") == \
            "1 + s1 + s2" == regular_reduced(2, 2)


def test_criterion_13_p_regular_characters():
    with budget(1):
        G = affine_group(4)
        assert p_regular_failures(G, 2, regular_character(G)) == []
        S3 = affine_group(3)
        assert p_regular_failures(S3, 3, permutation_character(S3)) == []
        trivial = trivial_character(G)
        assert p_regular_failures(G, 2, trivial) == catalog_failures(
            G, 2, trivial, enumerate_elabs(G, 2)) != []


def test_criterion_14_analyze_report_is_deterministic(tmp_path):
    with budget(5):
        doc = {"name": "alt4", "degree": 4,
               "generators": [[1, 0, 3, 2], [2, 0, 1, 3]]}
        path = tmp_path / "a4.json"
        path.write_text(json.dumps(doc))
        outs = []
        for _ in range(2):
            r = run_cli("analyze", str(path), "--prime", "2")
            assert r.returncode == 0
            parsed = json.loads(r.stdout)
            parsed.pop("timing")
            outs.append(json.dumps(parsed).encode())
        assert outs[0] == outs[1]


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    with budget(5):
        exec(block, scope)
    assert scope["G"].order == 12
    assert sorted(scope["table"].sizes.tolist()) == [1, 3, 4, 4]
    assert scope["table"] is scope["G"].conjugacy
    assert not scope["verdict"].equal and scope["verdict"].only_in == "Aprime"
    assert scope["C"].kind == cg.APRIME and len(scope["cat"]) == 5
