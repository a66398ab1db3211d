"""Isomorphism classes read a rank at a time.

iso_classes classifies every representative of a rank at once: one
label gather, one sort of the label rows, one batched automorphism step
and one batched search per round of leaders.  Checked here: its
(aut, first) against the per-class leader scan it replaced
(brute_force.leader_scan, one hom_matrices call per pair), on random
small groups for every kind and on a group whose classes share a label
row without being isomorphic; the A = Aprime verdict against the colimit
point counts, which need no hom-set; and that analyze calls the group
layer and the search a bounded number of times per rank and kind, not
per class.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from brute_force import colimit_points, leader_scan
from elabcat import categories as cg
from elabcat.cli import analyze_report, load_group
from elabcat.elabs import enumerate_elabs, p_rank
from elabcat.groups import FiniteGroup, close_generators, row_keys
from test_class_sizes import catalogs, kinds_of
from test_colimit_points import points
from test_constructive_homs import S3xS3
from test_hom_cache import small_groups

GOLDEN = Path(__file__).resolve().parent / "golden"


def affine_f2(matrix):
    """F_2^n, as translations of the codes 0..2^n - 1, extended by the
    linear map with the given 0/1 matrix."""
    n = len(matrix)

    def image(x):
        return sum((sum(matrix[i][j] * (x >> j & 1) for j in range(n)) % 2) << i
                   for i in range(n))
    gens = [[x ^ (1 << k) for x in range(2 ** n)] for k in range(n)]
    return close_generators(2 ** n, gens + [[image(x) for x in range(2 ** n)]])


# F_2^5 extended by a map of order 4 (order 128, 681 members at p=2): at
# rank 3 two pairs of classes share their sorted label rows but are not
# Aprime-isomorphic, so the classification takes a second round
SHARED_ROWS = affine_f2([[0, 1, 1, 0, 0], [0, 0, 1, 0, 1], [1, 0, 1, 0, 1],
                         [1, 1, 1, 1, 1], [1, 1, 1, 0, 1]])


@given(catalog=catalogs())
@example(catalog=enumerate_elabs(S3xS3, 2))
@example(catalog=enumerate_elabs(S3xS3, 3))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_batched_classes_match_the_leader_scan(catalog):
    # every kind at p in {2, 3, 5, 7}: A, Aprime, Creg, each An(n) and
    # each AprimeD(d), d > 1, in an order that builds An(m) before An(n)
    for kind in kinds_of(catalog):
        aut, first = cg.build_category(kind, catalog).iso_classes()
        assert (aut.tolist(), first.tolist()) == leader_scan(kind, catalog), kind.label()


@pytest.mark.parametrize("kind", [cg.APRIME, cg.a_n(2)])
def test_classes_sharing_a_label_row_need_a_second_round(kind):
    catalog = enumerate_elabs(SHARED_ROWS, 2)
    reps, ranks = catalog.class_reps, catalog.ranks()[catalog.class_reps]
    xs = np.flatnonzero(ranks == 3)
    keys = row_keys(np.sort(cg._labels(SHARED_ROWS, 2, 3, catalog.by_codes(3, reps[xs]),
                                       kind), axis=1))
    aut, first = cg.build_category(kind, catalog).iso_classes()
    assert (aut.tolist(), first.tolist()) == leader_scan(kind, catalog)
    split = [(x, y) for a, x in enumerate(xs.tolist()) for b, y in enumerate(xs.tolist())
             if a < b and keys[a] == keys[b] and first[x] != first[y]]
    assert len(split) == 2, split


@given(G=small_groups(), p=st.sampled_from([2, 3]))
@example(G=S3xS3, p=2)
@example(G=load_group(str(GOLDEN / "a4xa4.group.json")), p=2)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_a_equals_aprime_exactly_when_their_points_agree(G, p):
    # every map is an isomorphism followed by an inclusion, Aprime holds
    # A, and at m = p-rank every class has a surjection onto it; so the
    # counts agree exactly when each Aprime class is one A class with as
    # many automorphisms, that is when A = Aprime
    catalog = enumerate_elabs(G, p)
    m = p_rank(catalog)
    got = [points(kind, catalog, m) for kind in (cg.A, cg.APRIME, cg.CREG)]
    assert tuple(got) == colimit_points(G, p, m)
    verdict = analyze_report(G, p, [cg.A])["verdicts"]["a_equals_aprime"]
    assert verdict == (got[0] == got[1])


@pytest.mark.parametrize("name, p", [("a4xa4", 2), ("z2-5", 2)])
def test_analyze_calls_the_group_layer_per_rank_and_kind(monkeypatch, name, p):
    # A4 x A4 has 15 classes and (Z/2)^5 374: each rank takes one
    # transporter step and one conjugation for A's automorphisms, one
    # search per kind and round of leaders, and the catalog one
    # conjugation for its conjugation isomorphisms
    calls = Counter()

    def counted(owner, attr):
        inner = getattr(owner, attr)

        def call(*args):
            calls[attr] += 1
            return inner(*args)
        monkeypatch.setattr(owner, attr, call)

    for attr in ("conjugate_indices", "transporter_indices"):
        counted(FiniteGroup, attr)
    counted(cg, "basis_search")
    report = analyze_report(load_group(str(GOLDEN / f"{name}.group.json")), p)
    ranks = report["catalog"]["p_rank"] + 1
    # kinds share their A automorphisms and Aprime searches through the
    # catalog's cache, so the bound holds per rank, for all kinds at once
    assert set(calls) == {"conjugate_indices", "transporter_indices", "basis_search"}
    assert max(calls.values()) <= 2 * ranks < report["catalog"]["class_count"], calls
