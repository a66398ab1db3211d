import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import (affine_group, chern_class, frobenius_identity_check, left_to_right,
                         linear_form, make_weights, p_regular_check, variable,
                         whitney_product_check)

from elabcat.chern import (CharacterVector, WeightList, dickson_check,
                           p_regular_failures, permutation_character, regular_character,
                           regular_rep_product, regular_weights, total_chern,
                           trivial_character)
from elabcat.elabs import enumerate_elabs
from elabcat.errors import CapExceeded, CatalogMismatch
from elabcat.fppoly import FpPolynomial, symmetric_reduce
from elabcat.groups import close_generators

A4_GENS = [(1, 0, 3, 2), (2, 0, 1, 3)]


def random_weights(rng, p, rank, count):
    rows = [[rng.randrange(p) for _ in range(rank)] for _ in range(count)]
    return make_weights(p, rank, rows)


class TestTotalChern:
    def test_single_weight(self):
        w = make_weights(2, 2, [[1, 0]])
        c = total_chern(w)
        x = variable(2, 2, 0)
        assert c == FpPolynomial.constant(2, 2, 1) + x

    def test_zero_weight_contributes_nothing(self):
        w = make_weights(3, 2, [[0, 0], [1, 0]])
        v = make_weights(3, 2, [[1, 0]])
        assert total_chern(w) == total_chern(v)

    def test_chern_class_picks_degree(self):
        w = regular_weights(2, 2)
        c = total_chern(w)
        for d in c.degrees():
            assert chern_class(w, d) == c.homogeneous_part(d)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_repeat_and_concat(self, data):
        # Whitney: the total Chern class of a joined list is the product
        # of the parts', so k copies of one list give its k-th power
        p = data.draw(st.sampled_from([2, 3, 5]))
        rank = data.draw(st.integers(0, 3))
        w1, w2 = (data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * rank), max_size=6))
                  for _ in range(2))
        k = data.draw(st.integers(0, 3))
        c1, c2 = (total_chern(WeightList(p, rank, tuple(w))) for w in (w1, w2))
        assert total_chern(WeightList(p, rank, tuple(w1 + w2))) == c1 * c2
        assert total_chern(WeightList(p, rank, tuple(w1 * k))) == c1 ** k

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_tree_matches_left_to_right_product(self, data):
        # lengths that are not a multiple of p leave groups short of a
        # node at some level; zero weights are constant factors
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        rank = data.draw(st.integers(1, 3))
        rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=rank,
                                           max_size=rank), max_size=30))
        assert total_chern(make_weights(p, rank, rows)).terms == left_to_right(p, rank, rows)

    @pytest.mark.parametrize("p,rank,rows", [
        (2 ** 61 - 1, 2, [[2 ** 61 - 2, 3], [2, 5], [0, 0], [5, 7]]),
        (5, 0, [[], [], []]),
    ])
    def test_large_prime_and_rank_0(self, p, rank, rows):
        assert total_chern(make_weights(p, rank, rows)).terms == left_to_right(p, rank, rows)

    def test_tree_keys_past_int64(self):
        # 40 factors in 12 variables, x1 in 28 of them: 40 * 29^12 passes
        # 2^63, so the tree's keys are Python ints, while every __mul__ of
        # the left-to-right product packs its keys as int64
        rows = ([[1] + [0] * 11] * 28 + [[int(j == i) for j in range(12)] for i in range(1, 12)]
                + [[0] * 12])
        assert 40 * 29 ** 12 >= 2 ** 63 > 29 ** 12
        want = FpPolynomial.constant(2, 12, 1)
        for r in rows:
            want = want * (linear_form(2, r) + FpPolynomial.constant(2, 12, 1))
        assert total_chern(make_weights(2, 12, rows)) == want

    def test_tree_term_cap(self, monkeypatch):
        # 27 weights pass the weight count; the product's 74 terms do not
        monkeypatch.setenv("ELABCAT_TERM_CAP", "73")
        with pytest.raises(CapExceeded) as e:
            total_chern(regular_weights(3, 3))
        assert f"error: guard {e.value.guard}: {e.value}" == (
            "error: guard term_cap: polynomial product passed 73 terms; "
            "raise ELABCAT_TERM_CAP to allow more")
        monkeypatch.setenv("ELABCAT_TERM_CAP", "74")
        assert len(total_chern(regular_weights(3, 3)).coeffs) == 74


class TestDickson:
    def test_regular_weights_cover_all_vectors(self):
        w = regular_weights(2, 2)
        assert sorted(w.weights) == sorted(
            [(a, b) for a in range(2) for b in range(2)])

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (5, 1)])
    def test_degrees_and_invariance(self, p, n):
        rep = dickson_check(p, n)
        want = sorted(p ** n - p ** j for j in range(n))
        assert list(rep.expected_degrees) == want
        assert list(rep.found_degrees) == want
        assert rep.degrees_ok and rep.invariant_ok and rep.ok

    def test_2_2_coefficients(self):
        rep = dickson_check(2, 2)
        assert rep.total.format() == ("1 + x1^2 + x1*x2 + x2^2 + x1^2*x2 "
                                      "+ x1*x2^2")

    def test_3_1_coefficients(self):
        rep = dickson_check(3, 1)
        assert rep.total.format() == "1 + 2*x1^2"


class TestIdentities:
    def test_frobenius_small(self):
        w = make_weights(3, 2, [[1, 2], [0, 1]])
        assert frobenius_identity_check(w, 1)
        assert frobenius_identity_check(w, 2)

    def test_whitney_small(self):
        w1 = make_weights(2, 2, [[1, 0]])
        w2 = make_weights(2, 2, [[1, 1], [0, 1]])
        assert whitney_product_check(w1, w2)

    def test_random_sweep(self):
        rng = random.Random(422)
        for p in (2, 3, 5):
            for _ in range(5):
                rank = rng.randrange(1, 4)
                w1 = random_weights(rng, p, rank, rng.randrange(1, 4))
                w2 = random_weights(rng, p, rank, rng.randrange(1, 4))
                assert frobenius_identity_check(w1, rng.randrange(1, 3))
                assert whitney_product_check(w1, w2)


class TestRegularProduct:
    def test_2_2_golden(self):
        g = symmetric_reduce(regular_rep_product(2, 2))
        assert g.format("s") == "1 + s1 + s2"

    def test_3_2_golden(self):
        g = symmetric_reduce(regular_rep_product(3, 2))
        assert g.format("s") == "1 + s1 + 2*s2 + s1^2 + s1*s2 + s2^2"

    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in range(4)])
    def test_expansion_is_the_product_of_its_factors(self, p, n):
        want = FpPolynomial.constant(p, n, 1)
        for i in range(n):
            want = want * FpPolynomial(p, n, {tuple(k * (j == i) for j in range(n)): 1
                                              for k in range(p)})
        assert regular_rep_product(p, n) == want

    def test_2_3_golden(self):
        g = symmetric_reduce(regular_rep_product(2, 3))
        assert g.format("s") == "1 + s1 + s2 + s3"


class TestCharacters:
    def test_regular_character_values(self):
        G = close_generators(4, A4_GENS, name="a4")
        chi = regular_character(G)
        assert chi.degree_value == 12
        table = G.conjugacy
        for c, rep in enumerate(table.reps):
            want = 12 if rep == 0 else 0
            assert chi.values[c] == want
            assert chi.at_element(rep) == want

    def test_permutation_character_counts_fixed_points(self):
        G = affine_group(3)
        chi = permutation_character(G)
        for rep in G.conjugacy.reps:
            fixed = sum(1 for x, y in enumerate(G.element(rep)) if x == y)
            assert chi.at_element(rep) == fixed

    def test_character_group_mismatch(self):
        G = close_generators(4, A4_GENS, name="a4")
        H = affine_group(3)
        chi = regular_character(G)
        cat = enumerate_elabs(H, 3)
        with pytest.raises(CatalogMismatch):
            p_regular_failures(H, 3, chi, cat)


class TestPRegular:
    def test_regular_character_passes(self):
        G = close_generators(4, A4_GENS, name="a4")
        cat = enumerate_elabs(G, 2)
        assert p_regular_check(G, 2, regular_character(G), cat)
        assert p_regular_failures(G, 2, regular_character(G), cat) == []

    def test_natural_s3_character_passes(self):
        G = affine_group(3)
        cat = enumerate_elabs(G, 3)
        assert p_regular_check(G, 3, permutation_character(G), cat)

    def test_trivial_character_fails(self):
        G = close_generators(4, A4_GENS, name="a4")
        cat = enumerate_elabs(G, 2)
        failures = p_regular_failures(G, 2, trivial_character(G), cat)
        assert failures
        assert not p_regular_check(G, 2, trivial_character(G), cat)
