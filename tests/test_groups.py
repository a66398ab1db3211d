import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import (centralizer, compose, conjugate, elements_of, from_elements,
                         identity_perm, index_of, inverse, normalizer, perm_order, perm_power,
                         transporter)
from elabcat.errors import CapExceeded, InvalidPermutation
from elabcat.groups import FiniteGroup, close_generators

A4_GENS = [(1, 0, 3, 2), (2, 0, 1, 3)]


def a4():
    return close_generators(4, A4_GENS, name="a4")


def perms(degree):
    return st.permutations(range(degree)).map(tuple)


class TestPerms:
    def test_identity(self):
        assert identity_perm(4) == (0, 1, 2, 3)

    def test_compose_applies_left_then_right(self):
        p = (1, 2, 0)
        q = (0, 2, 1)
        # x -> p[x] -> q[p[x]]
        assert compose(p, q) == tuple(q[p[x]] for x in range(3))

    def test_bad_perm_rejected(self):
        with pytest.raises(InvalidPermutation):
            close_generators(3, [(0, 0, 1)])

    @given(perms(5), perms(5), perms(5))
    @settings(max_examples=60, deadline=None)
    def test_compose_associative(self, p, q, r):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(perms(5))
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, p):
        assert compose(p, inverse(p)) == identity_perm(5)
        assert compose(inverse(p), p) == identity_perm(5)

    @given(perms(5), perms(5), perms(5))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_is_right_action(self, g, h, e):
        one_step = conjugate(compose(g, h), e)
        two_step = conjugate(h, conjugate(g, e))
        assert one_step == two_step

    def test_perm_order_and_power(self):
        c3 = (1, 2, 0)
        assert perm_order(c3) == 3
        assert perm_power(c3, 3) == identity_perm(3)
        assert perm_power(c3, -1) == inverse(c3)


class TestFiniteGroup:
    def test_a4_order(self):
        G = a4()
        assert G.order == 12
        assert G.element(0) == identity_perm(4)

    def test_elements_sorted_and_indexed(self):
        G = a4()
        assert elements_of(G) == sorted(elements_of(G))
        for i, e in enumerate(elements_of(G)):
            assert index_of(G, e) == i

    def test_element_orders(self):
        G = a4()
        orders = sorted(G.element_orders)
        assert orders == [1] + [2] * 3 + [3] * 8

    def test_conjugacy_class_sizes(self):
        G = a4()
        table = G.conjugacy
        assert sorted(table.sizes) == [1, 3, 4, 4]
        # the witness stored for each element conjugates its class
        # representative onto it
        for i in range(G.order):
            c = table.class_of[i]
            w = G.element(table.witness[i])
            assert conjugate(w, G.element(table.reps[c])) == G.element(i)

    def test_transporter_is_centralizer_coset(self):
        G = a4()
        table = G.conjugacy
        a = next(i for i in range(G.order) if G.element_orders[i] == 2)
        b = next(i for i in range(a + 1, G.order)
                 if G.element_orders[i] == 2 and table.class_of[i] == table.class_of[a])
        T = transporter(G, G.element(a), G.element(b))
        assert len(T) == len(G.centralizer_indices(a))
        for g in T:
            assert conjugate(g, G.element(a)) == G.element(b)

    def test_transporter_empty_across_classes(self):
        G = a4()
        two = next(i for i in range(G.order) if G.element_orders[i] == 2)
        three = next(i for i in range(G.order) if G.element_orders[i] == 3)
        assert transporter(G, G.element(two), G.element(three)) == []

    def test_centralizer_and_normalizer(self):
        G = a4()
        v = [i for i in range(G.order) if G.element_orders[i] in (1, 2)]
        C = centralizer(G, [G.element(i) for i in v])
        assert C.order == 4
        N = normalizer(G, [G.element(i) for i in v])
        assert N.order == 12

    def test_element_cap(self, monkeypatch):
        monkeypatch.setenv("ELABCAT_ELEMENT_CAP", "30")
        with pytest.raises(CapExceeded) as e:
            close_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        assert e.value.guard == "element_cap"

    def test_from_elements_roundtrip(self):
        G = a4()
        H = from_elements(4, elements_of(G), name="again")
        assert elements_of(H) == elements_of(G)

    def test_inverse_indices(self):
        G = a4()
        inv = G.inverse_indices
        for i in range(G.order):
            assert compose(G.element(i), G.element(inv[i])) == identity_perm(4)

    def test_tables_are_read_only(self):
        G = close_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        conj, right = G.generator_tables
        for table in (G.array, G.base, G.inverse_indices, conj, right, G.element_orders,
                      G.centralizer_indices(7), *G.conjugacy):
            with pytest.raises(ValueError):
                table[...] = 7
        assert sorted(set(G.element_orders.tolist())) == [1, 2, 3, 4, 5, 6]

    def test_conjugate_indices_batch(self):
        G = a4()
        targets = np.arange(G.order)
        for g in range(G.order):
            got = G.conjugate_indices(g, targets)
            for i in range(G.order):
                want = index_of(G, conjugate(G.element(g), G.element(i)))
                assert got[i] == want

    def test_conjugate_indices_many(self):
        G = close_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        gs = np.arange(G.order)[::7]
        got = G.conjugate_indices(gs, [3, 50, 119])
        assert got.shape == (len(gs), 3)
        for row, g in zip(got, gs):
            for e, c in zip([3, 50, 119], row):
                assert c == index_of(G, conjugate(G.element(g), G.element(e)))
            assert G.conjugate_indices(g, [3, 50, 119]).tolist() == row.tolist()
        assert G.conjugate_indices(gs, []).shape == (len(gs), 0)

    def test_conjugate_indices_with_a_row_of_targets_per_g(self):
        G = close_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        gs = np.arange(G.order)[::5]
        targets = (gs[:, None] * [3, 7] + [1, 2]) % G.order
        got = G.conjugate_indices(gs, targets)
        assert got.shape == targets.shape
        for g, row, want in zip(gs, targets, got):
            assert G.conjugate_indices(g, row).tolist() == want.tolist()

    def test_transporter_pairs_match_one_a_at_a_time(self):
        # pairs from several classes, some not conjugate: each conjugate
        # pair's coset, in order, as the one-a form gives it
        G = close_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        a = np.arange(G.order)[::3]
        b = (a * 7 + 11) % G.order
        b[::2] = G.conjugate_indices(a[::2] * 5 % G.order, a[::2]).diagonal()
        want = [G.transporter_indices(int(x), int(y)) for x, y in zip(a, b)]
        assert any(len(w) == 0 for w in want) and len({len(w) for w in want}) > 2
        assert G.transporter_indices(a, b).tolist() == np.concatenate(want).tolist()
        assert G.transporter_indices(a[:0], b[:0]).tolist() == []

    def test_indices_of_rows(self):
        G = a4()
        assert list(G.indices_of_rows(G.array[::-1])) == list(range(G.order))[::-1]
        assert G.identity_index == 0
        with pytest.raises(KeyError):
            G.indices_of_rows(np.array([[1, 0, 2, 3]]))    # odd: not in A4
        with pytest.raises(KeyError):
            G.indices_of_rows(np.array([[3, 2, 1, 0], [3, 3, 3, 3]]))

    def test_element_list_needs_identity(self):
        with pytest.raises(InvalidPermutation):
            from_elements(3, [(1, 2, 0), (2, 0, 1)])
        with pytest.raises(InvalidPermutation):
            from_elements(3, [(1, 0, 2), (1, 0, 2)])    # closes to 2 elements
        with pytest.raises(InvalidPermutation):
            from_elements(3, [])

    def test_element_list_must_be_closed_and_distinct(self):
        G = a4()
        with pytest.raises(InvalidPermutation):
            from_elements(4, elements_of(G)[:-1])
        with pytest.raises(InvalidPermutation):
            from_elements(4, elements_of(G) + [(1, 0, 2, 3)])    # an odd element
        with pytest.raises(InvalidPermutation):
            from_elements(4, elements_of(G) + elements_of(G)[3:4])

    def test_from_elements_greedy_generators(self):
        G = close_generators(7, [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)])
        H = from_elements(7, G.array[::-1], name="S7 again")
        assert (H.array == G.array).all()
        assert len(H.generators) <= 12
        # each generator is the smallest element outside the ones before it
        assert H.generators[0] == G.element(1)

    def test_tables_make_one_lookup(self, monkeypatch):
        G = close_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
        calls = []
        lookup = FiniteGroup.indices_of_base_images
        monkeypatch.setattr(FiniteGroup, "indices_of_base_images",
                            lambda self, images: calls.append(images.shape) or lookup(self, images))
        monkeypatch.setattr(FiniteGroup, "indices_of_rows", None)   # no row is checked
        G.generator_tables
        G.conjugacy
        # the inverses and the two right tables, by their base images
        assert calls == [(3, len(G), len(G.base))]
