import pytest

from brute_force import (ElementNotInSubgroup, conjugate_subgroup, generated_by, index_of,
                         index_of_vector, is_conjugate_subgroup, vector_of_index)
from elabcat.elabs import ElabSubgroup, enumerate_elabs, p_rank
from elabcat.errors import CapExceeded, CatalogMismatch, InvalidPermutation
from elabcat.gallery import build_triangular
from elabcat.groups import close_generators

A4_GENS = [(1, 0, 3, 2), (2, 0, 1, 3)]


def a4():
    return close_generators(4, A4_GENS, name="a4")


class TestElabSubgroup:
    def test_from_indices_canonical_basis(self):
        G = a4()
        v = sorted(i for i in range(G.order) if G.element_orders[i] in (1, 2))
        E = ElabSubgroup.from_element_indices(G, 2, v)
        assert E.rank == 2
        assert E.elements == tuple(v)
        # canonical basis takes the smallest element not yet in the span
        assert E.basis == (v[1], v[2])

    def test_generated_by(self):
        G = a4()
        v = [i for i in range(G.order) if G.element_orders[i] in (1, 2)]
        E = generated_by(G, 2, [v[1], v[2]])
        assert set(E.elements) == set(v)

    def test_rejects_wrong_order(self):
        G = a4()
        three = next(i for i in range(G.order) if G.element_orders[i] == 3)
        with pytest.raises(Exception):
            ElabSubgroup.from_element_indices(G, 2, sorted({0, three}))

    def test_rejects_a_set_not_closed(self):
        G = a4()
        v = sorted(i for i in range(G.order) if G.element_orders[i] in (1, 2))
        with pytest.raises(InvalidPermutation, match="^element set is not closed under products$"):
            ElabSubgroup.from_element_indices(G, 2, v[:3])

    @pytest.mark.parametrize("sigma", [range(9), (1, 5, 6, 0, 8, 4, 7, 2, 3)],
                             ids=["as-built", "relabelled"])
    def test_rejects_a_group_that_is_not_abelian(self, sigma):
        # the Heisenberg group of order 27: every element but 1 has order
        # 3, and relabelled by sigma it was once taken for (Z/3)^3
        H = build_triangular(3, 2).group
        back = sorted(range(9), key=sigma.__getitem__)
        gens = [[sigma[g[back[y]]] for y in range(9)] for g in H.generators]
        G = close_generators(9, gens, name="heisenberg-27")
        assert G.order == 27 and set(G.element_orders.tolist()) == {1, 3}
        with pytest.raises(InvalidPermutation, match="does not commute"):
            ElabSubgroup.from_element_indices(G, 3, range(G.order))

    def test_vector_coordinates_roundtrip(self):
        G = a4()
        v = sorted(i for i in range(G.order) if G.element_orders[i] in (1, 2))
        E = ElabSubgroup.from_element_indices(G, 2, v)
        for i in E.elements:
            vec = vector_of_index(E, i)
            assert index_of_vector(E, vec) == i
        outside = next(i for i in range(G.order) if i not in E.elements)
        with pytest.raises(ElementNotInSubgroup):
            vector_of_index(E, outside)

    def test_element_vector_helpers(self):
        G = a4()
        v = sorted(i for i in range(G.order) if G.element_orders[i] in (1, 2))
        E = ElabSubgroup.from_element_indices(G, 2, v)
        perm = G.element(E.elements[3])
        vec = vector_of_index(E, index_of(G, perm))
        assert G.element(index_of_vector(E, vec)) == perm


class TestCatalog:
    def test_a4_catalog_shape(self):
        G = a4()
        cat = enumerate_elabs(G, 2)
        assert len(cat) == 5
        assert cat.class_count() == 3
        assert [E.rank for E in cat.subgroups] == [0, 1, 1, 1, 2]
        assert cat.classes_by_rank() == {0: 1, 1: 1, 2: 1}
        assert p_rank(cat) == 2

    def test_maximal_flags(self):
        G = a4()
        cat = enumerate_elabs(G, 2)
        assert [cat.maximal[i] for i in range(5)] == [False, False, False,
                                                     False, True]
        assert cat.maximal_class_indices() == [2]

    def test_class_witnesses_conjugate_reps(self):
        G = a4()
        cat = enumerate_elabs(G, 2)
        for i, E in enumerate(cat.subgroups):
            c = cat.class_of[i]
            rep = cat.subgroups[cat.class_reps[c]]
            w = G.element(cat.class_witness[i])
            assert conjugate_subgroup(G, w, rep).elements == E.elements

    def test_index_of_and_mismatch(self):
        G = a4()
        cat = enumerate_elabs(G, 2)
        for i, E in enumerate(cat.subgroups):
            assert cat.index_of(E) == i
        H = close_generators(4, A4_GENS, name="other-copy")
        other = enumerate_elabs(H, 2).subgroups[4]
        with pytest.raises(CatalogMismatch):
            cat.index_of(other)

    def test_no_p_torsion(self):
        G = a4()
        cat = enumerate_elabs(G, 5)
        assert len(cat) == 1
        assert p_rank(cat) == 0

    def test_catalog_cap(self, monkeypatch):
        G = a4()
        monkeypatch.setenv("ELABCAT_CATALOG_CAP", "3")
        with pytest.raises(CapExceeded) as e:
            enumerate_elabs(G, 2)
        assert e.value.guard == "catalog_cap"

    def test_catalog_cap_boundary(self, monkeypatch):
        G = close_generators(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])
        monkeypatch.setenv("ELABCAT_CATALOG_CAP", "271")
        assert len(enumerate_elabs(G, 2)) == 271
        monkeypatch.setenv("ELABCAT_CATALOG_CAP", "270")
        with pytest.raises(CapExceeded) as e:
            enumerate_elabs(G, 2)
        assert e.value.guard == "catalog_cap"
        assert str(e.value) == ("subgroup catalog passed the cap (270); "
                                "raise ELABCAT_CATALOG_CAP to allow more")

    def test_odd_prime_catalog(self):
        G = a4()
        cat = enumerate_elabs(G, 3)
        # four cyclic subgroups of order 3, all conjugate
        assert len(cat) == 5
        assert cat.classes_by_rank() == {0: 1, 1: 1}

    def test_conjugate_subgroup_search(self):
        G = a4()
        cat = enumerate_elabs(G, 3)
        ranks1 = [i for i in range(len(cat)) if cat.subgroups[i].rank == 1]
        E, F = cat.subgroups[ranks1[0]], cat.subgroups[ranks1[1]]
        g = is_conjugate_subgroup(G, E, F)
        assert g is not None
        assert conjugate_subgroup(G, g, E).elements == F.elements
