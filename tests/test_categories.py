from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import (conjugate, hom_in_kind, index_of, index_of_vector, matrix, vector_of_index,
                         weyl_image)
from elabcat import categories as cg
from elabcat.elabs import enumerate_elabs
from elabcat.errors import CapExceeded, CatalogMismatch, InputFormatError, NotMaximal
from elabcat.fpmat import mat_rank
from elabcat.gallery import _chk_fibre_index, affine_images
from elabcat.groups import close_generators

A4_GENS = [(1, 0, 3, 2), (2, 0, 1, 3)]


def a4():
    return close_generators(4, A4_GENS, name="a4")


def a4_catalog():
    return enumerate_elabs(a4(), 2)


class TestKinds:
    def test_labels_roundtrip(self):
        for kind in (cg.A, cg.APRIME, cg.CREG, cg.aprime_d(2), cg.a_n(3)):
            assert cg.parse_kind(kind.label(), 7, "kind") == kind

    def test_parse_rejects_garbage(self):
        for text in ("B", "An()", "An(-1)", "AprimeD(0)", "Aprime(2)", "A:", "AprimeD(4)"):
            with pytest.raises(InputFormatError, match="^kind: "):
                cg.parse_kind(text, 7, "kind")

    def test_aprime_is_an1(self):
        cat = a4_catalog()
        V = cat.subgroups[4]
        assert np.array_equal(cg.hom_matrices(cg.APRIME, V, V),
                              cg.hom_matrices(cg.a_n(1), V, V))

    def test_aprime_d_requires_divisor(self):
        with pytest.raises(ValueError):
            cg.aprime_d(0)
        # d must divide p - 1 at hom time
        cat = a4_catalog()
        V = cat.subgroups[4]
        with pytest.raises(ValueError):
            cg.hom_matrices(cg.aprime_d(3), V, V)


def images(cols, V):
    """For a map of V given by its column codes, the image of each
    element of V, computed from the vectors and codes alone."""
    p = V.prime
    out = {}
    for i in V.elements:
        vec = vector_of_index(V, i)
        img = [0] * V.rank
        for c, x in zip(cols, vec):
            img = [(a + x * (c // p ** r % p)) % p for r, a in enumerate(img)]
        out[i] = index_of_vector(V, img)
    return out


@lru_cache(maxsize=None)
def regular_catalog(p, n):
    """The catalog of (Z/p)^n acting on itself by translations."""
    eye = np.eye(n, dtype=np.int64)
    return enumerate_elabs(close_generators(p ** n, affine_images(eye, eye, p, n)), p)


@st.composite
def column_code_rows(draw):
    """(catalog, i, j, rows): up to four maps from member i into member j,
    each given by random column codes."""
    cat = regular_catalog(*draw(st.sampled_from([(2, 3), (3, 2)])))
    i, j = (draw(st.integers(0, len(cat) - 1)) for _ in range(2))
    r, s = cat.ranks().item(i), cat.ranks().item(j)
    code = st.integers(0, cat.prime ** s - 1)
    return cat, i, j, draw(st.lists(st.lists(code, min_size=r, max_size=r), max_size=4))


class TestExplicitHoms:
    @given(case=column_code_rows())
    @settings(max_examples=150, deadline=None)
    def test_accepts_exactly_full_column_rank(self, case):
        cat, i, j, rows = case
        p, r, s = cat.prime, cat.ranks().item(i), cat.ranks().item(j)
        if all(mat_rank(matrix(cols, p, s), p) == r for cols in rows):
            C = cg.explicit_category(cat, {(i, j): rows})
            assert C.hom(i, j).tolist() == sorted(map(list, set(map(tuple, rows))))
        else:
            with pytest.raises(ValueError, match="^matrix does not have full column rank$"):
                cg.explicit_category(cat, {(i, j): rows})

    def test_validates_shape_and_rank(self):
        cat = a4_catalog()
        with pytest.raises(ValueError):     # one code for a rank-2 domain
            cg.explicit_category(cat, {(4, 4): [(1,)]})
        with pytest.raises(ValueError):     # code 4 is no vector of rank 2
            cg.explicit_category(cat, {(4, 4): [(1, 4)]})
        with pytest.raises(ValueError):     # both basis vectors to (1, 1)
            cg.explicit_category(cat, {(4, 4): [(3, 3)]})
        C = cg.explicit_category(cat, {(1, 4): [(3,)], (4, 4): [(2, 1), (1, 2), (2, 1)]})
        assert C.hom(1, 4).tolist() == [[3]]
        assert C.hom(4, 4).tolist() == [[1, 2], [2, 1]]
        assert C.hom(4, 4).dtype == np.int64
        assert C.hom(4, 1).shape == (0, 2)

    def test_codes_track_matrix(self):
        cat = a4_catalog()
        V = cat.subgroups[4]
        for M in (((0, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1))):
            cols = cg.column_codes(M, 2)
            assert cg.matrix_of(cols, 2, 2) == M
            for i, img in images(cols, V).items():
                vec = vector_of_index(V, i)
                want = tuple(sum(M[r][c] * vec[c] for c in range(2)) % 2
                             for r in range(2))
                assert vector_of_index(V, img) == want
        # entries are taken mod p; row r is digit r of every code
        assert cg.column_codes(((2, 0), (1, 4)), 3) == (5, 3)
        assert cg.matrix_of((5, 3), 3, 2) == ((2, 0), (1, 1))


class TestHomSets:
    def test_a4_counts(self):
        cat = a4_catalog()
        V = cat.subgroups[4]
        E1 = cat.subgroups[1]
        assert len(cg.hom_matrices(cg.A, V, V)) == 3
        assert len(cg.hom_matrices(cg.APRIME, V, V)) == 6
        assert len(cg.hom_matrices(cg.CREG, V, V)) == 6
        assert len(cg.hom_matrices(cg.a_n(2), V, V)) == 3
        assert len(cg.hom_matrices(cg.A, E1, V)) == 3
        assert len(cg.hom_matrices(cg.A, V, E1)) == 0

    def test_a_homs_have_single_witness(self):
        cat = a4_catalog()
        G = cat.group
        V = cat.subgroups[4]
        for cols in cg.hom_matrices(cg.A, V, V).tolist():
            image = images(cols, V)
            witnesses = [g for g in range(G.order)
                         if all(index_of(G, conjugate(G.element(g), G.element(i)))
                                == image[i]
                                for i in V.elements)]
            assert witnesses

    def test_aprime_homs_elementwise_conjugate(self):
        cat = a4_catalog()
        G = cat.group
        table = G.conjugacy
        V = cat.subgroups[4]
        for cols in cg.hom_matrices(cg.APRIME, V, V).tolist():
            for i, img in images(cols, V).items():
                assert table.class_of[i] == table.class_of[img]

    def test_hom_in_kind(self):
        cat = a4_catalog()
        V = cat.subgroups[4]
        swap = ((0, 1), (1, 0))
        assert hom_in_kind(cg.APRIME, V, V, swap)
        assert not hom_in_kind(cg.A, V, V, swap)
        assert [2, 1] in cg.hom_matrices(cg.APRIME, V, V).tolist()
        assert [2, 1] not in cg.hom_matrices(cg.A, V, V).tolist()

    def test_standalone_requires_same_ambient(self):
        cat = a4_catalog()
        other = enumerate_elabs(close_generators(4, A4_GENS, name="b"), 2)
        with pytest.raises(CatalogMismatch):
            cg.hom_matrices(cg.A, cat.subgroups[4], other.subgroups[4])

    def test_trivial_domain_single_hom(self):
        cat = a4_catalog()
        one = cat.subgroups[0]
        V = cat.subgroups[4]
        for F in (V, one):
            for kind in (cg.A, cg.APRIME, cg.CREG):
                assert cg.hom_matrices(kind, one, F).shape == (1, 0)


class TestCategory:
    def test_lazy_and_materialized_agree(self):
        cat = a4_catalog()
        C = cg.build_category(cg.A, cat)
        lazy = {(i, j): C.hom(i, j) for i in range(5) for j in range(5)}
        C.materialize()
        for key, homs in C.hom_dict().items():
            assert np.array_equal(lazy[key], homs) and not homs.flags.writeable
        # row-major, and no empty pair listed
        assert list(C.hom_dict()) == [key for key, homs in lazy.items() if len(homs)]
        assert C.hom_count() == sum(map(len, lazy.values())) == 26
        # every caller shares the cached arrays, so none may write to them
        for D in (C, cg.closure(C)):
            with pytest.raises(ValueError):
                D.hom(4, 4)[0, 0] = 0

    def test_hom_count_guard(self, monkeypatch):
        cat = a4_catalog()
        C = cg.build_category(cg.CREG, cat)
        monkeypatch.setenv("ELABCAT_HOM_COUNT_CAP", "10")
        with pytest.raises(CapExceeded) as e:
            C.materialize()
        assert e.value.guard == "hom_count_cap"

    def test_provenance_tags(self):
        cat = a4_catalog()
        assert cg.build_category(cg.A, cat).provenance == "A"
        homs = {(0, 0): [()]}
        assert cg.explicit_category(cat, homs).provenance == "explicit"

    def test_maximal_objects_and_components(self):
        cat = a4_catalog()
        assert cg.maximal_objects(cg.build_category(cg.A, cat)) == [[4]]
        assert cg.maximal_objects(cg.build_category(cg.APRIME, cat)) == [[4]]

    def test_categories_equal_verdict(self):
        cat = a4_catalog()
        same = cg.categories_equal(cg.A, cg.a_n(2), cat)
        assert same.equal
        diff = cg.categories_equal(cg.A, cg.APRIME, cat)
        assert not diff.equal
        assert diff.only_in == "Aprime"
        assert diff.domain_class == 2 and diff.codomain_class == 2
        assert diff.matrix == ((0, 1), (1, 0))

    def test_generic_fibre_index(self):
        cat = a4_catalog()
        V = cat.subgroups[4]
        # V's class is the one maximal class: |Aut_A(V)| = 3, |Aut_Aprime(V)| = 6
        assert cg.fibre_indices(cat) == {cat.class_of.item(4): (3, 6, (2, 1))}
        # the gallery's fibre_index claim reads it, and refuses other members
        ctx = SimpleNamespace(catalog=cat, subgroup=lambda args, key: args[key])
        assert _chk_fibre_index(ctx, {"object": V}) == (2, 1)
        with pytest.raises(NotMaximal):
            _chk_fibre_index(ctx, {"object": cat.subgroups[1]})

    def test_weyl_image_matches_a_homs(self):
        cat = a4_catalog()
        G = cat.group
        V = cat.subgroups[4]
        assert weyl_image(G, V) == list(map(tuple, cg.hom_matrices(cg.A, V, V).tolist()))


class TestInclusions:
    def test_chain_on_a4(self):
        cat = a4_catalog()
        reps = cat.class_reps
        for i in reps:
            for j in reps:
                E, F = cat.subgroups[i], cat.subgroups[j]
                a, an2, an1, ap, reg = (
                    set(map(tuple, cg.hom_matrices(kind, E, F).tolist()))
                    for kind in (cg.A, cg.a_n(2), cg.a_n(1), cg.APRIME, cg.CREG))
                assert a <= an2 <= an1 <= reg
                assert an1 == ap
                # p-rank of A_4 at p=2 is 2, so the rank-2 kind is A
                assert an2 == a
