import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import (SmallField, affine_oracle, affine_perm, gl3_oracle,
                         matrix_perm_nonzero, triangular_oracle)
from elabcat import gallery as gal
from elabcat.errors import CapExceeded, InputFormatError
from elabcat.fpmat import primitive_element
from elabcat.groups import FiniteGroup

FAST_ENTRIES = ["affine-3", "affine-4", "affine-8", "cyclic-3", "gl3-2",
                "prop10-2-1", "triangular-2-3"]


class TestSmallField:
    """gallery.field_product against the per-digit SmallField oracle."""

    @pytest.mark.parametrize("q", sorted(gal.IRREDUCIBLE) + [2, 3, 5, 7, 13])
    def test_field_product_matches_oracle(self, q):
        F = SmallField(q)
        p, n, mul = gal.field_product(q)
        assert (p, n) == (F.p, F.n)
        pairs = [(a, b) for a in range(q) for b in range(q)]
        assert [mul(a, b) for a, b in pairs] == [F.mul(a, b) for a, b in pairs]
        g = primitive_element(q, mul)
        assert g == F.primitive()
        # F_q^* is cyclic of order q - 1 ...
        x, powers = 1, set()
        for _ in range(q - 1):
            x = mul(x, g)
            powers.add(x)
        assert len(powers) == q - 1 and 0 not in powers
        if q in gal.IRREDUCIBLE:
            # ... and t, code p, satisfies t^n = -(modulus less its leading term)
            x = 1
            for _ in range(n):
                x = mul(x, p)
            assert x == sum(-c % p * p ** k for k, c in enumerate(gal.IRREDUCIBLE[q][:-1]))

    def test_unknown_field_order(self):
        for q in (32, 6):
            with pytest.raises(ValueError, match=f"no field of order {q} on record"):
                gal.field_product(q)
            with pytest.raises(ValueError, match=f"no field of order {q} on record"):
                gal.build_affine(q)

    def test_modulus_text(self):
        assert gal.modulus_text(4) == "t^2 + t + 1"
        assert gal.modulus_text(27) == "t^3 + 2t + 1"


class TestBuilders:
    def test_affine_orders(self):
        assert gal.build_affine(3).group.order == 6
        assert gal.build_affine(4).group.order == 12
        assert gal.build_affine(8).group.order == 56

    def test_affine_kernel_is_translations(self):
        b = gal.build_affine(4)
        assert b.kernel.rank == 2
        for i in b.kernel.elements:
            perm = b.group.element(i)
            # translations have no fixed points except the identity
            assert perm == tuple(range(4)) or all(perm[x] != x
                                                  for x in range(4))

    def test_cyclic(self):
        G = gal.cyclic_group(6)
        assert G.order == 6
        b = gal.build_cyclic(6, 3)
        assert b.kernel.rank == 1

    def test_gl3_orders(self):
        b = gal.build_gl3(2)
        assert b.group.order == 168
        assert b.e1.rank == 2 and b.e2.rank == 2

    def test_triangular(self):
        b = gal.build_triangular(2, 3)
        assert b.group.order == 32
        assert b.q_group.order == 4
        assert b.u_group.order == 8
        assert b.kernel.rank == 3

    def test_prop10_small(self):
        b = gal.build_prop10(2, 1)
        assert b.group.order == 1024
        assert b.linear_order == 32
        assert b.distinguished.rank == 2
        assert len(b.max_subspaces) == 3
        assert b.c_matrix == ((1, 0), (1, 1))

    def test_prop10_refuses_before_closure(self):
        # the 3^6 translations fit under the element cap, so the
        # stabilizer chain refuses the group before any element is formed
        with pytest.raises(CapExceeded) as e:
            gal.build_prop10(3, 1)
        assert e.value.guard == "element_cap"

    def test_prop10_refuses_before_any_permutation(self, monkeypatch):
        # G holds all 2^5 translations of E + Z
        monkeypatch.setenv("ELABCAT_ELEMENT_CAP", "31")
        with pytest.raises(CapExceeded) as e:
            gal.build_prop10(2, 1)
        assert e.value.guard == "element_cap" and "2^5 points" in str(e.value)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_affine_images_match_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    vectors = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    mats = data.draw(st.lists(st.lists(vectors, min_size=n, max_size=n),
                              min_size=k, max_size=k))
    shifts = data.draw(st.lists(vectors, min_size=k, max_size=k))
    assert gal.affine_images(mats, shifts, p, n).tolist() == [
        list(affine_perm(M, v, p, n)) for M, v in zip(mats, shifts)]
    assert (gal.affine_images(mats, [0] * n, p, n)[:, 1:] - 1).tolist() == [
        list(matrix_perm_nonzero(M, p, n)) for M in mats]


# the gallery and benchmark groups (perfbench/gen.py reads their generators)
@pytest.mark.parametrize("build,oracle", [
    (lambda: gal.build_gl3(2), lambda: gl3_oracle(2)),
    (lambda: gal.build_gl3(3), lambda: gl3_oracle(3)),
    (lambda: gal.build_affine(8), lambda: affine_oracle(8)),
    (lambda: gal.build_affine(9), lambda: affine_oracle(9)),
    (lambda: gal.build_affine(13), lambda: affine_oracle(13)),
    (lambda: gal.build_triangular(2, 3), lambda: triangular_oracle(2, 3)),
], ids=["gl3-2", "gl3-3", "affine-8", "affine-9", "affine-13", "tri-2-3"])
def test_builds_match_oracle(build, oracle):
    b = build()
    for part, want in oracle().items():
        obj = getattr(b, part)
        got = (obj.generators if isinstance(obj, FiniteGroup)
               else sorted(b.group.element(i) for i in obj.elements))
        assert got == want, part


class TestFixtures:
    def test_entry_names_cover_bundle(self):
        names = gal.entry_names()
        assert set(FAST_ENTRIES) <= set(names)
        assert "gl3-3" in names

    def test_load_entry_unknown(self):
        with pytest.raises(InputFormatError):
            gal.load_entry("no-such-entry")

    def test_load_entry_fields(self):
        entry = gal.load_entry("affine-4")
        assert entry.prime == 2
        assert entry.builder == "affine"
        assert all(c.provenance in ("cited", "derived", "trivial")
                   for c in entry.claims)

    def test_bad_fixture_rejected(self, tmp_path):
        doc = {"name": "x", "builder": "affine", "params": {"q": 4},
               "prime": 2,
               "claims": [{"id": "a", "text": "t", "provenance": "guessed",
                           "check": "group_order", "expected": 1}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError):
            gal.load_entry(str(path))

    def test_unknown_check_rejected(self, tmp_path):
        doc = {"name": "x", "builder": "affine", "params": {"q": 4},
               "prime": 2,
               "claims": [{"id": "a", "text": "t", "provenance": "derived",
                           "check": "not_a_check", "expected": 1}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError):
            gal.load_entry(str(path))

    @pytest.mark.parametrize("name", FAST_ENTRIES)
    def test_verify_entry(self, name):
        report = gal.verify_gallery(gal.load_entry(name))
        failed = [r.claim_id for r in report.results if not r.ok]
        assert report.ok, f"failed claims: {failed}"

    @pytest.mark.slow
    def test_verify_gl3_3(self):
        report = gal.verify_gallery(gal.load_entry("gl3-3"))
        failed = [r.claim_id for r in report.results if not r.ok]
        assert report.ok, f"failed claims: {failed}"

    @pytest.mark.parametrize("name", gal.entry_names())
    def test_claims_in_reverse_order_compute_the_same(self, name):
        # a claim computes its value one way, whatever the claims before
        # it have built
        entry = gal.load_entry(name)
        forward = gal.verify_gallery(entry).results
        backward = gal.verify_gallery(entry._replace(claims=entry.claims[::-1]))
        assert [(r.claim_id, r.computed) for r in backward.results[::-1]] == [
            (r.claim_id, r.computed) for r in forward]

    @pytest.mark.parametrize("orbit_size,computed", [(4, 8), (0, None), ("4", None), (2.5, None)])
    def test_class_centralizer_order_needs_a_class_met(self, tmp_path, orbit_size, computed):
        # the kernel of triangular-2-3 meets one class in 4 elements; no
        # class it misses, and no size that is not a count, picks a class
        doc = {"name": "x", "builder": "triangular", "params": {"p": 2, "n": 3}, "prime": 2,
               "claims": [{"id": "c", "text": "t", "provenance": "derived",
                           "check": "class_centralizer_order", "expected": 8,
                           "args": {"object": "kernel", "orbit_size": orbit_size}}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        assert gal.verify_gallery(gal.load_entry(str(path))).results[0].computed == computed

    @pytest.mark.parametrize("name,check,args,expected", [
        ("affine-4", "object_order", {"object": "kernel"}, 4),
        ("affine-4", "hom_order", {"domain": "kernel", "codomain": "kernel", "kind": "A"}, 3),
        ("affine-4", "hom_order",
         {"domain": "kernel", "codomain": "kernel", "kind": "Aprime"}, 6),
        ("gl3-2", "conjugate_objects", {"a": "e1", "b": "e1"}, True),
    ])
    def test_checks_no_fixture_claims(self, tmp_path, name, check, args, expected):
        # the fixtures hold no object_order or hom_order claim, and only
        # false conjugate_objects ones
        entry = gal.load_entry(name)
        doc = {"name": "x", "builder": entry.builder, "params": entry.params,
               "prime": entry.prime,
               "claims": [{"id": "c", "text": "t", "provenance": "derived",
                           "check": check, "expected": expected, "args": args}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        report = gal.verify_gallery(gal.load_entry(str(path)))
        assert report.ok
        assert report.results[0].computed == expected

    def test_failing_claim_reported(self, tmp_path):
        doc = {"name": "x", "builder": "affine", "params": {"q": 4},
               "prime": 2,
               "claims": [{"id": "wrong", "text": "off by one",
                           "provenance": "derived", "check": "group_order",
                           "expected": 13}]}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        report = gal.verify_gallery(gal.load_entry(str(path)))
        assert not report.ok
        assert report.results[0].computed == 12
