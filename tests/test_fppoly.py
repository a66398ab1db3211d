import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import (dict_add, dict_mul, dict_pow, dict_substitute, expand_in_elementaries,
                         format_terms, left_to_right, linear_form, make_weights, variable)
from elabcat.chern import total_chern
from elabcat.errors import CapExceeded, NotSymmetric
from elabcat.fpmat import mat_mul
from elabcat.fppoly import FpPolynomial, _pack, _unpack, elementary_symmetric, symmetric_reduce


def monomial(prime, nvars, exps):
    out = FpPolynomial.constant(prime, nvars, 1)
    for i, e in enumerate(exps):
        out = out * variable(prime, nvars, i) ** e
    return out


def poly_strategy(prime=3, nvars=2, max_terms=4, max_exp=3):
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * nvars),
        st.integers(1, prime - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda items: sum(
            (monomial(prime, nvars, e) * FpPolynomial.constant(prime, nvars, c)
             for e, c in items),
            FpPolynomial(prime, nvars, {})))


class TestArithmetic:
    def test_zero_and_one(self):
        z = FpPolynomial(2, 2, {})
        one = FpPolynomial.constant(2, 2, 1)
        assert z.is_zero()
        assert not one.is_zero()
        assert one + z == one

    def test_coefficients_reduced_mod_p(self):
        x = variable(3, 1, 0)
        assert (x + x + x).is_zero()
        assert (x * FpPolynomial.constant(3, 1, 3)).is_zero()

    def test_equals_only_polynomials(self):
        # a constant is not its int, and a polynomial has no hash
        one = FpPolynomial.constant(3, 1, 1)
        assert one == FpPolynomial.constant(3, 1, 4) and one != 1
        assert FpPolynomial.constant(3, 1, 2) not in (2, 5, -1)
        assert variable(3, 1, 0) != 0 and FpPolynomial(3, 1, {}) != 0
        assert one != FpPolynomial.constant(3, 2, 1) and one != FpPolynomial.constant(5, 1, 1)
        with pytest.raises(TypeError):
            hash(one)

    def test_pow(self):
        x = variable(2, 2, 0)
        y = variable(2, 2, 1)
        # freshman's dream over F_2
        assert (x + y) ** 2 == x ** 2 + y ** 2

    def test_linear_form(self):
        f = linear_form(3, (1, 2))
        x = variable(3, 2, 0)
        y = variable(3, 2, 1)
        assert f == x + y * FpPolynomial.constant(3, 2, 2)

    def test_degree_and_parts(self):
        x = variable(2, 2, 0)
        y = variable(2, 2, 1)
        f = x * y + x + FpPolynomial.constant(2, 2, 1)
        assert f.homogeneous_part(1) == x
        assert f.homogeneous_part(2) == x * y
        assert sorted(f.degrees()) == [0, 1, 2]

    @given(poly_strategy(), poly_strategy(), poly_strategy())
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(poly_strategy())
    @settings(max_examples=20, deadline=None)
    def test_additive_inverse(self, f):
        assert (f + f * FpPolynomial.constant(f.prime, f.nvars, -1)).is_zero()

    def test_term_cap(self, monkeypatch):
        f = FpPolynomial.constant(2, 3, 1)
        for i in range(3):
            f = f * (variable(2, 3, i) + FpPolynomial.constant(2, 3, 1))
        monkeypatch.setenv("ELABCAT_TERM_CAP", "4")
        with pytest.raises(CapExceeded) as e:
            f * f
        assert e.value.guard == "term_cap"


class TestConstruction:
    @pytest.mark.parametrize("nvars,terms", [
        (2, {(-1, 0): 1, (0, 0): 1}),   # once printed as the non-canonical "1 + 1"
        (2, {(2, -1): 1}),              # once read as x1*x2^2
        (1, {(1.5,): 1}),               # once truncated to x1
        (1, {("1",): 1}),
        (2, {(1,): 1}),
    ])
    def test_exponents_are_non_negative_integers(self, nvars, terms):
        with pytest.raises(ValueError, match="non-negative integers"):
            FpPolynomial(3, nvars, terms)

    def test_numpy_integer_exponents(self):
        assert FpPolynomial(3, 1, {(np.int64(2),): 1}) == \
            variable(3, 1, 0) ** 2


class TestSubstitution:
    def test_substitute_linear_swap(self):
        x = variable(2, 2, 0)
        y = variable(2, 2, 1)
        f = x ** 2 + y
        assert f.substitute_linear(((0, 1), (1, 0))) == y ** 2 + x

    def test_substitute_linear_composes(self):
        f = variable(3, 2, 0) ** 2 + variable(3, 2, 1)
        M = ((1, 1), (0, 1))
        N = ((1, 0), (2, 1))
        both = f.substitute_linear(mat_mul(M, N, 3))
        stepwise = f.substitute_linear(N).substitute_linear(M)
        assert both == stepwise

    def test_substitute_images(self):
        x = variable(2, 2, 0)
        y = variable(2, 2, 1)
        assert (x * y).substitute([y, x]) == x * y
        assert (x + y ** 2).substitute([y, x]) == y + x ** 2

    def test_large_expansion_within_default_cap(self):
        # s1^40 * s2^40 -> e1^40 * e2^40: 861 * 861 products before they
        # collect to C(122, 2) = 7,381 terms
        g = {(40, 40, 0): 1}
        got = expand_in_elementaries(FpPolynomial(101, 3, g))
        assert got.terms == dict_substitute(101, 3, g, elementary_dicts(3))

    def test_cap_bounds_each_terms_expansion(self, monkeypatch):
        # every term expands to 4 terms, 16 rows in all, 4 after collecting
        p = 5
        f = {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
        images = [{(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): p - 1}]
        F = FpPolynomial(p, 2, f)
        G = [FpPolynomial(p, 2, d) for d in images]
        monkeypatch.setenv("ELABCAT_TERM_CAP", "4")
        assert F.substitute(G).terms == dict_substitute(p, 2, f, images)
        monkeypatch.setenv("ELABCAT_TERM_CAP", "3")
        with pytest.raises(CapExceeded) as e:
            F.substitute(G)
        assert e.value.guard == "term_cap"


class TestFormat:
    def test_constant_and_zero(self):
        assert FpPolynomial(2, 2, {}).format() == "0"
        assert FpPolynomial.constant(2, 2, 1).format() == "1"
        assert FpPolynomial.constant(3, 1, 2).format() == "2"

    def test_graded_order(self):
        x = variable(2, 2, 0)
        y = variable(2, 2, 1)
        f = FpPolynomial.constant(2, 2, 1) + x + y + x * y
        assert f.format() == "1 + x1 + x2 + x1*x2"

    def test_coefficient_prefix(self):
        f = variable(3, 1, 0) ** 2 * FpPolynomial.constant(3, 1, 2)
        assert f.format() == "2*x1^2"

    def test_varname(self):
        assert variable(2, 2, 1).format("s") == "s2"

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_term_oracle(self, data):
        # the zero polynomial, constants, coefficient 1 and others,
        # exponents of 10 or more, and up to 12 variables
        p = data.draw(st.sampled_from([2, 3, 7, 2 ** 61 - 1]))
        n = data.draw(st.integers(0, 12))
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.one_of(st.integers(0, 2), st.integers(10, 120))] * n),
            st.one_of(st.just(1), st.integers(1, p - 1)), max_size=8))
        f = FpPolynomial(p, n, terms)
        for varname in ("x", "s"):
            assert f.format(varname) == format_terms(f, varname)

    def test_matches_term_oracle_on_wide_polynomials(self):
        f = FpPolynomial(5, 11, {(0,) * 11: 3, (1,) * 11: 1, (10,) + (0,) * 10: 2,
                                 (0,) * 10 + (12,): 1, (2, 0, 1) + (0,) * 8: 4})
        want = "3 + 4*x1^2*x3 + 2*x1^10 + x1*x2*x3*x4*x5*x6*x7*x8*x9*x10*x11 + x11^12"
        assert f.format() == format_terms(f) == want
        assert f.format("s") == format_terms(f, "s") == want.replace("x", "s")
        zero = FpPolynomial(5, 11, {})
        assert zero.format() == format_terms(zero) == "0"


class TestSymmetric:
    def test_elementary_symmetric(self):
        assert elementary_symmetric(2, 2, 1).format() == "x1 + x2"
        assert elementary_symmetric(2, 2, 2).format() == "x1*x2"
        assert elementary_symmetric(2, 2, 0) == FpPolynomial.constant(2, 2, 1)

    def test_is_symmetric(self):
        x = variable(2, 3, 0)
        y = variable(2, 3, 1)
        z = variable(2, 3, 2)
        assert (x * y + y * z + x * z).is_symmetric()
        assert not (x + y).is_symmetric()

    def test_reduce_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_reduce(variable(2, 2, 0))

    def test_reduce_roundtrip_small(self):
        f = elementary_symmetric(3, 3, 1) ** 2 + elementary_symmetric(3, 3, 2)
        g = symmetric_reduce(f)
        assert expand_in_elementaries(g) == f

    def test_reduce_of_elementary_is_variable(self):
        g = symmetric_reduce(elementary_symmetric(2, 3, 2))
        assert g.format("s") == "s2"


# -- against the dict oracle ------------------------------------------


@st.composite
def field_and_vars(draw, max_vars=3):
    return draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(0, max_vars))


def term_dicts(p, nvars, max_terms=5, max_exp=4):
    return st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * nvars),
                           st.integers(1, p - 1), max_size=max_terms)


def elementary_dicts(nvars):
    return [{tuple(int(i in combo) for i in range(nvars)): 1
             for combo in itertools.combinations(range(nvars), k)}
            for k in range(1, nvars + 1)]


class TestAgainstDictOracle:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_ring_operations(self, data):
        p, n = data.draw(field_and_vars())
        f = data.draw(term_dicts(p, n))
        g = data.draw(term_dicts(p, n))
        k = data.draw(st.integers(0, 4))
        F, G = FpPolynomial(p, n, f), FpPolynomial(p, n, g)
        minus_g = {e: p - c for e, c in g.items()}
        assert (F * G).terms == dict_mul(p, f, g)
        assert (F + G).terms == dict_add(p, f, g)
        assert (F + FpPolynomial(p, n, minus_g)).terms == dict_add(p, f, minus_g)
        assert (F ** k).terms == dict_pow(p, n, f, k)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_substitute(self, data):
        p, n = data.draw(field_and_vars())
        m = data.draw(st.integers(0, 3))
        f = data.draw(term_dicts(p, n))
        images = [data.draw(term_dicts(p, m, max_terms=3, max_exp=2))
                  for _ in range(n)]
        got = FpPolynomial(p, n, f).substitute(
            [FpPolynomial(p, m, img) for img in images])
        assert got.nvars == (m if n else 0)
        assert got.terms == dict_substitute(p, m if n else 0, f, images)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_substitute_powers_by_digits(self, data):
        # multi-term images and exponents up to p^2: each power an image
        # needs is built from the binary digits of its exponent
        p = data.draw(st.sampled_from([2, 3, 5]))
        n, m = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        f = data.draw(term_dicts(p, n, max_terms=4, max_exp=p * p))
        images = [data.draw(st.dictionaries(st.tuples(*[st.integers(0, 1)] * m),
                                            st.integers(1, p - 1), min_size=2, max_size=3))
                  for _ in range(n)]
        got = FpPolynomial(p, n, f).substitute(
            [FpPolynomial(p, m, img) for img in images])
        assert got.terms == dict_substitute(p, m, f, images)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_substitute_linear(self, data):
        p, n = data.draw(field_and_vars())
        f = data.draw(term_dicts(p, n))
        M = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n,
                                        max_size=n), min_size=n, max_size=n))
        images = [{tuple(int(j == r) for j in range(n)): M[r][i]
                   for r in range(n) if M[r][i]} for i in range(n)]
        got = FpPolynomial(p, n, f).substitute_linear(M)
        assert got.terms == dict_substitute(p, n, f, images)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_reduce(self, data):
        p, n = data.draw(field_and_vars())
        g = data.draw(term_dicts(p, n, max_terms=4, max_exp=3))
        f = dict_substitute(p, n, g, elementary_dicts(n))
        # the e_k are algebraically independent, so g is the only answer
        assert symmetric_reduce(FpPolynomial(p, n, f)).terms == g

    def test_packed_key_past_int64(self):
        # base 601 in 8 variables: 601^8 > 2^63, so keys are Python ints
        p, n = 5, 8
        f = {(300, 0, 0, 0, 0, 0, 0, 5): 1, (0, 0, 0, 310, 0, 0, 0, 0): 2,
             (0,) * 8: 3}
        g = {(299, 0, 0, 0, 0, 0, 0, 0): 4, (0, 1, 0, 0, 0, 0, 0, 290): 1,
             (1, 0, 0, 0, 0, 0, 0, 0): 2}
        F, G = FpPolynomial(p, n, f), FpPolynomial(p, n, g)
        assert (int(F.exps.max()) + int(G.exps.max()) + 1) ** n > 2 ** 63
        assert (F * G).terms == dict_mul(p, f, g)
        assert (F * G * G).terms == dict_mul(p, dict_mul(p, f, g), g)
        assert (F + G).terms == dict_add(p, f, g)
        shift = [{tuple(int(j == (i + 1) % n) for j in range(n)): 1}
                 for i in range(n)]
        shift[3] = {(0, 0, 0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0, 0, 0, 1): 1}
        assert F.substitute([FpPolynomial(p, n, d) for d in shift]).terms == \
            dict_substitute(p, n, f, shift)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pack_dtype_and_order(self, data):
        # top + 1 drawn around the n-th root of 2^63 / owners, so both
        # sides of the int64 bound are hit
        n, owners = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 1000))
        edge = round((2 ** 63 / owners) ** (1 / n))
        top = data.draw(st.integers(max(0, edge - 3), min(edge + 1, 2 ** 63 - 1)))
        rows = np.array(data.draw(st.lists(st.lists(st.integers(0, top), min_size=n, max_size=n),
                                           max_size=8)), dtype=np.int64).reshape(-1, n)
        keys = _pack(rows, top, owners)
        assert keys.dtype == (np.int64 if owners * (top + 1) ** n < 2 ** 63 else object)
        assert np.array_equal(_unpack(keys, top, n), rows)
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_keys_past_int64(self, data):
        # exponents shifted by at least the n-th root of 2^63: each sum,
        # product and substitution below packs its keys as Python ints
        p, n = data.draw(st.sampled_from([2, 3, 5, 7])), data.draw(st.integers(2, 5))
        shift = data.draw(st.integers(math.ceil(2 ** (63 / n)), 2 * math.ceil(2 ** (63 / n))))
        f, g = ({tuple(e + shift for e in exps): c for exps, c in t.items()}
                for t in (data.draw(term_dicts(p, n)), data.draw(term_dicts(p, n))))
        F, G = FpPolynomial(p, n, f), FpPolynomial(p, n, g)
        assert (F * G).terms == dict_mul(p, f, g)
        assert (F + G).terms == dict_add(p, f, g)
        # small exponents into shifted images; x1 * ... * xn keeps top past the bound
        h = {**data.draw(term_dicts(p, n, max_terms=3, max_exp=2)), (1,) * n: 1}
        images = [{tuple(e + shift for e in exps): c for exps, c in
                   data.draw(term_dicts(p, n, max_terms=2, max_exp=1)).items()} or {(0,) * n: 1}
                  for _ in range(n)]
        assert FpPolynomial(p, n, h).substitute(
            [FpPolynomial(p, n, img) for img in images]).terms == dict_substitute(p, n, h, images)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_tree_keys_past_int64(self, data):
        # 8-12 factors in 20 variables, each with x1: 9^20 > 2^63, so the
        # product tree packs its keys as Python ints
        p, n = data.draw(st.sampled_from([2, 3, 5])), 20
        rows = [[data.draw(st.integers(1, p - 1)), *data.draw(st.lists(
            st.integers(0, p - 1), min_size=2, max_size=2)), *[0] * (n - 3)]
            for _ in range(data.draw(st.integers(8, 12)))]
        assert total_chern(make_weights(p, n, rows)).terms == left_to_right(p, n, rows)

    @pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
    def test_large_primes(self, p):
        # 2^31 - 1: sums of unreduced coefficient products pass 2^63;
        # 2^61 - 1: the products themselves do
        f = {(k, 20 - k): p - 1 - k for k in range(21)}
        g = {(k, 0): p - 2 for k in range(21)}
        F, G = FpPolynomial(p, 2, f), FpPolynomial(p, 2, g)
        assert (F * G).terms == dict_mul(p, f, g)
        assert (F ** 3).terms == dict_pow(p, 2, f, 3)
        minus_g = {e: p - c for e, c in g.items()}
        assert (F + FpPolynomial(p, 2, minus_g)).terms == dict_add(p, f, minus_g)
        images = [{(1, 0): p - 1, (0, 1): 3}, {(1, 0): 2}]
        assert F.substitute([FpPolynomial(p, 2, d) for d in images]).terms == \
            dict_substitute(p, 2, f, images)
        assert (F * FpPolynomial.constant(p, 2, p + 2)).terms == \
            {e: c * 2 % p for e, c in f.items()}

    def test_zero_polynomial_and_no_variables(self):
        for n in (0, 2):
            z, x = FpPolynomial(3, n, {}), FpPolynomial.constant(3, n, 2)
            one = FpPolynomial.constant(3, n, 1)
            assert z.is_zero() and z.terms == {} and z.degrees() == []
            assert (z * x).is_zero() and (x * z).is_zero()
            assert z + x == x and x + FpPolynomial.constant(3, n, -2) == z
            assert z ** 0 == one and x ** 0 == one and z ** 2 == z
            assert (x * x).terms == {(0,) * n: 1}
            assert z.format() == "0" and x.format() == "2"
            assert symmetric_reduce(z).is_zero()
            assert symmetric_reduce(x) == FpPolynomial.constant(3, n, 2)
            assert z.substitute([FpPolynomial.constant(3, 1, 1)] * n).is_zero()
        c = FpPolynomial.constant(7, 0, 4)
        assert c.substitute([]) == c and c.degrees() == [0]
        assert c.substitute_linear([]) == c
        assert FpPolynomial.constant(3, 2, 2).substitute(
            [variable(3, 1, 0)] * 2).terms == {(0,): 2}
