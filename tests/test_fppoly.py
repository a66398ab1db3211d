import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elabcat.errors import CapExceeded, NotSymmetric
from elabcat.fpmat import mat_mul
from elabcat.fppoly import (FpPolynomial, elementary_symmetric,
                            expand_in_elementaries, symmetric_reduce)


def monomial(prime, nvars, exps):
    out = FpPolynomial.one(prime, nvars)
    for i, e in enumerate(exps):
        out = out * FpPolynomial.variable(prime, nvars, i) ** e
    return out


def poly_strategy(prime=3, nvars=2, max_terms=4, max_exp=3):
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * nvars),
        st.integers(1, prime - 1))
    return st.lists(term, max_size=max_terms).map(
        lambda items: sum(
            (monomial(prime, nvars, e).scale(c) for e, c in items),
            FpPolynomial.zero(prime, nvars)))


class TestArithmetic:
    def test_zero_and_one(self):
        z = FpPolynomial.zero(2, 2)
        one = FpPolynomial.one(2, 2)
        assert z.is_zero()
        assert not one.is_zero()
        assert one + z == one

    def test_coefficients_reduced_mod_p(self):
        x = FpPolynomial.variable(3, 1, 0)
        assert (x + x + x).is_zero()
        assert x.scale(3).is_zero()

    def test_sub_and_neg(self):
        x = FpPolynomial.variable(5, 1, 0)
        assert (x - x).is_zero()
        assert (x + (-x)).is_zero()

    def test_int_scaling(self):
        x = FpPolynomial.variable(5, 1, 0)
        assert 2 * x == x + x

    def test_pow(self):
        x = FpPolynomial.variable(2, 2, 0)
        y = FpPolynomial.variable(2, 2, 1)
        # freshman's dream over F_2
        assert (x + y) ** 2 == x ** 2 + y ** 2

    def test_linear_form(self):
        f = FpPolynomial.linear_form(3, (1, 2))
        x = FpPolynomial.variable(3, 2, 0)
        y = FpPolynomial.variable(3, 2, 1)
        assert f == x + y.scale(2)

    def test_degree_and_parts(self):
        x = FpPolynomial.variable(2, 2, 0)
        y = FpPolynomial.variable(2, 2, 1)
        f = x * y + x + FpPolynomial.one(2, 2)
        assert f.degree() == 2
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
        assert (f - f).is_zero()
        assert (f + f.scale(-1)).is_zero()

    def test_term_cap(self, monkeypatch):
        f = FpPolynomial.one(2, 3)
        for i in range(3):
            f = f * (FpPolynomial.variable(2, 3, i) + FpPolynomial.one(2, 3))
        monkeypatch.setenv("ELABCAT_TERM_CAP", "4")
        with pytest.raises(CapExceeded) as e:
            f * f
        assert e.value.guard == "term_cap"


class TestSubstitution:
    def test_substitute_linear_swap(self):
        x = FpPolynomial.variable(2, 2, 0)
        y = FpPolynomial.variable(2, 2, 1)
        f = x ** 2 + y
        assert f.substitute_linear(((0, 1), (1, 0))) == y ** 2 + x

    def test_substitute_linear_composes(self):
        f = FpPolynomial.variable(3, 2, 0) ** 2 + FpPolynomial.variable(3, 2, 1)
        M = ((1, 1), (0, 1))
        N = ((1, 0), (2, 1))
        both = f.substitute_linear(mat_mul(M, N, 3))
        stepwise = f.substitute_linear(N).substitute_linear(M)
        assert both == stepwise

    def test_substitute_images(self):
        x = FpPolynomial.variable(2, 2, 0)
        y = FpPolynomial.variable(2, 2, 1)
        assert (x * y).substitute([y, x]) == x * y
        assert (x + y ** 2).substitute([y, x]) == y + x ** 2


class TestFormat:
    def test_constant_and_zero(self):
        assert FpPolynomial.zero(2, 2).format() == "0"
        assert FpPolynomial.one(2, 2).format() == "1"
        assert FpPolynomial.constant(3, 1, 2).format() == "2"

    def test_graded_order(self):
        x = FpPolynomial.variable(2, 2, 0)
        y = FpPolynomial.variable(2, 2, 1)
        f = FpPolynomial.one(2, 2) + x + y + x * y
        assert f.format() == "1 + x1 + x2 + x1*x2"

    def test_coefficient_prefix(self):
        f = (FpPolynomial.variable(3, 1, 0) ** 2).scale(2)
        assert f.format() == "2*x1^2"

    def test_varname(self):
        assert FpPolynomial.variable(2, 2, 1).format("s") == "s2"


class TestSymmetric:
    def test_elementary_symmetric(self):
        assert elementary_symmetric(2, 2, 1).format() == "x1 + x2"
        assert elementary_symmetric(2, 2, 2).format() == "x1*x2"
        assert elementary_symmetric(2, 2, 0) == FpPolynomial.one(2, 2)

    def test_is_symmetric(self):
        x = FpPolynomial.variable(2, 3, 0)
        y = FpPolynomial.variable(2, 3, 1)
        z = FpPolynomial.variable(2, 3, 2)
        assert (x * y + y * z + x * z).is_symmetric()
        assert not (x + y).is_symmetric()

    def test_reduce_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_reduce(FpPolynomial.variable(2, 2, 0))

    def test_reduce_roundtrip_small(self):
        f = elementary_symmetric(3, 3, 1) ** 2 + elementary_symmetric(3, 3, 2)
        g = symmetric_reduce(f)
        assert expand_in_elementaries(g) == f

    def test_reduce_of_elementary_is_variable(self):
        g = symmetric_reduce(elementary_symmetric(2, 3, 2))
        assert g.format("s") == "s2"
