import pytest

from brute_force import injective_oracle
from elabcat.fpmat import (close_matrix_group, gl_generators, identity_mat,
                           injective_count, mat_inv, mat_mul, mat_rank,
                           mat_vec, primitive_root, span, subspace_bases)


def gl_order(p, n):
    order = 1
    for j in range(n):
        order *= p ** n - p ** j
    return order


class TestBasics:
    def test_mat_mul_and_vec(self):
        M = ((1, 1), (0, 1))
        assert mat_mul(M, M, 2) == ((1, 0), (0, 1))
        assert mat_vec(M, (1, 1), 2) == (0, 1)

    def test_rank(self):
        assert mat_rank(((1, 1), (1, 1)), 2) == 1
        assert mat_rank(identity_mat(3), 5) == 3
        assert mat_rank(((0, 0), (0, 0)), 3) == 0

    def test_inverse(self):
        M = ((1, 2), (0, 1))
        Minv = mat_inv(M, 3)
        assert mat_mul(M, Minv, 3) == identity_mat(2)
        assert mat_inv(((1, 1), (1, 1)), 2) is None

    def test_span(self):
        vecs = span(3, ((1, 0),))
        assert sorted(vecs) == [(0, 0), (1, 0), (2, 0)]


class TestEnumerations:
    @pytest.mark.parametrize("p,rows,cols", [(2, 2, 1), (2, 2, 2), (3, 2, 2),
                                             (2, 3, 2), (3, 3, 1)])
    def test_injective_count_formula(self, p, rows, cols):
        mats = injective_oracle(p, rows, cols)
        want = 1
        for j in range(cols):
            want *= p ** rows - p ** j
        assert len(mats) == want == injective_count(p, rows, cols)
        assert list(mats) == sorted(mats)
        assert all(mat_rank(M, p) == cols for M in mats)

    def test_subspace_count_gaussian(self):
        # number of 2-dim subspaces of F_2^4 is the Gaussian binomial 35
        assert len(subspace_bases(2, 4, 2)) == 35
        assert len(subspace_bases(3, 3, 1)) == 13
        assert len(subspace_bases(2, 3, 3)) == 1
        assert subspace_bases(2, 3, 0) == ((),)

    def test_subspace_bases_canonical(self):
        seen = set()
        for basis in subspace_bases(2, 3, 2):
            key = span(2, basis)
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("p,n,order", [(2, 2, 6), (2, 3, 168), (3, 2, 48),
                                           (5, 1, 4), (7, 1, 6)])
    def test_gl_generators(self, p, n, order):
        gens = gl_generators(p, n)
        assert len(close_matrix_group(gens, p)) == order == gl_order(p, n)

    def test_primitive_root(self):
        for p in (3, 5, 7, 11):
            g = primitive_root(p)
            assert sorted(pow(g, k, p) for k in range(p - 1)) == list(range(1, p))

    def test_close_matrix_group_identity_only(self):
        assert close_matrix_group([identity_mat(2)], 2) == [identity_mat(2)]
