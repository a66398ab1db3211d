import numpy as np
import pytest

from brute_force import (close_matrix_group, identity_mat, injective_oracle, mat_rank, mat_vec,
                         span, subspace_oracle)
from elabcat.fpmat import (gl_generators, image_tables, injective_count, mat_mul,
                           primitive_element, restricts_into, subspace_bases, subspace_codes)
from elabcat.gallery import affine_images
from elabcat.groups import close_generators

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def shapes(bound):
    """Every (p, dim) with p^dim <= bound."""
    return [(p, dim) for p in PRIMES for dim in range(9) if p ** dim <= bound]


def gaussian_binomial(p, dim, rank):
    """Number of rank-dimensional subspaces of F_p^dim."""
    num = den = 1
    for i in range(rank):
        num *= p ** (dim - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


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

    def test_subspace_bases_match_oracle(self):
        # (2, 5, 5) is left out: the oracle's tuple scan takes seconds there
        for p, dim in shapes(32):
            for rank in range(dim + 1):
                if (p, dim, rank) != (2, 5, 5):
                    assert subspace_bases(p, dim, rank) == subspace_oracle(p, dim, rank)

    def test_subspace_counts_are_gaussian_binomials(self):
        # __wrapped__ skips the cache: F_2^8 has 200,787 subspaces of rank 4
        for p, dim in shapes(256):
            for rank in range(dim + 2):
                bases = subspace_bases.__wrapped__(p, dim, rank)
                assert len(bases) == gaussian_binomial(p, dim, rank), (p, dim, rank)

    def test_subspace_bases_are_greedy_lex_first(self):
        # the smallest nonzero vector of the span, then each time the
        # smallest vector outside the span so far
        for p, dim in shapes(64):
            for rank in range(dim + 1):
                bases = subspace_bases(p, dim, rank)
                assert list(bases) == sorted(set(bases))
                for basis in bases:
                    whole = span(p, basis) | {(0,) * dim}
                    greedy, inside = [], {(0,) * dim}
                    while len(inside) < len(whole):
                        greedy.append(min(whole - inside))
                        inside = span(p, greedy)
                    assert tuple(greedy) == basis

    def test_subspace_codes_span_the_bases(self):
        for p, dim in shapes(64):
            for rank in range(dim + 1):
                for basis, codes in zip(subspace_bases(p, dim, rank),
                                        subspace_codes(p, dim, rank).tolist()):
                    vectors = {tuple(c // p ** k % p for k in range(dim)) for c in codes}
                    assert len(codes) == p ** rank
                    assert vectors == span(p, basis) | {(0,) * dim}
                    assert [codes[p ** k] for k in range(rank)] == [
                        sum(x * p ** k for k, x in enumerate(v)) for v in basis]

    @pytest.mark.parametrize("p,top", [(2, 5), (3, 4), (5, 3)])
    def test_subspace_codes_of_a_smaller_dimension_are_rows_of_the_top(self, p, top):
        # ElabCatalog.inside reads every dimension's subspaces off the top's
        for rank in range(1, top):
            rows = subspace_codes(p, top, rank)
            for dim in range(rank, top + 1):
                kept = rows[(rows < p ** dim).all(axis=1)]
                assert np.array_equal(kept, subspace_codes(p, dim, rank)), (rank, dim)

    @pytest.mark.parametrize("p,width,rows,n,domains", [
        pytest.param(*c, id="-".join(map(str, c[:4])) + (f"-{c[4]}-domains" if c[4] > 1 else ""))
        for c in [(2, 3, 3, 2, 1), (2, 4, 4, 2, 1), (3, 3, 3, 2, 1), (2, 4, 5, 3, 1),
                  (5, 2, 2, 1, 1), (2, 4, 4, 2, 2), (3, 3, 3, 2, 3), (2, 4, 5, 3, 3)]])
    def test_restricts_into_matches_a_loop(self, p, width, rows, n, domains):
        # one domain tags its subspaces by index; several tag them by
        # (domain, a class shared by some of them), as the catalog does.
        # Restrictions allowed under any other tag must not count
        rng = np.random.default_rng(p * 10000 + width * 1000 + rows * 100 + n * 10 + domains)
        cols = rng.integers(0, p ** rows, size=(60, width))
        of = rng.integers(0, domains, size=len(cols))
        subs = subspace_codes(p, width, n)[:, p ** np.arange(n)]
        # each domain lists the subspaces in an order of its own
        at = np.stack([subs[rng.permutation(len(subs))] for _ in range(domains)])
        if domains == 1:
            tag = np.arange(len(subs))[None, :, None]
        else:
            tag = np.stack([np.arange(domains).repeat(len(subs)).reshape(domains, -1),
                            rng.integers(0, 3, size=(domains, len(subs)))], axis=2)
        tables = image_tables(cols, p, rows)
        for c, table in zip(cols.tolist(), tables.tolist()):
            for code in range(p ** width):
                image = [sum(code // p ** k % p * (col // p ** r % p) for k, col in enumerate(c))
                         % p for r in range(rows)]
                assert table[code] == sum(x * p ** r for r, x in enumerate(image))
        pool = np.unique(tables[:, subs].reshape(-1, n), axis=0).tolist()
        tags = np.unique(tag.reshape(-1, tag.shape[2]), axis=0).tolist()
        # each map passes about half the time
        allowed = [t + r for t in tags for r in pool if rng.random() < 0.5 ** (1 / len(subs))]
        ok = set(map(tuple, allowed))
        want = [all(tuple(tag[d, s].tolist() + [table[c] for c in at[d, s].tolist()]) in ok
                    for s in range(len(subs)))
                for d, table in zip(of.tolist(), tables.tolist())]
        got = restricts_into(cols, of, p, rows, at, tag, np.array(allowed))
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)

    @pytest.mark.parametrize("p,n,order", [(2, 2, 6), (2, 3, 168), (3, 2, 48),
                                           (5, 1, 4), (7, 1, 6)])
    def test_gl_generators(self, p, n, order):
        gens = gl_generators(p, n)
        on_codes = close_generators(p ** n, affine_images(gens, [0] * n, p, n))
        assert on_codes.order == order == gl_order(p, n)
        assert len(close_matrix_group(gens, p)) == order

    def test_primitive_root(self):
        for p in (3, 5, 7, 11):
            g = primitive_element(p, lambda a, b: a * b % p)
            assert sorted(pow(g, k, p) for k in range(p - 1)) == list(range(1, p))
        assert primitive_element(2, lambda a, b: a * b % 2) == 1

    def test_close_matrix_group_identity_only(self):
        assert close_matrix_group([identity_mat(2)], 2) == [identity_mat(2)]
