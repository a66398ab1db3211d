"""The one order of rows in groups and categories: lexicographic, read
through row_keys for every sort and dedupe."""

import time
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import from_elements
from elabcat.groups import close_generators, distinct_rows, row_keys

# entries near both ends of [0, 2^32), where byte and integer order could part
ENTRIES = st.one_of(st.integers(0, 3), st.integers(2 ** 32 - 3, 2 ** 32 - 1),
                    st.integers(0, 2 ** 32 - 1))


@st.composite
def row_arrays(draw):
    """(n, width) int64 arrays, width 0-70, with repeated rows."""
    width = draw(st.integers(0, 70))
    pool = draw(st.lists(st.lists(ENTRIES, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), max_size=12))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(max_examples=100, deadline=None)
@given(row_arrays())
def test_distinct_rows_are_the_sorted_set_of_tuples(rows):
    got = distinct_rows(rows)
    assert got.shape[1:] == rows.shape[1:]
    assert list(map(tuple, got.tolist())) == sorted(set(map(tuple, rows.tolist())))


def test_distinct_rows_of_wide_rows_stays_small():
    # 4 rows of 65,521 entries: a lexsort over every column would hold
    # 65,521 sort keys (172.5 MiB); one byte key per row holds 1 MiB
    q = 65521
    x = np.arange(q, dtype=np.int32)
    shift, scale = (x + 1) % q, 17 * x % q
    rows = np.stack([scale, shift, scale, x])
    tracemalloc.start()
    start = time.perf_counter()
    try:
        got = distinct_rows(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 16 * 2 ** 20
    assert np.array_equal(got, np.stack([x, scale, shift]))


def test_from_elements_sorts_a_shuffled_list():
    # the regular representation of (Z/2)^6 on 64 points
    G = close_generators(64, [[x ^ (1 << k) for x in range(64)] for k in range(6)])
    shuffled = G.array[np.random.default_rng(7).permutation(len(G))]
    assert np.array_equal(from_elements(64, shuffled).array, G.array)
    assert np.array_equal(G.array, distinct_rows(G.array[::-1]))


def test_rows_of_no_entries_have_one_key_each():
    assert row_keys(np.zeros((3, 0), dtype=np.int64)).shape == (3,)
    assert len(from_elements(0, [()])) == 1
