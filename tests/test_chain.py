"""The stabilizer-chain closure and its int64 element keys against the
breadth-first closure of brute_force.py: element tables, generator
tables, base and conjugacy byte for byte on named groups and random
ones, keys increasing along the table, lookups of rows that agree with
an element on the base only, and the guards that refuse a group before
its elements are formed; the one breadth-first search (groups._search)
against the tuple loops of brute_force.py, and orbit labels and orbits
(groups._orbit_labels, groups.orbits) against its set-based orbits.
"""

import itertools
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute_force import (bfs_closure, brute_orbits, brute_search, elements_of, from_elements,
                         in_group, index_of)
from elabcat import cli, gallery, groups
from elabcat.errors import CapExceeded, InvalidPermutation
from elabcat.groups import close_generators


def symmetric(n):
    return n, [tuple([1, 0] + list(range(2, n))), tuple((x + 1) % n for x in range(n))]


def cycles(*lengths):
    """One generator: disjoint cycles of the given lengths, in order."""
    gen, start = [], 0
    for m in lengths:
        gen += [start + (x + 1) % m for x in range(m)]
        start += m
    return start, [tuple(gen)]


def a4_squared():
    three, double, ident = [1, 2, 0, 3], [1, 0, 3, 2], [0, 1, 2, 3]
    return 8, [tuple(a + [x + 4 for x in b]) for a, b in
               ((three, ident), (double, ident), (ident, three), (ident, double))]


def dihedral_squared(n):
    """D_2n x D_2n on two disjoint sets of n points: each factor rotates
    and reflects its own n-gon."""
    ident = list(range(n))
    rotate, reflect = [(x + 1) % n for x in ident], [-x % n for x in ident]
    return 2 * n, [tuple(a + [x + n for x in b]) for a, b in
                   ((rotate, ident), (reflect, ident), (ident, rotate), (ident, reflect))]


def built(G):
    return G.degree, G.generators


NAMED = {
    "gl3-3": lambda: built(gallery.build_gl3(3).group),
    "S7": lambda: symmetric(7),
    "S8": lambda: symmetric(8),
    "A4xA4": a4_squared,
    "affine-8": lambda: built(gallery.build_affine(8).group),
    "tri-2-3": lambda: built(gallery.build_triangular(2, 3).group),
    "cyclic-15015": lambda: cycles(3, 5, 7, 11, 13),
    # order 1,156 with keys up to 83,230, past 64 per element: the binary search
    "D17xD17": lambda: dihedral_squared(17),
}


def assert_matches_bfs(degree, gens):
    try:
        array, conj, right, base, conjugacy = bfs_closure(degree, gens)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            close_generators(degree, gens)
        return
    G = close_generators(degree, gens)
    assert G.array.dtype == array.dtype and G.array.tobytes() == array.tobytes()
    for got, want in zip(G.generator_tables, (conj, right)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous               # tobytes() hides the layout
    assert G.base.dtype == base.dtype and G.base.tobytes() == base.tobytes()
    for field in ("class_of", "reps", "sizes", "witness"):
        assert np.array_equal(getattr(G.conjugacy, field), getattr(conjugacy, field)), field
    assert (np.diff(G._keys) > 0).all()


@pytest.mark.parametrize("name", list(NAMED))
def test_chain_matches_bfs_closure(name):
    assert_matches_bfs(*NAMED[name]())


@pytest.mark.parametrize("name, direct", [("S7", True), ("gl3-3", True), ("D17xD17", False)])
def test_direct_table_only_where_keys_are_dense(name, direct):
    # S7: keys below 7^6 = 117,649 for 5,040 elements; gl3-3: 17,547 for
    # 11,232; D17xD17: 83,231 for 1,156, more than 64 per element
    G = close_generators(*NAMED[name]())
    assert (G._position is not None) == direct
    assert (G._keys[-1] < groups.ENTRIES_PER_ELEMENT * len(G)) == direct


def test_keys_past_the_last_element_are_not_found():
    doc = json.loads((Path(__file__).parent / "golden" / "a4xa4.group.json").read_text())
    G = close_generators(doc["degree"], doc["generators"])
    assert G._position is not None and G._keys[-1] == 238
    rows = np.array(list(itertools.permutations(range(8))), dtype=np.int32)
    past = rows[np.take(G._rank, rows[:, G.base]) @ G._weights > 238]
    assert len(past) == 1440
    assert tuple(past[0].tolist()) == (3, 7, 0, 1, 2, 4, 5, 6)
    for row in (past[0], past[-1]):
        perm = tuple(row.tolist())
        assert not in_group(G, perm)
        with pytest.raises(KeyError):
            index_of(G, perm)
        with pytest.raises(KeyError):
            G.indices_of_rows(np.vstack((G.array[:3], row)))
    assert not G._find(past)[1].any()


@st.composite
def generator_lists(draw):
    """(degree, generators) for degree at most 10 and zero to four
    generators: each the identity, a repeat of an earlier one, or a cycle
    through a random list of points."""
    n = draw(st.integers(min_value=1, max_value=10))
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["cycle", "cycle", "identity", "repeat"]))
        if kind == "identity" or (kind == "repeat" and not gens) or n == 1:
            gens.append(tuple(range(n)))
        elif kind == "repeat":
            gens.append(draw(st.sampled_from(gens)))
        else:
            cycle = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=2, max_size=n))
            g = list(range(n))
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                g[x] = y
            gens.append(tuple(g))
    return n, gens


@given(group=generator_lists())
@example(group=(3, []))
@example(group=(5, [(0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (1, 0, 2, 3, 4)]))
@example(group=(7, [(1, 2, 0, 3, 4, 5, 6), tuple(range(7)), (1, 2, 0, 3, 4, 5, 6),
                    (0, 1, 2, 4, 5, 6, 3)]))
@example(group=(10, [(1, 2, 3, 4, 0, 5, 6, 7, 8, 9), (1, 0, 2, 3, 4, 5, 6, 7, 8, 9),
                     (0, 1, 2, 3, 4, 6, 7, 5, 8, 9), (0, 1, 2, 3, 4, 6, 5, 7, 8, 9)]))
@example(group=(10, [tuple(range(1, 10)) + (0,), (1, 0) + tuple(range(2, 10))]))
@settings(max_examples=80, deadline=None)
def test_chain_matches_bfs_closure_on_random_groups(group):
    # the cap keeps the breadth-first oracle quick; both sides must refuse
    # the same groups
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ELABCAT_ELEMENT_CAP", "5040")
        assert_matches_bfs(*group)


@st.composite
def searches(draw):
    """(perms, starts): one to three random permutations of degree at most
    40, and one random member of each of their orbits, in random order."""
    n = draw(st.integers(min_value=1, max_value=40))
    perms = [tuple(p) for p in draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))]
    class_of, reps, _ = brute_orbits(perms, n)
    starts = [draw(st.sampled_from([x for x in range(n) if class_of[x] == c]))
              for c in range(len(reps))]
    return perms, draw(st.permutations(starts))


@given(case=searches())
@settings(max_examples=80, deadline=None)
def test_search_keeps_each_points_first_candidate(case):
    perms, starts = case
    arr = np.array(perms, dtype=np.int64)
    visit, levels = groups._search(arr, np.array(starts))
    steps = {}
    for src, gen, at in levels:
        assert (visit[at] == arr[gen, visit[src]]).all()
        steps.update(zip(visit[at].tolist(), zip(visit[src].tolist(), gen.tolist())))
    assert sorted(visit.tolist()) == list(range(arr.shape[1]))
    # the first candidate in the level's order reaches each point
    assert (visit.tolist(), steps) == brute_search(perms, starts)
    for s in starts:
        # each orbit comes out in the order of a search from its start alone
        orbit, alone = groups._search(arr, np.array([s]))
        assert visit[np.isin(visit, orbit)].tolist() == orbit.tolist()
        # transversal row i sends the start to orbit[i]
        trans, _ = groups._transversal(arr, orbit, alone)
        assert trans[:, s].tolist() == orbit.tolist()


@st.composite
def perm_stacks(draw):
    """A (k, n) array of k = 0 to 4 permutations of degree 1 to 40, each a
    random one, the long cycle x -> x + 1, the identity or a repeat of
    one before it."""
    n = draw(st.integers(min_value=1, max_value=40))
    stack = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(["random", "cycle", "identity", "repeat"]))
        if kind == "repeat" and stack:
            stack.append(draw(st.sampled_from(stack)))
        elif kind == "cycle":
            stack.append([(x + 1) % n for x in range(n)])
        elif kind == "identity":
            stack.append(list(range(n)))
        else:
            stack.append(draw(st.permutations(range(n))))
    return np.array(stack, dtype=np.int64).reshape(len(stack), n)


@given(perms=perm_stacks())
@example(perms=np.zeros((0, 5), dtype=np.int64))
@example(perms=np.array([[1, 0, 2, 3, 4, 5]] * 3))
@example(perms=np.array([[(x + 1) % 40 for x in range(40)]]))
@example(perms=np.array([[(x - 1) % 40 for x in range(40)], list(range(40))]))
@settings(max_examples=80, deadline=None)
def test_orbits_match_set_oracle(perms):
    n = perms.shape[1]
    tuples = [tuple(p) for p in perms.tolist()]
    class_of, reps, sizes = brute_orbits(tuples, n)
    assert groups._orbit_labels(perms).tolist() == [reps[c] for c in class_of]
    # the permutations acting on their own points stand in for G: a point
    # reached from s by perms[k] has witness perms[k][witness[s]], the
    # smallest members witness 0
    got_class, got_reps, got_sizes, witness = groups.orbits(perms, perms)
    assert (got_class.tolist(), got_reps.tolist(), got_sizes.tolist()) == (class_of, reps, sizes)
    visit, steps = brute_search(tuples, reps)
    want = dict.fromkeys(reps, 0)
    for t in visit[len(reps):]:
        s, k = steps[t]
        want[t] = tuples[k][want[s]]
    assert witness.tolist() == [want[x] for x in range(n)]


@pytest.mark.parametrize("step", [1, -1], ids=["plus-one", "minus-one"])
def test_orbit_labels_of_the_long_cycle(step):
    # along x -> x + 1 alone the least label would move one point a round;
    # following the inverses too, pointer jumping doubles its reach
    n = 65536
    perms = ((np.arange(n) + step) % n)[None]
    start = time.perf_counter()
    label = groups._orbit_labels(perms)
    assert time.perf_counter() - start < 1
    assert not label.any()


def test_rows_agreeing_on_the_base_are_checked():
    for degree, gens in (NAMED["gl3-3"](), (4, [(1, 0, 3, 2), (2, 0, 1, 3)]),
                         NAMED["D17xD17"]()):
        G = close_generators(degree, gens)
        free = [x for x in range(degree) if x not in G.base.tolist()]
        for i in (0, 1, len(G) - 1):
            # swap the images of two points off the base: the row agrees
            # with element i on the base, so it is not an element
            row = G.array[i].copy()
            row[free[:2]] = row[free[1::-1]]
            assert not in_group(G, tuple(row.tolist()))
            with pytest.raises(KeyError):
                index_of(G, tuple(row.tolist()))
            with pytest.raises(KeyError):
                G.indices_of_rows(np.vstack((G.array[:3], row)))
            assert G.indices_of_base_images(row[G.base]) == i


def test_element_lists_that_are_not_groups():
    G = close_generators(*symmetric(4))
    elements = elements_of(G)
    with pytest.raises(InvalidPermutation):
        from_elements(4, elements[:-1])                 # not closed
    with pytest.raises(InvalidPermutation):
        from_elements(4, elements + elements[5:6])      # a duplicate
    with pytest.raises(InvalidPermutation):
        from_elements(4, elements[:-1] + elements[5:6])  # the same length
    assert elements_of(from_elements(4, elements[::-1])) == elements


@pytest.mark.parametrize("n", [9, 12])
def test_element_cap_fires_before_any_element(n):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as e:
            close_generators(*symmetric(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.guard == "element_cap"
    assert str(e.value) == ("group closure passed the element cap (65536); "
                            "raise ELABCAT_ELEMENT_CAP to allow more")
    # S9 alone would be a 362,880 x 9 table of 13 MB
    assert peak < 2 ** 20


def test_element_cap_fires_before_the_transversal(monkeypatch):
    # the orbit of 0 is found on arrays of length 4,000 before its
    # 4,000 x 4,000 transversal (61 MiB) would be allocated
    monkeypatch.setenv("ELABCAT_ELEMENT_CAP", "1000")
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as e:
            close_generators(*cycles(4000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.guard == "element_cap"
    assert peak < 4 * 2 ** 20


def test_key_width_refused_before_enumeration(monkeypatch):
    # S5: base 0, 1, 2, 3, each in an orbit of 5 points, so keys below 5^4
    # take 10 bits
    assert len(close_generators(*symmetric(5))) == 120
    monkeypatch.setattr(groups, "KEY_BITS", 9)
    monkeypatch.setattr(groups, "FiniteGroup", None)    # no element is formed
    with pytest.raises(CapExceeded) as e:
        close_generators(*symmetric(5))
    assert e.value.guard == "element_key"
    assert str(e.value) == "group element keys need 10 bits, more than the 9 an int64 key holds"


def test_key_width_exits_3(monkeypatch, capsys, tmp_path):
    doc = tmp_path / "s5.json"
    degree, gens = symmetric(5)
    doc.write_text('{"name": "S5", "degree": 5, "generators": %s}'
                   % [list(g) for g in gens])
    monkeypatch.setattr(groups, "KEY_BITS", 9)
    assert cli.main(["analyze", str(doc), "--prime", "2"]) == 3
    err = capsys.readouterr().err
    assert err == ("error: guard element_key: group element keys need 10 bits, "
                   "more than the 9 an int64 key holds\n")


def affine_line(q):
    """AGL(1, q) on the q points of F_q, q prime: x -> 17x and x -> x + 1
    (17 generates the units mod 65,521)."""
    return q, [tuple(17 * x % q for x in range(q)), tuple((x + 1) % q for x in range(q))]


@pytest.mark.parametrize("make, n", [(cycles, 65536), (affine_line, 65521)],
                         ids=["cycle-65536", "affine-65521"])
def test_element_table_bounded_by_its_entries(make, n):
    # each group's first orbit passes no element cap, but its transversal
    # alone, n x n, would take 16 GiB
    degree, gens = make(n)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapExceeded) as e:
            close_generators(degree, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 16 * 2 ** 20
    assert e.value.guard == "element_cap"
    assert str(e.value) == (f"group element table of {n} x {n} entries passed 64 per element "
                            f"of the cap; raise ELABCAT_ELEMENT_CAP to allow more")


@pytest.mark.parametrize("doc", [
    {"name": "c", "degree": 65536, "generators": [[(x + 1) % 65536 for x in range(65536)]]},
    {"name": "x", "builder": "affine", "params": {"q": 65521}, "prime": 65521, "claims": []},
], ids=["cycle-65536", "gallery-affine-65521"])
def test_element_table_bound_exits_3(doc, tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    argv = (["gallery", str(path)] if "builder" in doc
            else ["analyze", str(path), "--prime", "2"])
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert cli.main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 16 * 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("error: guard element_cap") and err.count("\n") == 1
