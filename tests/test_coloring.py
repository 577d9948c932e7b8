"""Edge colorings and the connectivity checkers."""

from __future__ import annotations

import gc
import json
import random
import time
from itertools import product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from properconn import (
    ColoringGraphMismatch,
    LoopEdge,
    PcCertificate,
    PcError,
    VertexOutOfRange,
    canonical_code,
    certificate_to_json,
    coloring_from_json,
    find_bridges,
    first_improper_pair,
    first_weak_pair,
    from_adj_rows,
    from_edge_list,
    has_strong_property,
    is_proper_connected,
    is_proper_path,
    make_coloring,
    make_star_of_bicliques,
    pc_exact,
    pc_upper,
    strong_coloring_bridgeless,
)
from properconn import coloring
from properconn.coloring import _Machine, _OutOfTime, complete
from util import (
    brute_first_bad_pair,
    brute_has_strong,
    brute_is_proper_connected,
    brute_profile,
    complete_graph,
    cycle_graph,
    friendship_graph,
    graphs_with_twins,
    path_graph,
    per_pair_first_bad_pair,
    petersen,
    random_connected,
    spanning_path,
)

PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def colored(n, edges, cols, k=None):
    g = from_edge_list(n, edges)
    return make_coloring(g, k or max(cols), dict(zip(g.edges, cols)))


@st.composite
def random_colorings(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    g = random_connected(random.Random(seed), n, 0.35)
    k = draw(st.integers(min_value=1, max_value=3))
    cols = draw(
        st.lists(st.integers(1, k), min_size=g.m, max_size=g.m)
    )
    return make_coloring(g, k, dict(zip(g.edges, cols)))


def test_make_coloring_validation():
    g = path_graph(3)
    with pytest.raises(ColoringGraphMismatch):
        make_coloring(g, 2, {(0, 1): 1})  # one edge missing
    with pytest.raises(ColoringGraphMismatch):
        make_coloring(g, 2, {(0, 1): 1, (1, 2): 3})  # color beyond palette
    with pytest.raises(ColoringGraphMismatch):
        make_coloring(g, 0, {})
    # keys that are not pairs of ints
    with pytest.raises(ColoringGraphMismatch):
        make_coloring(g, 2, {(0, 1, 2): 1, (1, 2): 2})
    with pytest.raises(ColoringGraphMismatch):
        make_coloring(g, 2, {(0, "b"): 1, (1, 2): 2})
    # floats and bools compare like ints, but the checker indexes its
    # tables by colors
    for k, colors in ((2, [1.0, 2.0]), (2.0, [1, 2]), (2.5, [1, 2]), (True, [1, 1]), (2, [True, 2])):
        with pytest.raises(ColoringGraphMismatch, match="integer"):
            make_coloring(g, k, colors)
    seq = make_coloring(g, 2, [1, 2])
    assert seq.colors == (1, 2)


def test_a_coloring_keeps_its_own_copy_of_the_colors():
    # checked and stored as one tuple: editing the caller's list afterwards
    # changes neither the colors the checker reads nor equality and hash
    g = path_graph(3)
    given_colors = [1, 2]
    c = coloring.EdgeColoring(g, 2, given_colors)
    given_colors[0] = 9
    assert c.colors == (1, 2)
    assert c == coloring.EdgeColoring(g, 2, (1, 2))
    assert hash(c) == hash(coloring.EdgeColoring(g, 2, (1, 2)))


def test_color_lookup_is_symmetric():
    c = colored(3, [(0, 1), (1, 2)], [1, 2])
    assert c.color(0, 1) == c.color(1, 0) == 1
    assert c.color(1, 2) == 2
    with pytest.raises(ColoringGraphMismatch):
        c.color(0, 2)


def test_is_proper_path():
    c = colored(4, [(0, 1), (1, 2), (2, 3)], [1, 2, 2])
    assert is_proper_path(c, [0, 1, 2])
    assert not is_proper_path(c, [1, 2, 3])  # repeats color 2
    assert is_proper_path(c, [2, 3])  # single edge is always fine
    assert is_proper_path(c, [3])


def test_two_edge_path_one_color_fails():
    c = colored(3, [(0, 1), (1, 2)], [1, 1], k=2)
    assert not is_proper_connected(c)
    assert first_improper_pair(c) == (0, 2)


def test_the_step_cap_keeps_a_crafted_rejection_cheap():
    # K15 on 0..14 plus vertex 15 joined to 1 and 2; every edge at 1 or 2
    # has color 1, so no proper path enters 15, yet the rest of K15 holds
    # a great many proper paths for an uncapped search from 0 to walk
    edges = sorted([(u, v) for u in range(15) for v in range(u + 1, 15)] + [(1, 15), (2, 15)])
    rng = random.Random(0)
    cols = [1 if 1 in e or 2 in e else rng.choice((1, 2)) for e in edges]
    c = colored(16, edges, cols, k=2)
    t0 = time.perf_counter()
    assert first_improper_pair(c) == (0, 15)
    assert time.perf_counter() - t0 < 1.0


def test_alternating_cycle_is_strongly_good():
    c = colored(4, [(0, 1), (0, 3), (1, 2), (2, 3)], [1, 2, 2, 1])
    assert is_proper_connected(c)
    assert has_strong_property(c)
    assert first_improper_pair(c) is None
    assert first_weak_pair(c) is None


def test_monochromatic_complete_graph():
    g = complete_graph(5)
    c = make_coloring(g, 1, {e: 1 for e in g.edges})
    # every pair is one hop apart, so one color connects everything
    assert is_proper_connected(c)
    # but a single color can never give two differently-flavored paths
    assert not has_strong_property(c)
    assert first_weak_pair(c) == (0, 1)


@given(random_colorings())
@PROPERTY_SETTINGS
def test_checker_agrees_with_path_enumeration(c):
    assert is_proper_connected(c) == brute_is_proper_connected(c.graph, c.color)
    assert has_strong_property(c) == brute_has_strong(c.graph, c.color)


@st.composite
def relaxed_colorings(draw):
    """(graph, palette size, colors): colors in 1..k, except that some
    edges get their own fresh color above k, as in the kernel's
    relaxation checks."""
    n = draw(st.sampled_from(range(2, 9)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = random_connected(rng, n, draw(st.sampled_from([0.0, 0.15, 0.3, 0.5])))
    k = draw(st.integers(min_value=1, max_value=3))
    colors = [rng.randint(1, k) for _ in g.edges]
    fresh = rng.sample(range(g.m), draw(st.integers(min_value=0, max_value=g.m)))
    for j, i in enumerate(fresh):
        colors[i] = k + 1 + j
    return g, k + len(fresh), colors


@pytest.mark.parametrize("steps", [0, 3, coloring._DFS_STEPS])
@given(relaxed_colorings(), st.booleans())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_first_bad_pair_matches_independent_oracles(steps, case, strong):
    # steps=0 sends every target the DFS has not settled to the fallback;
    # steps=3 cuts each DFS mid-way, after it has marked some subpaths
    g, k, colors = case
    color_of = make_coloring(g, k, colors).color
    want = brute_first_bad_pair(g, color_of, strong)
    assert per_pair_first_bad_pair(_Machine(g.n, k, g.edges, colors), strong) == want
    with mock.patch.object(coloring, "_DFS_STEPS", steps):
        assert _Machine(g.n, k, g.edges, colors).first_bad_pair(strong) == want


HINT_KINDS = ("spanning", "shuffled", "non-edge", "repeated", "out-of-range", "empty")


def proper_walk(g, color_of, rng, simple=True):
    """A proper walk from a random vertex, by random steps along an edge
    of a new color onto an unvisited vertex while there is one. Unless
    simple, it then steps back onto visited vertices too, for at most 3n
    steps in all."""
    seq, last = [rng.randrange(g.n)], 0
    for _ in range(3 * g.n):
        w = seq[-1]
        steps = [x for x in g.neighbors(w) if color_of(w, x) != last]
        fresh = [x for x in steps if x not in seq]
        if simple or fresh:
            steps = fresh
        if not steps:
            break
        x = rng.choice(steps)
        seq.append(x)
        last = color_of(w, x)
    return seq


def hint_sequence(g, color_of, kind, rng):
    """A vertex sequence of the given kind: a spanning path (when g has
    one), a shuffle of the vertices, a proper walk that revisits a
    vertex, or a proper simple path followed by a non-edge or an
    out-of-range vertex; each but the spanning path ends in a shuffle,
    and "empty" is []."""
    if kind == "empty":
        return []
    shuffled = rng.sample(range(g.n), g.n)
    if kind == "spanning":
        return spanning_path(g) or shuffled
    if kind == "shuffled":
        return shuffled
    if kind == "repeated":
        walk = proper_walk(g, color_of, rng, simple=False)
        if len(set(walk)) == len(walk):
            walk.append(rng.choice(walk))
        return walk + shuffled
    walk = proper_walk(g, color_of, rng)
    if kind == "non-edge":
        off = [x for x in range(g.n) if x not in walk and not g.has_edge(walk[-1], x)]
        bad = [rng.choice(off)] if off else []
    else:
        bad = [rng.choice([-1, g.n, g.n + 3])]
    return walk + bad + shuffled


@pytest.mark.parametrize("steps", [0, 3, coloring._DFS_STEPS])
@given(relaxed_colorings(), st.sampled_from(HINT_KINDS), st.integers(0, 2**32 - 1))
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_path_hint_cannot_change_the_first_bad_pair(steps, case, kind, seed):
    # the walk settles only pairs a proper simple path joins, whatever
    # the sequence; strong mode ignores it
    g, k, colors = case
    color_of = make_coloring(g, k, colors).color
    path = hint_sequence(g, color_of, kind, random.Random(seed))
    with mock.patch.object(coloring, "_DFS_STEPS", steps):
        for strong in (False, True):
            got = _Machine(g.n, k, g.edges, colors).first_bad_pair(strong, path)
            assert got == brute_first_bad_pair(g, color_of, strong), (kind, path, strong)


def test_a_path_hint_stops_at_a_repeated_vertex():
    # 5-3-6-0-3-2-1 is a proper walk, but it returns to 3 before its step
    # 3-2, and no proper simple path joins 5 and 2: from 5-3 (color 1)
    # the path goes on in color 2 and never reaches 2
    g = from_edge_list(7, [(0, 1), (0, 3), (0, 6), (1, 2), (1, 4), (2, 3), (3, 5), (3, 6), (4, 6)])
    colors = [3, 2, 3, 3, 3, 1, 1, 2, 2]
    walk = [5, 3, 6, 0, 3, 2, 1]
    assert brute_first_bad_pair(g, make_coloring(g, 3, colors).color, False) == (2, 5)
    # the walk 3-6-0-3-5 puts the state (3, color 1) that 2-3 enters into
    # the walk table of 5, so with a step cap of 0 the per-pair search
    # rejects (2, 5) only by running its cut DFS to the end
    assert _Machine(g.n, 3, g.edges, colors).good_states(5) >> (3 * 3 + 1 - 1) & 1
    for steps in (coloring._DFS_STEPS, 0):
        with mock.patch.object(coloring, "_DFS_STEPS", steps):
            assert _Machine(g.n, 3, g.edges, colors).first_bad_pair(False, walk) == (2, 5)


def test_a_zero_step_cap_sends_the_pending_pairs_to_the_per_pair_search(monkeypatch):
    # the cap is read at each call: under the default one search from 0
    # settles the alternating path, and under 0 it takes one step, so
    # pair_ok, the only caller of good_states, decides 0's other targets
    g = path_graph(8)
    colors = [1 + i % 2 for i in range(g.m)]
    targets = []
    real = _Machine.good_states

    def spy(self, v):
        targets.append(v)
        return real(self, v)

    monkeypatch.setattr(_Machine, "good_states", spy)
    assert _Machine(g.n, 2, g.edges, colors).first_bad_pair(False) is None
    assert targets == []
    monkeypatch.setattr(coloring, "_DFS_STEPS", 0)
    assert _Machine(g.n, 2, g.edges, colors).first_bad_pair(False) is None
    assert set(targets) == set(range(2, 8))


def test_one_search_settles_every_pair_of_a_proper_spanning_path():
    # every subpath of the alternating path 0-1-...-7 is proper, so the
    # search from vertex 0 settles all 28 pairs and no other source runs one
    g = path_graph(8)
    machine = _Machine(g.n, 2, g.edges, [1 + i % 2 for i in range(g.m)])
    calls = []
    real = machine.dfs_from

    def spy(u, *args):
        calls.append(u)
        return real(u, *args)

    machine.dfs_from = spy
    assert machine.first_bad_pair(False) is None
    assert calls == [0]


def test_failure_reports_are_consistent():
    c = colored(3, [(0, 1), (1, 2)], [1, 1], k=2)
    pair = first_improper_pair(c)
    assert pair is not None
    assert not brute_profile(c.graph, c.color, *pair)


def test_json_round_trip():
    c = colored(4, [(0, 1), (1, 2), (1, 3)], [1, 2, 3])
    text = certificate_to_json(PcCertificate(c, "given", False))
    doc = json.loads(text)
    assert doc["n"] == 4 and doc["k"] == 3
    back = coloring_from_json(text)
    assert back == c


def test_json_mismatch_detected():
    c = colored(3, [(0, 1), (1, 2)], [1, 2])
    doc = json.loads(certificate_to_json(PcCertificate(c, "given", False)))
    doc["colors"] = [1]
    with pytest.raises((ColoringGraphMismatch, ValueError)):
        coloring_from_json(json.dumps(doc))


def _document(**change):
    doc = {"n": 3, "k": 2, "edges": [[0, 1], [1, 2]], "colors": [1, 2]}
    doc.update(change)
    return json.dumps({key: value for key, value in doc.items() if value is not None})


NOT_INTEGERS = "bad coloring document: n, k, edge ends and colors must be integers"

# (document, exception class, message), one fault each
MALFORMED_DOCUMENTS = {
    "json syntax": (
        '{"n": 3,',
        ColoringGraphMismatch,
        "bad coloring document: Expecting property name enclosed in double quotes:"
        " line 1 column 9 (char 8)",
    ),
    "missing key": (_document(k=None), ColoringGraphMismatch, "bad coloring document: 'k'"),
    "edges not a list": (
        _document(edges=5),
        ColoringGraphMismatch,
        "bad coloring document: 'int' object is not iterable",
    ),
    "3-element edge": (
        _document(edges=[[0, 1, 2], [1, 2]]),
        ColoringGraphMismatch,
        "bad coloring document: an edge is not a pair",
    ),
    "string edge": (_document(edges=["ab", [1, 2]]), ColoringGraphMismatch, NOT_INTEGERS),
    "dict edge": (_document(edges=[{"u": 0, "v": 1}, [1, 2]]), ColoringGraphMismatch, NOT_INTEGERS),
    "float edge end": (_document(edges=[[0, 1.0], [1, 2]]), ColoringGraphMismatch, NOT_INTEGERS),
    "bool color": (_document(colors=[True, 2]), ColoringGraphMismatch, NOT_INTEGERS),
    "float k": (_document(k=2.0), ColoringGraphMismatch, NOT_INTEGERS),
    "string n": (_document(n="3"), ColoringGraphMismatch, NOT_INTEGERS),
    "k = 0": (
        _document(k=0, colors=[0, 0]),
        ColoringGraphMismatch,
        "palette size must be an integer >= 1, got 0",
    ),
    "color out of range": (
        _document(colors=[1, 3]),
        ColoringGraphMismatch,
        "colors [3] are not integers in 1..2",
    ),
    "lengths differ": (_document(colors=[1]), ColoringGraphMismatch, "1 colors for 2 edges"),
    "negative n": (_document(n=-1), VertexOutOfRange, "negative vertex count -1"),
    "edge end out of range": (
        _document(edges=[[0, 3], [1, 2]]),
        VertexOutOfRange,
        "edge (0,3) outside 0..2",
    ),
    "loop": (_document(edges=[[1, 1], [1, 2]]), LoopEdge, "loop at vertex 1"),
    "repeat, other color": (
        _document(edges=[[0, 1], [1, 2], [1, 0]], colors=[1, 2, 2]),
        ColoringGraphMismatch,
        "conflicting colors for edge (0, 1)",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_DOCUMENTS)
def test_malformed_documents_name_their_fault(case):
    text, error, message = MALFORMED_DOCUMENTS[case]
    with pytest.raises(PcError) as info:
        coloring_from_json(text)
    assert (type(info.value), str(info.value)) == (error, message)


def test_a_document_may_repeat_an_edge_with_its_color():
    c = coloring_from_json(_document(edges=[[0, 1], [1, 2], [1, 0]], colors=[1, 2, 1]))
    assert c == make_coloring(path_graph(3), 2, (1, 2))


def test_json_with_a_large_n_reads_in_time_linear_in_the_edges():
    # the edge tuple comes from the set bits of the rows, not from all
    # n(n-1)/2 vertex pairs
    doc = {"n": 20000, "k": 1, "edges": [[0, 1]], "colors": [1]}
    t0 = time.perf_counter()
    c = coloring_from_json(json.dumps(doc))
    assert time.perf_counter() - t0 < 1.0
    assert c.graph.n == 20000 and c.graph.edges == ((0, 1),)


# --- the completion kernel ---------------------------------------------------

# free edges per palette size, so the plain enumeration stays small
KERNEL_FREE_CAP = {1: 15, 2: 9, 3: 6}


def enumerate_completion(g, k, fixed, free, strong):
    """The first completion in product() order that the checker accepts."""
    first_bad = first_weak_pair if strong else first_improper_pair
    for combo in product(range(1, k + 1), repeat=len(free)):
        assignment = dict(fixed)
        assignment.update(zip(free, combo))
        colors = tuple(assignment[e] for e in g.edges)
        if first_bad(make_coloring(g, k, colors)) is None:
            return colors
    return None


@st.composite
def completion_problems(draw):
    """(graph, k, fixed, free in search order, strong); with some_fixed
    false every edge is free and the palette is symmetric. Random graphs
    seldom have twins, so one stratum draws graphs with twins, every edge
    free, where the kernel's twin-swap prune runs."""
    if draw(st.booleans()):
        k = draw(st.sampled_from([2, 3]))
        # joined to one more vertex: connected, and the twins stay twins;
        # at most 4 or 5 vertices keeps the edges near the cap
        rows = draw(graphs_with_twins(top={2: 4, 3: 3}[k]))
        n = len(rows)
        g = from_adj_rows(n + 1, [row | 1 << n for row in rows] + [(1 << n) - 1])
        assume(n and g.m <= KERNEL_FREE_CAP[k])
        return g, k, {}, draw(st.permutations(g.edges)), draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    some_fixed = draw(st.booleans())
    cap = KERNEL_FREE_CAP[k]
    g = random_connected(rng, n, draw(st.sampled_from([0.0, 0.2, 0.5, 0.9])))
    if not some_fixed and g.m > cap:
        # keep a spanning tree plus as many further edges as the cap allows
        tree = random_connected(rng, n, 0.0)
        extra = [e for e in g.edges if e not in set(tree.edges)]
        g = from_edge_list(n, list(tree.edges) + extra[: max(cap - tree.m, 0)])
    edges = list(g.edges)
    rng.shuffle(edges)
    if some_fixed:
        r = rng.randint(0, min(len(edges) - 1, cap))
    else:
        r = min(len(edges), cap)
    free = edges[:r]
    fixed = {e: rng.randint(1, k) for e in edges[r:]}
    return g, k, fixed, free, draw(st.booleans())


@given(completion_problems())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kernel_matches_plain_enumeration(problem):
    g, k, fixed, free, strong = problem
    assert complete(g, k, fixed, free, strong) == enumerate_completion(
        g, k, fixed, free, strong
    )


def test_kernel_exhausts_a_two_color_impossible_graph():
    # three triangles sharing a vertex need three colors
    g = from_edge_list(
        7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]
    )
    assert complete(g, 2, {}, g.edges) is None
    colors = complete(g, 3, {}, g.edges)
    assert colors is not None and is_proper_connected(make_coloring(g, 3, colors))


def test_twin_swaps_cut_the_friendship_graph_searches():
    # F_k's 2k outer vertices pair off into k twin classes, and each
    # palette-2 search below pc = 3 is exhausted; with no twin-swap prune
    # and an 8-leaf threshold, pc_exact ran 268, 1,238 and 4,028 checks
    real, counts = _Machine.first_bad_pair, []
    for k in (3, 4, 5):
        with mock.patch.object(_Machine, "first_bad_pair", autospec=True, side_effect=real) as spy:
            assert pc_exact(friendship_graph(k))[0] == 3
        counts.append(spy.call_count)
    assert counts == [122, 224, 317]


def test_kernel_rejects_a_bad_edge_split():
    g = path_graph(3)
    with pytest.raises(ColoringGraphMismatch):
        complete(g, 2, {(0, 1): 1}, [])
    with pytest.raises(ColoringGraphMismatch):
        complete(g, 2, {(0, 1): 1}, [(0, 1), (1, 2)])


def test_kernel_rejects_fixed_colors_outside_the_palette():
    # relaxation colors start at k+1; a fixed k+1 would collide with them
    g = path_graph(6)
    rest = [e for e in g.edges if e != (0, 1)]
    for bad in (3, 0, -1):
        with pytest.raises(ColoringGraphMismatch, match="outside 1..2"):
            complete(g, 2, {(0, 1): bad}, rest)
    assert complete(g, 2, {(0, 1): 2}, rest) == (2, 1, 2, 1, 2)


def test_kernel_reads_the_clock_at_the_first_node():
    g = cycle_graph(5)
    with pytest.raises(_OutOfTime):
        complete(g, 2, {}, g.edges, deadline=time.monotonic() - 1.0)


def test_kernel_calls_share_no_state(monkeypatch):
    # each call builds its own relaxation machine and recolors it in
    # place, so a call cut short by the clock leaves nothing behind
    g = friendship_graph()
    first = complete(g, 3, {}, g.edges)
    assert first is not None and complete(g, 3, {}, g.edges) == first
    ticks = iter(range(10**6))
    monkeypatch.setattr(coloring, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(_OutOfTime):
        complete(g, 3, {}, g.edges, deadline=3)
    monkeypatch.undo()
    assert complete(g, 3, {}, g.edges) == first


def test_searches_leave_no_reference_cycles():
    # a recursive closure holds itself through its cell, so each search
    # must unbind its own or every call leaves garbage for the cyclic
    # collector
    g = friendship_graph()
    cert = pc_exact(g)[1]
    c5 = cycle_graph(5)
    star = make_star_of_bicliques(2)

    def first_bad_pair_uncapped():
        # both passes: one step per source, then pair_ok for the rest
        with mock.patch.object(coloring, "_DFS_STEPS", 0):
            return _Machine(g.n, 3, g.edges, cert.coloring.colors).first_bad_pair(False)

    calls = {
        "complete": lambda: complete(c5, 2, {}, c5.edges),
        "pc_exact": lambda: pc_exact(g),
        "canonical_code": lambda: canonical_code(petersen()),
        "pair_ok": lambda: _Machine(g.n, 3, g.edges, cert.coloring.colors).pair_ok(
            1, 3, True
        ),
        "first_bad_pair, step cap 0": first_bad_pair_uncapped,
        "find_bridges": lambda: find_bridges(star),
        "strong_coloring_bridgeless (ears)": lambda: strong_coloring_bridgeless(petersen()),
        "pc_upper (tree fallback)": lambda: pc_upper(star),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert (name, gc.collect()) == (name, 0)
    finally:
        gc.enable()
