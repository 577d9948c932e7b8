"""Edge colorings and the connectivity checkers."""

from __future__ import annotations

import gc
import json
import random
import time
from itertools import product
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properconn import (
    ColoringGraphMismatch,
    canonical_code,
    coloring_from_json,
    coloring_to_json,
    first_improper_pair,
    first_weak_pair,
    from_edge_list,
    hamilton_path,
    has_strong_property,
    is_proper_connected,
    is_proper_path,
    make_coloring,
    pc_exact,
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
    path_graph,
    per_pair_first_bad_pair,
    petersen,
    random_connected,
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
    seq = make_coloring(g, 2, [1, 2])
    assert seq.colors == (1, 2)


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
        return hamilton_path(g) or shuffled
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
    assert _Machine(g.n, 3, g.edges, colors).first_bad_pair(False, walk) == (2, 5)


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
    text = coloring_to_json(c)
    doc = json.loads(text)
    assert doc["n"] == 4 and doc["k"] == 3
    back = coloring_from_json(text)
    assert back == c


def test_json_mismatch_detected():
    c = colored(3, [(0, 1), (1, 2)], [1, 2])
    doc = json.loads(coloring_to_json(c))
    doc["colors"] = [1]
    with pytest.raises((ColoringGraphMismatch, ValueError)):
        coloring_from_json(json.dumps(doc))


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
    false every edge is free and the palette is symmetric."""
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


def test_searches_leave_no_reference_cycles():
    # a recursive closure holds itself through its cell, so each search
    # must unbind its own or every call leaves garbage for the cyclic
    # collector
    g = friendship_graph()
    cert = pc_exact(g)[1]
    c5 = cycle_graph(5)
    calls = {
        "hamilton_path": lambda: hamilton_path(g),
        "complete": lambda: complete(c5, 2, {}, c5.edges),
        "pc_exact": lambda: pc_exact(g),
        "canonical_code": lambda: canonical_code(petersen()),
        "pair_ok": lambda: _Machine(g.n, 3, g.edges, cert.coloring.colors).pair_ok(
            1, 3, True
        ),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert (name, gc.collect()) == (name, 0)
    finally:
        gc.enable()
