"""Edge colorings, proper-path profiles, and the connectivity checkers."""

from __future__ import annotations

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
    SameVertex,
    coloring_from_json,
    coloring_to_json,
    first_improper_pair,
    first_weak_pair,
    from_edge_list,
    has_strong_property,
    is_proper_connected,
    is_proper_path,
    make_coloring,
    path_profile,
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
    path_graph,
    per_pair_first_bad_pair,
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


def test_profile_collects_endpoint_colors():
    c = colored(4, [(0, 1), (0, 3), (1, 2), (2, 3)], [1, 2, 2, 1])
    prof = path_profile(c, 0, 2)
    assert prof.pairs == frozenset({(1, 2), (2, 1)})
    lonely = path_profile(colored(3, [(0, 1), (1, 2)], [1, 1], k=2), 0, 2)
    assert lonely.pairs == frozenset()


def test_profile_rejects_equal_endpoints():
    c = colored(3, [(0, 1), (1, 2)], [1, 2])
    with pytest.raises(SameVertex):
        path_profile(c, 1, 1)


@given(random_colorings())
@PROPERTY_SETTINGS
def test_checker_agrees_with_path_enumeration(c):
    assert is_proper_connected(c) == brute_is_proper_connected(c.graph, c.color)
    assert has_strong_property(c) == brute_has_strong(c.graph, c.color)


@given(random_colorings(max_n=5))
@PROPERTY_SETTINGS
def test_profile_agrees_with_path_enumeration(c):
    g = c.graph
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert path_profile(c, u, v).pairs == frozenset(
                brute_profile(g, c.color, u, v)
            )


@given(random_colorings(max_n=5))
@PROPERTY_SETTINGS
def test_profile_is_reverse_symmetric(c):
    g = c.graph
    for u in range(g.n):
        for v in range(u + 1, g.n):
            fwd = path_profile(c, u, v).pairs
            assert path_profile(c, v, u).pairs == frozenset(
                (b, a) for a, b in fwd
            )


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


@pytest.mark.parametrize("steps", [0, coloring._DFS_STEPS])
@given(relaxed_colorings(), st.booleans())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_first_bad_pair_matches_independent_oracles(steps, case, strong):
    # steps=0 sends every target the DFS has not settled to the fallback
    g, k, colors = case
    color_of = make_coloring(g, k, colors).color
    want = brute_first_bad_pair(g, color_of, strong)
    assert per_pair_first_bad_pair(_Machine(g.n, k, g.edges, colors), strong) == want
    with mock.patch.object(coloring, "_DFS_STEPS", steps):
        assert _Machine(g.n, k, g.edges, colors).first_bad_pair(strong) == want


def test_failure_reports_are_consistent():
    c = colored(3, [(0, 1), (1, 2)], [1, 1], k=2)
    pair = first_improper_pair(c)
    assert pair is not None
    assert not path_profile(c, *pair).pairs


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
