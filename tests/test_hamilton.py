"""Hamilton path and cycle search."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properconn import hamilton
from properconn import enumeration as enumeration_mod
from properconn import (
    TooLarge,
    from_adj_rows,
    from_edge_list,
    hamilton_cycle,
    hamilton_path,
    hamilton_path_from,
)
from properconn.enumeration import _unpack_rows
from util import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen,
    random_connected,
    star_graph,
)

# sha256 of hamilton_path over every representative of the general levels
# n = 1..7 and the bipartite levels n = 1..9 (minimum degree 0), one line
# per graph in level order: the path as comma-joined vertices, "-" for
# None.
SPANNING_PATHS_DIGEST = "ce606821e81514d3a928fc3d47c61085cf61c02a687ee483e0ba4a8f0e07d9d7"

PROPERTY_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def is_path_of(g, seq, closed=False):
    if seq is None or sorted(seq) != list(range(g.n)):
        return False
    hops = list(zip(seq, seq[1:])) + ([(seq[-1], seq[0])] if closed else [])
    return all(g.has_edge(u, v) for u, v in hops)


def test_path_on_obvious_graphs():
    assert is_path_of(path_graph(5), hamilton_path(path_graph(5)))
    assert is_path_of(cycle_graph(7), hamilton_path(cycle_graph(7)))
    assert is_path_of(complete_graph(6), hamilton_path(complete_graph(6)))


def test_cycle_on_obvious_graphs():
    assert is_path_of(cycle_graph(5), hamilton_cycle(cycle_graph(5)), closed=True)
    assert is_path_of(complete_graph(4), hamilton_cycle(complete_graph(4)), closed=True)
    assert hamilton_cycle(path_graph(4)) is None


def test_petersen_has_path_but_no_cycle():
    g = petersen()
    assert is_path_of(g, hamilton_path(g))
    assert hamilton_cycle(g) is None


def test_complete_bipartite_parity():
    even = complete_bipartite(3, 3)
    assert is_path_of(even, hamilton_cycle(even), closed=True)
    lopsided = complete_bipartite(2, 4)
    assert hamilton_cycle(lopsided) is None
    assert hamilton_path(lopsided) is None
    near = complete_bipartite(3, 4)
    assert hamilton_cycle(near) is None
    assert is_path_of(near, hamilton_path(near))


def test_three_leaf_tree_has_no_path():
    assert hamilton_path(star_graph(3)) is None


def test_anchored_variants():
    g = cycle_graph(6)
    p = hamilton_path_from(g, 3)
    assert is_path_of(g, p) and p[0] == 3


def test_trivial_sizes():
    single = from_edge_list(1, [])
    assert hamilton_path(single) == [0]
    pair = from_edge_list(2, [(0, 1)])
    assert hamilton_path(pair) == [0, 1]
    assert hamilton_cycle(pair) is None


def test_size_guard():
    big = path_graph(17)
    with pytest.raises(TooLarge):
        hamilton_path(big)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(3, 6))
@PROPERTY_SETTINGS
def test_hamilton_path_answers_are_real_paths(seed, n):
    g = random_connected(random.Random(seed), n, 0.3)
    p = hamilton_path(g)
    if p is not None:
        assert is_path_of(g, p)


@st.composite
def near_bipartite_graphs(draw):
    """A random graph on two sides with cross edges, plus at most two
    edges inside a side (so some are bipartite, some not)."""
    n = draw(st.integers(2, 10))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    share = draw(st.sampled_from([0.3, 0.5]))
    side = [rng.random() < share for _ in range(n)]
    p = draw(st.sampled_from([0.3, 0.5, 0.8]))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v] and rng.random() < p
    ]
    inside = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] == side[v]]
    edges += rng.sample(inside, min(len(inside), draw(st.integers(0, 2))))
    return from_edge_list(n, edges)


@given(near_bipartite_graphs())
@PROPERTY_SETTINGS
def test_side_count_tests_agree_with_the_unrestricted_search(g):
    # the unrestricted search joins the helper vertex to every vertex
    n = g.n
    full = (1 << n) - 1
    adj = [row | 1 << n for row in g.adj] + [full]
    want = hamilton._spanning_path(adj, n + 1, n, full) is not None
    p = hamilton_path(g)
    assert (p is not None) == want
    if p is not None:
        assert is_path_of(g, p)


def test_spanning_paths_are_pinned():
    lines = []
    for kind, top in (("general", 7), ("bipartite", 9)):
        for n in range(1, top + 1):
            for packed in enumeration_mod._level(kind, n, 0):
                p = hamilton_path(from_adj_rows(n, _unpack_rows(n, packed)))
                lines.append("-" if p is None else ",".join(map(str, p)))
    assert len(lines) == 1980
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == SPANNING_PATHS_DIGEST
