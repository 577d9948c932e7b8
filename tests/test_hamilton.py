"""Hamilton path and cycle search."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properconn import (
    TooLarge,
    from_edge_list,
    hamilton_cycle,
    hamilton_path,
    hamilton_path_from,
)
from util import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen,
    random_connected,
    star_graph,
)

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
