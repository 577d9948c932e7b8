"""Graph container, graph6 codec, structure queries, canonical labels."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properconn import (
    LoopEdge,
    MalformedGraph6,
    TooLarge,
    VertexOutOfRange,
    bipartition,
    canonical_code,
    degree_stats,
    find_bridges,
    from_edge_list,
    from_graph6,
    is_complete,
    is_connected,
    is_tree,
    parse_edge_list_text,
    to_graph6,
)
from properconn.enumeration import _isomorphisms, _vertex_keys
from properconn.graph import _reach_mask
from util import (
    brute_bridges,
    brute_canonical_code,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen,
    random_connected,
    star_graph,
)

PROPERTY_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def small_graphs(draw, max_n=8, connected=True):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    extra = draw(st.floats(min_value=0.0, max_value=0.6))
    g = random_connected(random.Random(seed), n, extra)
    if not connected:
        # maybe drop a vertex's edges to break it apart
        if draw(st.booleans()) and n >= 3:
            v = draw(st.integers(min_value=0, max_value=n - 1))
            g = from_edge_list(n, [e for e in g.edges if v not in e])
    return g


@st.composite
def twin_rich_graphs(draw, max_n=7):
    """K_{a,b}, C_n, K_n minus a matching, and disjoint unions of two of
    them: graphs with many twins and automorphisms."""

    def family(n):
        kind = draw(st.sampled_from(("biclique", "cycle", "cocktail")))
        if kind == "biclique" and n >= 2:
            a = draw(st.integers(min_value=1, max_value=n - 1))
            return complete_bipartite(a, n - a)
        if kind == "cycle" and n >= 3:
            return cycle_graph(n)
        k = draw(st.integers(min_value=0, max_value=n // 2))
        matching = {(2 * i, 2 * i + 1) for i in range(k)}
        return from_edge_list(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in matching]
        )

    n = draw(st.integers(min_value=1, max_value=max_n))
    g = family(n)
    if n < max_n and draw(st.booleans()):
        h = family(draw(st.integers(min_value=1, max_value=max_n - n)))
        g = from_edge_list(n + h.n, g.edges + tuple((u + n, v + n) for u, v in h.edges))
    return g


def test_basic_accessors():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert tuple(g.neighbors(0)) == (1, 3)
    assert g.degree(2) == 2
    assert list(g.vertices()) == [0, 1, 2, 3]


def test_accessors_refuse_vertices_outside_the_graph():
    # a negative vertex is out of range, not counted from the end and not
    # a negative shift count (a bare ValueError)
    g = path_graph(3)
    for call in (
        lambda: g.has_edge(-1, 1),
        lambda: g.has_edge(0, -1),
        lambda: g.has_edge(1, 3),
        lambda: g.has_edge(0, 1.0),
        lambda: g.degree(-1),
        lambda: g.degree(True),
        lambda: g.neighbors(-1),
        lambda: g.neighbors(3),
    ):
        with pytest.raises(VertexOutOfRange):
            call()


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_edge_validation():
    with pytest.raises(LoopEdge):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(-1, [])
    assert from_edge_list(0, []).n == 0  # empty graph is fine


def test_graph6_known_codes():
    # triangle and single edge have hand-checkable codes
    assert to_graph6(complete_graph(3)) == "Bw"
    assert to_graph6(from_edge_list(2, [(0, 1)])) == "A_"
    assert from_graph6("Bw").edges == ((0, 1), (0, 2), (1, 2))
    # the short form holds n <= 62, and canonical labeling takes n <= 13
    with pytest.raises(TooLarge):
        to_graph6(from_edge_list(63, []))
    with pytest.raises(TooLarge):
        canonical_code(path_graph(14))


def test_graph6_rejects_garbage():
    # "B\x7f": a data byte past "~"; "A`": a nonzero padding bit after n=2's one bit
    for bad in ["", "A", "Bw~", "\x7f", "B" + chr(30), "B\x7f", "A`"]:
        with pytest.raises(MalformedGraph6):
            from_graph6(bad)


@given(small_graphs(max_n=12, connected=False))
@PROPERTY_SETTINGS
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


@given(small_graphs(max_n=10, connected=False))
@PROPERTY_SETTINGS
def test_edge_list_text_round_trip(g):
    text = f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
    assert parse_edge_list_text(text) == g


def test_parse_edge_list_text_rejects_junk():
    for junk in [
        "",
        "n x\n0 1\n",
        "n 3\n0 1 2\n",
        "n 3\n0 a\n",
        "n 3\n0 \u00b2",
        "n \u0665",
        "n \uff15",
        "n 1_0",
        "n +3",
    ]:
        with pytest.raises(VertexOutOfRange):
            parse_edge_list_text(junk)


def test_edge_list_text_names_at_most_two_to_the_twentieth_vertices():
    with pytest.raises(TooLarge):
        parse_edge_list_text("n 1048577\n")
    g = parse_edge_list_text("n 1048576\n")
    assert (g.n, g.m) == (1 << 20, 0)


def test_degree_stats():
    degrees, lo, hi = degree_stats(star_graph(4))
    assert degrees == (4, 1, 1, 1, 1)
    assert (lo, hi) == (1, 4)


def test_shape_predicates():
    assert is_complete(complete_graph(5))
    assert not is_complete(cycle_graph(5))
    assert is_tree(path_graph(6)) and is_tree(star_graph(3))
    assert not is_tree(cycle_graph(4))
    assert is_connected(petersen())
    assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))


@given(small_graphs(max_n=7))
@PROPERTY_SETTINGS
def test_bridges_match_deletion_oracle(g):
    assert sorted(find_bridges(g)) == sorted(brute_bridges(g))


def test_bipartition():
    b = bipartition(cycle_graph(6))
    assert b is not None
    assert {frozenset(b.sideU), frozenset(b.sideV)} == {
        frozenset({0, 2, 4}),
        frozenset({1, 3, 5}),
    }
    assert bipartition(cycle_graph(5)) is None


@given(
    small_graphs(max_n=8, connected=False),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
@PROPERTY_SETTINGS
def test_bipartition_is_the_2_coloring_with_each_lowest_vertex_in_side_u(g, seeds, allowed):
    colorable = any(
        all((mask >> u ^ mask >> v) & 1 for u, v in g.edges) for mask in range(1 << g.n)
    )
    b = bipartition(g)
    assert (b is not None) == colorable
    if b is not None:
        assert b.sideU | b.sideV == set(g.vertices()) and not b.sideU & b.sideV
        assert not any({u, v} <= b.sideU or {u, v} <= b.sideV for u, v in g.edges)
        # each component's lowest vertex is in sideU
        comps = {_reach_mask(g.adj, 1 << v, (1 << g.n) - 1) for v in g.vertices()}
        assert all((comp & -comp).bit_length() - 1 in b.sideU for comp in comps)
    # a seed mask reaches the union of what its single seeds reach
    seeds &= (1 << g.n) - 1
    for inside in (allowed, -1):
        union = 0
        for v in g.vertices():
            if seeds >> v & 1:
                union |= _reach_mask(g.adj, 1 << v, inside)
        assert _reach_mask(g.adj, seeds, inside) == union


@given(small_graphs(max_n=8), st.integers(min_value=0, max_value=2**32 - 1))
@PROPERTY_SETTINGS
def test_canonical_form_is_relabeling_invariant(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert canonical_code(g) == canonical_code(h)
    # the graph the code decodes to is a relabeling of g
    form = from_graph6(canonical_code(h).decode("ascii"))
    assert canonical_code(form) == canonical_code(g)


@given(
    st.one_of(small_graphs(max_n=7, connected=False), twin_rich_graphs()),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@PROPERTY_SETTINGS
def test_canonical_code_is_the_least_code_over_all_vertex_orders(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert canonical_code(h) == brute_canonical_code(h)


def test_canonical_code_separates_nonisomorphic():
    a = path_graph(4)
    b = star_graph(3)
    assert a.m == b.m  # same size, different shape
    assert canonical_code(a) != canonical_code(b)


def test_canonical_form_is_idempotent():
    # the graph a canonical code decodes to has that code as its own
    c = from_graph6(canonical_code(petersen()).decode("ascii"))
    assert canonical_code(c) == to_graph6(c).encode("ascii")


# --- isomorphism without labeling -------------------------------------------------

# the connected cubic graphs on 8 vertices; the cube and the Wagner graph
# (the first and third) have every vertex key equal, yet are not isomorphic
CUBIC_8 = ("G?]uf?", "G@NMf?", "G@Umf?", "G@UuV?", "G@]uEC")


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def isomorphic(g, h):
    return any(_isomorphisms(g.adj, _vertex_keys(g.adj), h.adj, _vertex_keys(h.adj)))


some_graphs = st.one_of(
    small_graphs(max_n=8, connected=False),
    twin_rich_graphs(max_n=8),
    st.sampled_from(CUBIC_8).map(from_graph6),
)


@given(some_graphs, some_graphs, st.integers(min_value=0, max_value=2**32 - 1))
@PROPERTY_SETTINGS
def test_isomorphism_test_agrees_with_canonical_codes(g, other, seed):
    h = relabeled(g, seed)
    assert isomorphic(g, h) and isomorphic(h, g)
    if other.n == g.n:
        same = canonical_code(g) == canonical_code(other)
        assert isomorphic(h, other) == same
        assert isomorphic(other, h) == same


def test_isomorphism_test_separates_graphs_with_equal_vertex_keys():
    cubic = [from_graph6(code) for code in CUBIC_8]
    assert len({canonical_code(g) for g in cubic}) == len(cubic)
    tied = 0
    for i, g in enumerate(cubic):
        for j, h in enumerate(cubic):
            h = relabeled(h, 7 * i + j)
            if sorted(_vertex_keys(g.adj)) == sorted(_vertex_keys(h.adj)):
                tied += 1
                assert isomorphic(g, h) == (i == j)
    assert tied > len(cubic)  # some non-isomorphic pair ties on every key
