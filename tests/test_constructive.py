"""Certificate builders: trees, spanning paths, bridgeless strong colorings,
gluing, vertex absorption, and the 2-color decision pc2_pipeline."""

from __future__ import annotations

import hashlib
import json
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properconn import coloring, constructive
from properconn import enumeration as enumeration_mod
from properconn import (
    ColoringGraphMismatch,
    DegreeTooLow,
    EdgeColoring,
    HasBridge,
    NotABridge,
    NotATree,
    OverlappingSets,
    PcCertificate,
    PcError,
    TooLarge,
    VertexOutOfRange,
    bipartition,
    certificate_from_json,
    certificate_to_json,
    color_tree,
    enumerate_connected,
    extend_vertex,
    find_bridges,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    glue_across_bridge,
    has_strong_property,
    is_connected,
    is_proper_connected,
    make_star_of_bicliques,
    pc2_pipeline,
    pc_exact,
    pc_upper,
    strong_coloring_bridgeless,
    to_graph6,
    verify_certificate,
)
from properconn.enumeration import _unpack_rows
from util import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    friendship_graph,
    path_graph,
    petersen,
    random_connected,
    star_graph,
)

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def check(cert, k=None, strategy=None, strong=None):
    assert verify_certificate(cert).ok
    if k is not None:
        assert cert.k == k
    if strategy is not None:
        assert cert.strategy == strategy
    if strong is not None:
        assert cert.strong == strong
    return cert


# --- trees -------------------------------------------------------------------


def test_tree_coloring_uses_max_degree_colors():
    check(color_tree(path_graph(6)), k=2, strategy="tree")
    check(color_tree(star_graph(5)), k=5, strategy="tree")
    spider = from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    check(color_tree(spider), k=3)


def test_tree_coloring_rejects_cycles():
    with pytest.raises(NotATree):
        color_tree(cycle_graph(4))


def test_single_vertex_tree():
    cert = color_tree(from_edge_list(1, []))
    assert cert.k == 1 and verify_certificate(cert).ok


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(3, 9))
@PROPERTY_SETTINGS
def test_tree_coloring_is_proper_at_every_vertex(seed, n):
    g = random_connected(random.Random(seed), n, 0.0)
    cert = check(color_tree(g))
    # adjacent tree edges never share a color, so paths are proper
    c = cert.coloring
    for v in range(n):
        nbrs = list(g.neighbors(v))
        seen = [c.color(v, w) for w in nbrs]
        assert len(set(seen)) == len(seen)


# --- spanning paths ----------------------------------------------------------


def test_hamilton_path_coloring():
    check(pc_upper(cycle_graph(6)), k=2, strategy="hamilton_path")
    check(pc_upper(petersen()), k=2, strategy="hamilton_path")
    check(pc_upper(star_graph(3)), strategy="tree")


def test_hamilton_path_coloring_single_edge():
    # pc_upper gives K2 its one-color "complete" certificate; the path
    # coloring's palette is 2 even when one color suffices
    g = from_edge_list(2, [(0, 1)])
    cert = constructive._color_path(g, constructive._dominating_path(g.adj))
    check(cert, k=2, strategy="hamilton_path")


def test_a_path_coloring_is_checked_without_a_search(monkeypatch):
    # the checker walks the alternating path it is handed, which settles
    # every pair; verify_certificate, given no path, still passes it
    searches = []
    real = coloring._Machine.dfs_from

    def spy(self, *args):
        searches.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(coloring._Machine, "dfs_from", spy)
    checked = 0
    for packed in enumeration_mod._level("general", 8, 2):
        g = from_adj_rows(8, _unpack_rows(8, packed))
        path = constructive._dominating_path(g.adj)
        if path is None or len(path) < g.n:
            continue
        cert = constructive._color_path(g, path)
        assert searches == []
        assert verify_certificate(cert).ok
        searches.clear()
        checked += 1
    assert checked == 7215


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(2, 9),
    st.integers(0, 5),
)
def test_a_two_dominating_path_coloring_connects_the_graph(seed, length, off):
    # a random path, each other vertex joined to two or more of its
    # vertices, random extra edges, then a random relabeling
    rng = random.Random(seed)
    n = length + off
    edges = {(i, i + 1) for i in range(length - 1)}
    for x in range(length, n):
        for p in rng.sample(range(length), rng.randint(2, length)):
            edges.add((p, x))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.15:
                edges.add((u, v))
    label = list(range(n))
    rng.shuffle(label)
    g = from_edge_list(n, [(label[u], label[v]) for u, v in edges])
    path = label[:length]
    colors = constructive._path_colors(g, path)
    cert = PcCertificate(EdgeColoring(g, 2, colors), "dominating_path", False)
    assert verify_certificate(cert).ok, (g.edges, path, colors)


def test_the_path_step_alternates_colors_along_a_spanning_path():
    for g in [cycle_graph(6), petersen(), complete_bipartite(3, 4), path_graph(5)]:
        cert = pc2_pipeline(g)
        assert cert.strategy == "hamilton_path"
        path = constructive._dominating_path(g.adj)
        assert sorted(path) == list(g.vertices())
        hamilton = [2 if i % 2 else 1 for i in range(len(path) - 1)]
        on_path = {tuple(sorted(e)): c for e, c in zip(zip(path, path[1:]), hamilton)}
        assert cert.coloring.colors == tuple(on_path.get(e, 1) for e in g.edges)


def test_the_rows_check_accepts_exactly_the_two_dominating_paths():
    for g in [cycle_graph(6), petersen(), from_edge_list(2, [(0, 1)]), from_edge_list(1, [])]:
        path = constructive._dominating_path(g.adj)
        assert constructive._dominates(g.adj, path)
    adj = cycle_graph(6).adj
    assert constructive._dominates(adj, [0, 1, 2, 3, 4, 5])
    # 5, the one vertex off it, has both 0 and 4 on it
    assert constructive._dominates(adj, [0, 1, 2, 3, 4])
    refused = [
        [0, 1, 2, 4, 3, 5],  # 2 4 is not an edge
        [0, 1, 2, 3, 4, 5, 0],  # 0 again
        [0, 1, 2, 3],  # 4 and 5 each have one neighbour on it
        [0, 1, 2, 3, 4, 5, 6],  # 6 is out of range
        [-1, 0, 1, 2, 3, 4, 5],
        [],
    ]
    for path in refused:
        assert not constructive._dominates(adj, path), path
    assert not constructive._dominates(from_edge_list(1, []).adj, [])


def test_every_path_the_rows_check_accepts_gets_a_proper_connected_coloring():
    # every simple path of every connected graph on 2..6 vertices; each
    # is also followed by a vertex off it that its last vertex is not
    # adjacent to, which no path check may accept
    paths = accepted = 0
    for n in range(2, 7):
        for g in enumerate_connected(n):
            stack = [[v] for v in g.vertices()]
            while stack:
                path = stack.pop()
                paths += 1
                on = set(path)
                off = [x for x in g.vertices() if x not in on]
                dominates = all(sum(g.has_edge(x, p) for p in path) >= 2 for x in off)
                assert constructive._dominates(g.adj, path) == dominates, (g.edges, path)
                if dominates:
                    accepted += 1
                    colors = constructive._path_colors(g, path)
                    assert is_proper_connected(EdgeColoring(g, 2, colors)), (g.edges, path)
                for w in off:
                    if g.has_edge(path[-1], w):
                        stack.append(path + [w])
                    else:
                        assert not constructive._dominates(g.adj, path + [w]), (g.edges, path, w)
    assert (paths, accepted) == (31135, 21168)


def test_breadth_first_order_is_a_connected_permutation_of_the_edges():
    rng = random.Random(18)
    graphs = [star_graph(4), path_graph(6), petersen(), friendship_graph()]
    graphs += [random_connected(rng, n, p) for n in range(2, 11) for p in (0.0, 0.3, 0.7)]
    for g in graphs:
        order = constructive._bfs_order(g)
        assert sorted(order) == list(g.edges)
        top = max(g.degree(v) for v in g.vertices())
        assert top in (g.degree(order[0][0]), g.degree(order[0][1]))
        touched = set(order[0])
        for u, v in order[1:]:
            # each edge meets the ones before it, so every prefix is connected
            assert u in touched or v in touched
            touched.update((u, v))


@st.composite
def small_connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return random_connected(rng, n, draw(st.sampled_from([0.0, 0.15, 0.3, 0.6])))


@given(small_connected_graphs(), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_breadth_first_order_keeps_the_kernel_verdict(g, k):
    by_bfs = coloring.complete(g, k, {}, constructive._bfs_order(g))
    by_index = coloring.complete(g, k, {}, g.edges)
    assert (by_bfs is None) == (by_index is None)
    for colors in (by_bfs, by_index):
        if colors is not None:
            assert coloring.is_proper_connected(EdgeColoring(g, k, colors))


def test_no_two_dominating_path_in_three_color_graphs():
    for g in [make_star_of_bicliques(2), friendship_graph()]:
        assert pc_exact(g)[0] == 3
        assert constructive._dominating_path(g.adj) is None


def test_a_capped_path_search_leaves_the_graph_to_the_kernel(monkeypatch):
    # the first descent from vertex 2 runs 2 0 1 3 5 and dead-ends with 4
    # touching the path at 3 alone; a later branch finds a path
    g = from_edge_list(7, [(0, 1), (0, 2), (0, 6), (1, 3), (3, 4), (3, 5), (3, 6), (4, 6)])
    assert constructive._dominating_path(g.adj) is not None
    monkeypatch.setattr(constructive, "_DFS_STEPS", g.n)
    assert constructive._dominating_path(g.adj) is None
    check(pc2_pipeline(g), k=2, strategy="exhaustive")


# sha256 of one line "kind n path steps" per graph of _level("general", n, 2)
# for n = 5..8 and _level("bipartite", n, 0) for n = 2..9, in level order:
# the path _dominating_path returns and the _extend calls it took
PATH_SEARCH_DIGEST = "25e28cca24cc6a94a96e1bbcfe26b0e3e7abf968adb38e413c630923eb85990b"


def test_path_search_paths_and_steps_are_pinned(monkeypatch):
    steps = [0]
    real = constructive._extend

    def counted(*args):
        steps[0] += 1
        return real(*args)

    monkeypatch.setattr(constructive, "_extend", counted)
    digest = hashlib.sha256()
    for kind, orders, t in (("general", range(5, 9), 2), ("bipartite", range(2, 10), 0)):
        for n in orders:
            for packed in enumeration_mod._level(kind, n, t):
                steps[0] = 0
                path = constructive._dominating_path(_unpack_rows(n, packed))
                digest.update(f"{kind} {n} {path} {steps[0]}\n".encode())
    assert digest.hexdigest() == PATH_SEARCH_DIGEST


def test_the_empty_graph_gets_the_vacuous_certificate():
    for n in (0, 1):
        cert = check(pc2_pipeline(from_edge_list(n, [])), k=2, strategy="hamilton_path")
        assert cert.coloring.colors == ()


# --- bridgeless strong colorings ----------------------------------------------


def test_strong_coloring_on_even_cycle():
    cert = check(strong_coloring_bridgeless(cycle_graph(6)), strong=True)
    assert cert.k == 2
    assert cert.strategy == "bipartite_bridgeless"


def test_strong_coloring_on_odd_cycle():
    cert = check(strong_coloring_bridgeless(cycle_graph(5)), strong=True)
    assert cert.k <= 3
    assert cert.strategy == "bridgeless_3"


def test_strong_coloring_on_petersen():
    cert = check(strong_coloring_bridgeless(petersen()), strong=True)
    assert cert.k <= 3
    assert has_strong_property(cert.coloring)


def test_strong_coloring_on_complete_bipartite():
    cert = check(strong_coloring_bridgeless(complete_bipartite(2, 3)), strong=True)
    assert cert.k == 2


# sha256 of one line "k strategy colors" per certificate that
# strong_coloring_bridgeless gives the bridgeless classes with 3-7
# vertices, in enumerate_connected order
STRONG_CERTIFICATE_DIGEST = "f5c6bd90750cb5c0f47a82db711a7549967911db5756802532df84b85b8b871e"


def test_strong_certificates_are_pinned():
    digest = hashlib.sha256()
    for n in range(3, 8):
        for g in enumerate_connected(n):
            if not find_bridges(g):
                cert = strong_coloring_bridgeless(g)
                digest.update(f"{cert.k} {cert.strategy} {cert.coloring.colors}\n".encode())
    assert digest.hexdigest() == STRONG_CERTIFICATE_DIGEST


def random_bipartite_bridgeless(rng, n, sides=(3, 4, 5)):
    while True:
        a = rng.choice(sides)
        p = rng.choice([0.35, 0.5, 0.7])
        edges = [(u, v) for u in range(a) for v in range(a, n) if rng.random() < p]
        g = from_edge_list(n, edges)
        if is_connected(g) and not find_bridges(g):
            return g


def random_bridgeless(rng, n):
    while True:
        g = random_connected(rng, n, rng.choice([0.15, 0.25, 0.4]))
        if not find_bridges(g):
            return g


def test_strong_search_settles_every_graph_at_the_size_cap():
    # no volume guard stands behind the ear patterns: the kernel must
    # settle each bridgeless graph up to n=10 with 2 colors when bipartite
    # and at most 3 otherwise (Borozan et al., Discrete Math. 312, 2012)
    rng = random.Random(20261018)
    graphs = [cycle_graph(9), complete_graph(10), petersen(), complete_bipartite(5, 5)]
    graphs += [random_bridgeless(rng, rng.choice([9, 10])) for _ in range(40)]
    graphs += [random_bipartite_bridgeless(rng, rng.choice([9, 10])) for _ in range(20)]
    t0 = time.monotonic()
    for g in graphs:
        cert = strong_coloring_bridgeless(g)
        assert cert.strong and verify_certificate(cert).ok
        if bipartition(g) is not None:
            assert cert.k == 2
        else:
            assert cert.k <= 3
    # an odd cycle has no strong 2-coloring, so C9 comes from the kernel
    assert strong_coloring_bridgeless(cycle_graph(9)).k == 3
    assert time.monotonic() - t0 < 30


def test_strong_coloring_guards():
    with pytest.raises(HasBridge):
        strong_coloring_bridgeless(path_graph(4))
    with pytest.raises(ValueError):
        strong_coloring_bridgeless(from_edge_list(1, []))
    with pytest.raises(TooLarge):
        strong_coloring_bridgeless(cycle_graph(11))


def glued_blocks(rng, sizes, block):
    """Graphs block(rng, size), each after the first glued at one vertex
    of the part built so far, under a random relabeling. The result is
    bridgeless, and not 2-connected when there are two blocks or more;
    bipartite blocks give a bipartite result."""
    edges, n = [], 0
    for size in sizes:
        names = [rng.randrange(n), *range(n, n + size - 1)] if n else range(size)
        edges += [(names[u], names[v]) for u, v in block(rng, size).edges]
        n = max(names) + 1
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])


def alternating_ear_colors(g, ears, phases):
    """Colors 1, 2, 1, ... along each ear (the first one closed), shifted
    by that ear's phase."""
    color = {}
    for idx, (ear, phase) in enumerate(zip(ears, phases)):
        seq = ear + [ear[0]] if idx == 0 else ear
        for i, (a, b) in enumerate(zip(seq, seq[1:])):
            color[min(a, b), max(a, b)] = 1 + (i + phase) % 2
    return tuple(color[e] for e in g.edges)


def block_sizes(low, high, max_n):
    return st.lists(st.integers(low, high), min_size=1, max_size=3).filter(
        lambda sizes: 1 + sum(s - 1 for s in sizes) <= max_n
    )


@given(st.integers(min_value=0, max_value=2**32 - 1), block_sizes(3, 6, 9))
@PROPERTY_SETTINGS
def test_ear_decomposition_partitions_the_edges_into_ears(seed, sizes):
    # the contract strong_coloring_bridgeless's lemma rests on, also on
    # bridgeless graphs with cut vertices
    rng = random.Random(seed)
    for g in (glued_blocks(rng, sizes, random_bridgeless), friendship_graph()):
        ears = constructive._ear_decomposition(g)
        cycle = ears[0]
        assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
        runs = [list(zip(cycle, cycle[1:] + cycle[:1]))]
        covered = set(cycle)
        for ear in ears[1:]:
            assert len(ear) >= 2 and ear[0] in covered and ear[-1] in covered
            inner = ear[1:-1]
            assert len(set(inner)) == len(inner) and not covered & set(inner)
            if ear[0] == ear[-1]:
                assert len(ear) - 1 >= 3
            covered.update(inner)
            runs.append(list(zip(ear, ear[1:])))
        used = sorted((min(a, b), max(a, b)) for run in runs for a, b in run)
        assert used == list(g.edges)


# sha256 of one line "kind n ears" per bridgeless graph of
# _level("general", n, 2) for n = 3..7 and _level("bipartite", n, 2) for
# n = 4..10, in level order: the ears _ear_decomposition returns
EAR_DECOMPOSITION_DIGEST = "b057c405334eeb82e36203467c1b4c818fb63c0a68da2de3639e80be0f87a323"


def test_ear_decompositions_are_pinned():
    digest = hashlib.sha256()
    graphs = 0
    for kind, orders in (("general", range(3, 8)), ("bipartite", range(4, 11))):
        for n in orders:
            for packed in enumeration_mod._level(kind, n, 2):
                g = from_adj_rows(n, _unpack_rows(n, packed))
                if not find_bridges(g):
                    graphs += 1
                    digest.update(f"{kind} {n} {constructive._ear_decomposition(g)}\n".encode())
    assert graphs == 1798
    assert digest.hexdigest() == EAR_DECOMPOSITION_DIGEST


def test_bipartite_bridgeless_classes_are_constructed_without_search(monkeypatch):
    # every class up to n=10 gets the phase-0 ear coloring, checked once,
    # and never reaches the kernel
    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel ran on bipartite input")

    checks = []

    def counted(c):
        checks.append(c.graph)
        return has_strong_property(c)

    monkeypatch.setattr(constructive, "complete", no_kernel)
    monkeypatch.setattr(constructive, "has_strong_property", counted)
    graphs = 0
    for n in range(4, 11):
        for packed in enumeration_mod._level("bipartite", n, 2):
            g = from_adj_rows(n, _unpack_rows(n, packed))
            if find_bridges(g):
                continue
            graphs += 1
            cert = check(strong_coloring_bridgeless(g), 2, "bipartite_bridgeless", strong=True)
            assert checks[-1] is g
            ears = constructive._ear_decomposition(g)
            assert cert.coloring.colors == alternating_ear_colors(g, ears, [0] * len(ears))
    assert graphs == len(checks) == 1221


@given(st.integers(min_value=0, max_value=2**32 - 1), block_sizes(4, 8, 12))
@PROPERTY_SETTINGS
def test_every_ear_phase_gives_a_strong_bipartite_coloring(seed, sizes):
    # the lemma in strong_coloring_bridgeless's docstring covers any
    # phase on each ear, not only the phase 0 that it builds
    rng = random.Random(seed)
    g = glued_blocks(rng, sizes, lambda rng, n: random_bipartite_bridgeless(rng, n, range(2, n - 1)))
    ears = constructive._ear_decomposition(g)
    phases = [rng.randrange(2) for _ in ears]
    assert has_strong_property(EdgeColoring(g, 2, alternating_ear_colors(g, ears, phases)))


def test_bipartite_strong_colorings_reach_the_checker_cap(monkeypatch):
    cube = from_edge_list(16, [(a, a | 1 << b) for a in range(16) for b in range(4) if not a >> b & 1])
    for g in (cube, cycle_graph(16), complete_bipartite(8, 8)):
        check(strong_coloring_bridgeless(g), 2, "bipartite_bridgeless", strong=True)

    def no_decomposition(g):
        raise AssertionError("an ear decomposition was built past the cap")

    monkeypatch.setattr(constructive, "_ear_decomposition", no_decomposition)
    for g in (cycle_graph(18), cycle_graph(11)):
        with pytest.raises(TooLarge):
            strong_coloring_bridgeless(g)


# --- gluing ------------------------------------------------------------------


def two_triangle_halves():
    # each half: a triangle with a pendant standing in for the far side
    a = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    b = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    return pc_exact(a)[1], pc_exact(b)[1]


def test_glue_two_triangles():
    ca, cb = two_triangle_halves()
    comp = glue_across_bridge(ca, cb, (2, 3), ([0, 1, 2, 3], [3, 4, 5, 2]))
    check(comp, k=2, strategy="glue")
    assert comp.graph.n == 6 and comp.graph.m == 7


def test_glue_rejects_overlapping_interiors():
    ca, cb = two_triangle_halves()
    with pytest.raises(OverlappingSets):
        glue_across_bridge(ca, cb, (2, 3), ([0, 1, 2, 3], [3, 1, 5, 2]))


def test_glue_rejects_missing_bridge():
    # first half lacks the (2,3) edge even though both labels exist in it
    a = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    ca = pc_exact(a)[1]
    cb = two_triangle_halves()[1]
    with pytest.raises(NotABridge):
        glue_across_bridge(ca, cb, (2, 3), ([0, 1, 2, 3], [3, 4, 5, 2]))


def tampered(cert):
    """JSON copies of cert that claim more than their colors give: each
    color in turn changed, then a false strong claim; all say
    "verified": true."""
    doc = json.loads(certificate_to_json(cert))
    doc["meta"]["verified"] = True
    copies = []
    for i, c in enumerate(doc["colors"]):
        forged = json.loads(json.dumps(doc))
        forged["colors"][i] = c % doc["k"] + 1
        copies.append(certificate_from_json(json.dumps(forged)))
    doc["meta"]["strong"] = True
    copies.append(certificate_from_json(json.dumps(doc)))
    return copies


def test_tampered_inputs_give_errors_or_checked_certificates():
    # glue and extension trust no claim of their inputs: each call either
    # raises a PcError or returns a certificate the checker passes
    ca, cb = two_triangle_halves()
    c4 = strong_coloring_bridgeless(cycle_graph(4))
    path = pc_upper(path_graph(4))
    embedding = ([0, 1, 2, 3], [3, 4, 5, 2])
    calls = []
    for forged in tampered(ca):
        calls.append(lambda f=forged: glue_across_bridge(f, cb, (2, 3), embedding))
    for forged in tampered(c4) + tampered(path):
        calls.append(lambda f=forged: extend_vertex(f, [(4, 0), (4, 2)]))
    outcomes = {"raised": 0, "checked": 0}
    for call in calls:
        try:
            cert = call()
        except PcError:
            outcomes["raised"] += 1
            continue
        assert verify_certificate(cert).ok
        outcomes["checked"] += 1
    assert outcomes["raised"] and outcomes["checked"]


def test_glue_keeps_first_half_palette():
    # only the second half is renamed, so the bridge keeps its a-side color
    ca, cb = two_triangle_halves()
    comp = glue_across_bridge(ca, cb, (2, 3), ([0, 1, 2, 3], [3, 4, 5, 2]))
    assert comp.coloring.color(2, 3) == ca.coloring.color(2, 3)
    for (x, y), want in zip(ca.graph.edges, ca.coloring.colors):
        assert comp.coloring.color(x, y) == want


# --- vertex absorption -------------------------------------------------------


def test_extend_vertex_grows_a_cycle():
    base = check(strong_coloring_bridgeless(cycle_graph(4)))
    bigger = extend_vertex(base, [(4, 0), (4, 2)])
    check(bigger, k=2, strategy="extend")
    assert bigger.graph.n == 5


def test_extend_vertex_needs_two_attachments():
    base = strong_coloring_bridgeless(cycle_graph(4))
    with pytest.raises(DegreeTooLow):
        extend_vertex(base, [(4, 0)])


def test_extend_vertex_needs_two_color_base():
    base = pc_exact(star_graph(3))[1]  # k=3 certificate
    with pytest.raises(ValueError):
        extend_vertex(base, [(4, 0), (4, 1)])


def test_extend_vertex_checks_its_attachment_edges():
    base = strong_coloring_bridgeless(cycle_graph(4))
    for edges in ([(4, 0), (0, 1)], [(4, 0), (4, 9)], [(4, 0), (4, 4)]):
        with pytest.raises(VertexOutOfRange):
            extend_vertex(base, edges)
    # either orientation, and repeats count once
    bigger = extend_vertex(base, [(0, 4), (4, 2), (2, 4)])
    assert bigger.graph.degree(4) == 2


@given(st.integers(min_value=0, max_value=2**32 - 1))
@PROPERTY_SETTINGS
def test_extend_vertex_random_attachments(seed):
    rng = random.Random(seed)
    base_graph = cycle_graph(rng.choice([4, 6]))
    base = strong_coloring_bridgeless(base_graph)
    w = base_graph.n
    attach = rng.sample(range(base_graph.n), rng.choice([2, 3]))
    bigger = extend_vertex(base, [(w, u) for u in attach])
    assert verify_certificate(bigger).ok and bigger.graph.degree(w) == len(attach)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(3, 7),
    st.sampled_from([0.2, 0.4, 0.6]),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_extend_vertex_takes_bases_that_are_not_strong(seed, n, extra):
    # criterion 6 extends strong bases only; the pipeline's certificates
    # of random graphs are seldom strong, and the lemma in extend_vertex's
    # docstring proves that those extend too
    rng = random.Random(seed)
    base_graph = random_connected(rng, n, extra)
    base = pc2_pipeline(base_graph)
    if base is None:
        return
    attach = rng.sample(range(n), rng.randint(2, n))
    bigger = extend_vertex(base, [(n, u) for u in attach])
    assert bigger.k == 2 and verify_certificate(bigger).ok


def test_extend_vertex_regrows_every_small_graph_from_a_vertex_deleted():
    # the lemma on every connected G with n <= 7 and every non-cut
    # vertex x of degree >= 2: a 2-color certificate of G - x extends to
    # one of G, relabeled so that x comes last
    pairs = two_color_bases = 0
    for n in range(3, 8):
        for packed in enumeration_mod._level("general", n, 0):
            g = from_adj_rows(n, _unpack_rows(n, packed))
            for x in g.vertices():
                order = [v for v in g.vertices() if v != x] + [x]
                at = {v: i for i, v in enumerate(order)}
                edges = [(at[u], at[v]) for u, v in g.edges]
                base = from_edge_list(n - 1, [e for e in edges if n - 1 not in e])
                if g.degree(x) < 2 or not is_connected(base):
                    continue
                pairs += 1
                cert = pc2_pipeline(base)
                if cert is None:
                    continue
                two_color_bases += 1
                bigger = extend_vertex(cert, [(n - 1, at[v]) for v in g.neighbors(x)])
                assert bigger.k == 2 and verify_certificate(bigger).ok
                assert bigger.graph == from_edge_list(n, edges)
    assert (pairs, two_color_bases) == (5466, 5006)


# --- pipeline ----------------------------------------------------------------


def test_pipeline_stage_exemplars():
    # one frozen graph per outcome: spanning path, 2-dominating path,
    # kernel
    cases = {
        "BW": "hamilton_path",
        "E?~o": "dominating_path",  # complete bipartite 2x4
        "E?No": "exhaustive",
    }
    for code, tag in cases.items():
        got = pc2_pipeline(from_graph6(code))
        assert got is not None and got.strategy == tag
        check(got, k=2)


def test_pipeline_gives_up_on_three_color_graphs():
    for g in [star_graph(3), friendship_graph(), from_graph6("G@LCE[")]:
        assert pc2_pipeline(g) is None


def test_pipeline_none_is_the_verdict_pc_above_two():
    # every connected graph on 2..7 vertices (995 classes)
    graphs = [g for n in range(2, 8) for g in enumerate_connected(n)]
    assert len(graphs) == 995
    for g in graphs:
        assert (pc2_pipeline(g) is None) == (pc_exact(g)[0] > 2), to_graph6(g)


def test_pipeline_runs_no_strong_search(monkeypatch):
    # the kernel step searches plain 2-colorings of g itself
    from properconn import constructive

    kernel = constructive.complete
    strong_calls = []

    def recorded(g, k, fixed, free, strong=False, deadline=None):
        if strong:
            strong_calls.append(to_graph6(g))
        return kernel(g, k, fixed, free, strong, deadline)

    monkeypatch.setattr(constructive, "complete", recorded)
    for n in range(2, 8):
        for g in enumerate_connected(n):
            pc2_pipeline(g)
    assert strong_calls == []


def test_pipeline_size_guard():
    with pytest.raises(TooLarge):
        pc2_pipeline(path_graph(17))


def test_pipeline_rejects_disconnected():
    from properconn import Disconnected

    with pytest.raises(Disconnected):
        pc2_pipeline(from_edge_list(4, [(0, 1), (2, 3)]))


# --- certificate serialization -------------------------------------------------


def test_certificate_json_round_trip():
    cert = strong_coloring_bridgeless(cycle_graph(6))
    text = certificate_to_json(cert)
    doc = json.loads(text)
    assert doc["k"] == 2 and doc["meta"]["strategy"] == "bipartite_bridgeless"
    back = certificate_from_json(text)
    assert back == cert and verify_certificate(back).ok


def test_certificate_json_verified_flag_has_no_effect():
    cert = strong_coloring_bridgeless(cycle_graph(6))
    doc = json.loads(certificate_to_json(cert))
    assert "verified" not in doc["meta"]
    doc["colors"] = [1] * len(doc["colors"])
    plain = certificate_from_json(json.dumps(doc))
    doc["meta"]["verified"] = True
    claimed = certificate_from_json(json.dumps(doc))
    assert claimed == plain
    assert not verify_certificate(claimed).ok


def test_certificate_json_refuses_tampering():
    cert = strong_coloring_bridgeless(cycle_graph(6))
    doc = json.loads(certificate_to_json(cert))
    doc["colors"][0] = doc["colors"][1]
    restored = certificate_from_json(json.dumps(doc))
    assert not verify_certificate(restored).ok


@pytest.mark.parametrize("meta", [[], "x", {"strategy": 3}, {"strong": 1}, {"strong": "true"}])
def test_certificate_json_rejects_malformed_meta(meta):
    doc = json.loads(certificate_to_json(strong_coloring_bridgeless(cycle_graph(6))))
    doc["meta"] = meta
    with pytest.raises(ColoringGraphMismatch):
        certificate_from_json(json.dumps(doc))
