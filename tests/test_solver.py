"""Exact solver, upper-bound strategies, budgets, and the verifier."""

from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from properconn import (
    Disconnected,
    PcCertificate,
    SearchBudgetExceeded,
    TooLarge,
    color_tree,
    constructive,
    enumerate_connected,
    find_bridges,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    is_tree,
    make_coloring,
    make_star_of_bicliques,
    pc_exact,
    pc_upper,
    solver,
    strong_coloring_bridgeless,
    verify_certificate,
)
from properconn import enumeration as enumeration_mod
from properconn.coloring import complete
from properconn.enumeration import _unpack_rows
from util import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    friendship_graph,
    path_graph,
    random_connected,
    spanning_path,
    star_graph,
)

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def test_upper_bound_strategies():
    assert pc_upper(complete_graph(5)).strategy == "complete"
    assert pc_upper(complete_graph(5)).k == 1
    assert pc_upper(cycle_graph(6)).strategy == "hamilton_path"
    assert pc_upper(cycle_graph(6)).k == 2
    spider = from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    cert = pc_upper(spider)
    assert cert.strategy == "tree" and cert.k == 3


def test_tree_upper_bound_is_checked_once_on_the_graph(monkeypatch):
    # the spanning tree's own coloring is never checked, only g's
    g = star_graph(3)
    check = constructive.is_proper_connected
    checked = []

    def counted(coloring, path=()):
        checked.append(coloring.graph)
        return check(coloring, path=path)

    monkeypatch.setattr(constructive, "is_proper_connected", counted)
    cert = pc_upper(g)
    assert cert.strategy == "tree" and cert.k == 3
    assert checked == [g]


def test_upper_bound_is_always_verified():
    for g in [complete_graph(3), star_graph(5), cycle_graph(7), friendship_graph()]:
        cert = pc_upper(g)
        assert verify_certificate(cert).ok


def test_upper_bound_takes_a_two_dominating_path():
    # K_{2,4} has no spanning path; a longest one misses one vertex of the
    # side of 4, whose two neighbours are both on it
    cert = pc_upper(from_graph6("E?~o"))
    assert cert.k == 2 and cert.strategy == "dominating_path"
    assert verify_certificate(cert).ok


def test_upper_bound_stops_at_the_checker_cap_before_the_path_search():
    # pc_upper refuses n > 16 before any search; the path search it
    # calls carries the same cap of its own
    with pytest.raises(TooLarge):
        pc_upper(cycle_graph(33))


def test_path_search_refuses_graphs_past_its_packing():
    # a vertex is packed into 5 bits; without the cap C33 hit the
    # recursion limit and C40 gave None although the cycle spans
    for n in (33, 40):
        with pytest.raises(TooLarge):
            constructive._dominating_path(cycle_graph(n).adj)


# sha256 of one line "k strategy colors" per certificate that pc_upper
# gives the connected classes with 2-7 vertices, in enumerate_connected
# order; 82 of them are non-trees colored along a breadth-first tree
UPPER_CERTIFICATE_DIGEST = "852a1baf1c351ea59a2a6fb72d91b74179905f2a021271caea213359b326c12a"


def test_upper_bound_certificates_are_pinned():
    digest = hashlib.sha256()
    graphs = fallbacks = 0
    for n in range(2, 8):
        for g in enumerate_connected(n):
            cert = pc_upper(g)
            graphs += 1
            fallbacks += cert.strategy == "tree" and not is_tree(g)
            digest.update(f"{cert.k} {cert.strategy} {cert.coloring.colors}\n".encode())
    assert (graphs, fallbacks) == (995, 82)
    assert digest.hexdigest() == UPPER_CERTIFICATE_DIGEST


def test_upper_bound_colors_a_tree_without_a_path_or_bfs_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tree needs no path or breadth-first search")

    trees = [star_graph(3), from_edge_list(7, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])]
    expected = [color_tree(t) for t in trees]
    monkeypatch.setattr(solver, "_dominating_path", refuse)
    monkeypatch.setattr(solver, "_bfs", refuse)
    for t, cert in zip(trees, expected):
        got = pc_upper(t)
        assert (got.k, got.strategy, got.coloring) == (cert.k, "tree", cert.coloring)
    monkeypatch.undo()
    assert pc_upper(path_graph(5)).strategy == "hamilton_path"


def test_exact_skips_the_bridge_bound_when_two_colors_suffice(monkeypatch):
    def refuse(g):
        raise AssertionError("no palette is searched, so b is not needed")

    monkeypatch.setattr(solver, "_bridge_star", refuse)
    for g in [cycle_graph(6), from_graph6("E?~o")]:
        assert pc_exact(g)[0] == 2


def test_exact_settles_a_sparse_fifteen_vertex_graph_quickly():
    # a tree plus 2 edges with pc_upper k=4: in g.edges order the kernel
    # took about 10 s to reach its first 3-coloring
    g = from_graph6("NkC_ODAG@?G??_@?Ca?")
    t0 = time.monotonic()
    pc, cert = pc_exact(g)
    assert time.monotonic() - t0 < 2.0
    assert pc == 3 and verify_certificate(cert).ok


def test_upper_bound_is_two_wherever_the_exact_search_finds_a_spanning_path():
    # every connected graph on 2..8 vertices; a plain DFS for a spanning
    # path is the reference for pc_upper's capped path search
    graphs = 0
    for n in range(2, 9):
        for packed in enumeration_mod._level("general", n, 0):
            g = from_adj_rows(n, _unpack_rows(n, packed))
            cert = pc_upper(g)
            assert verify_certificate(cert).ok
            if cert.k > 2:
                assert cert.strategy == "tree" and spanning_path(g) is None
            graphs += 1
    assert graphs == 12112


def test_exact_on_complete_graphs():
    for n in range(2, 7):
        pc, cert = pc_exact(complete_graph(n))
        assert pc == 1 and cert.strategy == "complete"


def test_exact_on_paths_and_cycles():
    assert pc_exact(path_graph(5))[0] == 2
    assert pc_exact(cycle_graph(5))[0] == 2
    assert pc_exact(cycle_graph(8))[0] == 2


def test_exact_on_stars():
    # every pair of leaves meets at the center, so all edges must differ
    for m in range(2, 6):
        pc, cert = pc_exact(star_graph(m))
        assert pc == m
        assert verify_certificate(cert).ok


def test_exact_on_three_triangles_sharing_a_vertex():
    pc, cert = pc_exact(friendship_graph())
    assert pc == 3
    assert cert.strategy == "exhaustive"
    assert verify_certificate(cert).ok


def test_exact_on_complete_bipartite():
    assert pc_exact(complete_bipartite(2, 3))[0] == 2
    assert pc_exact(complete_bipartite(1, 4))[0] == 4  # that one is a star


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(3, 7))
@PROPERTY_SETTINGS
def test_exact_on_random_trees_equals_max_degree(seed, n):
    g = random_connected(random.Random(seed), n, 0.0)
    assert is_tree(g)
    assert pc_exact(g)[0] == max(g.degree(v) for v in range(n))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(4, 6))
@PROPERTY_SETTINGS
def test_exact_is_isomorphism_invariant(seed, n):
    rng = random.Random(seed)
    g = random_connected(rng, n, 0.3)
    perm = list(range(n))
    rng.shuffle(perm)
    h = from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges])
    assert pc_exact(g)[0] == pc_exact(h)[0]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(4, 6))
@PROPERTY_SETTINGS
def test_exact_never_beats_its_own_certificate(seed, n):
    g = random_connected(random.Random(seed), n, 0.4)
    pc, cert = pc_exact(g)
    assert pc == cert.k
    assert verify_certificate(cert).ok
    assert pc <= pc_upper(g).k


def test_exact_rejects_disconnected():
    with pytest.raises(Disconnected):
        pc_exact(from_edge_list(4, [(0, 1), (2, 3)]))
    with pytest.raises(Disconnected):
        pc_upper(from_edge_list(3, [(0, 1)]))


def test_kmax_turns_the_search_into_a_bounded_decision():
    # the 4-star's hub meets four bridges, so the proved bound meets the
    # tree certificate and the answer is exact, even above kmax
    pc, cert = pc_exact(star_graph(4), kmax=2)
    assert pc == 4 and cert.strategy == "tree"
    assert verify_certificate(cert).ok
    # the biclique star's hub meets three bridges, and its spanning tree
    # needs four colors: capping at 2 must end in the bracket between them
    with pytest.raises(SearchBudgetExceeded) as info:
        pc_exact(make_star_of_bicliques(2), kmax=2)
    assert info.value.lower == 3
    assert info.value.upper == 4


def test_budget_deadline_is_honored(monkeypatch):
    # a zero budget has run out by the first search node, however fast
    # the search, and G@LCE[ needs the palette-2 search
    monkeypatch.setenv("PC_BUDGET_MS", "0")
    g = from_graph6("G@LCE[")
    with pytest.raises(SearchBudgetExceeded) as info:
        pc_exact(g)
    assert info.value.lower >= 2
    assert info.value.upper >= info.value.lower


def test_three_biclique_star_resolves_via_matching_bounds():
    # three 4-cycles of K_{2,2} behind a 3-edge hub: the hub's three
    # bridges prove 3, and a degree-3 spanning tree meets that bound, so
    # no palette is searched
    blocks = []
    for b in range(3):
        off = 1 + 4 * b
        blocks += [(off + i, off + 2 + j) for i in range(2) for j in range(2)]
        blocks.append((0, off))
    g = from_edge_list(13, blocks)
    pc, cert = pc_exact(g)
    assert pc == 3 and cert.strategy == "tree"
    assert verify_certificate(cert).ok


def test_sixteen_vertex_graph_gets_a_searched_two_coloring():
    # four K4 blocks behind a hub plus a tail: 27 edges on 16 vertices,
    # past any count of the unpruned space, yet the kernel settles it
    edges = []
    for b in range(4):
        off = 1 + 3 * b
        edges += [(off, off + 1), (off, off + 2), (off + 1, off + 2)]
        edges += [(0, off), (0, off + 1), (0, off + 2)]
    edges += [(1, 13), (13, 14), (14, 15)]  # a tail to reach 16 vertices
    g = from_edge_list(16, edges)
    assert g.m == 27
    pc, cert = pc_exact(g)
    assert pc == 2 and cert.strategy == "exhaustive"
    assert verify_certificate(cert).ok


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(3, 8), st.integers(0, 3))
@settings(PROPERTY_SETTINGS, max_examples=200)
def test_bridge_bound_never_exceeds_pc(seed, n, extra):
    # a random tree plus up to three edges, kept only while a bridge is left
    rng = random.Random(seed)
    g = random_connected(rng, n, 0.0)
    edges = set(g.edges)
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(missing, min(extra, len(missing))))
    g = from_edge_list(n, sorted(edges))
    assume(find_bridges(g))
    b = solver._bridge_star(g)
    if b >= 3:
        assert complete(g, b - 1, {}, g.edges) is None


def test_verify_accepts_honest_certificates():
    for g in [cycle_graph(5), star_graph(3), complete_graph(4)]:
        report = verify_certificate(pc_exact(g)[1])
        assert report.ok and bool(report)
        assert report.reason == ""


def test_verify_rejects_improper_coloring():
    g = path_graph(3)
    bad = make_coloring(g, 2, {(0, 1): 1, (1, 2): 1})
    report = verify_certificate(PcCertificate(bad, "exhaustive", False))
    assert not report.ok
    assert "(0, 2)" in report.reason


def test_verify_rejects_false_strong_claim():
    g = path_graph(3)
    ok = make_coloring(g, 2, {(0, 1): 1, (1, 2): 2})
    report = verify_certificate(PcCertificate(ok, "exhaustive", True))
    assert not report.ok
    assert report.reason == "strong property fails at (0, 1)"


def test_strong_claim_without_proper_paths_names_the_missing_path():
    g = path_graph(3)
    bad = make_coloring(g, 2, {(0, 1): 1, (1, 2): 1})
    report = verify_certificate(PcCertificate(bad, "exhaustive", True))
    assert report.reason == "no proper path for pair (0, 2)"


def test_passing_strong_certificate_costs_one_check(monkeypatch):
    cert = strong_coloring_bridgeless(cycle_graph(6))
    calls = []

    def counted(name, check):
        def run(coloring):
            calls.append(name)
            return check(coloring)

        return run

    for name in ("is_proper_connected", "has_strong_property"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    assert verify_certificate(cert).ok
    assert calls == ["has_strong_property"]
