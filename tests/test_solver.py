"""Exact solver, upper-bound strategies, budgets, and the verifier."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from properconn import (
    Disconnected,
    PcCertificate,
    SearchBudgetExceeded,
    TooLarge,
    constructive,
    find_bridges,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    hamilton_path,
    is_tree,
    make_coloring,
    make_star_of_bicliques,
    pc_exact,
    pc_upper,
    solver,
    strong_coloring_bridgeless,
    verify_certificate,
)
from properconn import survey as survey_mod
from properconn.coloring import complete
from properconn.graph import _unpack_rows
from util import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    friendship_graph,
    path_graph,
    random_connected,
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

    def counted(coloring):
        checked.append(coloring.graph)
        return check(coloring)

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
    # _dominating_path packs a vertex into 5 bits, so past 31 vertices it
    # misreads the graph (on C33 it hit the recursion limit); pc_upper
    # refuses n > 16 before it runs
    with pytest.raises(TooLarge):
        pc_upper(cycle_graph(33))


def test_upper_bound_is_two_wherever_the_exact_search_finds_a_spanning_path():
    # every connected graph on 2..8 vertices; the exact Hamilton search is
    # the reference for pc_upper's capped path search
    graphs = 0
    for n in range(2, 9):
        for packed in survey_mod._level("general", n, 0):
            g = from_adj_rows(n, _unpack_rows(n, packed))
            cert = pc_upper(g)
            assert verify_certificate(cert).ok
            if cert.k > 2:
                assert cert.strategy == "tree" and hamilton_path(g) is None
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
    monkeypatch.setenv("PC_BUDGET_MS", "1")
    # dense enough that even the k=2 sweep cannot finish in a millisecond
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
