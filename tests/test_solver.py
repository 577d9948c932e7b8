"""Exact solver, upper-bound strategies, budgets, and the verifier."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properconn import (
    Disconnected,
    PcCertificate,
    SearchBudgetExceeded,
    from_edge_list,
    from_graph6,
    is_tree,
    make_coloring,
    pc_exact,
    pc_upper,
    solver,
    strong_coloring_bridgeless,
    verify_certificate,
)
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


def test_upper_bound_is_always_verified():
    for g in [complete_graph(3), star_graph(5), cycle_graph(7), friendship_graph()]:
        cert = pc_upper(g)
        assert verify_certificate(cert).ok


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
    # the 4-star needs 4 colors, so capping at 2 must end in a bracket
    with pytest.raises(SearchBudgetExceeded) as info:
        pc_exact(star_graph(4), kmax=2)
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
    # three 4-cycles of K_{2,2} behind a 3-edge hub: the 2-color sweep
    # exhausts, and a degree-3 spanning tree closes the bracket at 3
    blocks = []
    for b in range(3):
        off = 1 + 4 * b
        blocks += [(off + i, off + 2 + j) for i in range(2) for j in range(2)]
        blocks.append((0, off))
    g = from_edge_list(13, blocks)
    pc, cert = pc_exact(g)
    assert pc == 3 and cert.strategy == "tree"
    assert verify_certificate(cert).ok


def test_oversized_palette_search_reports_a_bracket():
    # four K4 blocks behind a hub: 25 edges push even the 2-color sweep
    # past the volume guard, and 16 vertices disqualify the small-graph
    # exemption, so the solver must hand back a bracket right away
    edges = []
    for b in range(4):
        off = 1 + 3 * b
        edges += [(off, off + 1), (off, off + 2), (off + 1, off + 2)]
        edges += [(0, off), (0, off + 1), (0, off + 2)]
    edges += [(1, 13), (13, 14), (14, 15)]  # a tail to reach 16 vertices
    g = from_edge_list(16, edges)
    assert g.m == 27
    with pytest.raises(SearchBudgetExceeded) as info:
        pc_exact(g)
    assert info.value.lower == 2  # nothing exhausted, so only the trivial bound
    assert info.value.upper == pc_upper(g).k


def test_verify_accepts_honest_certificates():
    for g in [cycle_graph(5), star_graph(3), complete_graph(4)]:
        report = verify_certificate(pc_exact(g)[1])
        assert report.ok and bool(report)
        assert report.reason == ""


def test_verify_rejects_wrong_graph():
    cert = pc_exact(cycle_graph(5))[1]
    other = pc_exact(cycle_graph(6))[1]
    forged = type(cert)(
        other.graph, cert.coloring, cert.k, cert.strategy, cert.strong
    )
    report = verify_certificate(forged)
    assert not report.ok and report.reason


def test_verify_rejects_improper_coloring():
    g = path_graph(3)
    bad = make_coloring(g, 2, {(0, 1): 1, (1, 2): 1})
    cert = pc_exact(g)[1]
    forged = type(cert)(g, bad, 2, "exhaustive", False)
    report = verify_certificate(forged)
    assert not report.ok
    assert "(0, 2)" in report.reason


def test_verify_rejects_false_strong_claim():
    g = path_graph(3)
    ok = make_coloring(g, 2, {(0, 1): 1, (1, 2): 2})
    cert = pc_exact(g)[1]
    forged = type(cert)(g, ok, 2, "exhaustive", True)
    report = verify_certificate(forged)
    assert not report.ok
    assert report.reason == "strong property fails at (0, 1)"


def test_strong_claim_without_proper_paths_names_the_missing_path():
    g = path_graph(3)
    bad = make_coloring(g, 2, {(0, 1): 1, (1, 2): 1})
    report = verify_certificate(PcCertificate(g, bad, 2, "exhaustive", True))
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


def test_verify_rejects_palette_overflow():
    g = path_graph(3)
    wide = make_coloring(g, 3, {(0, 1): 1, (1, 2): 3})
    cert = pc_exact(g)[1]
    forged = type(cert)(g, wide, 2, "exhaustive", False)
    report = verify_certificate(forged)
    assert not report.ok
    assert "exceeds" in report.reason
