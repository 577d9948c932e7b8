"""Acceptance gate: the eight headline guarantees, one test per criterion.

Run with -v to get one pass/fail line per criterion. Each test is
self-contained and states its claim in the docstring; together they are
the contract the package promises to keep.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from properconn import (
    SearchBudgetExceeded,
    enumerate_connected,
    extend_vertex,
    find_bridges,
    from_edge_list,
    glue_across_bridge,
    is_proper_connected,
    is_tree,
    make_coloring,
    make_star_of_bicliques,
    pc2_pipeline,
    pc_exact,
    strong_coloring_bridgeless,
    survey_bipartite,
    survey_min_degree,
    to_graph6,
    verify_certificate,
)
from util import (
    brute_is_proper_connected,
    complete_graph,
    enumerate_connected_by_sweep,
    random_connected,
    star_graph,
)

# frozen 3-color witness for the 16-vertex biclique star, in g.edges order
BICLIQUE_STAR_WITNESS = (1, 2, 1, 2, 3, 2, 1, 3, 2, 1, 2, 3, 2, 2, 3, 1, 2, 2, 3)


def test_criterion_1_min_degree_survey_finds_exactly_two_exceptions():
    """Across every connected noncomplete graph with min degree >= ceil(n/4)
    on 5..8 vertices, exactly one 7-vertex and one 8-vertex graph need a
    third color; everything else gets a verified 2-coloring."""
    t0 = time.monotonic()
    report = survey_min_degree(5, 8)
    elapsed = time.monotonic() - t0

    assert report.totals == {5: 10, 6: 60, 7: 506, 8: 7441}
    assert report.unresolved == []
    assert [(e.graph6, e.pc) for e in report.exceptions] == [
        ("F@QFw", 3),
        ("G@LCE[", 3),
    ]
    for exc in report.exceptions:
        cert = exc.certificate
        assert cert.k == 3 and verify_certificate(cert).ok
    assert elapsed < 600


def test_criterion_2_seven_vertex_exception_splits_into_three_attached_pairs():
    """The 7-vertex exception is a cut-vertex plus three mutually adjacent
    vertex pairs hanging off it: three triangles sharing one vertex."""
    from properconn import exceptional_graphs

    g7, _ = exceptional_graphs()
    cuts = []
    for v in range(g7.n):
        rest = [u for u in range(g7.n) if u != v]
        comps = _components(g7, rest)
        if len(comps) == 3:
            cuts.append((v, comps))
    assert len(cuts) == 1
    hub, comps = cuts[0]
    for comp in comps:
        assert len(comp) == 2
        a, b = sorted(comp)
        assert g7.has_edge(a, b)
        assert g7.has_edge(hub, a) and g7.has_edge(hub, b)


def _components(g, keep):
    keep = set(keep)
    comps = []
    while keep:
        frontier = [keep.pop()]
        comp = set(frontier)
        while frontier:
            x = frontier.pop()
            for y in g.neighbors(x):
                if y in keep:
                    keep.remove(y)
                    comp.add(y)
                    frontier.append(y)
        comps.append(comp)
    return comps


def test_criterion_3_biclique_star_needs_exactly_three_colors():
    """The 16-vertex biclique star has min degree n/8 yet needs a third
    color: the cheap pipeline fails, the full 2-color space exhausts,
    and a frozen 3-coloring passes the checker."""
    g = make_star_of_bicliques(2)
    assert pc2_pipeline(g) is None

    t0 = time.monotonic()
    with pytest.raises(SearchBudgetExceeded) as info:
        pc_exact(g, kmax=2)  # the pruned search rules out every 2-coloring
    assert info.value.lower == 3
    assert time.monotonic() - t0 < 10

    witness = make_coloring(g, 3, dict(zip(g.edges, BICLIQUE_STAR_WITNESS)))
    assert is_proper_connected(witness)


def test_criterion_4_bipartite_survey_finds_no_exceptions():
    """Every connected bipartite graph on 4..9 vertices with min degree
    >= ceil((n+6)/8) admits a verified 2-coloring."""
    t0 = time.monotonic()
    report = survey_bipartite(4, 9)
    assert report.exceptions == []
    assert report.unresolved == []
    assert report.totals == {4: 1, 5: 1, 6: 5, 7: 9, 8: 45, 9: 160}
    assert time.monotonic() - t0 < 600


def test_criterion_5_closed_forms_for_complete_graphs_stars_and_trees():
    """pc is 1 exactly on complete graphs, m on the m-star, and equals the
    maximum degree on every tree with at most 8 vertices."""
    for n in range(2, 9):
        assert pc_exact(complete_graph(n))[0] == 1
    for m in range(2, 7):
        assert pc_exact(star_graph(m))[0] == m
    for n in range(2, 9):
        for g in enumerate_connected(n):
            if not is_tree(g):
                continue
            top = max(g.degree(v) for v in range(g.n))
            assert pc_exact(g)[0] == top


def test_criterion_6_construction_suites_hold_on_small_graphs():
    """The building blocks behind the surveys hold exhaustively on small
    graphs: strong 2-colorings for bridgeless bipartite (n<=8), strong
    <=3-colorings for bridgeless (n<=7), 200 random glued composites,
    every single-vertex extension of a strong 2-color base (n<=7), and
    500 random monotone spanning-subgraph pairs."""
    # bridgeless bipartite: two colors always suffice, strongly
    for n in range(4, 9):
        for g in enumerate_connected(n, bipartite_only=True):
            if find_bridges(g):
                continue
            cert = strong_coloring_bridgeless(g)
            assert cert.k == 2 and cert.strong and verify_certificate(cert).ok

    # bridgeless in general: three colors, still strong
    two_color_bases = []
    for n in range(3, 8):
        for g in enumerate_connected(n):
            if find_bridges(g):
                continue
            cert = strong_coloring_bridgeless(g)
            assert cert.k <= 3 and cert.strong and verify_certificate(cert).ok
            if cert.k == 2:
                two_color_bases.append(cert)

    # gluing: 200 random composites from exactly solved halves
    rng = random.Random(20260814)
    for _ in range(200):
        comp = _random_glue(rng)
        assert verify_certificate(comp).ok

    # absorption: a strong 2-color base takes any new degree-2/3 vertex
    for cert in two_color_bases:
        base = cert.graph
        w = base.n
        for d in (2, 3):
            for attach in combinations(range(base.n), d):
                bigger = extend_vertex(cert, [(w, u) for u in attach])
                assert bigger.k == 2 and verify_certificate(bigger).ok

    # monotonicity: losing edges never lowers the connection number
    for _ in range(500):
        n = rng.choice([5, 6])
        g = random_connected(rng, n, 0.45)
        h = _spanning_subgraph(rng, g)
        assert pc_exact(g)[0] <= pc_exact(h)[0]


def _random_glue(rng):
    na, nb = rng.randint(3, 5), rng.randint(3, 5)
    ga = random_connected(rng, na, 0.4)
    gb = random_connected(rng, nb, 0.4)
    va, vb = rng.randrange(na), rng.randrange(nb)
    half_a = from_edge_list(na + 1, list(ga.edges) + [(va, na)])
    half_b = from_edge_list(nb + 1, list(gb.edges) + [(vb, nb)])
    cert_a = pc_exact(half_a)[1]
    cert_b = pc_exact(half_b)[1]
    map_a = list(range(na + 1))
    fresh = iter(range(na + 1, na + nb))
    map_b = [na if x == vb else va if x == nb else next(fresh) for x in range(nb + 1)]
    return glue_across_bridge(cert_a, cert_b, (va, na), (map_a, map_b))


def _spanning_subgraph(rng, g):
    edges = list(g.edges)
    rng.shuffle(edges)
    kept = list(edges)
    for e in edges:
        trial = [f for f in kept if f != e]
        if _connected_on(g.n, trial):
            kept = trial
            if rng.random() < 0.5:
                break
    return from_edge_list(g.n, kept)


def _connected_on(n, edges):
    seen = {0}
    grow = True
    while grow:
        grow = False
        for u, v in edges:
            if (u in seen) != (v in seen):
                seen.update((u, v))
                grow = True
    return len(seen) == n


def test_criterion_7_enumeration_methods_cross_validate():
    """Graph counts match the published connected-graph sequence, and the
    augmentation and sweep generators emit identical graph lists."""
    want = {5: 21, 6: 112, 7: 853, 8: 11117}
    for n, count in want.items():
        assert sum(1 for _ in enumerate_connected(n)) == count
    for n in range(2, 8):
        built = sorted(to_graph6(g) for g in enumerate_connected(n))
        assert built == list(enumerate_connected_by_sweep(n))


def test_criterion_8_checker_agrees_with_brute_force_on_1000_colorings():
    """The proper-connectivity checker and a path-enumerating oracle give
    the same verdict on a thousand random colored graphs."""
    rng = random.Random(987654321)
    agreements = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        g = random_connected(rng, n, rng.random() * 0.5)
        k = rng.randint(1, 3)
        colors = [rng.randint(1, k) for _ in range(g.m)]
        c = make_coloring(g, k, dict(zip(g.edges, colors)))
        assert is_proper_connected(c) == brute_is_proper_connected(g, c.color)
        agreements += 1
    assert agreements == 1000
