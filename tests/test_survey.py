"""Isomorphism-free enumeration, the biclique-star family, the frozen
exceptions, and the survey drivers with their reports."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import groupby
from math import comb, factorial, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from properconn import (
    OutOfRange,
    SearchBudgetExceeded,
    TooLarge,
    canonical_code,
    degree_stats,
    enumerate_connected,
    exceptional_graphs,
    extend_vertex,
    find_bridges,
    format_report_text,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    is_connected,
    make_star_of_bicliques,
    pc2_pipeline,
    read_graph6_file,
    report_to_json,
    survey_bipartite,
    survey_min_degree,
    to_graph6,
    verify_certificate,
    write_report,
)
from properconn import constructive as constructive_mod
from properconn import enumeration as enumeration_mod
from properconn import solver as solver_mod
from properconn import survey as survey_mod
from properconn.enumeration import _class_entry, _pack_rows, _unpack_rows, _vertex_keys
from util import (
    attachment_sets_by_product,
    brute_automorphisms,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_connected_by_sweep,
    graphs_with_twins,
    level_through_one_dict,
    rejected_by_the_per_vertex_prefilter,
    size_rule_of,
    vertex_key_from_scratch,
)

# connected graphs per vertex count, a classic integer sequence
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CONNECTED_BIPARTITE_COUNTS = {4: 3, 5: 5, 6: 17, 7: 44, 8: 182}

# sha256 of the newline-joined graph6 codes of whole levels, keyed by
# (n, bipartite_only, min_degree), in enumeration order: any change to
# the canonical labeling changes them, and so does any change to the
# set of classes, but not which representatives the level builder keeps
LEVEL_DIGESTS = {
    (7, False, 0): "b8b85762ca13a0273d6c1392cc500221f97df2c933be4f76664547c41f0d3f6e",
    (8, True, 0): "37b3e8eedf8fb535f2ace010586c6a6e069af713ffcd5169f5ef68aef83a93a8",
    # the survey's top level
    (8, False, 2): "8ffe771e0e370a43ed93c8a5a82e0a1f92d63a98df08581deaf4c718dfa3d4e0",
}

# sha256 of the newline-joined graph6 codes of the representatives that
# survey_min_degree(5, 8) examines (its min-degree levels, complete graph
# included), in level order: which representative is examined decides
# which pipeline strategy settles it
SURVEY_LEVEL_DIGESTS = {
    5: "a50642565fa048132930eb72d38ddc374df84c7b0aa0cd1099085657168cf304",
    6: "67da34ba7362bb41ca4fbe578441905193cf364760cfe17ba14c580408432402",
    7: "fe045f772ddbc235d6bec8399389a0d6661932e2e7950f8c98a17926393b3a93",
    8: "c3268b10d00bd0d6c4b555d6984d04edfb3b4cc41ad8b077dc25f74836ee1d9e",
}

# sha256 over the packed rows of every level _level(kind, n, t) for
# general n <= 8 and bipartite n <= 10, t = 0..3: one line
# "kind n t: packed packed ..." per level, so the representatives and
# their order are pinned, not only their classes
SMALL_LEVELS_DIGEST = "571e17bca3acd726473c9a0f392f47627bb0b91ab08b1a537551e48927f711f7"


def test_enumeration_counts():
    for n, want in CONNECTED_COUNTS.items():
        assert sum(1 for _ in enumerate_connected(n)) == want


def test_enumeration_yields_connected_nonisomorphic_graphs():
    seen = set()
    for g in enumerate_connected(6):
        assert g.n == 6 and is_connected(g)
        code = canonical_code(g)
        assert code not in seen
        seen.add(code)


def test_enumeration_is_deterministic():
    first = [to_graph6(g) for g in enumerate_connected(5)]
    second = [to_graph6(g) for g in enumerate_connected(5)]
    assert first == second


def test_enumeration_degree_filter():
    for g in enumerate_connected(6, min_degree=2):
        assert degree_stats(g)[1] >= 2
    total = sum(1 for _ in enumerate_connected(6))
    filtered = sum(1 for _ in enumerate_connected(6, min_degree=2))
    assert 0 < filtered < total


def test_min_degree_levels_equal_the_filtered_full_level():
    # the pruned min-degree chain must yield exactly the filtered full level
    for bipartite, top in ((False, 7), (True, 9)):
        for n in range(2, top + 1):
            full = [to_graph6(g) for g in enumerate_connected(n, bipartite_only=bipartite)]
            for t in (1, 2, 3):
                want = [c for c in full if degree_stats(from_graph6(c))[1] >= t]
                got = [
                    to_graph6(g)
                    for g in enumerate_connected(n, min_degree=t, bipartite_only=bipartite)
                ]
                assert got == want, (bipartite, n, t)


def test_enumeration_matches_the_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {n: set() for n in range(2, 8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n in atlas and nx.is_connected(h):
            atlas[n].add(canonical_code(from_edge_list(n, h.edges())))
    for n, codes in atlas.items():
        built = [canonical_code(g) for g in enumerate_connected(n)]
        assert len(built) == len(codes) == CONNECTED_COUNTS[n]
        assert set(built) == codes


def test_enumeration_codes_are_pinned():
    for (n, bipartite, t), want in LEVEL_DIGESTS.items():
        graphs = enumerate_connected(n, min_degree=t, bipartite_only=bipartite)
        text = "\n".join(to_graph6(g) for g in graphs)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == want, (n, bipartite, t)


def test_survey_representatives_are_pinned():
    for n, want in SURVEY_LEVEL_DIGESTS.items():
        text = "\n".join(
            to_graph6(from_adj_rows(n, _unpack_rows(n, packed)))
            for packed in enumeration_mod._level("general", n, 2)
        )
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == want, n


def min_degree_at_least(n, t, level):
    return tuple(p for p in level if min(map(int.bit_count, _unpack_rows(n, p))) >= t)


def test_every_small_level_is_pinned(monkeypatch):
    monkeypatch.setattr(enumeration_mod, "_LEVELS", {})
    digest = hashlib.sha256()
    for kind, top in (("general", 8), ("bipartite", 10)):
        for n in range(1, top + 1):
            for t in range(4):
                level = enumeration_mod._level(kind, n, t)
                digest.update(f"{kind} {n} {t}: {' '.join(map(str, level))}\n".encode("ascii"))
    assert digest.hexdigest() == SMALL_LEVELS_DIGEST


def test_levels_one_and_two_follow_from_the_full_level(monkeypatch):
    # a t = 2 level grown by augmentation is the full level filtered, in the
    # same order, so it can be filtered from the full level; the t = 1
    # level is the full level
    for kind, top in (("general", 8), ("bipartite", 10)):
        for n in range(2, top + 1):
            monkeypatch.setattr(enumeration_mod, "_LEVELS", {})
            built = enumeration_mod._level(kind, n, 2)
            full = enumeration_mod._level(kind, n, 0)
            assert built == min_degree_at_least(n, 2, full), (kind, n)
            assert enumeration_mod._level(kind, n, 1) == full, (kind, n)


def test_min_degree_survey_builds_only_its_top_chain(monkeypatch):
    monkeypatch.setattr(enumeration_mod, "_LEVELS", {})
    grown = []
    real = enumeration_mod._children

    def children(kind, rows, t):
        grown.append(len(rows))
        return real(kind, rows, t)

    monkeypatch.setattr(enumeration_mod, "_children", children)
    survey_min_degree(5, 8)
    # the n=8 level grows the full levels below it, each once, and the
    # lower orders filter those: no t = 1 or lower t = 2 level is grown
    want = [("general", n, 0) for n in range(2, 8)] + [("general", n, 2) for n in range(5, 9)]
    assert sorted(enumeration_mod._LEVELS) == sorted(want)
    assert len(grown) == sum(len(enumeration_mod._level("general", n, 0)) for n in range(1, 8))


def test_importing_the_package_leaves_heavy_modules_unloaded():
    # -S: no site, whose .pth files may load any of them first
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(survey_mod.__file__)))
    heavy = ["dataclasses", "importlib.resources", "inspect", "multiprocessing"]
    code = f"import sys, properconn, properconn.cli; print(sorted(set({heavy}) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.stdout.strip() == "[]", proc.stderr


@given(
    st.sampled_from(("general", "bipartite")),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80, deadline=None)
def test_child_keys_and_prunes_follow_from_the_parent(kind, n, t, pick):
    parents = enumeration_mod._level(kind, n - 1, max(t - 1, 0))
    if not parents:
        return
    rows = _unpack_rows(n - 1, parents[pick % len(parents)])
    # the packed prune drops exactly the sets the per-vertex prefilter
    # drops, and the orbit prune every set that an automorphism of the
    # parent maps onto an earlier survivor
    masks = [1 << v for v in range(n - 1)]
    survivors = [
        attach
        for attach in enumeration_mod._attachment_sets(kind, rows, t, masks)
        if not rejected_by_the_per_vertex_prefilter(rows, attach)
    ]
    autos = brute_automorphisms(rows)
    want = [
        attach
        for i, attach in enumerate(survivors)
        if not {sum(1 << p[v] for v in range(n - 1) if attach >> v & 1) for p in autos}
        & set(survivors[:i])
    ]
    got = []
    for route, entry in enumeration_mod._children(kind, rows, t):
        grown = _unpack_rows(n, entry)
        attach = grown[-1]
        assert grown[:-1] == [row | (attach >> v & 1) << n - 1 for v, row in enumerate(rows)]
        # route 2 exactly when an old vertex ties the new one's vertex key,
        # counted from scratch
        keys = [vertex_key_from_scratch(grown, u) for u in range(n)]
        assert route == (2 if keys[-1] in keys[:-1] else 0), (rows, attach)
        if route:
            # the derived keys are the child's fresh _vertex_keys
            assert entry == _class_entry(grown, _vertex_keys(grown)), (rows, attach)
        else:
            # a top child is kept as it is, so only its rows are built
            assert entry == _pack_rows(grown), (rows, attach)
        got.append(attach)
    assert got == want


@given(
    st.sampled_from(("general", "bipartite")),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**8),
)
@settings(max_examples=60, deadline=None)
def test_attachment_sets_leave_out_exactly_the_sizes_below_least(kind, n, t, pick, meet_pick):
    # pruning partial unions keeps the other sets and their order
    parents = enumeration_mod._level(kind, n - 1, max(t - 1, 0))
    if not parents:
        return
    rows = _unpack_rows(n - 1, parents[pick % len(parents)])
    masks = [1 << v for v in range(n - 1)]
    every = list(enumeration_mod._attachment_sets(kind, rows, t, masks))
    for least in range(n + 1):
        want = [a for a in every if not 2 <= a.bit_count() < least]
        assert list(enumeration_mod._attachment_sets(kind, rows, t, masks, least)) == want
        # with a mask to meet, the sets of exactly least vertices that meet
        # it go too, and the rest keep their order
        meet = meet_pick % (1 << n - 1)
        want = [a for a in want if not (a.bit_count() == least and a & meet)]
        assert list(enumeration_mod._attachment_sets(kind, rows, t, masks, least, meet)) == want


def test_attachment_sets_equal_the_product_oracle():
    # the pruned fold returns exactly the product-then-filter list, in its
    # order, on every parent the level builder grows at n <= 8 (bipartite
    # n <= 10), with the size rule _children derives for that parent
    for kind, top in (("general", 8), ("bipartite", 10)):
        for n in range(2, top + 1):
            for t in range(4):
                for parent in enumeration_mod._level(kind, n - 1, max(t - 1, 0)):
                    rows = _unpack_rows(n - 1, parent)
                    masks = [1 << v for v in range(n - 1)]
                    least, meet = size_rule_of(rows)
                    got = enumeration_mod._attachment_sets(kind, rows, t, masks, least, meet)
                    want = attachment_sets_by_product(kind, rows, t, masks, least, meet)
                    assert got == want, (kind, rows, t)


@given(
    st.sampled_from(("general", "bipartite")),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=2**8),
)
@settings(max_examples=30, deadline=None)
def test_attachment_sets_equal_the_product_oracle_at_drawn_sizes(kind, n, t, pick, least, meet):
    parents = enumeration_mod._level(kind, n - 1, max(t - 1, 0))
    if not parents:
        return
    rows = _unpack_rows(n - 1, parents[pick % len(parents)])
    # weights with bits above the set's, as _children's are
    weight = [1 << v | (v + 1) << 2 * n + 3 * v for v in range(n - 1)]
    meet %= 1 << n - 1
    want = attachment_sets_by_product(kind, rows, t, weight, least, meet)
    assert enumeration_mod._attachment_sets(kind, rows, t, weight, least, meet) == want


def test_level_computes_vertex_keys_per_parent_not_per_child(monkeypatch):
    monkeypatch.setattr(enumeration_mod, "_LEVELS", {})
    calls = {"keys": 0, "isomorphic": 0, "children": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    keys = counted("keys", enumeration_mod._vertex_keys)
    monkeypatch.setattr(enumeration_mod, "_vertex_keys", keys)
    isomorphic = counted("isomorphic", enumeration_mod._isomorphisms)
    monkeypatch.setattr(enumeration_mod, "_isomorphisms", isomorphic)
    add_class = counted("children", enumeration_mod._add_class)
    monkeypatch.setattr(enumeration_mod, "_add_class", add_class)
    enumeration_mod._level("general", 8, 2)
    parents = sum(
        len(enumeration_mod._level(kind, n - 1, max(t - 1, 0)))
        for kind, n, t in enumeration_mod._LEVELS
    )
    # one call per parent: a child's keys follow from its parent's, and a
    # representative's are stored with it for the children compared with it
    assert calls["keys"] == parents
    assert 0 < calls["isomorphic"] < calls["children"]


def test_enumeration_bipartite_counts():
    for n, want in CONNECTED_BIPARTITE_COUNTS.items():
        got = sum(1 for _ in enumerate_connected(n, bipartite_only=True))
        assert got == want
    # further up OEIS A005142, counted on the levels with no labeling
    for n, want in {9: 730, 10: 4032, 11: 25598}.items():
        assert len(enumeration_mod._level("bipartite", n, 0)) == want, n


def labeled_connected_count(kind, n):
    """The labeled connected graphs on n vertices, bipartite ones for that
    kind: c_n = T(n) - sum over k < n of C(n-1, k-1) c_k T(n-k), T(n)
    being 2**C(n, 2) for all graphs, and for bipartite ones the number of
    2-colored graphs, sum over k of C(n, k) 2**(k(n-k)). A connected
    bipartite graph has exactly two 2-colorings, so that c_n is halved."""
    if kind == "general":
        total = [2 ** comb(m, 2) for m in range(n + 1)]
    else:
        total = [sum(comb(m, k) * 2 ** (k * (m - k)) for k in range(m + 1)) for m in range(n + 1)]
    c = [0]
    for m in range(1, n + 1):
        c.append(total[m] - sum(comb(m - 1, k - 1) * c[k] * total[m - k] for k in range(1, m)))
    return c[n] if kind == "general" else c[n] // 2


def test_every_full_level_counts_every_labeled_connected_graph():
    # completeness by orbit counting: a class G stands for n!/|Aut(G)|
    # labeled graphs, so a missed class lowers the sum and a repeated one
    # raises it. |Aut(G)| is the automorphisms of the twin-class quotient
    # times the permutations within each twin class
    for kind, top in (("general", 8), ("bipartite", 10)):
        for n in range(1, top + 1):
            labeled = 0
            for packed in enumeration_mod._level(kind, n, 0):
                rows = _unpack_rows(n, packed)
                classes = enumeration_mod._twin_classes(rows)
                group = enumeration_mod._class_automorphisms(rows, _vertex_keys(rows), classes)
                labeled += factorial(n) // (len(group) * prod(factorial(len(c)) for c in classes))
            assert labeled == labeled_connected_count(kind, n), (kind, n)
    # 1, 1, 4, 38 and 728 labeled connected graphs (OEIS A001187)
    assert [labeled_connected_count("general", n) for n in range(1, 6)] == [1, 1, 4, 38, 728]
    # 1, 1, 3, 19 and 195 labeled connected bipartite graphs (OEIS A001832)
    assert [labeled_connected_count("bipartite", n) for n in range(1, 6)] == [1, 1, 3, 19, 195]


def test_enumeration_size_guard():
    with pytest.raises(TooLarge):
        next(enumerate_connected(10))
    with pytest.raises(TooLarge):
        next(enumerate_connected(1))


def test_enumeration_refuses_a_min_degree_that_is_not_an_int(monkeypatch):
    # 1.5 once yielded graphs of minimum degree 1 and cached levels keyed
    # by floats; an n that is not an int is refused the same way
    monkeypatch.setattr(enumeration_mod, "_LEVELS", {})
    for bad in (1.5, 2.0, True):
        with pytest.raises(OutOfRange):
            next(enumerate_connected(6, bad))
    for bad in (5.5, 6.0, True):
        with pytest.raises(OutOfRange):
            next(enumerate_connected(bad))
    assert enumeration_mod._LEVELS == {}


def test_sweep_generator_agrees_with_augmentation():
    for n in range(2, 7):
        built = sorted(to_graph6(g) for g in enumerate_connected(n))
        swept = list(enumerate_connected_by_sweep(n))
        assert built == swept


def test_sweep_size_guard():
    with pytest.raises(TooLarge):
        enumerate_connected_by_sweep(8)


# --- the biclique-star family --------------------------------------------------


def test_star_of_bicliques_shape():
    g = make_star_of_bicliques(2)
    degrees, lo, hi = degree_stats(g)
    assert g.n == 16 and g.m == 19
    assert lo == 2  # exactly n/8, far below any n/4 threshold
    assert sorted(find_bridges(g)) == [(0, 4), (0, 8), (0, 12)]
    assert is_connected(g)


def test_star_of_bicliques_scales_with_t():
    for t in (1, 2, 3):
        g = make_star_of_bicliques(t)
        assert g.n == 8 * t
        assert g.m == 4 * t * t + 3
    with pytest.raises(ValueError):
        make_star_of_bicliques(0)


def test_star_of_bicliques_blocks_are_bicliques():
    t = 2
    g = make_star_of_bicliques(t)
    for b in range(4):
        off = 2 * t * b
        left = range(off, off + t)
        right = range(off + t, off + 2 * t)
        for u in left:
            for v in right:
                assert g.has_edge(u, v)


# --- frozen exceptions -----------------------------------------------------------


def test_exceptional_graphs_shapes():
    g7, g8 = exceptional_graphs()
    assert (g7.n, g8.n) == (7, 8)
    assert degree_stats(g7)[1] == 2 and degree_stats(g8)[1] == 2
    assert to_graph6(g7) == "F@QFw"
    assert to_graph6(g8) == "G@LCE["


def test_exceptional_seven_vertex_graph_is_three_triangles():
    g7, _ = exceptional_graphs()
    hubs = [v for v in range(7) if g7.degree(v) == 6]
    assert len(hubs) == 1
    hub = hubs[0]
    others = [v for v in range(7) if v != hub]
    partners = {v: [w for w in g7.neighbors(v) if w != hub] for v in others}
    assert all(len(ws) == 1 for ws in partners.values())


# --- survey drivers --------------------------------------------------------------


def test_min_degree_survey_clean_range():
    report = survey_min_degree(5, 6)
    assert report.survey == "min-degree"
    assert report.totals == {5: 10, 6: 60}
    assert report.exceptions == []
    assert report.unresolved == []


def test_min_degree_survey_finds_the_seven_vertex_exception():
    report = survey_min_degree(7, 7)
    assert report.totals == {7: 506}
    assert [e.graph6 for e in report.exceptions] == ["F@QFw"]
    exc = report.exceptions[0]
    assert exc.pc == 3
    assert verify_certificate(exc.certificate).ok
    assert report.unresolved == []


def test_a_graph_the_path_step_misses_gets_pc_exacts_verdict(monkeypatch):
    # C5 has a 2-coloring; with the survey's path search stubbed out, the
    # verdict is pc_exact's
    verdicts = []
    real = survey_mod.pc_exact

    def spy(g):
        verdict = real(g)
        verdicts.append(verdict[0])
        return verdict

    monkeypatch.setattr(survey_mod, "_dominating_path", lambda rows: None)
    monkeypatch.setattr(survey_mod, "pc_exact", spy)
    assert survey_mod._examine(5, _pack_rows(cycle_graph(5).adj)) is None
    assert verdicts == [2]


def test_examine_searches_each_palette_once(monkeypatch):
    assert not hasattr(survey_mod, "complete")
    searched = []
    real = solver_mod._search

    def spy(g, k, *args, **kwargs):
        searched.append(k)
        return real(g, k, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_search", spy)
    record = survey_mod._examine(7, _pack_rows(from_graph6("F@QFw").adj))
    assert type(record) is survey_mod.ExceptionRecord
    assert (record.graph6, record.pc) == ("F@QFw", 3)
    assert searched == [2, 3]


SURVEY_LEVELS = [("general", n, -(-n // 4)) for n in range(5, 9)]
SURVEY_LEVELS += [("bipartite", n, -(-(n + 6) // 8)) for n in range(4, 10)]


def families(n, graphs):
    """The runs of graphs that share their first n-1 rows with bit n-1
    masked off, that is, their parent."""
    parent_bits = sum(((1 << n - 1) - 1) << n * v for v in range(n - 1))
    return [list(run) for _, run in groupby(graphs, parent_bits.__and__)]


def test_examine_settles_each_survey_graph_as_the_pipeline_does(monkeypatch):
    # one path search per family, plus one per graph that takes
    # _examine's route; a graph settled on its own rows also gets a path
    # certificate that the checker passes with no path hint
    searches, routed = [], []
    real_search, real_examine = survey_mod._dominating_path, survey_mod._examine

    def search(rows):
        searches.append(rows)
        return real_search(rows)

    def examine(n, packed):
        before = len(searches)
        outcome = real_examine(n, packed)
        assert len(searches) == before + 1
        routed.append(packed)
        return outcome

    monkeypatch.setattr(survey_mod, "_dominating_path", search)
    monkeypatch.setattr(survey_mod, "_examine", examine)
    on_rows = total = 0
    for kind, n, t in SURVEY_LEVELS:
        graphs = enumeration_mod._level(kind, n, t)
        searches.clear()
        routed.clear()
        outcomes = survey_mod._examine_families(n, graphs)
        assert len(searches) == len(families(n, graphs)) + len(routed)
        total += len(searches)
        for packed, record in zip(graphs, outcomes, strict=True):
            g = from_adj_rows(n, _unpack_rows(n, packed))
            if pc2_pipeline(g) is not None:
                assert record is None
            else:
                assert type(record) is survey_mod.ExceptionRecord
            path = real_search(g.adj)
            if path is not None and constructive_mod._dominates(g.adj, path):
                assert verify_certificate(constructive_mod._color_path(g, path)).ok
                on_rows += 1
    # 8,011 survey graphs and the 4 complete graphs the min-degree survey
    # skips; all 221 bipartite graphs
    assert on_rows == 8011 + 4 + 221
    assert total < 8015 + 221


def parent_path_settlements(n, family):
    """Run survey._examine_families on one family with _examine stubbed
    out. Returns the graphs its parent's path settled, and those of them
    that extend_vertex, given the parent's path certificate (_color_path)
    and the last vertex's edges, does not certify with two colors and a
    check that passes."""
    paths = []

    def search(rows):
        paths.append(constructive_mod._dominating_path(rows))
        return paths[-1]

    routed = object()
    with mock.patch.multiple(survey_mod, _dominating_path=search, _examine=lambda n, p: routed):
        outcomes = survey_mod._examine_families(n, family)
    settled = [packed for packed, outcome in zip(family, outcomes, strict=True) if outcome is None]
    failures = []
    for packed in settled:
        (path,) = paths
        rows = _unpack_rows(n, packed)
        parent = from_adj_rows(n - 1, [row & ~(1 << n - 1) for row in rows[:-1]])
        attach = [(n - 1, v) for v in range(n - 1) if rows[-1] >> v & 1]
        cert = extend_vertex(constructive_mod._color_path(parent, path), attach)
        if not (cert.k == 2 and cert.graph.adj == tuple(rows) and verify_certificate(cert).ok):
            failures.append(packed)
    return settled, failures


def test_parent_paths_settle_whole_families_by_extension():
    settled = 0
    for kind, n, t in SURVEY_LEVELS:
        for family in families(n, enumeration_mod._level(kind, n, t)):
            done, failures = parent_path_settlements(n, family)
            assert failures == []
            settled += len(done)
    # the 8,021 + 221 graphs of these levels less the 754 + 82 that
    # _examine searches. On these levels the parent's path 2-dominates
    # every child it settles, too; the K_{2,4} child below is one that
    # it does not
    assert settled == 7406
    # K_{2,4} has no spanning path, and a longest path 2-dominates it. A
    # new vertex joined to one vertex on that path and to the one it
    # leaves off has two neighbours but is not 2-dominated by the path;
    # its family is settled all the same
    parent = complete_bipartite(2, 4)
    path = constructive_mod._dominating_path(parent.adj)
    (off,) = set(range(6)) - set(path)
    child = from_edge_list(7, list(parent.edges) + [(path[0], 6), (off, 6)])
    assert not constructive_mod._dominates(child.adj, path)
    family = [_pack_rows(child.adj)] * 2
    assert parent_path_settlements(7, family) == (family, [])


@given(st.integers(min_value=3, max_value=9), st.data())
@settings(max_examples=150, deadline=None)
def test_parent_paths_settle_random_children_by_extension(n, data):
    # a family of two copies of a graph whose last vertex has degree >= 2
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 2), st.integers(0, n - 2))))
    attach = data.draw(st.sets(st.integers(0, n - 2), min_size=2))
    g = from_edge_list(n, [(u, v) for u, v in edges if u != v] + [(v, n - 1) for v in attach])
    packed = _pack_rows(g.adj)
    assert parent_path_settlements(n, [packed, packed])[1] == []


def test_min_degree_survey_certifies_only_with_the_kernel(monkeypatch):
    calls = {"search": 0, "path": 0, "kernel": 0, "exact": 0}

    def count(name, module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    count("search", survey_mod, "_dominating_path")
    count("path", constructive_mod, "_color_path")
    count("kernel", constructive_mod, "complete")
    count("exact", survey_mod, "pc_exact")
    report = survey_min_degree(5, 8)
    assert sum(report.totals.values()) == 8017
    # one search per parent with two or more children, and one per graph
    # its parent's path does not settle
    assert calls == {"search": 1742, "path": 0, "kernel": 8, "exact": 6}


def test_min_degree_survey_bounds_checking():
    with pytest.raises(ValueError):
        survey_min_degree(6, 5)
    with pytest.raises(TooLarge):
        survey_min_degree(5, 10)


def test_bipartite_survey_stops_at_thirteen_vertices():
    # its own cap, past the enumeration's 9; both refuse before any level
    for lo, hi in ((14, 14), (4, 14)):
        with pytest.raises(TooLarge, match="n <= 13"):
            survey_bipartite(lo, hi)


def test_bipartite_survey_clean():
    report = survey_bipartite(4, 6)
    assert report.survey == "bipartite"
    assert report.totals == {4: 1, 5: 1, 6: 5}
    assert report.exceptions == []
    assert report.unresolved == []


def test_corpus_driven_survey():
    f3 = from_graph6("F@QFw")
    corpus = [f3, cycle_graph(7), complete_graph(7)]
    report = survey_min_degree(7, 7, corpus=corpus)
    # K7 is complete and drops out; the cycle meets the degree bar
    assert report.totals == {7: 2}
    assert [e.graph6 for e in report.exceptions] == [to_graph6(f3)]


def test_corpus_reports_a_relabeled_exception_by_its_canonical_code():
    relabeled = from_edge_list(7, [(6 - u, 6 - v) for u, v in from_graph6("F@QFw").edges])
    assert to_graph6(relabeled) != "F@QFw"
    report = survey_min_degree(7, 7, corpus=[relabeled, cycle_graph(7)])
    assert report.totals == {7: 2}
    assert [e.graph6 for e in report.exceptions] == ["F@QFw"]
    assert report.exceptions[0].certificate.graph == from_graph6("F@QFw")


def relabeled_twice(graphs, seed):
    """Two copies of each graph, each relabeled at random, shuffled."""
    rng = random.Random(seed)
    corpus = []
    for g in graphs * 2:
        perm = rng.sample(range(g.n), g.n)
        corpus.append(from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    rng.shuffle(corpus)
    return corpus


def test_a_corpus_of_every_class_gives_the_level_survey():
    # every class twice, under other labels: a corpus goes through the
    # same dedup as a level, each graph on route 2
    corpus = relabeled_twice(list(enumerate_connected(7, 2)), 7)
    for report in (survey_min_degree(7, 7, corpus=corpus), survey_min_degree(7, 7)):
        assert report.totals == {7: 506}
        assert [e.graph6 for e in report.exceptions] == ["F@QFw"]
    graphs = [g for n in (8, 9) for g in enumerate_connected(n, 2, bipartite_only=True)]
    corpus = relabeled_twice(graphs, 9)
    for report in (survey_bipartite(8, 9, corpus=corpus), survey_bipartite(8, 9)):
        assert report.totals == {8: 45, 9: 160}
        assert report.exceptions == report.unresolved == []


def test_report_codes_are_canonical_codes_of_the_certified_graphs():
    report = survey_min_degree(7, 8)
    assert sorted(e.graph6 for e in report.exceptions) == ["F@QFw", "G@LCE["]
    for rec in report.exceptions:
        assert rec.graph6 == canonical_code(rec.certificate.graph).decode("ascii")
        assert verify_certificate(rec.certificate).ok


def test_unresolved_records_carry_canonical_codes(monkeypatch):
    def out_of_budget(g):
        raise SearchBudgetExceeded(2, 4, "budget spent for the test")

    monkeypatch.setattr(survey_mod, "pc_exact", out_of_budget)
    relabeled = from_edge_list(8, [(7 - u, 7 - v) for u, v in from_graph6("G@LCE[").edges])
    report = survey_min_degree(8, 8, corpus=[relabeled])
    assert report.exceptions == []
    assert [(r.graph6, r.lower, r.upper) for r in report.unresolved] == [("G@LCE[", 2, 4)]


def test_a_spent_budget_leaves_every_missed_graph_unresolved(monkeypatch):
    # palette 2 is searched under the budget too: with it spent, each of the
    # 6 graphs the path step misses is a bracket from 2, not a verdict
    monkeypatch.setenv("PC_BUDGET_MS", "0")
    report = survey_min_degree(7, 8)
    assert report.totals == {7: 506, 8: 7441}
    assert report.exceptions == []
    assert len(report.unresolved) == 6
    assert {"F@QFw", "G@LCE["} <= {r.graph6 for r in report.unresolved}
    monkeypatch.delenv("PC_BUDGET_MS")
    for r in report.unresolved:
        assert r.lower == 2 <= solver_mod.pc_exact(from_graph6(r.graph6))[0] <= r.upper


def test_twin_class_swaps_are_automorphisms():
    for code in ("F@QFw", "G@LCE[", to_graph6(complete_graph(5)), to_graph6(cycle_graph(4))):
        g = from_graph6(code)
        classes = enumeration_mod._twin_classes(g.adj)
        assert sorted(v for cls in classes for v in cls) == list(range(g.n))
        for cls in classes:
            for u in cls:
                for v in cls:
                    swap = {u: v, v: u}
                    image = {
                        tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in g.edges
                    }
                    assert image == set(g.edges)


def pairwise_twin_classes(rows):
    """The twin classes by their definition, pair by pair: v joins u's
    class when N(u) - v = N(v) - u; classes ascending by least vertex."""
    classes, done = [], 0
    for u in range(len(rows)):
        if not done >> u & 1:
            cls = [
                v
                for v in range(u, len(rows))
                if not done >> v & 1 and rows[u] & ~(1 << v) == rows[v] & ~(1 << u)
            ]
            done |= sum(1 << v for v in cls)
            classes.append(cls)
    return classes


@given(graphs_with_twins())
@settings(max_examples=200, deadline=None)
def test_grouped_twin_classes_follow_the_pairwise_definition(rows):
    assert enumeration_mod._twin_classes(rows) == pairwise_twin_classes(rows)


def test_grouped_twin_classes_on_small_and_complete_graphs():
    # empty rows, K1, K2, K5 and a graph with both kinds of twins: 0 1
    # are adjacent twins and 2 3 twins that are not, all joined to 4
    both = from_edge_list(5, [(0, 1), (0, 4), (1, 4), (2, 4), (3, 4)])
    cases = [[], [0] * 4, complete_graph(1).adj, complete_graph(2).adj, complete_graph(5).adj]
    for rows in cases + [both.adj]:
        assert enumeration_mod._twin_classes(rows) == pairwise_twin_classes(rows), rows
    assert enumeration_mod._twin_classes([0] * 4) == [[0, 1, 2, 3]]
    assert enumeration_mod._twin_classes(both.adj) == [[0, 1], [2, 3], [4]]


def projected_automorphisms(rows):
    """The brute-force automorphisms of the graph with adjacency rows
    `rows`, each as the map it induces on the twin classes: item i is
    the index of the class holding the image of class i."""
    classes = enumeration_mod._twin_classes(rows)
    at = {v: i for i, cls in enumerate(classes) for v in cls}
    return sorted({tuple(at[p[cls[0]]] for cls in classes) for p in brute_automorphisms(rows)})


def class_automorphisms(rows):
    keys = _vertex_keys(rows)
    group = enumeration_mod._class_automorphisms(rows, keys, enumeration_mod._twin_classes(rows))
    return [tuple(to) for to in group]


@given(graphs_with_twins(top=8))
@settings(max_examples=60, deadline=None)
def test_class_automorphisms_are_the_projected_automorphisms(rows):
    # each once, sorted, so the identity comes first
    assert class_automorphisms(rows) == projected_automorphisms(rows)


def test_class_automorphisms_of_named_graphs():
    named = {
        "F@QFw": from_graph6("F@QFw"),
        "G@LCE[": from_graph6("G@LCE["),
        "C7": cycle_graph(7),
        "K3,3": complete_bipartite(3, 3),
        "K1,5": complete_bipartite(1, 5),
    }
    sizes = {}
    for name, g in named.items():
        group = class_automorphisms(g.adj)
        assert group == projected_automorphisms(g.adj), name
        sizes[name] = len(group)
    # F@QFw permutes its three twin pairs at will; C7 has its dihedral
    # group, K3,3 swaps its two classes and K1,5 cannot
    assert sizes == {"F@QFw": 6, "G@LCE[": 2, "C7": 14, "K3,3": 2, "K1,5": 1}, sizes


def test_routed_levels_equal_one_dict_for_all(monkeypatch):
    # each level is grown with its routes and compared with the same
    # children deduplicated in one dict; t = 2 goes first, so it is grown
    # rather than filtered from the t = 0 level
    monkeypatch.setattr(enumeration_mod, "_LEVELS", {})
    for kind, top in (("general", 8), ("bipartite", 10)):
        for n in range(2, top + 1):
            for t in (2, 0):
                want = level_through_one_dict(kind, n, t)
                assert enumeration_mod._level(kind, n, t) == want, (kind, n, t)
    routes = Counter(
        route
        for parent in enumeration_mod._level("general", 7, 1)
        for route, _ in enumeration_mod._children("general", _unpack_rows(7, parent), 2)
    )
    # at n = 8 some children are kept with no dict and some meet the
    # level's; none needs a dict of its siblings
    assert routes == {0: 5458, 2: 2282}, routes


def test_corpus_deduplicates_isomorphs():
    relabeled = from_graph6(canonical_code(cycle_graph(7)).decode("ascii"))
    report = survey_min_degree(7, 7, corpus=[cycle_graph(7), relabeled])
    assert report.totals == {7: 1}


def test_a_one_shot_corpus_covers_every_order():
    # a survey reads its corpus once, so an iterator gives the list's
    # totals on every order, not on the first one only
    for survey, lo, hi, bipartite in (
        (survey_min_degree, 5, 6, False),
        (survey_bipartite, 4, 6, True),
    ):
        graphs = [
            g for n in range(lo, hi + 1) for g in enumerate_connected(n, bipartite_only=bipartite)
        ]
        want = survey(lo, hi, corpus=graphs).totals
        assert min(want.values()) > 0, want
        assert survey(lo, hi, corpus=iter(graphs)).totals == want, survey.__name__


# --- reports ---------------------------------------------------------------------


def test_report_text_format():
    report = survey_min_degree(7, 7)
    text = format_report_text(report)
    lines = text.splitlines()
    assert lines[0].startswith("survey: min-degree")
    assert any("n=7" in ln and "506" in ln for ln in lines)
    assert any("F@QFw" in ln for ln in lines)


def test_report_json_round_trip():
    report = survey_bipartite(4, 5)
    doc = report_to_json(report)
    assert doc["survey"] == "bipartite"
    assert doc["totals"] == {"4": 1, "5": 1} or doc["totals"] == {4: 1, 5: 1}
    json.dumps(doc)  # must be serializable as-is


# sha256 of json.dumps(report_to_json(report), indent=2, sort_keys=True)
# with "timing_seconds" removed: every byte of a report but its timings,
# certificate colors, filter text and unresolved list included
REPORT_DIGESTS = {
    ("min-degree", 5, 8): "a81f7fc40087224db484257d9778cc2db8d160033c9aa456be2325e7e393c404",
    ("bipartite", 4, 9): "e7674cce8fd8556d5ca995aa479227a7f6ef019292a5a30890a812627f987c16",
}


def test_whole_survey_reports_are_pinned():
    surveys = {"min-degree": survey_min_degree, "bipartite": survey_bipartite}
    for (name, lo, hi), want in REPORT_DIGESTS.items():
        doc = report_to_json(surveys[name](lo, hi))
        del doc["timing_seconds"]
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == want, (name, lo, hi)


def test_write_report_with_sidecar(tmp_path):
    report = survey_min_degree(7, 7)
    out = tmp_path / "survey.txt"
    write_report(report, out, fmt="text")
    assert out.read_text().startswith("survey:")
    sidecar = tmp_path / "survey.txt.exceptions.g6"
    assert sidecar.read_text().split() == ["F@QFw"]


def test_read_graph6_file(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text(">>graph6<<Bw\nDQo\n\n")
    graphs = read_graph6_file(path)
    assert [g.n for g in graphs] == [3, 5]
