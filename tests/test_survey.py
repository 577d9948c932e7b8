"""Isomorphism-free enumeration, the biclique-star family, fixtures,
and the survey drivers with their reports."""

from __future__ import annotations

import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from properconn import (
    EdgeColoring,
    FixturesMissing,
    OutOfRange,
    PcError,
    SearchBudgetExceeded,
    TooLarge,
    VerificationFailed,
    canonical_code,
    degree_stats,
    enumerate_connected,
    exceptional_graphs,
    find_bridges,
    format_report_text,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    is_connected,
    is_proper_connected,
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
from properconn import solver as solver_mod
from properconn import graph as graph_mod
from properconn import survey as survey_mod
from properconn.graph import _class_entry, _pack_rows, _reach_mask, _unpack_rows, _vertex_keys
from util import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_connected_by_sweep,
    level_through_one_dict,
)

# connected graphs per vertex count, a classic integer sequence
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CONNECTED_BIPARTITE_COUNTS = {4: 3, 5: 5, 6: 17, 7: 44, 8: 182}

# sha256 of the newline-joined graph6 codes of two whole levels, in
# enumeration order: any change to the canonical labeling changes them
LEVEL_DIGESTS = {
    (7, False): "b8b85762ca13a0273d6c1392cc500221f97df2c933be4f76664547c41f0d3f6e",
    (8, True): "37b3e8eedf8fb535f2ace010586c6a6e069af713ffcd5169f5ef68aef83a93a8",
}

# sha256 of the newline-joined graph6 codes of the representatives that
# survey_min_degree(5, 8) examines (its min-degree levels, complete graph
# included), in level order: which representative is examined decides
# which pipeline strategy settles it
SURVEY_LEVEL_DIGESTS = {
    5: "a50642565fa048132930eb72d38ddc374df84c7b0aa0cd1099085657168cf304",
    6: "a25c26e106e9d316134d668280a72f1b0228f70094fa97b51c9cb954044022ca",
    7: "2577617d5b637b13f13e3dee4ce74df2eb18b1af078483f4eb4c24b6d31456ac",
    8: "642f4db44d1517547b00ba6ea86de565c64ce4d2e046244675325e22f5108e69",
}

# sha256 over the packed rows of every level _level(kind, n, t) for
# general n <= 8 and bipartite n <= 10, t = 0..3: one line
# "kind n t: packed packed ..." per level, so the representatives and
# their order are pinned, not only their classes
SMALL_LEVELS_DIGEST = "e57853371039b45410a2c453f89679d09db2e1f96f03970db006658f4fe9b2bf"


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
    for (n, bipartite), want in LEVEL_DIGESTS.items():
        text = "\n".join(to_graph6(g) for g in enumerate_connected(n, bipartite_only=bipartite))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == want, (n, bipartite)


def test_survey_representatives_are_pinned():
    for n, want in SURVEY_LEVEL_DIGESTS.items():
        text = "\n".join(
            to_graph6(from_adj_rows(n, _unpack_rows(n, packed)))
            for packed in survey_mod._level("general", n, 2)
        )
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == want, n


def min_degree_at_least(n, t, level):
    return tuple(p for p in level if min(map(int.bit_count, _unpack_rows(n, p))) >= t)


def test_every_small_level_is_pinned(monkeypatch):
    monkeypatch.setattr(survey_mod, "_LEVELS", {})
    digest = hashlib.sha256()
    for kind, top in (("general", 8), ("bipartite", 10)):
        for n in range(1, top + 1):
            for t in range(4):
                level = survey_mod._level(kind, n, t)
                digest.update(f"{kind} {n} {t}: {' '.join(map(str, level))}\n".encode("ascii"))
    assert digest.hexdigest() == SMALL_LEVELS_DIGEST


def test_levels_one_and_two_follow_from_the_full_level(monkeypatch):
    # a t = 2 level grown by augmentation is the full level filtered, in the
    # same order, so it can be filtered from the full level; the t = 1
    # level is the full level
    for kind, top in (("general", 8), ("bipartite", 10)):
        for n in range(2, top + 1):
            monkeypatch.setattr(survey_mod, "_LEVELS", {})
            built = survey_mod._level(kind, n, 2)
            full = survey_mod._level(kind, n, 0)
            assert built == min_degree_at_least(n, 2, full), (kind, n)
            assert survey_mod._level(kind, n, 1) == full, (kind, n)


def test_min_degree_survey_builds_only_its_top_chain(monkeypatch):
    monkeypatch.setattr(survey_mod, "_LEVELS", {})
    grown = []
    real = survey_mod._children

    def children(kind, rows, t):
        grown.append(len(rows))
        return real(kind, rows, t)

    monkeypatch.setattr(survey_mod, "_children", children)
    survey_min_degree(5, 8)
    # the n=8 level grows the full levels below it, each once, and the
    # lower orders filter those: no t = 1 or lower t = 2 level is grown
    want = [("general", n, 0) for n in range(2, 8)] + [("general", n, 2) for n in range(5, 9)]
    assert sorted(survey_mod._LEVELS) == sorted(want)
    assert len(grown) == sum(len(survey_mod._level("general", n, 0)) for n in range(1, 8))


def test_importing_the_package_leaves_heavy_modules_unloaded():
    # -S: no site, whose .pth files may load any of them first
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(survey_mod.__file__)))
    heavy = ["dataclasses", "importlib.resources", "inspect", "multiprocessing"]
    code = f"import sys, properconn, properconn.cli; print(sorted(set({heavy}) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.stdout.strip() == "[]", proc.stderr


def rejected_by_the_per_vertex_prefilter(g, attach):
    """Prune (b) of survey._level, vertex by vertex from scratch: some
    vertex that is non-cut in the child has a larger (degree, sum of the
    neighbours' degrees) there than the new vertex."""
    grown = [row | (attach >> v & 1) << g.n for v, row in enumerate(g.adj)] + [attach]
    degrees = [row.bit_count() for row in grown]

    def key(u):
        return degrees[u], sum(degrees[w] for w in range(g.n + 1) if grown[u] >> w & 1)

    full = (1 << g.n + 1) - 1
    return any(
        key(u) > key(g.n)
        and _reach_mask(grown, 1 << g.n, full & ~(1 << u)) == full & ~(1 << u)
        for u in range(g.n)
    )


@given(
    st.sampled_from(("general", "bipartite")),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80, deadline=None)
def test_child_keys_and_prunes_follow_from_the_parent(kind, n, t, pick):
    parents = survey_mod._level(kind, n - 1, max(t - 1, 0))
    if not parents:
        return
    rows = _unpack_rows(n - 1, parents[pick % len(parents)])
    g = from_adj_rows(n - 1, rows)
    # the packed prune drops exactly the sets the per-vertex prefilter drops
    masks = [1 << v for v in range(n - 1)]
    want = [
        attach
        for attach in survey_mod._attachment_sets(kind, rows, t, masks)
        if not rejected_by_the_per_vertex_prefilter(g, attach)
    ]
    got = []
    for _, entry in survey_mod._children(kind, rows, t):
        grown = _unpack_rows(n, entry)
        attach = grown[-1]
        assert grown[:-1] == [row | (attach >> v & 1) << g.n for v, row in enumerate(rows)]
        # the derived keys are the child's fresh _vertex_keys
        assert entry == _class_entry(grown, _vertex_keys(grown)), (rows, attach)
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
    parents = survey_mod._level(kind, n - 1, max(t - 1, 0))
    if not parents:
        return
    rows = _unpack_rows(n - 1, parents[pick % len(parents)])
    masks = [1 << v for v in range(n - 1)]
    every = list(survey_mod._attachment_sets(kind, rows, t, masks))
    for least in range(n + 1):
        want = [a for a in every if not 2 <= a.bit_count() < least]
        assert list(survey_mod._attachment_sets(kind, rows, t, masks, least)) == want
        # with a mask to meet, the sets of exactly least vertices that meet
        # it go too, and the rest keep their order
        meet = meet_pick % (1 << n - 1)
        want = [a for a in want if not (a.bit_count() == least and a & meet)]
        assert list(survey_mod._attachment_sets(kind, rows, t, masks, least, meet)) == want


def test_level_computes_vertex_keys_per_parent_not_per_child(monkeypatch):
    monkeypatch.setattr(survey_mod, "_LEVELS", {})
    calls = {"keys": 0, "isomorphic": 0, "children": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    keys = counted("keys", graph_mod._vertex_keys)
    monkeypatch.setattr(survey_mod, "_vertex_keys", keys)
    monkeypatch.setattr(graph_mod, "_vertex_keys", keys)
    monkeypatch.setattr(graph_mod, "_isomorphic", counted("isomorphic", graph_mod._isomorphic))
    monkeypatch.setattr(survey_mod, "_add_class", counted("children", survey_mod._add_class))
    survey_mod._level("general", 8, 2)
    parents = sum(
        len(survey_mod._level(kind, n - 1, max(t - 1, 0))) for kind, n, t in survey_mod._LEVELS
    )
    # one call per parent: a child's keys follow from its parent's, and a
    # representative's are stored with it for the children compared with it
    assert calls["keys"] == parents
    assert 0 < calls["isomorphic"] < calls["children"]


def test_enumeration_bipartite_counts():
    for n, want in CONNECTED_BIPARTITE_COUNTS.items():
        got = sum(1 for _ in enumerate_connected(n, bipartite_only=True))
        assert got == want


def test_enumeration_size_guard():
    with pytest.raises(TooLarge):
        next(enumerate_connected(10))
    with pytest.raises(TooLarge):
        next(enumerate_connected(1))


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


# --- frozen exceptional fixtures ------------------------------------------------


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


def test_missing_fixture_file_is_loud(monkeypatch):
    monkeypatch.setattr(survey_mod, "FIXTURE_RESOURCE", "no_such_file.json")
    with pytest.raises(FixturesMissing):
        survey_mod.exceptional_graphs()


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


def test_solver_contradicting_the_pipeline_is_a_pc_error(monkeypatch):
    # C5 has a 2-coloring, so a None from the path search and the kernel
    # step here contradicts pc_exact
    monkeypatch.setattr(survey_mod, "_dominating_path", lambda rows: None)
    monkeypatch.setattr(survey_mod, "complete", lambda *args: None)
    packed = _pack_rows(cycle_graph(5).adj)
    with pytest.raises(VerificationFailed, match="ruled out") as info:
        survey_mod._examine(5, packed)
    assert isinstance(info.value, PcError)


def test_examine_searches_no_palette_the_pipeline_ruled_out(monkeypatch):
    searched = []
    real = solver_mod._search

    def spy(g, k, *args, **kwargs):
        searched.append(k)
        return real(g, k, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_search", spy)
    kind, (pc, _) = survey_mod._examine(7, _pack_rows(from_graph6("F@QFw").adj))
    assert (kind, pc) == ("exception", 3)
    assert 2 not in searched


SURVEY_LEVELS = [("general", n, -(-n // 4)) for n in range(5, 9)]
SURVEY_LEVELS += [("bipartite", n, -(-(n + 6) // 8)) for n in range(4, 10)]


def families(n, graphs):
    """The runs of graphs that share their first n-1 rows with bit n-1
    masked off, that is, their parent."""
    parent_bits = sum(((1 << n - 1) - 1) << n * v for v in range(n - 1))
    return [list(run) for _, run in groupby(graphs, parent_bits.__and__)]


def test_examine_settles_each_survey_graph_as_the_pipeline_does(monkeypatch):
    # one path search per family of two or more, plus one per graph that
    # takes _examine's route; a graph settled on its own rows also gets a
    # path certificate that the checker passes with no path hint
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
        graphs = survey_mod._level(kind, n, t)
        searches.clear()
        routed.clear()
        outcomes = survey_mod._examine_families(n, graphs)
        parents = sum(1 for family in families(n, graphs) if len(family) > 1)
        assert len(searches) == parents + len(routed)
        total += len(searches)
        for packed, (outcome, _) in zip(graphs, outcomes, strict=True):
            g = from_adj_rows(n, _unpack_rows(n, packed))
            assert outcome == ("two" if pc2_pipeline(g) is not None else "exception")
            path = real_search(g.adj)
            if path is not None and constructive_mod._dominates(g.adj, path):
                assert verify_certificate(constructive_mod._color_path(g, path)).ok
                on_rows += 1
    # 8,011 survey graphs and the 4 complete graphs the min-degree survey
    # skips; all 221 bipartite graphs
    assert on_rows == 8011 + 4 + 221
    assert total < 8015 + 221


def parent_path_settlements(examine_families, n, family):
    """Run examine_families (survey._examine_families or a copy) on one
    family with _examine stubbed out. Returns the graphs its parent's
    path settled, and those of them that the path does not 2-dominate or
    whose coloring (_path_colors) does not properly connect them."""
    paths = []

    def search(rows):
        paths.append(constructive_mod._dominating_path(rows))
        return paths[-1]

    stubs = {"_dominating_path": search, "_examine": lambda n, packed: ("routed", None)}
    with mock.patch.dict(examine_families.__globals__, stubs):
        outcomes = examine_families(n, family)
    settled = [packed for packed, (kind, _) in zip(family, outcomes) if kind == "two"]
    failures = []
    for packed in settled:
        (path,) = paths
        g = from_adj_rows(n, _unpack_rows(n, packed))
        if not (
            constructive_mod._dominates(g.adj, path)
            and is_proper_connected(EdgeColoring(g, 2, constructive_mod._path_colors(g, path)))
        ):
            failures.append(packed)
    return settled, failures


def loose_examine_families():
    """A copy of survey._examine_families that settles a child with one
    neighbour on its parent's path, not two."""
    source = inspect.getsource(survey_mod._examine_families)
    assert source.count(".bit_count() >= 2") == 1
    namespace = dict(vars(survey_mod))
    exec(source.replace(".bit_count() >= 2", ".bit_count() >= 1"), namespace)
    return namespace["_examine_families"]


def test_parent_paths_settle_only_children_they_two_dominate():
    settled = 0
    for kind, n, t in SURVEY_LEVELS:
        for family in families(n, survey_mod._level(kind, n, t)):
            done, failures = parent_path_settlements(survey_mod._examine_families, n, family)
            assert failures == []
            settled += len(done)
    assert settled > 7000
    # K_{2,4} has no spanning path, and a longest path 2-dominates it. A
    # new vertex joined to one vertex on that path and to the one it
    # leaves off has two neighbours but is not 2-dominated by the path
    parent = complete_bipartite(2, 4)
    path = constructive_mod._dominating_path(parent.adj)
    (off,) = set(range(6)) - set(path)
    child = from_edge_list(7, list(parent.edges) + [(path[0], 6), (off, 6)])
    family = [_pack_rows(child.adj)] * 2
    assert parent_path_settlements(survey_mod._examine_families, 7, family) == ([], [])
    assert parent_path_settlements(loose_examine_families(), 7, family) == (family, family)


@given(st.integers(min_value=3, max_value=9), st.data())
@settings(max_examples=150, deadline=None)
def test_parent_paths_settle_random_children_they_two_dominate(n, data):
    # a family of two copies of a graph whose last vertex has degree >= 2
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 2), st.integers(0, n - 2))))
    attach = data.draw(st.sets(st.integers(0, n - 2), min_size=2))
    g = from_edge_list(n, [(u, v) for u, v in edges if u != v] + [(v, n - 1) for v in attach])
    packed = _pack_rows(g.adj)
    assert parent_path_settlements(survey_mod._examine_families, n, [packed, packed])[1] == []


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
    count("kernel", survey_mod, "complete")
    count("exact", survey_mod, "pc_exact")
    report = survey_min_degree(5, 8)
    assert sum(report.totals.values()) == 8017
    # one search per parent with two or more children, and one per graph
    # its parent's path does not settle
    assert calls == {"search": 1742, "path": 0, "kernel": 6, "exact": 2}


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


def test_surveys_refuse_fewer_than_one_job():
    for jobs in (0, -3):
        with pytest.raises(OutOfRange):
            survey_min_degree(5, 5, jobs=jobs)
        with pytest.raises(OutOfRange):
            survey_bipartite(4, 4, jobs=jobs)


def test_worker_pool_returns_the_same_report():
    # two workers even on one CPU, so the two exceptions' certificates come
    # back from the pool pickled. In a child interpreter with a timeout: a
    # result the parent cannot unpickle stops the pool's result thread, and
    # Pool.map then waits forever
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(survey_mod.__file__)))
    code = (
        "import os; os.cpu_count = lambda: 2\n"
        "from properconn import survey_min_degree\n"
        "one, two = survey_min_degree(7, 8), survey_min_degree(7, 8, jobs=2)\n"
        "print(len(two.exceptions), (two.totals, two.exceptions, two.unresolved)"
        " == (one.totals, one.exceptions, one.unresolved))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.split() == ["2", "True"], proc.stderr


def test_worker_count_is_capped_by_cpus_and_chunks(monkeypatch):
    # a stand-in pool records the worker count and starts no process
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize):
            return [func(item) for item in items]

    class Context:
        Pool = RecordingPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    graphs = survey_mod._level("general", 6, 2)
    serial = survey_mod._map_examine(6, graphs, 1)
    assert started == []
    monkeypatch.setattr(survey_mod.os, "cpu_count", lambda: 3)
    assert survey_mod._map_examine(6, graphs, 10**9) == serial
    monkeypatch.setattr(survey_mod.os, "cpu_count", lambda: 64)
    assert survey_mod._map_examine(6, graphs[:5], 10**9) == serial[:5]
    assert started == [3, 5]


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


def test_report_codes_are_canonical_codes_of_the_certified_graphs():
    report = survey_min_degree(7, 8)
    assert sorted(e.graph6 for e in report.exceptions) == ["F@QFw", "G@LCE["]
    for rec in report.exceptions:
        assert rec.graph6 == canonical_code(rec.certificate.graph).decode("ascii")
        assert verify_certificate(rec.certificate).ok


def test_unresolved_records_carry_canonical_codes(monkeypatch):
    def out_of_budget(g, lower):
        raise SearchBudgetExceeded(lower, 4, "budget spent for the test")

    monkeypatch.setattr(survey_mod, "pc_exact", out_of_budget)
    relabeled = from_edge_list(8, [(7 - u, 7 - v) for u, v in from_graph6("G@LCE[").edges])
    report = survey_min_degree(8, 8, corpus=[relabeled])
    assert report.exceptions == []
    assert [(r.graph6, r.lower, r.upper) for r in report.unresolved] == [("G@LCE[", 3, 4)]


def test_twin_class_swaps_are_automorphisms():
    for code in ("F@QFw", "G@LCE[", to_graph6(complete_graph(5)), to_graph6(cycle_graph(4))):
        g = from_graph6(code)
        classes = survey_mod._twin_classes(g.adj)
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


@st.composite
def graphs_with_twins(draw):
    """Rows of a graph on 0..12 vertices: a random graph, then copies of
    its vertices, each adjacent to its original (a closed twin) or not
    (an open twin), then a random relabeling."""
    n = draw(st.integers(min_value=0, max_value=6))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    for _ in range(draw(st.integers(min_value=0, max_value=12 - n)) if n else 0):
        v, closed, w = draw(st.integers(0, len(rows) - 1)), draw(st.booleans()), len(rows)
        row = rows[v] | closed << v
        for u in range(w):
            if row >> u & 1:
                rows[u] |= 1 << w
        rows.append(row)
    label = draw(st.permutations(range(len(rows))))
    relabeled = [0] * len(rows)
    for u, row in enumerate(rows):
        relabeled[label[u]] = sum(1 << label[v] for v in range(len(rows)) if row >> v & 1)
    return relabeled


@given(graphs_with_twins())
@settings(max_examples=200, deadline=None)
def test_grouped_twin_classes_follow_the_pairwise_definition(rows):
    assert survey_mod._twin_classes(rows) == pairwise_twin_classes(rows)


def test_grouped_twin_classes_on_small_and_complete_graphs():
    # empty rows, K1, K2, K5 and a graph with both kinds of twins: 0 1
    # are adjacent twins and 2 3 twins that are not, all joined to 4
    both = from_edge_list(5, [(0, 1), (0, 4), (1, 4), (2, 4), (3, 4)])
    cases = [[], [0] * 4, complete_graph(1).adj, complete_graph(2).adj, complete_graph(5).adj]
    for rows in cases + [both.adj]:
        assert survey_mod._twin_classes(rows) == pairwise_twin_classes(rows), rows
    assert survey_mod._twin_classes([0] * 4) == [[0, 1, 2, 3]]
    assert survey_mod._twin_classes(both.adj) == [[0, 1], [2, 3], [4]]


def test_routed_levels_equal_one_dict_for_all(monkeypatch):
    # each level is grown with its routes and compared with the same
    # children deduplicated in one dict; t = 2 goes first, so it is grown
    # rather than filtered from the t = 0 level
    monkeypatch.setattr(survey_mod, "_LEVELS", {})
    for kind, top in (("general", 8), ("bipartite", 10)):
        for n in range(2, top + 1):
            for t in (2, 0):
                want = level_through_one_dict(kind, n, t)
                assert survey_mod._level(kind, n, t) == want, (kind, n, t)
    routes = Counter(
        route
        for parent in survey_mod._level("general", 7, 1)
        for route, _ in survey_mod._children("general", _unpack_rows(7, parent), 2)
    )
    # at n = 8 some children are kept with no dict, some meet only their
    # siblings' dict and some the level's
    assert sorted(routes) == [0, 1, 2] and min(routes.values()) > 0, routes


def test_corpus_deduplicates_isomorphs():
    relabeled = from_graph6(to_graph6(canonical_form_of_c7()))
    report = survey_min_degree(7, 7, corpus=[cycle_graph(7), relabeled])
    assert report.totals == {7: 1}


def canonical_form_of_c7():
    from properconn import canonical_form

    return canonical_form(cycle_graph(7))


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
