"""Isomorphism-free enumeration, the biclique-star family, fixtures,
and the survey drivers with their reports."""

from __future__ import annotations

import json

import pytest

from properconn import (
    FixturesMissing,
    PcError,
    TooLarge,
    VerificationFailed,
    VerificationReport,
    canonical_code,
    degree_stats,
    enumerate_connected,
    exceptional_graphs,
    find_bridges,
    format_report_text,
    from_edge_list,
    from_graph6,
    is_connected,
    make_star_of_bicliques,
    read_graph6_file,
    report_to_json,
    survey_bipartite,
    survey_min_degree,
    to_graph6,
    verify_certificate,
    write_report,
)
from properconn import survey as survey_mod
from util import complete_graph, cycle_graph, enumerate_connected_by_sweep

# connected graphs per vertex count, a classic integer sequence
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CONNECTED_BIPARTITE_COUNTS = {4: 3, 5: 5, 6: 17, 7: 44, 8: 182}


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


def test_unverifiable_witness_is_a_pc_error(monkeypatch):
    monkeypatch.setattr(
        survey_mod,
        "verify_certificate",
        lambda cert: VerificationReport(False, "rejected for the test"),
    )
    with pytest.raises(VerificationFailed, match="F@QFw") as info:
        survey_mod._examine("F@QFw")
    assert isinstance(info.value, PcError)


def test_solver_contradicting_the_pipeline_is_a_pc_error(monkeypatch):
    # C5 has a 2-coloring, so a pipeline None here contradicts pc_exact
    monkeypatch.setattr(survey_mod, "pc2_pipeline", lambda g: None)
    code = to_graph6(cycle_graph(5))
    with pytest.raises(VerificationFailed, match="ruled out") as info:
        survey_mod._examine(code)
    assert isinstance(info.value, PcError)


def test_min_degree_survey_bounds_checking():
    with pytest.raises(ValueError):
        survey_min_degree(6, 5)
    with pytest.raises(TooLarge):
        survey_min_degree(5, 9)  # 9 needs an explicit corpus


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
