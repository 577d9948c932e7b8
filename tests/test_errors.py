"""Every library error is a PcError; bad argument values stay ValueErrors."""

from __future__ import annotations

import os
import pickle

import pytest

from properconn import (
    ColoringGraphMismatch,
    EdgeColoring,
    Graph,
    MalformedGraph6,
    NotAPath,
    OutOfRange,
    PcCertificate,
    PcError,
    TooLarge,
    TooSmall,
    UnsuitableBase,
    VertexOutOfRange,
    enumerate_connected,
    extend_vertex,
    first_weak_pair,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    glue_across_bridge,
    is_proper_connected,
    is_proper_path,
    make_coloring,
    make_star_of_bicliques,
    pc_exact,
    pc_upper,
    read_graph6_file,
    strong_coloring_bridgeless,
    survey_bipartite,
    survey_min_degree,
    write_report,
)
from util import complete_graph, cycle_graph, path_graph, star_graph


def forged(g):
    """An all-1 "strong 2-coloring" that connects no pair at distance 2."""
    return PcCertificate(EdgeColoring(g, 2, (1,) * g.m), "forged", True)


def test_bad_argument_values_raise_pc_errors():
    nowhere = os.path.join(os.devnull, "report.txt")
    c4 = pc_exact(cycle_graph(4))[1]
    # a triangle with a pendant edge (2, 3), which glues to itself across
    # that edge by the maps [0, 1, 2, 3] and [4, 5, 3, 2]
    half = pc_exact(from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))[1]

    def glue(map_a, map_b):
        return glue_across_bridge(half, half, (2, 3), (map_a, map_b))

    cases = [
        (OutOfRange, lambda: make_star_of_bicliques(0)),
        (OutOfRange, lambda: survey_min_degree(6, 5)),
        (OutOfRange, lambda: survey_bipartite(3, 5)),
        # sizes and vertex labels that are not ints
        (OutOfRange, lambda: survey_min_degree(5, 8.0)),
        (OutOfRange, lambda: survey_bipartite(4.0, 5)),
        (OutOfRange, lambda: make_star_of_bicliques(2.0)),
        (OutOfRange, lambda: list(enumerate_connected(5.0))),
        (OutOfRange, lambda: pc_exact(from_graph6("F@QFw"), kmax=2.5)),
        (OutOfRange, lambda: pc_exact(from_graph6("F@QFw"), kmax=True)),
        # a number for a graph6 file (not a file descriptor) or a graph
        (OutOfRange, lambda: read_graph6_file(5)),
        (OutOfRange, lambda: read_graph6_file(True)),
        (OutOfRange, lambda: survey_min_degree(5, 5, corpus=[1])),
        (OutOfRange, lambda: survey_min_degree(5, 5, corpus=5)),
        (OutOfRange, lambda: survey_bipartite(4, 4, corpus=[cycle_graph(4), "C~"])),
        # a report format that is neither "text" nor "structured", refused
        # before the path (one no file can have) is opened
        (OutOfRange, lambda: write_report(survey_bipartite(4, 4), nowhere, fmt="xml")),
        (VertexOutOfRange, lambda: from_edge_list(3, [(0, 1.0)])),
        (VertexOutOfRange, lambda: from_edge_list(3.0, [])),
        # edges that are not pairs
        (VertexOutOfRange, lambda: from_edge_list(3, [(0, 1, 2)])),
        (VertexOutOfRange, lambda: from_edge_list(3, [5])),
        # attachment edges that are not pairs of ints
        (VertexOutOfRange, lambda: extend_vertex(c4, [(4, "a"), (4, 0)])),
        (VertexOutOfRange, lambda: extend_vertex(c4, [(4, 0, 1), (4, 2)])),
        (VertexOutOfRange, lambda: extend_vertex(c4, None)),
        # glue embeddings of the wrong size, not injective, or not onto 0..n-1
        (VertexOutOfRange, lambda: glue([0, 1, 2], [4, 5, 3, 2])),
        (VertexOutOfRange, lambda: glue([0, 1, 2, 3], [4, 4, 3, 2])),
        (VertexOutOfRange, lambda: glue([0, 1, 2, 3], [4, 9, 3, 2])),
        (TooSmall, lambda: strong_coloring_bridgeless(from_edge_list(1, []))),
        (UnsuitableBase, lambda: extend_vertex(pc_exact(star_graph(3))[1], [(4, 0), (4, 1)])),
        (UnsuitableBase, lambda: extend_vertex(forged(cycle_graph(4)), [(4, 0), (4, 2)])),
    ]
    for kind, call in cases:
        with pytest.raises(kind) as info:
            call()
        assert isinstance(info.value, PcError)
        assert isinstance(info.value, ValueError)


def _unpickled(cls, *fields):
    """What unpickling a cls value whose pickle names fields gives."""

    class Tampered:
        def __reduce__(self):
            return cls, fields

    return pickle.loads(pickle.dumps(Tampered()))


def test_inputs_of_the_wrong_type_raise_pc_errors():
    # a float vertex in a path and a number for a graph6 line are bad
    # input documents, not argument values
    cert = pc_exact(cycle_graph(4))[1]
    with pytest.raises(NotAPath):
        is_proper_path(cert.coloring, [0, 1.0])
    # lists cannot go in the repeat check's set, nor strs in the edge lookup
    with pytest.raises(NotAPath):
        is_proper_path(cert.coloring, [[0], [1]])
    with pytest.raises(PcError):
        cert.coloring.color("a", 0)
    # a certificate's fields are an EdgeColoring, a str and a bool, also
    # when a tampered pickle rebuilds it, so verify_certificate can read
    # every certificate that constructs
    for fields in ((None, "x", True), (cert.coloring, 1, False), (cert.coloring, "x", 1)):
        for build in (PcCertificate, lambda *f: _unpickled(PcCertificate, *f)):
            with pytest.raises(ColoringGraphMismatch):
                build(*fields)
    # and a coloring's graph is a Graph, and its colors a sequence
    for fields in ((None, 2, ()), (cert.graph, 2, None)):
        for build in (EdgeColoring, lambda *f: _unpickled(EdgeColoring, *f)):
            with pytest.raises(ColoringGraphMismatch):
                build(*fields)
    with pytest.raises(ColoringGraphMismatch):
        make_coloring(cert.graph, 2, 5)
    for line in (5, None, b"C~"):
        with pytest.raises(MalformedGraph6):
            from_graph6(line)


def test_graphs_whose_edges_and_rows_disagree_cannot_be_built():
    # the first has a triangle for its edge list and the path 0-1-2 for
    # its rows, so the checker, which reads the edges, would pass a
    # one-color certificate of a graph with pc 2; the second has the
    # edge (2, 3) out of range, and the third rows that are not symmetric
    triangle = ((0, 1), (0, 2), (1, 2))
    cases = [
        (lambda: Graph(3, triangle, (2, 5, 2)), (3, triangle, (2, 5, 2))),
        (lambda: from_adj_rows(3, [2, 5, 10]), (3, ((0, 1), (1, 2), (2, 3)), (2, 5, 10))),
        (lambda: from_adj_rows(3, [6, 0, 0]), (3, ((0, 1), (0, 2)), (6, 0, 0))),
    ]
    for build, fields in cases:
        for call in (build, lambda: _unpickled(Graph, *fields)):
            with pytest.raises(VertexOutOfRange):
                call()


def test_invalid_budget_raises_out_of_range(monkeypatch):
    # checked on every call, before the complete-graph shortcut returns
    for value in ("soon", "-5", "1.5"):
        monkeypatch.setenv("PC_BUDGET_MS", value)
        for g in (complete_graph(4), cycle_graph(5)):
            with pytest.raises(OutOfRange, match="PC_BUDGET_MS"):
                pc_exact(g)


def test_solver_refuses_graphs_past_the_checker_cap():
    # both refuse past PROFILE_MAX_N = 16 vertices, the checker's cap
    # behind every certificate, where the path search and the pipeline
    # stop too
    for call in (pc_upper, pc_exact):
        with pytest.raises(TooLarge) as info:
            call(path_graph(17))
        assert isinstance(info.value, PcError)
    # and so does the checker itself, in both modes
    g = path_graph(17)
    alternating = make_coloring(g, 2, [1 + i % 2 for i in range(g.m)])
    for check in (is_proper_connected, first_weak_pair):
        with pytest.raises(TooLarge):
            check(alternating)
