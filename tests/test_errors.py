"""Every library error is a PcError; bad argument values stay ValueErrors."""

from __future__ import annotations

import pytest

from properconn import (
    EdgeColoring,
    OutOfRange,
    PcCertificate,
    PcError,
    TooLarge,
    TooSmall,
    UnsuitableBase,
    extend_vertex,
    from_edge_list,
    make_star_of_bicliques,
    pc_exact,
    pc_upper,
    strong_coloring_bridgeless,
    survey_bipartite,
    survey_min_degree,
)
from util import complete_graph, cycle_graph, path_graph, star_graph


def forged(g):
    """An all-1 "strong 2-coloring" that connects no pair at distance 2."""
    return PcCertificate(EdgeColoring(g, 2, (1,) * g.m), "forged", True)


def test_bad_argument_values_raise_pc_errors():
    cases = [
        (OutOfRange, lambda: make_star_of_bicliques(0)),
        (OutOfRange, lambda: survey_min_degree(6, 5)),
        (OutOfRange, lambda: survey_bipartite(3, 5)),
        (TooSmall, lambda: strong_coloring_bridgeless(from_edge_list(1, []))),
        (UnsuitableBase, lambda: extend_vertex(pc_exact(star_graph(3))[1], [(4, 0), (4, 1)])),
        (UnsuitableBase, lambda: extend_vertex(forged(cycle_graph(4)), [(4, 0), (4, 2)])),
    ]
    for kind, call in cases:
        with pytest.raises(kind) as info:
            call()
        assert isinstance(info.value, PcError)
        assert isinstance(info.value, ValueError)


def test_invalid_budget_raises_out_of_range(monkeypatch):
    # checked on every call, before the complete-graph shortcut returns
    for value in ("soon", "-5", "1.5"):
        monkeypatch.setenv("PC_BUDGET_MS", value)
        for g in (complete_graph(4), cycle_graph(5)):
            with pytest.raises(OutOfRange, match="PC_BUDGET_MS"):
                pc_exact(g)


def test_solver_refuses_graphs_past_the_checker_cap():
    # the Hamilton search stops at 16 vertices, as does the checker
    # behind every other certificate
    for call in (pc_upper, pc_exact):
        with pytest.raises(TooLarge) as info:
            call(path_graph(17))
        assert isinstance(info.value, PcError)
