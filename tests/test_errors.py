"""Every library error is a PcError; bad argument values stay ValueErrors."""

from __future__ import annotations

import dataclasses

import pytest

from properconn import (
    OutOfRange,
    PcError,
    TooSmall,
    UnsuitableBase,
    extend_two_vertices,
    extend_vertex,
    from_edge_list,
    has_path_of_length,
    make_star_of_bicliques,
    pc_exact,
    strong_coloring_bridgeless,
    survey_bipartite,
    survey_min_degree,
)
from util import cycle_graph, star_graph


def test_bad_argument_values_raise_pc_errors():
    strong_c4 = strong_coloring_bridgeless(cycle_graph(4))
    unverified = dataclasses.replace(strong_c4, verified=False)
    cases = [
        (OutOfRange, lambda: make_star_of_bicliques(0)),
        (OutOfRange, lambda: survey_min_degree(6, 5)),
        (OutOfRange, lambda: survey_bipartite(3, 5)),
        (OutOfRange, lambda: has_path_of_length(cycle_graph(5), 0, 1, 5)),
        (TooSmall, lambda: strong_coloring_bridgeless(from_edge_list(1, []))),
        (UnsuitableBase, lambda: extend_vertex(pc_exact(star_graph(3))[1], [(4, 0), (4, 1)])),
        (UnsuitableBase, lambda: extend_two_vertices(unverified, [(4, 0), (5, 1)])),
    ]
    for kind, call in cases:
        with pytest.raises(kind) as info:
            call()
        assert isinstance(info.value, PcError)
        assert isinstance(info.value, ValueError)
