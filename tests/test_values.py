"""The record classes on graph._Value: their contract and their pickling."""

from __future__ import annotations

import copy
import pickle

import pytest

from properconn import (
    Bipartition,
    ExceptionRecord,
    Graph,
    SurveyReport,
    UnresolvedRecord,
    VerificationReport,
    bipartition,
    from_edge_list,
    from_graph6,
    pc_exact,
)


def _one_of_each():
    """One value of every record class, the certificate's parts included."""
    g = from_graph6("F@QFw")
    pc, cert = pc_exact(g)
    exception = ExceptionRecord("F@QFw", pc, cert)
    unresolved = UnresolvedRecord("G@LCE[", 2, 3, "budget hit while searching palette 2")
    report = SurveyReport(
        "min-degree", 7, 7, "desc", {7: 506}, [exception], [unresolved], {7: 0.25}
    )
    return [
        g,
        bipartition(from_graph6("Cr")),
        cert.coloring,
        cert,
        VerificationReport(True),
        VerificationReport(False, "no proper path for pair (0, 1)"),
        exception,
        unresolved,
        report,
    ]


def test_every_value_class_round_trips_through_pickle_and_deepcopy():
    for value in _one_of_each():
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(back) is type(value)
            assert back == value
            if type(value).__hash__ is not None:
                assert hash(back) == hash(value)


def test_value_class_contract():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert repr(g) == "Graph(n=3, edges=((0, 1), (1, 2)), adj=(2, 5, 2))"
    assert repr(VerificationReport(True)) == "VerificationReport(ok=True, reason='')"
    # equal field values, different classes
    assert not Bipartition(True, "") == VerificationReport(True, "")
    assert g != (3, g.edges, g.adj)
    twin = from_edge_list(3, [(2, 1), (1, 0)])
    assert twin is not g and twin == g and hash(twin) == hash(g)
    assert Graph.__match_args__ == ("n", "edges", "adj")
    match g:
        case Graph(n, edges, adj):
            matched = (n, edges, adj)
    assert matched == (3, g.edges, g.adj)
    for value in _one_of_each():
        if isinstance(value, SurveyReport):
            continue
        first = type(value).__match_args__[0]
        for name in (first, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert getattr(value, first) is not None


def test_survey_report_is_mutable_and_unhashable():
    report = _one_of_each()[-1]
    report.totals = {7: 1}
    report.exceptions.clear()
    assert report.totals == {7: 1} and report.exceptions == []
    with pytest.raises(TypeError):
        hash(report)
