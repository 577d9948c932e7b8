"""Command-line interface: subcommands, formats, and the exit-code contract.

Exit codes: 0 success, 1 bad input or failed verification, 2 inconclusive
search, 3 survey result contradicting the frozen expectations.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from properconn import (
    PcCertificate,
    certificate_to_json,
    from_edge_list,
    make_coloring,
    strong_coloring_bridgeless,
    to_graph6,
)
from properconn import coloring, solver
from properconn.cli import _parse_range, main
from util import cycle_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_text_output(capsys):
    code, out, _ = run(capsys, "compute", "--graph6", "CF")
    assert code == 0
    assert "pc=3" in out
    assert "strategy=" in out


def test_compute_structured_output(capsys):
    code, out, _ = run(capsys, "compute", "--graph6", "CF", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["pc"] == 3
    assert doc["witness"]["k"] == 3
    assert len(doc["witness"]["colors"]) == 3


def test_compute_from_edge_file(tmp_path, capsys):
    path = tmp_path / "path4.txt"
    path.write_text("n 4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "compute", "--edges", str(path))
    assert code == 0 and "pc=2" in out


def test_compute_writes_witness_then_verify_accepts_it(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    code, _, _ = run(capsys, "compute", "--graph6", "CF", "--out", str(witness))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--graph6", "CF", str(witness))
    assert code == 0
    assert out.strip() == "ok"


def test_verify_rejects_improper_coloring(tmp_path, capsys):
    g = from_edge_list(3, [(0, 1), (1, 2)])
    bad = make_coloring(g, 2, {(0, 1): 1, (1, 2): 1})
    path = tmp_path / "bad.json"
    path.write_text(certificate_to_json(PcCertificate(bad, "file", False)))
    code, out, _ = run(capsys, "verify", "--graph6", "Bg", str(path))
    assert code == 1
    assert "no proper path for pair (0, 2)" in out


def test_verify_strong_flag(tmp_path, capsys):
    g = from_edge_list(3, [(0, 1), (1, 2)])
    ok = make_coloring(g, 2, {(0, 1): 1, (1, 2): 2})
    path = tmp_path / "ok.json"
    path.write_text(certificate_to_json(PcCertificate(ok, "file", False)))
    code, out, _ = run(capsys, "verify", "--graph6", "Bg", str(path))
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(
        capsys, "verify", "--graph6", "Bg", str(path), "--strong"
    )
    assert code == 1
    assert "strong property fails at (0, 1)" in out


def test_verify_runs_one_check_on_a_passing_coloring(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c6.json"
    path.write_text(certificate_to_json(strong_coloring_bridgeless(cycle_graph(6))))
    calls = []

    def counted(name, check):
        def run_check(coloring):
            calls.append(name)
            return check(coloring)

        return run_check

    for name in (
        "is_proper_connected",
        "has_strong_property",
        "first_improper_pair",
        "first_weak_pair",
    ):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    code, out, _ = run(capsys, "verify", "--graph6", "EhEG", str(path))
    assert (code, out.strip(), calls) == (0, "ok", ["is_proper_connected"])
    calls.clear()
    code, out, _ = run(capsys, "verify", "--graph6", "EhEG", str(path), "--strong")
    assert (code, out.strip(), calls) == (0, "ok strong", ["has_strong_property"])


def test_verify_sizes_the_checker_by_the_colors_in_use(tmp_path, capsys, monkeypatch):
    # K11 on 0..10 with every edge at 10 colored 1, and 11 hanging off 10
    # by a color-1 edge, so only 10 reaches 11 properly. The declared k
    # is far past the 3 colors in use and must not size the walk table
    # of the per-pair search, which a step cap of 0 sends every pair to.
    edges = [(u, v) for u in range(11) for v in range(u + 1, 11)] + [(10, 11)]
    colors = [1 if v >= 10 else 1 + (u + v) % 3 for u, v in edges]
    built, searched = [], []

    class Recorded(coloring._Machine):
        def __init__(self, n, k, edges, colors):
            built.append(k)
            assert k <= len(colors), f"the checker was built over the declared k={k}"
            super().__init__(n, k, edges, colors)

        def good_states(self, v):
            searched.append(v)
            return super().good_states(v)

    monkeypatch.setattr(coloring, "_DFS_STEPS", 0)
    monkeypatch.setattr(coloring, "_Machine", Recorded)
    doc = {"n": 12, "k": 10**6, "edges": [list(e) for e in edges], "colors": colors}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    graph6 = to_graph6(from_edge_list(12, edges))
    code, out, _ = run(capsys, "verify", "--graph6", graph6, str(path))
    assert (code, out.strip()) == (1, "no proper path for pair (0, 11)")
    assert built and max(built) == 3
    # source 0's search takes one step, onto 1, so the walk table is read
    # for every other target; a cap of 256 would leave it only 11
    assert set(searched) == set(range(2, 12))


def test_verify_graph_mismatch(tmp_path, capsys):
    g = from_edge_list(3, [(0, 1), (1, 2)])
    path = tmp_path / "c.json"
    path.write_text(certificate_to_json(PcCertificate(make_coloring(g, 2, [1, 2]), "file", False)))
    code, _, err = run(capsys, "verify", "--graph6", "Bw", str(path))
    assert code == 1
    assert "different graph" in err


@pytest.mark.parametrize(
    "change",
    [
        {"n": "4"},
        {"n": True},
        {"k": "2"},
        {"k": 2.0},
        {"colors": [1, "2", 1]},
        {"colors": [1, 2.0, 1]},
        {"colors": [1, True, 1]},
        {"edges": [[0, "1"], [1, 2], [2, 3]]},
        {"edges": [[0, 1, 2], [1, 2], [2, 3]]},
        {"edges": [[0], [1, 2], [2, 3]]},
    ],
)
def test_verify_rejects_malformed_documents(tmp_path, capsys, change):
    # the unchanged document colors the path "Ch" properly
    doc = {"n": 4, "k": 2, "edges": [[0, 1], [1, 2], [2, 3]], "colors": [1, 2, 1]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", "--graph6", "Ch", str(path))[0] == 0
    path.write_text(json.dumps({**doc, **change}))
    code, _, err = run(capsys, "verify", "--graph6", "Ch", str(path))
    assert code == 1
    assert err.startswith("pc: error:") and "Traceback" not in err


def test_verify_reports_a_document_with_a_large_n_as_an_error(tmp_path, capsys):
    doc = {"n": 20000, "k": 1, "edges": [[0, 1]], "colors": [1]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--graph6", "Bw", str(path))
    assert code == 1
    assert err.startswith("pc: error:") and "Traceback" not in err


def test_an_edge_file_with_a_huge_n_is_an_error(tmp_path, capsys):
    # refused before a row is built, not a MemoryError traceback
    edges = tmp_path / "huge.txt"
    edges.write_text("n 1000000000000000\n0 1\n")
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"n": 2, "k": 1, "edges": [[0, 1]], "colors": [1]}))
    for argv in (["compute"], ["verify", str(doc)]):
        code, _, err = run(capsys, *argv, "--edges", str(edges))
        assert code == 1
        assert err.startswith("pc: error:") and "Traceback" not in err


def test_compute_kmax_bracket_is_inconclusive(capsys):
    # the 4-star's four bridges prove pc=4, which kmax cannot hide
    code, out, _ = run(capsys, "compute", "--graph6", "D?{", "--kmax", "2")
    assert code == 0
    assert "pc=4" in out
    # the biclique star: three bridges at the hub, a 4-color spanning tree
    star = "O]_?WY???@_E_?????W?E"
    code, out, _ = run(capsys, "compute", "--graph6", star, "--kmax", "2")
    assert code == 2
    assert "inconclusive: pc in [3, 4]" in out


def test_compute_honors_budget(monkeypatch, capsys):
    # a zero budget has run out by the first search node, however fast
    # the search
    monkeypatch.setenv("PC_BUDGET_MS", "0")
    code, out, _ = run(capsys, "compute", "--graph6", "G@LCE[")
    assert code == 2
    assert "inconclusive" in out


def test_compute_rejects_an_invalid_budget(monkeypatch, capsys):
    monkeypatch.setenv("PC_BUDGET_MS", "ten")
    code, out, err = run(capsys, "compute", "--graph6", "CF")
    assert code == 1
    assert out == ""
    assert "pc: error:" in err and "PC_BUDGET_MS" in err


def test_survey_clean_window(capsys):
    code, out, _ = run(capsys, "survey", "--n", "5..6")
    assert code == 0
    assert "survey: min-degree" in out
    assert "exceptions: 0" in out


def test_survey_window_with_the_eight_vertex_exception(capsys):
    code, out, _ = run(capsys, "survey", "--n", "8")
    assert code == 0  # the finding matches the frozen expectation
    assert "exceptions: 1\n  graph6=G@LCE[ pc=3\n" in out


def test_survey_window_with_known_exception(capsys):
    code, out, _ = run(capsys, "survey", "--n", "7")
    assert code == 0  # the finding matches the frozen expectation
    assert "F@QFw" in out


def test_a_budgeted_survey_is_inconclusive_not_contradicted(monkeypatch, capsys):
    # the frozen F@QFw runs out of budget: unresolved, neither found nor missing
    monkeypatch.setenv("PC_BUDGET_MS", "0")
    code, out, err = run(capsys, "survey", "--n", "7..7")
    assert code == 2
    assert "inconclusive" in err
    assert "CONTRADICTION" not in err
    assert "graph6=F@QFw pc_in=[2," in out


def test_survey_bipartite(capsys):
    code, out, _ = run(capsys, "survey", "--n", "4..6", "--family", "bipartite")
    assert code == 0
    assert "survey: bipartite" in out


def test_survey_contradiction_exits_three(tmp_path, capsys):
    # a corpus without the known exception contradicts the expectation
    from properconn import to_graph6

    corpus = tmp_path / "corpus.g6"
    corpus.write_text(to_graph6(cycle_graph(7)) + "\n")
    code, _, err = run(
        capsys, "survey", "--n", "7", "--input", str(corpus)
    )
    assert code == 3
    assert "contradiction" in err.lower()


def test_survey_structured_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "survey",
        "--n",
        "5..5",
        "--format",
        "structured",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["survey"] == "min-degree"
    assert (tmp_path / "report.json.exceptions.g6").exists()


def test_usage_errors_exit_one(capsys, tmp_path):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["compute"]) == 1  # neither graph source given
    path = tmp_path / "p.txt"
    path.write_text("n 3\n0 1\n")
    assert main(["compute", "--graph6", "Bw", "--edges", str(path)]) == 1
    capsys.readouterr()


def test_bad_graph6_exits_one(capsys):
    code, _, err = run(capsys, "compute", "--graph6", "not a code")
    assert code == 1
    assert "error" in err.lower()


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "verify", "--graph6", "Bw", "/nope.json")
    assert code == 1


def test_disconnected_input_exits_one(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("n 4\n0 1\n2 3\n")
    code, _, err = run(capsys, "compute", "--edges", str(path))
    assert code == 1
    assert "error" in err.lower()


def test_survey_has_no_jobs_option(capsys):
    # a survey runs in one process; the old worker-count option is a usage error
    code, _, err = run(capsys, "survey", "--n", "6", "--jobs", "2")
    assert code == 1
    assert "--jobs" in err


# --- fuzzing the exit-code contract ---------------------------------------------

SMALL_GRAPHS = ["A_", "Bw", "Ch", "CF"]


def fuzz_main(argv, budget="200"):
    """main(argv) in this process with PC_BUDGET_MS set to budget: the
    exit code is in 0-3 and stderr holds no traceback. 200 ms keeps a
    16-vertex graph6 draw from stalling the suite."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("PC_BUDGET_MS")
    os.environ["PC_BUDGET_MS"] = budget
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        if saved is None:
            del os.environ["PC_BUDGET_MS"]
        else:
            os.environ["PC_BUDGET_MS"] = saved
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


FUZZ = settings(max_examples=60, deadline=None)


@FUZZ
@given(st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=24))
def test_fuzzed_graph6_keeps_the_exit_codes(code):
    fuzz_main(["compute", f"--graph6={code}"])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
edge_lists = st.lists(st.lists(st.integers(-2, 5), min_size=2, max_size=2), max_size=5)
documents = st.fixed_dictionaries(
    {},
    optional={
        "n": json_values | st.sampled_from([-1, -(10**6), 10**18, 10**30, 2**64]),
        "k": json_values | st.integers(-3, 4),
        "edges": json_values | edge_lists | st.sampled_from([[[0, 1], [0, 1]], [[1, 1]]]),
        "colors": json_values | st.lists(st.integers(-1, 4), max_size=5),
        "meta": json_values,
    },
)


@FUZZ
@given(
    documents.map(json.dumps) | st.text(max_size=20),
    st.sampled_from(SMALL_GRAPHS),
    st.booleans(),
)
def test_fuzzed_coloring_documents_keep_the_exit_codes(text, graph, strong):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        fuzz_main(["verify", "--graph6", graph, path] + (["--strong"] if strong else []))


@FUZZ
@given(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)
    | st.sampled_from(["-1", "1.5", "9" * 400, "9" * 5000, " 5", "0x10"]),
    st.sampled_from(SMALL_GRAPHS),
)
def test_fuzzed_budgets_keep_the_exit_codes(budget, graph):
    fuzz_main(["compute", "--graph6", graph], budget=budget)


def refused_or_small(text):
    """A range every survey refuses at once, or one up to n=7; the
    others take seconds (bipartite n=13 about 45 s)."""
    try:
        lo, hi = _parse_range(text)
    except ValueError:
        return True
    return not 4 <= lo <= hi or hi <= 7 or hi > 13


@FUZZ
@given(
    (
        st.text("0123456789.-+ _x", max_size=8)
        | st.sampled_from(["", "..", "5..", "..5", "9..5", "3..4", "5..6..7", "4..14", "-1..5"])
    ).filter(refused_or_small),
    st.sampled_from(["min-degree", "bipartite"]),
)
@example("--", "min-degree")
def test_fuzzed_survey_ranges_keep_the_exit_codes(text, family):
    fuzz_main(["survey", f"--n={text}", "--family", family])
