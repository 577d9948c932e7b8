"""Command-line interface: subcommands, formats, and the exit-code contract.

Exit codes: 0 success, 1 bad input or failed verification, 2 inconclusive
search, 3 survey result contradicting the frozen expectations.
"""

from __future__ import annotations

import json

import pytest

from properconn import (
    coloring_to_json,
    from_edge_list,
    make_coloring,
    strong_coloring_bridgeless,
)
from properconn import solver
from properconn.cli import main
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
    path.write_text(coloring_to_json(bad))
    code, out, _ = run(capsys, "verify", "--graph6", "Bg", str(path))
    assert code == 1
    assert "no proper path for pair (0, 2)" in out


def test_verify_strong_flag(tmp_path, capsys):
    g = from_edge_list(3, [(0, 1), (1, 2)])
    ok = make_coloring(g, 2, {(0, 1): 1, (1, 2): 2})
    path = tmp_path / "ok.json"
    path.write_text(coloring_to_json(ok))
    code, out, _ = run(capsys, "verify", "--graph6", "Bg", str(path))
    assert code == 0 and out.strip() == "ok"
    code, out, _ = run(
        capsys, "verify", "--graph6", "Bg", str(path), "--strong"
    )
    assert code == 1
    assert "strong property fails at (0, 1)" in out


def test_verify_runs_one_check_on_a_passing_coloring(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c6.json"
    path.write_text(coloring_to_json(strong_coloring_bridgeless(cycle_graph(6)).coloring))
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


def test_verify_graph_mismatch(tmp_path, capsys):
    g = from_edge_list(3, [(0, 1), (1, 2)])
    path = tmp_path / "c.json"
    path.write_text(coloring_to_json(make_coloring(g, 2, [1, 2])))
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
    monkeypatch.setenv("PC_BUDGET_MS", "1")
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
    assert "exceptions: none" in out or "exceptions (0)" in out or "F@QFw" not in out


def test_survey_window_with_known_exception(capsys):
    code, out, _ = run(capsys, "survey", "--n", "7")
    assert code == 0  # the finding matches the frozen expectation
    assert "F@QFw" in out


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


def test_survey_jobs_flag_gives_same_totals(capsys):
    code1, out1, _ = run(capsys, "survey", "--n", "6")
    code2, out2, _ = run(capsys, "survey", "--n", "6", "--jobs", "2")
    assert code1 == code2 == 0

    def totals(text):
        # timing differs run to run, the counts must not
        return [ln.split(" seconds=")[0] for ln in text.splitlines() if "examined" in ln]

    assert totals(out1) == totals(out2)


def test_survey_with_no_jobs_exits_one(capsys):
    code, _, err = run(capsys, "survey", "--n", "6", "--jobs", "0")
    assert code == 1
    assert "jobs" in err
