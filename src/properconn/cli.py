"""Command-line front end: compute, verify, survey.

Exit codes are a stable contract:
  0  success / claims confirmed
  1  usage or input error (also failed verification)
  2  search budget ran out; the printed bracket is the honest answer
  3  a survey found exceptions that differ from the two frozen
     exceptions (graph6 constants in survey.py)

PC_BUDGET_MS caps per-graph exact-search wall time in milliseconds; a
value that is not a non-negative integer is an input error (exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys

from .constructive import PcCertificate, _certificate_document, coloring_from_json
from .errors import ColoringGraphMismatch, PcError, SearchBudgetExceeded
from .graph import from_graph6, parse_edge_list_text, to_graph6
from .solver import pc_exact, verify_certificate
from .survey import (
    _report_body,
    exceptional_graphs,
    read_graph6_file,
    survey_bipartite,
    survey_min_degree,
    write_report,
)


class _Parser(argparse.ArgumentParser):
    # usage problems are exit 1 here, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_graph_source(sub):
    sub.add_argument("--graph6", metavar="CODE", help="graph6 code of the graph")
    sub.add_argument(
        "--edges", metavar="FILE", help="edge-list text file ('n <count>' header)"
    )


def _load_graph(args):
    if bool(args.graph6) == bool(args.edges):
        raise ValueError("give exactly one of --graph6 or --edges")
    if args.graph6:
        return from_graph6(args.graph6)
    with open(args.edges, encoding="utf-8") as fh:
        return parse_edge_list_text(fh.read())


def _parse_range(text: str) -> tuple[int, int]:
    if not isinstance(text, str):
        # argparse reads a value of "--" as its end-of-options mark and
        # hands --n=-- over as []
        raise ValueError("--n takes LO..HI")
    lo, sep, hi = text.partition("..")
    return (int(lo), int(hi)) if sep else (int(lo), int(lo))


def cmd_compute(args) -> int:
    g = _load_graph(args)
    pc, witness = pc_exact(g, kmax=args.kmax)
    document = _certificate_document(witness)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(document) + "\n")
    if args.format == "structured":
        print(json.dumps({"pc": pc, "witness": document}, sort_keys=True))
    else:
        print(f"pc={pc}")
        print(f"strategy={witness.strategy}")
        print(f"witness={args.out if args.out else list(witness.coloring.colors)}")
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args)
    with open(args.coloring, encoding="utf-8") as fh:
        coloring = coloring_from_json(fh.read())
    if coloring.graph != g:
        raise ColoringGraphMismatch("coloring file describes a different graph")
    report = verify_certificate(PcCertificate(coloring, "file", args.strong))
    if not report:
        print(report.reason)
        return 1
    print("ok strong" if args.strong else "ok")
    return 0


def cmd_survey(args) -> int:
    lo, hi = _parse_range(args.n)
    corpus = read_graph6_file(args.input) if args.input else None
    if args.family == "bipartite":
        report = survey_bipartite(lo, hi, corpus=corpus)
        expected = set()
    else:
        report = survey_min_degree(lo, hi, corpus=corpus)
        g7, g8 = exceptional_graphs()
        expected = {to_graph6(g) for g in (g7, g8) if lo <= g.n <= hi}
    if args.out:
        write_report(report, args.out, fmt=args.format)
    print(_report_body(report, args.format), end="")
    found = {rec.graph6 for rec in report.exceptions}
    # a frozen exception that hit the budget is inconclusive, not missing
    missing = expected - found - {rec.graph6 for rec in report.unresolved}
    if found - expected or missing:
        print(
            f"CONTRADICTION: exceptions {sorted(found)} differ from the "
            f"frozen set {sorted(expected)}",
            file=sys.stderr,
        )
        return 3
    if report.unresolved:
        print(
            f"inconclusive: {len(report.unresolved)} graphs hit the search budget",
            file=sys.stderr,
        )
        return 2
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="pc", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_compute = subs.add_parser("compute", help="exact minimum palette with witness")
    _add_graph_source(p_compute)
    p_compute.add_argument("--kmax", type=int, default=None, help="bounded decision cap")
    p_compute.add_argument("--out", metavar="PATH", help="write witness JSON here")
    p_compute.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )
    p_compute.set_defaults(func=cmd_compute)

    p_verify = subs.add_parser("verify", help="check a coloring file against a graph")
    _add_graph_source(p_verify)
    p_verify.add_argument("coloring", metavar="COLORING.json")
    p_verify.add_argument(
        "--strong", action="store_true", help="also require the strong property"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_survey = subs.add_parser("survey", help="exhaustive small-graph verification")
    p_survey.add_argument("--n", required=True, metavar="LO..HI")
    p_survey.add_argument(
        "--family",
        choices=("min-degree", "bipartite"),
        default="min-degree",
        help="which graph family to sweep",
    )
    p_survey.add_argument("--input", metavar="CORPUS.g6", help="graph6 corpus file")
    p_survey.add_argument("--out", metavar="PATH", help="write the report here")
    p_survey.add_argument(
        "--format", choices=("text", "structured"), default="text"
    )
    p_survey.set_defaults(func=cmd_survey)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"inconclusive: pc in [{exc.lower}, {exc.upper}]")
        return 2
    except (PcError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"pc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
