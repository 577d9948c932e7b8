"""Minimum-degree surveys of the two-color bound with their records and
reports, the named constructions, the two frozen exceptions as graph6
constants, the graph6 corpus reader, and enumerate_connected, which
labels each enumeration class once.

Surveys settle pc <= 2 by pc2_pipeline's path step and keep only the
verdict (_examine). The path search runs on packed rows (_path_settles),
once per parent whose children a level lists together
(_examine_families): a parent that its path 2-dominates settles its
whole family, since every survey asks min degree >= 2 and a new vertex
with two neighbours never raises pc above 2 (the lemma in
extend_vertex's docstring). Every graph of another family gets its own
search. Only the graphs that no path settles are built, and each takes
one route: the exact solver on its canonical relabeling,
which searches every palette from 2 up under PC_BUDGET_MS. Graphs whose
search budget runs out are reported, never dropped.
"""

from __future__ import annotations

import json
import time
from itertools import groupby

from .constructive import (
    _certificate_document,
    _dominates,
    _dominating_path,
)
from .constructive import pc2_pipeline  # noqa: F401  (perfbench/tracing.py wraps it here)
from .enumeration import _corpus_rows, _level, _pack_rows, _unpack_rows
from .errors import OutOfRange, SearchBudgetExceeded, TooLarge
from .graph import (
    Graph,
    _items,
    _Value,
    bipartition,
    canonical_code,
    degree_stats,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    is_complete,
)
from .solver import pc_exact
from .solver import verify_certificate  # noqa: F401  (perfbench/tracing.py wraps it here)

ENUMERATION_MAX_N = 9
BIPARTITE_MAX_N = 13


def enumerate_connected(n: int, min_degree: int = 0, bipartite_only: bool = False):
    """Yield one canonical representative per isomorphism class of
    connected graphs on n vertices with minimum degree >= min_degree (n
    and min_degree ints, else OutOfRange), in canonical-code order.

    Built-in generation covers 2 <= n <= 9. No library path surveys
    past n = 9 (general) or n = 13 (bipartite), with or without a graph6
    corpus. The level, packed rows of one representative per class, is
    built without labeling (see _level) and each representative is then
    labeled once. A min_degree level is built
    from filtered levels below it, so it costs far less than the full
    one. Cold, on one core of a 2-core machine under Python 3.11.7, the
    full general level at n=9 (261,080 classes) takes about 1 minute, n=8
    (11,117 classes) about 1.6 s, and the bipartite level at n=9 about
    0.3 s; labeling is nearly all of it.
    """
    # a float or a bool would reach _level, whose keys and prunes take ints
    if type(n) is not int or type(min_degree) is not int:
        raise OutOfRange(f"n and min_degree must be integers, got {n!r} and {min_degree!r}")
    if not 2 <= n <= ENUMERATION_MAX_N:
        raise TooLarge(f"built-in enumeration covers 2 <= n <= {ENUMERATION_MAX_N}")
    kind = "bipartite" if bipartite_only else "general"
    codes = sorted(
        canonical_code(from_adj_rows(n, _unpack_rows(n, packed)))
        for packed in _level(kind, n, max(min_degree, 0))
    )
    for code in codes:
        yield from_graph6(code.decode("ascii"))


# ---------------------------------------------------------------------------
# named constructions and the frozen exceptions


def make_star_of_bicliques(t: int) -> Graph:
    """Four complete bipartite blocks on t+t vertices each, with one
    distinguished vertex per block and the first block's distinguished
    vertex joined to the other three.

    The result has n = 8t vertices and minimum degree t = n/8, yet for
    t = 2 it needs three colors: the three join edges meet at one vertex
    and every inter-block path crosses two of them consecutively. t = 1
    degenerates to blocks that are single edges (minimum degree 1).
    """
    if type(t) is not int or t < 1:
        raise OutOfRange(f"block side size must be an integer >= 1, got {t!r}")
    edges = []
    for b in range(4):
        off = 2 * t * b
        for i in range(t):
            for j in range(t):
                edges.append((off + i, off + t + j))
    for b in range(1, 4):
        edges.append((0, 2 * t * b))
    return from_edge_list(8 * t, edges)


# Frozen from the survey_min_degree(5, 8) discovery run: an exhaustive
# sweep over every connected noncomplete class with min degree >=
# ceil(n/4) (totals 10/60/506/7441 for n=5..8, the enumeration
# cross-checked against the published connected-graph counts
# 21/112/853/11117). These two canonical codes were its only exceptions,
# each with a verified 3-color witness. The 7-vertex graph is three
# triangles sharing one vertex.
_EXCEPTIONAL_GRAPH6 = ("F@QFw", "G@LCE[")


def exceptional_graphs() -> tuple[Graph, Graph]:
    """The 7- and 8-vertex exceptions to the two-color bound, built from
    the two graph6 constants above."""
    code7, code8 = _EXCEPTIONAL_GRAPH6
    return from_graph6(code7), from_graph6(code8)


# ---------------------------------------------------------------------------
# survey reports


class ExceptionRecord(_Value):
    __slots__ = ("graph6", "pc", "certificate")


class UnresolvedRecord(_Value):
    __slots__ = ("graph6", "lower", "upper", "detail")


class SurveyReport(_Value):
    """A survey's outcome; unlike the other records it is mutable, so it
    has no hash."""

    __slots__ = (
        "survey",
        "n_lo",
        "n_hi",
        "filter_desc",
        "totals",
        "exceptions",
        "unresolved",
        "timing",
    )
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def report_to_json(report: SurveyReport) -> dict:
    return {
        "survey": report.survey,
        "n_lo": report.n_lo,
        "n_hi": report.n_hi,
        "filter": report.filter_desc,
        "totals": {str(n): c for n, c in sorted(report.totals.items())},
        "exceptions": [
            {
                "graph6": rec.graph6,
                "pc": rec.pc,
                "certificate": _certificate_document(rec.certificate),
            }
            for rec in report.exceptions
        ],
        "unresolved": [
            {
                "graph6": rec.graph6,
                "lower": rec.lower,
                "upper": rec.upper,
                "detail": rec.detail,
            }
            for rec in report.unresolved
        ],
        "timing_seconds": {str(n): round(t, 3) for n, t in sorted(report.timing.items())},
    }


def format_report_text(report: SurveyReport) -> str:
    lines = [
        f"survey: {report.survey}",
        f"range: n={report.n_lo}..{report.n_hi}",
        f"filter: {report.filter_desc}",
    ]
    for n in sorted(report.totals):
        lines.append(
            f"n={n} examined={report.totals[n]} "
            f"seconds={report.timing.get(n, 0.0):.3f}"
        )
    lines.append(f"exceptions: {len(report.exceptions)}")
    for rec in report.exceptions:
        lines.append(f"  graph6={rec.graph6} pc={rec.pc}")
    lines.append(f"unresolved: {len(report.unresolved)}")
    for rec in report.unresolved:
        lines.append(
            f"  graph6={rec.graph6} pc_in=[{rec.lower},{rec.upper}] {rec.detail}"
        )
    return "\n".join(lines) + "\n"


def _report_body(report: SurveyReport, fmt: str) -> str:
    """The report as write_report writes it and `pc survey` prints it,
    fmt "text" or "structured", else OutOfRange."""
    if fmt == "structured":
        return json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        return format_report_text(report)
    raise OutOfRange(f'fmt must be "text" or "structured", got {fmt!r}')


def write_report(report: SurveyReport, path, fmt: str = "text"):
    """Write the report, fmt "text" or "structured" (else OutOfRange, with
    no file opened), plus a graph6 sidecar of the exceptions."""
    path = str(path)
    body = _report_body(report, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
    with open(path + ".exceptions.g6", "w", encoding="ascii") as fh:
        for rec in report.exceptions:
            fh.write(rec.graph6 + "\n")


# ---------------------------------------------------------------------------
# survey engines


def _path_settles(rows) -> bool:
    """Whether the path search (`_dominating_path`) on these adjacency
    rows finds a path that spans the graph or 2-dominates it
    (`_dominates`), so that two colors properly connect it by the lemma
    that `_path_colors` proves, with no Graph and no coloring built."""
    path = _dominating_path(rows)
    return path is not None and _dominates(rows, path)


def _examine(n: int, packed: int):
    """Settle the connected n-vertex graph with these packed rows
    (_pack_rows): None when two colors do, else its report record,
    an ExceptionRecord or an UnresolvedRecord.

    Two routes. The path search runs once, on the rows; when its path
    settles the graph (`_path_settles`), the graph has pc <= 2. Every
    other graph is labeled, and its verdict is pc_exact's on the
    canonical relabeling, which searches palette 2 and up under the
    budget: the witness then certifies the graph a report prints, whose
    code is canon. pc_exact's witness has passed the exact
    checker already.
    """
    rows = _unpack_rows(n, packed)
    if _path_settles(rows):
        return None
    canon = canonical_code(from_adj_rows(n, rows)).decode("ascii")
    try:
        pc, witness = pc_exact(from_graph6(canon))
    except SearchBudgetExceeded as exc:
        return UnresolvedRecord(canon, exc.lower, exc.upper, str(exc))
    if pc == 2:
        return None
    return ExceptionRecord(canon, pc, witness)


def _examine_families(n: int, graphs) -> list:
    """_examine every graph, in order, with one path search per family:
    a run of graphs that share their first n-1 rows once bit n-1 is
    masked off, that is, a parent P = G - x for the last vertex x. A
    level lists the children of one parent together.

    When P's path settles P (`_path_settles`), two colors properly
    connect P. Every survey asks min degree >= 2, so x has two neighbours
    in P, and by the lemma that `extend_vertex` proves, two colors
    properly connect G too. So that one search settles the whole family,
    and only the graphs of the other families take _examine's route.
    """
    parent_bits = sum(((1 << n - 1) - 1) << n * v for v in range(n - 1))
    out = []
    for parent, family in groupby(graphs, parent_bits.__and__):
        if _path_settles(_unpack_rows(n, parent)[:-1]):
            out += [None for _ in family]
        else:
            out += [_examine(n, packed) for packed in family]
    return out


def _corpus_graphs(corpus) -> tuple:
    """A survey's corpus items in a tuple, which every order reads (an
    iterator would serve only one); a corpus that is not iterable, or an
    item not a Graph, is OutOfRange."""
    graphs = _items(corpus, OutOfRange, "a corpus")
    for g in graphs:
        if not isinstance(g, Graph):
            raise OutOfRange(f"a corpus holds Graphs, got {type(g).__name__}")
    return graphs


def _survey(name, filter_desc, chain, lowest, highest, bound, n_lo, n_hi, corpus):
    """The report on every connected noncomplete graph of the chain
    ("general" or "bipartite") with min degree >= bound(n), one per class,
    for each n in n_lo..n_hi, which must be ints with lowest <= n_lo <=
    n_hi <= highest. A corpus is read once into a tuple of Graphs, and
    each order keeps its graphs of that family; without one, each order
    takes its level of the chain (_level), less K_n (no bipartite graph
    on 3 or more vertices is complete). Reports print canonical graph6
    codes, the only graph6 a survey produces.

    The orders run from the top down, so the top level builds the levels
    below it that it grows from, and the lower orders filter those
    (_level's shared levels); timing[n] is the time spent on order n,
    building included. The report lists every order ascending."""
    if type(n_lo) is not int or type(n_hi) is not int or not lowest <= n_lo <= n_hi:
        raise OutOfRange(f"need integers {lowest} <= n_lo <= n_hi")
    if n_hi > highest:
        raise TooLarge(f"{name} survey covers n <= {highest}")
    corpus = None if corpus is None else _corpus_graphs(corpus)
    totals, timing, found = {}, {}, {}
    for n in range(n_hi, n_lo - 1, -1):
        t0 = time.perf_counter()
        thr = bound(n)
        if corpus is None:
            kn = _pack_rows([(1 << n) - 1 & ~(1 << v) for v in range(n)])
            graphs = [packed for packed in _level(chain, n, thr) if packed != kn]
        else:
            graphs = _corpus_rows(
                corpus,
                n,
                lambda g: not is_complete(g)
                and degree_stats(g)[1] >= thr
                and (chain == "general" or bipartition(g) is not None),
            )
        totals[n] = len(graphs)
        found[n] = [rec for rec in _examine_families(n, graphs) if rec is not None]
        timing[n] = time.perf_counter() - t0
    records = [rec for n in range(n_lo, n_hi + 1) for rec in found[n]]
    exceptions = [rec for rec in records if isinstance(rec, ExceptionRecord)]
    unresolved = [rec for rec in records if isinstance(rec, UnresolvedRecord)]
    totals, timing = dict(sorted(totals.items())), dict(sorted(timing.items()))
    return SurveyReport(
        name, n_lo, n_hi, filter_desc, totals, exceptions, unresolved, timing
    )


def survey_min_degree(n_lo: int = 5, n_hi: int = 8, corpus=None) -> SurveyReport:
    """Check every connected noncomplete graph with min degree >= ceil(n/4)
    for a verified 2-coloring; report the graphs needing more.

    Built-in enumeration and corpora (iterables of Graph) both cover n up
    to 9. Budget shortfalls land in `unresolved`.
    """
    return _survey(
        "min-degree", "connected, noncomplete, min degree >= ceil(n/4)",
        "general", 5, ENUMERATION_MAX_N, lambda n: -(-n // 4),
        n_lo, n_hi, corpus,
    )


def survey_bipartite(n_lo: int = 4, n_hi: int = 9, corpus=None) -> SurveyReport:
    """Check every connected bipartite graph with min degree >=
    ceil((n+6)/8) for a verified 2-coloring; zero exceptions expected.

    Built-in enumeration and corpora cover n up to BIPARTITE_MAX_N = 13,
    past the general chain's 9: on one core of a 2-core machine under
    Python 3.11, order 13 (75,624 classes) takes about 11 s, nearly all
    of it building the level.
    """
    return _survey(
        "bipartite", "connected, bipartite, min degree >= ceil((n+6)/8)",
        "bipartite", 4, BIPARTITE_MAX_N, lambda n: -(-(n + 6) // 8),
        n_lo, n_hi, corpus,
    )


# ---------------------------------------------------------------------------
# graph6 corpus front end


def read_graph6_file(path) -> list[Graph]:
    """One graph per line; the conventional `>>graph6<<` header is allowed."""
    if isinstance(path, int):
        raise OutOfRange(f"a graph6 file is named by a path, not a file descriptor: {path!r}")
    graphs = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">>"):
                line = line.split("<<", 1)[-1]
            if line:
                graphs.append(from_graph6(line))
    return graphs
