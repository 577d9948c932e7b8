"""Isomorph-free enumeration of small connected graphs and exhaustive
minimum-degree surveys of the two-color bound.

Canonical augmentation (grow by one vertex, dedup by canonical code)
enumerates the classes for n <= 9; the test suite cross-checks it with
an independent labeled adjacency-mask sweep for n <= 7. The augmentation
labels only children that pass a canonical-deletion prefilter, and a level with
minimum degree >= t grows from levels filtered the same way, so the
surveys never build the full levels they would discard. Surveys decide
pc <= 2 with pc2_pipeline (a spanning path, a bipartite core, else the
exact kernel at k = 2), whose None is a verdict; only those graphs go to
the exact solver, and graphs whose search budget runs out are reported,
never dropped. A solver that finds a 2-coloring there contradicts the
pipeline and raises VerificationFailed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from importlib import resources
from multiprocessing import get_context

from .constructive import PcCertificate, certificate_to_json, pc2_pipeline
from .errors import (
    FixturesMissing,
    OutOfRange,
    SearchBudgetExceeded,
    TooLarge,
    VerificationFailed,
)
from .graph import (
    Graph,
    _reach_mask,
    bipartition,
    canonical_code,
    canonical_form,
    degree_stats,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    is_complete,
    is_connected,
    to_graph6,
)
from .solver import pc_exact, verify_certificate

ENUMERATION_MAX_N = 9

FIXTURE_RESOURCE = "exceptional_graphs.json"


# ---------------------------------------------------------------------------
# canonical augmentation


_LEVELS: dict[tuple[str, int, int], tuple[str, ...]] = {}


def _attachment_sets(kind: str, g: Graph, t: int):
    """Bitmasks of the vertex sets the next vertex may attach to, when the
    child must have minimum degree >= t: at least t vertices (and at least
    one), holding every vertex of degree t-1. The bipartite chain attaches
    within one side only, which keeps the child bipartite."""
    if kind == "general":
        sides = [(1 << g.n) - 1]
    else:
        parts = bipartition(g)
        sides = [sum(1 << v for v in side) for side in (parts.sideU, parts.sideV)]
    low = sum(1 << v for v in range(g.n) if g.degree(v) == t - 1)
    for side in sides:
        if low & ~side:
            continue
        free = side & ~low
        sub = free
        while True:
            attach = low | sub
            if attach.bit_count() >= max(t, 1):
                yield attach
            if not sub:
                break
            sub = (sub - 1) & free


def _deletion_components(g: Graph) -> list[list[int]]:
    """For every vertex u, the components of g - u as bitmasks."""
    full = (1 << g.n) - 1
    out = []
    for u in range(g.n):
        left = full & ~(1 << u)
        comps = []
        while left:
            comp = _reach_mask(g.adj, (left & -left).bit_length() - 1, left)
            comps.append(comp)
            left &= ~comp
        out.append(comps)
    return out


def _level(kind: str, n: int, t: int) -> tuple[str, ...]:
    """Sorted canonical graph6 codes of the connected classes on n
    vertices with minimum degree >= t (bipartite ones for that kind).

    Each class H on n vertices is grown from one on n-1 by a new vertex
    attached to a chosen set. Two prunes run before any labeling:

    (a) the attachment set has at least t vertices and holds every parent
        vertex of degree t-1 (`_attachment_sets`);
    (b) the child is dropped when some non-cut vertex has a larger degree
        than the new vertex (the cheap half of McKay's canonical
        deletion, J. Algorithms 26, 1998).

    Soundness: in H delete a non-cut vertex v of maximum degree among the
    non-cut vertices. H - v is connected with minimum degree >= t-1, so
    its class is in _level(kind, n-1, max(t-1, 0)). N(v) has deg(v) >= t
    vertices and holds every vertex whose degree dropped to t-1, so (a)
    keeps it, and re-attaching v gives H back with its new vertex of
    maximum non-cut degree, so (b) keeps it too. In the bipartite chain
    H - v stays bipartite and N(v) lies within one of its sides, which is
    where that chain attaches. Isomorphic children from different parents
    or sets are merged by canonical code, so no orbit computation is
    needed. t = 0 is the unfiltered chain.
    """
    if n == 1:
        return ("@",) if t == 0 else ()
    key = (kind, n, t)
    if key not in _LEVELS:
        seen = set()
        for code in _level(kind, n - 1, max(t - 1, 0)):
            g = from_graph6(code)
            degrees = [row.bit_count() for row in g.adj]
            comps = _deletion_components(g)
            for attach in _attachment_sets(kind, g, t):
                d = attach.bit_count()
                # u stays a non-cut vertex of the child when the new vertex
                # touches every component of g - u
                if any(
                    degrees[u] + (attach >> u & 1) > d
                    and all(comp & attach for comp in comps[u])
                    for u in range(g.n)
                ):
                    continue
                rows = [row | (attach >> v & 1) << g.n for v, row in enumerate(g.adj)]
                rows.append(attach)
                seen.add(canonical_code(from_adj_rows(n, rows)))
        _LEVELS[key] = tuple(sorted(code.decode("ascii") for code in seen))
    return _LEVELS[key]


def enumerate_connected(n: int, min_degree: int = 0, bipartite_only: bool = False):
    """Yield one canonical representative per isomorphism class of
    connected graphs on n vertices with minimum degree >= min_degree, in
    canonical-code order.

    Built-in generation covers 2 <= n <= 9; larger orders must come from
    graph6 corpus files. A min_degree level is built from filtered levels
    below it, so it costs far less than the full one. The full general
    level at n=9 (261,080 classes, about 553k labelings) takes about 8
    minutes on one core; n=8 takes about 13 s, and the whole bipartite
    chain at n=9 about 5 s.
    """
    if not 2 <= n <= ENUMERATION_MAX_N:
        raise TooLarge(f"built-in enumeration covers 2 <= n <= {ENUMERATION_MAX_N}")
    kind = "bipartite" if bipartite_only else "general"
    for code in _level(kind, n, max(min_degree, 0)):
        yield from_graph6(code)


# ---------------------------------------------------------------------------
# named constructions and fixtures


def make_star_of_bicliques(t: int) -> Graph:
    """Four complete bipartite blocks on t+t vertices each, with one
    distinguished vertex per block and the first block's distinguished
    vertex joined to the other three.

    The result has n = 8t vertices and minimum degree t = n/8, yet for
    t = 2 it needs three colors: the three join edges meet at one vertex
    and every inter-block path crosses two of them consecutively. t = 1
    degenerates to blocks that are single edges (minimum degree 1).
    """
    if t < 1:
        raise OutOfRange("block side size must be at least 1")
    edges = []
    for b in range(4):
        off = 2 * t * b
        for i in range(t):
            for j in range(t):
                edges.append((off + i, off + t + j))
    for b in range(1, 4):
        edges.append((0, 2 * t * b))
    return from_edge_list(8 * t, edges)


def _splits_into_attached_pairs(g: Graph, v: int):
    """True when removing v leaves exactly three 2-vertex components,
    each adjacent to each other and to v (three triangles sharing v)."""
    rest = (1 << g.n) - 1 & ~(1 << v)
    comps = []
    left = rest
    while left:
        start = (left & -left).bit_length() - 1
        comp = _reach_mask(g.adj, start, rest)
        comps.append(comp)
        left &= ~comp
    if len(comps) != 3:
        return False
    for comp in comps:
        if comp.bit_count() != 2:
            return False
        a = (comp & -comp).bit_length() - 1
        b = (comp & ~(1 << a)).bit_length() - 1
        if not (g.has_edge(a, b) and g.has_edge(v, a) and g.has_edge(v, b)):
            return False
    return True


def exceptional_graphs() -> tuple[Graph, Graph]:
    """The frozen 7- and 8-vertex exceptions to the two-color bound.

    These are checked-in canonical codes discovered by a full
    survey_min_degree run (see the fixture's provenance note); this
    accessor refuses to fabricate them. The 7-vertex graph must show its
    known shape: a cut-vertex shared by three triangles.
    """
    try:
        text = (
            resources.files("properconn")
            .joinpath("data")
            .joinpath(FIXTURE_RESOURCE)
            .read_text(encoding="utf-8")
        )
    except (FileNotFoundError, OSError):
        raise FixturesMissing(
            "exceptional-graph fixtures absent; run survey_min_degree(5, 8) "
            "and freeze its exceptions"
        ) from None
    payload = json.loads(text)
    entries = sorted(payload["entries"], key=lambda e: e["n"])
    if [e["n"] for e in entries] != [7, 8]:
        raise FixturesMissing("fixture file must hold exactly the n=7 and n=8 graphs")
    g7 = from_graph6(entries[0]["graph6"])
    g8 = from_graph6(entries[1]["graph6"])
    if not any(_splits_into_attached_pairs(g7, v) for v in range(7)):
        raise FixturesMissing(
            "the stored 7-vertex graph lost its three-triangles-at-a-cut-vertex shape"
        )
    return g7, g8


# ---------------------------------------------------------------------------
# survey reports


@dataclass(frozen=True)
class ExceptionRecord:
    graph6: str
    pc: int
    certificate: PcCertificate


@dataclass(frozen=True)
class UnresolvedRecord:
    graph6: str
    lower: int
    upper: int
    detail: str


@dataclass
class SurveyReport:
    survey: str
    n_lo: int
    n_hi: int
    filter_desc: str
    totals: dict[int, int]
    exceptions: list[ExceptionRecord]
    unresolved: list[UnresolvedRecord]
    timing: dict[int, float]


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
                "certificate": json.loads(certificate_to_json(rec.certificate)),
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


def write_report(report: SurveyReport, path, fmt: str = "text"):
    """Write the report plus a graph6 sidecar of the exceptions."""
    path = str(path)
    if fmt == "structured":
        body = json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"
    else:
        body = format_report_text(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)
    with open(path + ".exceptions.g6", "w", encoding="ascii") as fh:
        for rec in report.exceptions:
            fh.write(rec.graph6 + "\n")


# ---------------------------------------------------------------------------
# survey engines


def _examine(code: str):
    """Worker: settle one graph. Returns a picklable outcome tuple."""
    g = from_graph6(code)
    cert = pc2_pipeline(g)
    if cert is not None:
        return ("two", None)
    try:
        pc, witness = pc_exact(g)
    except SearchBudgetExceeded as exc:
        return ("unresolved", (exc.lower, exc.upper, str(exc)))
    if pc == 2:
        raise VerificationFailed(
            f"{code}: pc_exact found a 2-coloring that pc2_pipeline ruled out"
        )
    if not verify_certificate(witness):
        raise VerificationFailed(f"unverifiable witness for {code}")
    return ("exception", (pc, witness))


def _map_examine(codes, jobs: int):
    if jobs <= 1 or len(codes) < 4:
        return [_examine(code) for code in codes]
    ctx = get_context("fork")
    with ctx.Pool(jobs) as pool:
        chunk = max(1, len(codes) // (8 * jobs))
        return pool.map(_examine, codes, chunksize=chunk)


def _run_survey(name, filter_desc, n_lo, n_hi, graphs_for, jobs) -> SurveyReport:
    totals, timing = {}, {}
    exceptions, unresolved = [], []
    for n in range(n_lo, n_hi + 1):
        t0 = time.perf_counter()
        codes = [to_graph6(g) for g in graphs_for(n)]
        totals[n] = len(codes)
        for code, (kind, info) in zip(codes, _map_examine(codes, jobs)):
            if kind == "exception":
                pc, witness = info
                exceptions.append(ExceptionRecord(code, pc, witness))
            elif kind == "unresolved":
                unresolved.append(UnresolvedRecord(code, *info))
        timing[n] = time.perf_counter() - t0
    return SurveyReport(
        name, n_lo, n_hi, filter_desc, totals, exceptions, unresolved, timing
    )


def _corpus_graphs(corpus, n, predicate):
    selected = []
    for g in corpus:
        if g.n == n and is_connected(g) and predicate(g):
            selected.append(canonical_form(g))
    dedup = {to_graph6(g): g for g in selected}
    return [dedup[code] for code in sorted(dedup)]


def survey_min_degree(n_lo: int = 5, n_hi: int = 8, jobs: int = 1, corpus=None) -> SurveyReport:
    """Check every connected noncomplete graph with min degree >= ceil(n/4)
    for a verified 2-coloring; report the graphs needing more.

    Built-in enumeration covers n up to 8; n = 9 requires an external
    corpus (iterable of Graph). Budget shortfalls land in `unresolved`.
    """
    cap = 8 if corpus is None else ENUMERATION_MAX_N
    if not 5 <= n_lo <= n_hi:
        raise OutOfRange("need 5 <= n_lo <= n_hi")
    if n_hi > cap:
        raise TooLarge(f"minimum-degree survey covers n <= {cap} here")

    def graphs_for(n):
        thr = -(-n // 4)
        if corpus is not None:
            return _corpus_graphs(
                corpus,
                n,
                lambda g: not is_complete(g) and degree_stats(g)[1] >= thr,
            )
        return [
            g
            for g in enumerate_connected(n, min_degree=thr)
            if not is_complete(g)
        ]

    return _run_survey(
        "min-degree",
        "connected, noncomplete, min degree >= ceil(n/4)",
        n_lo,
        n_hi,
        graphs_for,
        jobs,
    )


def survey_bipartite(n_lo: int = 4, n_hi: int = 9, jobs: int = 1, corpus=None) -> SurveyReport:
    """Check every connected bipartite graph with min degree >=
    ceil((n+6)/8) for a verified 2-coloring; zero exceptions expected."""
    if not 4 <= n_lo <= n_hi:
        raise OutOfRange("need 4 <= n_lo <= n_hi")
    if n_hi > ENUMERATION_MAX_N:
        raise TooLarge(f"bipartite survey covers n <= {ENUMERATION_MAX_N}")

    def graphs_for(n):
        thr = -(-(n + 6) // 8)
        if corpus is not None:
            return _corpus_graphs(
                corpus,
                n,
                lambda g: bipartition(g) is not None and degree_stats(g)[1] >= thr,
            )
        return list(enumerate_connected(n, min_degree=thr, bipartite_only=True))

    return _run_survey(
        "bipartite",
        "connected, bipartite, min degree >= ceil((n+6)/8)",
        n_lo,
        n_hi,
        graphs_for,
        jobs,
    )


# ---------------------------------------------------------------------------
# graph6 corpus front end


def read_graph6_file(path) -> list[Graph]:
    """One graph per line; the conventional `>>graph6<<` header is allowed."""
    graphs = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">>"):
                line = line.split("<<", 1)[-1]
            if line:
                graphs.append(from_graph6(line))
    return graphs
