"""Isomorph-free enumeration of small connected graphs and exhaustive
minimum-degree surveys of the two-color bound.

Augmentation (grow by one vertex, keep one child per class) enumerates
the classes for n <= 9; the test suite cross-checks it with an
independent labeled adjacency-mask sweep for n <= 7. Children are pruned
by twin classes and a canonical-deletion prefilter, and the survivors are
deduplicated by vertex invariants (derived from the parent's) plus an
exact isomorphism test, so a level is built without canonical labeling;
enumerate_connected labels each class once, and a survey labels only the
graphs its report prints.
A level with minimum degree >= t grows from levels filtered the same
way, so the surveys never build the full levels they would discard.
Surveys decide pc <= 2 with pc2_pipeline (a spanning or 2-dominating
path, else the exact kernel at k = 2), whose None is a
verdict; only those graphs go to the exact solver, and graphs whose
search budget runs out are reported, never dropped. A solver that finds
a 2-coloring there contradicts the pipeline and raises
VerificationFailed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import partial
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
    _add_class,
    _child_keys,
    _pack_rows,
    _reach_mask,
    _unpack_rows,
    _vertex_keys,
    bipartition,
    canonical_code,
    degree_stats,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    is_complete,
    is_connected,
    to_graph6,
)
from .solver import pc_exact
from .solver import verify_certificate  # noqa: F401  (perfbench/tracing.py wraps it here)

ENUMERATION_MAX_N = 9

FIXTURE_RESOURCE = "exceptional_graphs.json"


# ---------------------------------------------------------------------------
# canonical augmentation


_LEVELS: dict[tuple[str, int, int], tuple[int, ...]] = {}


def _twin_classes(g: Graph) -> list[list[int]]:
    """The classes of twins, ascending: u and v are twins when
    N(u) - v = N(v) - u. This is an equivalence, each class is a clique or
    an independent set, and any permutation of a class that fixes every
    other vertex is an automorphism."""
    classes: list[list[int]] = []
    done = 0
    for u in g.vertices():
        if done >> u & 1:
            continue
        cls = [u] + [
            v
            for v in range(u + 1, g.n)
            if not done >> v & 1 and g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u)
        ]
        for v in cls:
            done |= 1 << v
        classes.append(cls)
    return classes


def _attachment_sets(kind: str, g: Graph, t: int, least: int = 0):
    """Bitmasks of the vertex sets the next vertex may attach to, when the
    child must have minimum degree >= t: at least t vertices (and at least
    one), holding every vertex of degree t-1. The bipartite chain attaches
    within one side only, which keeps the child bipartite. Sets of 2 to
    least-1 vertices are left out: a partial union that the classes still
    to come cannot grow to `least` vertices is dropped once it has 2.

    Within each twin class only a lowest-index prefix is attached to: any
    other set maps onto such a one by an automorphism of g that permutes
    vertices within twin classes, and that automorphism, fixing the new
    vertex, carries one child onto the other. Twins share a degree, so
    the vertices of degree t-1 are whole classes."""
    if kind == "general":
        sides = [(1 << g.n) - 1]
    else:
        parts = bipartition(g)
        sides = [sum(1 << v for v in side) for side in (parts.sideU, parts.sideV)]
    low = sum(1 << v for v in range(g.n) if g.degree(v) == t - 1)
    prefixes = []
    for cls in _twin_classes(g):
        masks = [0]
        for v in cls:
            masks.append(masks[-1] | 1 << v)
        prefixes.append(masks[-1:] if low >> cls[0] & 1 else masks)
    for side in sides:
        if low & ~side:
            continue
        options = [[m for m in masks if not m & ~side] for masks in prefixes]
        # room: the most vertices the classes not yet taken can add
        room = sum(opts[-1].bit_count() for opts in options)
        attach = [0]
        for opts in options:
            room -= opts[-1].bit_count()
            grown = (a | m for a in attach for m in opts)
            attach = [b for b in grown if b.bit_count() < 2 or b.bit_count() + room >= least]
        for a in attach:
            if a.bit_count() >= max(t, 1):
                yield a


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


def _children(kind: str, g: Graph, t: int):
    """Yield the adjacency rows and vertex keys (graph._vertex_keys) of
    each child of g that passes prunes (a) and (b) of _level, in
    attachment-set order; the new vertex is the last.

    The keys of g are computed once and each child's are derived from
    them (graph._child_keys). Before that, a bitmask test drops a set
    that (b) would drop because of a vertex u whose deletion leaves g
    connected and whose degree in the child exceeds the new vertex's: u
    is a non-cut vertex of the child unless the set is {u} alone. With D
    the largest degree of such a u, the test drops every set of 2 to D-1
    vertices (u has degree D > d outside the set and D >= d inside it),
    so `_attachment_sets` does not build them."""
    rows = g.adj
    keys = _vertex_keys(rows)
    comps = _deletion_components(g)
    # solid: the vertices u with g - u connected; above[x]: the vertices
    # of degree > x
    solid = sum(1 << u for u, parts in enumerate(comps) if len(parts) <= 1)
    above = [sum(1 << u for u, key in enumerate(keys) if key >> 16 > x) for x in range(g.n + 1)]
    most = max((key >> 16 for u, key in enumerate(keys) if solid >> u & 1), default=0)
    for attach in _attachment_sets(kind, g, t, most):
        d = attach.bit_count()
        if solid & (above[d] & ~attach | (above[d - 1] & attach if d >= 2 else 0)):
            continue
        # (degree, sum of the neighbours' degrees) is key >> 8; u stays a
        # non-cut vertex of the child when the new vertex touches every
        # component of g - u
        child = _child_keys(rows, keys, attach)
        mine = child[-1] >> 8
        if any(
            key >> 8 > mine and all(comp & attach for comp in comps[u])
            for u, key in enumerate(child[:-1])
        ):
            continue
        grown = [row | (attach >> v & 1) << g.n for v, row in enumerate(rows)]
        grown.append(attach)
        yield grown, child


def _level(kind: str, n: int, t: int) -> tuple[int, ...]:
    """Packed rows (graph._pack_rows) of one representative per connected
    class on n vertices with minimum degree >= t (bipartite ones for that
    kind). The representatives are not canonical forms; the order is
    deterministic.

    Each class H on n vertices is grown from one on n-1 by a new vertex
    attached to a chosen set. Two prunes run before a child is built:

    (a) the attachment set has at least t vertices, holds every parent
        vertex of degree t-1, and meets each twin class of the parent in
        a lowest-index prefix (`_attachment_sets`);
    (b) the child is dropped when some non-cut vertex has a larger key
        than the new vertex, where a vertex's key is its degree, then
        the sum of its neighbours' degrees, compared in that order
        (the cheap half of McKay's canonical deletion, J. Algorithms 26,
        1998, with an isomorphism-invariant key).

    `_children` runs both: (b) on the child's keys, derived from the
    parent's (`graph._child_keys`), after a bitmask test that drops at
    once most sets (b) drops. A surviving child is kept unless it is
    isomorphic to a child already kept (`graph._add_class`): children
    are bucketed by their sorted vertex invariants, and an exact
    isomorphism test decides within a bucket, so no child is labeled.
    _vertex_keys runs once per parent and once per representative a
    child is compared with.

    Soundness: in H delete a non-cut vertex v of maximum key among the
    non-cut vertices. H - v is connected with minimum degree >= t-1, so
    its class has a representative P in _level(kind, n-1, max(t-1, 0));
    let f map H - v onto P. S = f(N(v)) has deg(v) >= t vertices and holds
    every vertex whose degree dropped to t-1. An automorphism s of P that
    permutes vertices within twin classes carries S to a set that meets
    each class in a prefix, so (a) keeps s(S). Re-attaching v to s(S) gives a child
    isomorphic to H by an isomorphism that fixes the new vertex, and (b)
    depends only on that pair, so the new vertex again has maximum
    non-cut key and (b) keeps it too. In the bipartite chain H - v stays
    bipartite and N(v) lies within one of its sides, and automorphisms
    keep or swap the sides of a connected bipartite graph. So every class
    reaches the dedup, which keeps its first child and, being exact, never
    merges two classes. t = 0 is the unfiltered chain.

    On one core of a 2-core machine under Python 3.11, the min-degree
    chain of survey_min_degree(5, 8) takes about 0.3 s, the full general
    level at n=8 about 0.45 s, _level("general", 9, 3) (84,242 classes)
    about 4-5 s and the full general level at n=9 (261,080 classes) about
    12 s.
    """
    if n == 1:
        return (0,) if t == 0 else ()
    key = (kind, n, t)
    if key not in _LEVELS:
        classes: dict = {}
        kept = []
        for parent in _level(kind, n - 1, max(t - 1, 0)):
            g = from_adj_rows(n - 1, _unpack_rows(n - 1, parent))
            for rows, keys in _children(kind, g, t):
                packed = _add_class(classes, rows, keys)
                if packed is not None:
                    kept.append(packed)
        _LEVELS[key] = tuple(kept)
    return _LEVELS[key]


def enumerate_connected(n: int, min_degree: int = 0, bipartite_only: bool = False):
    """Yield one canonical representative per isomorphism class of
    connected graphs on n vertices with minimum degree >= min_degree, in
    canonical-code order.

    Built-in generation covers 2 <= n <= 9; larger orders must come from
    graph6 corpus files. The level, packed rows of one representative
    per class, is built without labeling (see _level) and each
    representative is then labeled once. A min_degree level is built
    from filtered levels below it, so it costs far less than the full
    one. On one core of a 2-core machine under Python 3.11,
    the full general level at n=9 (261,080 classes) takes about 2
    minutes, n=8 (11,117 classes) about 3.3 s, and the whole bipartite
    chain at n=9 under 1 s.
    """
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


def _examine(n: int, packed: int):
    """Worker: settle the n-vertex graph with these packed rows
    (graph._pack_rows). Returns a picklable outcome tuple.

    A None from pc2_pipeline proves pc >= 3, so pc_exact starts there, on
    the graph relabeled to its canonical form: the witness then certifies
    the graph a report prints, and only such graphs are ever labeled.
    pc_exact's witness has passed the exact checker already.
    """
    g = from_adj_rows(n, _unpack_rows(n, packed))
    cert = pc2_pipeline(g)
    if cert is not None:
        return ("two", None)
    canon = canonical_code(g).decode("ascii")
    try:
        pc, witness = pc_exact(from_graph6(canon), lower=3)
    except SearchBudgetExceeded as exc:
        return ("unresolved", (canon, exc.lower, exc.upper, str(exc)))
    if pc == 2:
        raise VerificationFailed(
            f"{canon}: pc_exact found a 2-coloring that pc2_pipeline ruled out"
        )
    return ("exception", (pc, witness))


def _map_examine(n: int, graphs, jobs: int):
    """_examine every graph, in order, on at most jobs worker processes:
    never more than the machine's CPUs or the chunks there are to hand
    out, and none for one worker or fewer than 4 graphs."""
    examine = partial(_examine, n)
    workers = min(jobs, os.cpu_count() or 1)
    chunk = max(1, len(graphs) // (8 * workers))
    workers = min(workers, -(-len(graphs) // chunk))
    if workers <= 1 or len(graphs) < 4:
        return [examine(packed) for packed in graphs]
    with get_context("fork").Pool(workers) as pool:
        return pool.map(examine, graphs, chunksize=chunk)


def _run_survey(name, filter_desc, n_lo, n_hi, graphs_for, jobs) -> SurveyReport:
    """Examine graphs_for(n), the packed rows (graph._pack_rows) of one
    graph per class on n vertices, for every n in range. Reports print
    canonical graph6 codes, the only graph6 a survey produces."""
    totals, timing = {}, {}
    exceptions, unresolved = [], []
    for n in range(n_lo, n_hi + 1):
        t0 = time.perf_counter()
        graphs = graphs_for(n)
        totals[n] = len(graphs)
        for kind, info in _map_examine(n, graphs, jobs):
            if kind == "exception":
                pc, witness = info
                exceptions.append(ExceptionRecord(to_graph6(witness.graph), pc, witness))
            elif kind == "unresolved":
                unresolved.append(UnresolvedRecord(*info))
        timing[n] = time.perf_counter() - t0
    return SurveyReport(
        name, n_lo, n_hi, filter_desc, totals, exceptions, unresolved, timing
    )


def _corpus_rows(corpus, n, predicate):
    """Packed rows (graph._pack_rows) of the corpus graphs on n vertices
    that are connected and pass the predicate, the first of each class in
    corpus order."""
    classes: dict = {}
    kept = []
    for g in corpus:
        if g.n == n and is_connected(g) and predicate(g):
            packed = _add_class(classes, g.adj, _vertex_keys(g.adj))
            if packed is not None:
                kept.append(packed)
    return kept


def survey_min_degree(n_lo: int = 5, n_hi: int = 8, jobs: int = 1, corpus=None) -> SurveyReport:
    """Check every connected noncomplete graph with min degree >= ceil(n/4)
    for a verified 2-coloring; report the graphs needing more.

    Built-in enumeration and corpora (iterables of Graph) both cover n up
    to 9. Budget shortfalls land in `unresolved`. jobs >= 1 worker
    processes examine the graphs, at most one per CPU.
    """
    if not 5 <= n_lo <= n_hi:
        raise OutOfRange("need 5 <= n_lo <= n_hi")
    if jobs < 1:
        raise OutOfRange("jobs must be at least 1")
    if n_hi > ENUMERATION_MAX_N:
        raise TooLarge(f"minimum-degree survey covers n <= {ENUMERATION_MAX_N}")

    def graphs_for(n):
        thr = -(-n // 4)
        if corpus is not None:
            return _corpus_rows(
                corpus,
                n,
                lambda g: not is_complete(g) and degree_stats(g)[1] >= thr,
            )
        complete = _pack_rows([(1 << n) - 1 & ~(1 << v) for v in range(n)])
        return [packed for packed in _level("general", n, thr) if packed != complete]

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
    ceil((n+6)/8) for a verified 2-coloring; zero exceptions expected.
    jobs is as for survey_min_degree."""
    if not 4 <= n_lo <= n_hi:
        raise OutOfRange("need 4 <= n_lo <= n_hi")
    if jobs < 1:
        raise OutOfRange("jobs must be at least 1")
    if n_hi > ENUMERATION_MAX_N:
        raise TooLarge(f"bipartite survey covers n <= {ENUMERATION_MAX_N}")

    def graphs_for(n):
        thr = -(-(n + 6) // 8)
        if corpus is not None:
            return _corpus_rows(
                corpus,
                n,
                lambda g: bipartition(g) is not None and degree_stats(g)[1] >= thr,
            )
        return _level("bipartite", n, thr)

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
