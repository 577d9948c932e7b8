"""Isomorph-free enumeration of small connected graphs and exhaustive
minimum-degree surveys of the two-color bound.

Augmentation (grow by one vertex, keep one child per class) enumerates
the classes for n <= 9, and the bipartite survey's classes for n <= 13;
the test suite cross-checks it with an independent labeled
adjacency-mask sweep for n <= 7. Children are pruned
by twin classes and a canonical-deletion prefilter. The prefilter also
shows which survivors can meet an isomorph only among their siblings, or
none at all; the others are deduplicated level-wide, each by vertex
invariants (derived from the parent's) plus an exact isomorphism test,
so a level is built without canonical labeling;
enumerate_connected labels each class once, and a survey labels only the
graphs its report prints.
A level with minimum degree >= t grows from levels filtered the same
way; the minimum-degree 1 level is the full level, and the minimum-degree
2 level is filtered from the full level once that is built. A survey
takes its top order first, so its lower orders filter what the top one
grew.
Surveys decide pc <= 2 with pc2_pipeline's two steps and keep only the
verdict (_examine). The path search runs on packed rows, once per parent
whose children a level lists together (_examine_families): a parent's
path that 2-dominates it settles each child whose new vertex has two
neighbours on it. Every other graph gets its own search, and a path that
spans it or 2-dominates it settles it with no Graph and no coloring, by
the lemma that _path_colors proves. Only the other graphs are built, and
go to the exact kernel at k = 2, whose None
is a verdict; those it rules out go to the exact solver, and graphs
whose search budget runs out are reported, never dropped. A solver that
finds a 2-coloring there contradicts the pipeline and raises
VerificationFailed.
"""

from __future__ import annotations

import json
import os
import time
from functools import cache, partial
from itertools import chain, groupby, product

from .coloring import complete
from .constructive import (
    PcCertificate,
    _bfs_order,
    _dominates,
    _dominating_path,
    certificate_to_json,
)
from .constructive import pc2_pipeline  # noqa: F401  (perfbench/tracing.py wraps it here)
from .errors import (
    FixturesMissing,
    OutOfRange,
    SearchBudgetExceeded,
    TooLarge,
    VerificationFailed,
)
from .graph import (
    _KEY_BITS,
    _KEY_MASK,
    Graph,
    _add_class,
    _bipartite_sides,
    _class_entry,
    _deletion_components,
    _pack_rows,
    _set,
    _twin_classes,
    _unpack_rows,
    _Value,
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
BIPARTITE_MAX_N = 13

FIXTURE_RESOURCE = "exceptional_graphs.json"


# ---------------------------------------------------------------------------
# canonical augmentation


_LEVELS: dict[tuple[str, int, int], tuple[int, ...]] = {}


def _attachment_sets(
    kind: str, rows, t: int, weight, least: int = 0, meet: int = 0, classes=None
):
    """The vertex sets the next vertex may attach to, in the graph with
    adjacency rows `rows`, when the child must have minimum degree >= t:
    at least t vertices (and at least one), holding every vertex of
    degree t-1. The bipartite chain attaches within one side only, which
    keeps the child bipartite. Sets of 2 to least-1 vertices are left
    out, and so are the sets of exactly least vertices that meet the
    vertex mask `meet`.

    Each set is yielded as the sum of weight[v] over its vertices v. A
    weight must hold 1 << v in its low len(rows) bits, so the low bits of
    a sum are the set; weights of 1 << v yield the sets' bitmasks.

    Within each twin class (`classes`, by default _twin_classes(rows))
    only a lowest-index prefix is attached to: any other set maps onto
    such a one by an automorphism of the graph that permutes vertices
    within twin classes, and that automorphism, fixing the new vertex,
    carries one child onto the other. Twins share a
    degree, so the vertices of degree t-1 are whole classes. The sets are
    the unions of one prefix per class, which are disjoint, taken in
    itertools.product order."""
    full = (1 << len(rows)) - 1
    sides = [full] if kind == "general" else _bipartite_sides(rows)
    low = sum(1 << v for v, row in enumerate(rows) if row.bit_count() == t - 1)
    prefixes = []
    for cls in _twin_classes(rows) if classes is None else classes:
        sums = [0]
        for v in cls:
            sums.append(sums[-1] + weight[v])
        prefixes.append(sums[-1:] if low >> cls[0] & 1 else sums)
    fewest = max(t, 1)
    for side in sides:
        if low & ~side:
            continue
        options = [[s for s in sums if not s & full & ~side] for sums in prefixes]
        for s in map(sum, product(*options)):
            d = (s & full).bit_count()
            if d >= fewest and not (2 <= d < least or d == least and s & meet):
                yield s


@cache
def _order_tables(m: int) -> tuple:
    """The parts of _children's layout for parents of order m, built once
    per m: the offsets c_at, a_at and r_at of a weight's fields; ones (1 in
    every _KEY_BITS field), guard (every field's top bit) and fields (all
    their bits); by_row[row], the degree and spread bits of a vertex with
    that row, for all 2**m rows; and fixed[v], the bits of v's weight that
    do not depend on the parent. A vertex v with row `row` then weighs
    fixed[v] + by_row[row]."""
    f, n = _KEY_BITS, m + 1
    c_at = m + 8
    a_at = c_at + f * m
    r_at = a_at + f * m
    ones = sum(1 << f * u for u in range(m))
    by_row = [0]
    for row in range(1, 1 << m):
        u = (row & -row).bit_length() - 1
        by_row.append(by_row[row & row - 1] + (1 << m | 1 << c_at + f * u))
    fixed = [
        1 << v | 1 << a_at + f * v | (1 << n * v + m | 1 << n * m + v) << r_at for v in range(m)
    ]
    return c_at, a_at, r_at, ones, ones << f - 1, (1 << f * m) - 1, by_row, fixed


def _children(kind: str, rows, t: int):
    """Yield (route, entry) for each child of the graph with adjacency
    rows `rows` that passes prunes (a) and (b) of _level, in
    attachment-set order: entry is its class entry (graph._class_entry),
    with the new vertex last, and route is what (b) proves about the
    isomorphs it can meet (_level): 0 none, 1 only its siblings, 2 any
    child of the level.

    Nothing is built per child but a few ints. What a set A changes is a
    sum over its vertices, so each vertex v gets one weight and
    `_attachment_sets` sums the weights of a set's vertices. Low to high,
    a weight holds v's bit; v's degree in 8 bits (the sum is the degree
    sum of A, below 256 for n <= 13); the spread of v's row, one _KEY_BITS field per vertex
    holding 1 at v's neighbours (the sum holds c_u = |N(u) & A| in field
    u); 1 in field v (the sum marks A's fields); and the two bits v adds
    to the child's packed rows. All but the degree and the spread are
    fixed per order (_order_tables). From these the keys of the old
    vertices in the child, packed as in a class entry, are one expression
    (graph._vertex_keys): an attached u gains degree 1, neighbour-degree
    sum c_u + |A| and c_u triangles, any other u gains c_u to its
    neighbour-degree sum.

    Prune (b) then runs on all fields at once. A key's top 16 bits are
    the (degree, neighbour-degree sum) that (b) compares, so u outranks
    the new vertex, whose pair is mine = |A| << 8 | (|A| + the degree sum
    of A), when its key is at least (mine + 1) << 8; setting each
    field's top bit (a guard) and subtracting that threshold from every
    field leaves the guard set exactly there. A u whose deletion
    leaves the parent connected is a non-cut vertex of the child, except
    when A = {u}: then u separates the new vertex. Any other u is a
    non-cut vertex of the child when A meets every component of the
    parent minus u. With D the largest degree of a u of the first kind,
    every set of 2 to D-1 vertices is dropped (u outranks the new vertex
    outside or inside A), and so is every set of exactly D >= 2 vertices
    that holds such a u of degree D (it has degree D + 1 in the child),
    so `_attachment_sets` leaves them out. The same test at threshold
    mine << 8 finds the old vertices whose pair ties the new vertex's;
    a child with none goes by its parent's route, 0 when the parent is
    rigid (as many distinct keys as twin classes) and 1 otherwise."""
    m, n = len(rows), len(rows) + 1
    f = _KEY_BITS
    c_at, a_at, r_at, ones, guard, fields, by_row, fixed = _order_tables(m)
    keys = _vertex_keys(rows)
    comps = _deletion_components(rows)
    classes = _twin_classes(rows)
    alone = 0 if len(set(keys)) == len(classes) else 1
    solids = [u for u, parts in enumerate(comps) if len(parts) <= 1]
    cuts = [(1 << f * u + f - 1, parts) for u, parts in enumerate(comps) if len(parts) > 1]
    most = max((keys[u] >> 16 for u in solids), default=0)
    meet = sum(1 << u for u in solids if keys[u] >> 16 == most) if most >= 2 else 0
    solid = sum(1 << f * u + f - 1 for u in solids)
    full = (1 << m) - 1
    weight = [fixed[v] + by_row[row] for v, row in enumerate(rows)]
    base = sum(key << f * u for u, key in enumerate(keys))
    base_rows = sum(row << n * v for v, row in enumerate(rows))
    for s in _attachment_sets(kind, rows, t, weight, most, meet, classes):
        attach = s & full
        d = attach.bit_count()
        around = d + (s >> m & 255)
        c = s >> c_at & fields
        on = s >> a_at & fields
        # the keys without the triangles the attached vertices gain: (b)
        # does not compare them, and a triangle count stays below 256, so
        # adding them later carries into no compared bit
        child = base + (c << 8) + on * (1 << 16 | d << 8)
        mine = d << 8 | around
        over = ((child | guard) - (mine + 1 << 8) * ones) & guard
        if over & (solid & ~(on << f - 1) if d == 1 else solid):
            continue
        if over & ~solid and any(
            over & bit and all(comp & attach for comp in parts) for bit, parts in cuts
        ):
            continue
        tied = ((child | guard) - (mine << 8) * ones) & guard != over
        inner = c & on * _KEY_MASK
        # the new vertex's triangles: half of the sum of inner's fields,
        # which the product with ones gathers in field m-1
        tri = (inner * ones >> f * (m - 1) & _KEY_MASK) >> 1
        top = child + inner | (mine << 8 | tri) << f * m
        yield 2 if tied else alone, top << n * n | base_rows + (s >> r_at)


def _level(kind: str, n: int, t: int) -> tuple[int, ...]:
    """Packed rows (graph._pack_rows) of one representative per connected
    class on n vertices with minimum degree >= t (bipartite ones for that
    kind). The representatives are not canonical forms; the order is
    deterministic.

    Each class H on n vertices is grown from one on n-1 by a new vertex
    attached to a chosen set. Two prunes run before a child is kept:

    (a) the attachment set has at least t vertices, holds every parent
        vertex of degree t-1, and meets each twin class of the parent in
        a lowest-index prefix (`_attachment_sets`);
    (b) the child is dropped when some non-cut vertex has a larger key
        than the new vertex, where a vertex's key is its degree, then
        the sum of its neighbours' degrees, compared in that order
        (the cheap half of McKay's canonical deletion, J. Algorithms 26,
        1998, with an isomorphism-invariant key).

    `_children` runs both, (b) on the child's keys packed in one int. A
    surviving child is kept unless it is isomorphic to a child already
    kept. Where it may meet one (the routes below), `graph._add_class`
    decides: children are bucketed by their sorted vertex invariants, and
    an exact isomorphism test decides within a bucket, so no child is
    labeled. _vertex_keys runs once per parent: a child's keys follow
    from its parent's, and a kept child's are stored with it for the
    comparisons to come.

    Routes. Call the new vertex x of a child top when no other vertex has
    its (degree, neighbour-degree sum) pair.

    Lemma (unique top). A kept child isomorphic to a child C with top x
    is a sibling of C. An isomorphism g from C onto a kept child C' keeps
    pairs and non-cut vertices. x is non-cut and (b) gave it the largest
    pair among C's non-cut vertices, so g(x), the one vertex of C' with
    that pair, has the largest among those of C'; (b) gave the new vertex
    x' of C', also non-cut, the largest too, so x' = g(x). So C - x and
    C' - x' are isomorphic parents, hence one parent P (a level holds
    one per class), and g restricted to P is an automorphism of P that
    carries one attachment set onto the other. C' is top too.

    Lemma (rigid parent). If P has as many distinct keys (_vertex_keys)
    as twin classes, each key class is a twin class, so every
    automorphism of P permutes vertices within twin classes and maps no
    set of (a), a union of class prefixes, onto another. So a top child
    of a rigid P has no isomorph among the other kept children.

    So `_children` routes each child: a top child of a rigid parent is
    kept with no dict, another top child goes through a dict for its
    parent alone, and a tied child through the level-wide dict. A class
    takes one route and every route keeps its first child, so the level
    is the one a single dict would give. At _level("general", 8, 2) the
    routes take 2,683, 3,679 and 3,493 of the 9,855 children.

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

    Shared levels. For n >= 2 the t = 1 level is the t = 0 level: both
    ask for a nonempty set, and the only vertex of degree 0 a parent can
    have is the one of the one-vertex graph, whose one nonempty set holds
    it, so the two builds are one. The t = 2 level is the t = 0
    level filtered to minimum degree >= 2, with the same representatives
    in the same order, so it is filtered when the t = 0 level is built
    already:
    - the parents are the same, since (n-1, 1) is (n-1, 0);
    - a parent's t = 2 sets are exactly its t <= 1 sets whose child has
      minimum degree >= 2 (two vertices or more, every vertex of degree
      1 among them), in the same relative order: a class of degree-1
      vertices keeps only its whole-class option, and the product of the
      fewer options runs in the same order;
    - prune (b) does not depend on t;
    - the dedup keeps the first child of each class, and minimum degree
      is a class invariant.

    On one core of a 2-core machine under Python 3.11, the min-degree
    chain of survey_min_degree(5, 8) takes about 0.25 s, the full general
    level at n=8 about 0.35 s, _level("general", 9, 3) (84,242 classes)
    about 2.6 s at 24 MB peak RSS, the full general level at n=9 (261,080
    classes) about 6.5 s and _level("bipartite", 12, 2) (67,704 classes)
    about 7.3 s.
    """
    if n == 1:
        return (0,) if t == 0 else ()
    if t == 1:
        t = 0
    key = (kind, n, t)
    if key not in _LEVELS:
        full = _LEVELS.get((kind, n, 0))
        if t == 2 and full is not None:
            _LEVELS[key] = tuple(
                packed for packed in full if min(map(int.bit_count, _unpack_rows(n, packed))) >= 2
            )
        else:
            classes: dict = {}
            kept = []
            rows_mask = (1 << n * n) - 1
            for parent in _level(kind, n - 1, max(t - 1, 0)):
                # by route: no dict, the siblings' dict, the level's dict
                dedup = (None, {}, classes)
                for route, entry in _children(kind, _unpack_rows(n - 1, parent), t):
                    packed = _add_class(dedup[route], n, entry) if route else entry & rows_mask
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
    the full general level at n=9 (261,080 classes) takes about 2.5
    minutes, n=8 (11,117 classes) about 3.5 s, and the whole bipartite
    chain at n=9 under 1 s; labeling is nearly all of it.
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


def _splits_into_attached_pairs(g: Graph, v: int, comps) -> bool:
    """True when removing v leaves exactly three 2-vertex components,
    each adjacent to each other and to v (three triangles sharing v);
    comps are the components of g - v as bitmasks."""
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
    # imported here, its one use, so that importing properconn does not
    # load it
    from importlib import resources

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
    comps = _deletion_components(g7.adj)
    if not any(_splits_into_attached_pairs(g7, v, comps[v]) for v in range(7)):
        raise FixturesMissing(
            "the stored 7-vertex graph lost its three-triangles-at-a-cut-vertex shape"
        )
    return g7, g8


# ---------------------------------------------------------------------------
# survey reports


class ExceptionRecord(_Value):
    __slots__ = ("graph6", "pc", "certificate")

    def __init__(self, graph6: str, pc: int, certificate: PcCertificate):
        _set(self, "graph6", graph6)
        _set(self, "pc", pc)
        _set(self, "certificate", certificate)


class UnresolvedRecord(_Value):
    __slots__ = ("graph6", "lower", "upper", "detail")

    def __init__(self, graph6: str, lower: int, upper: int, detail: str):
        _set(self, "graph6", graph6)
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "detail", detail)


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

    def __init__(
        self,
        survey: str,
        n_lo: int,
        n_hi: int,
        filter_desc: str,
        totals: dict[int, int],
        exceptions: list[ExceptionRecord],
        unresolved: list[UnresolvedRecord],
        timing: dict[int, float],
    ):
        self.survey = survey
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.filter_desc = filter_desc
        self.totals = totals
        self.exceptions = exceptions
        self.unresolved = unresolved
        self.timing = timing


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
    """Worker: settle the connected n-vertex graph with these packed rows
    (graph._pack_rows). Returns a picklable outcome tuple.

    Two routes, pc2_pipeline's two steps with only the verdict kept. The
    path search (`_dominating_path`) runs once, on the rows; when its
    path spans the graph or 2-dominates it (`_dominates`), the graph has
    pc <= 2 by `_path_colors`' lemma, with no Graph and no coloring
    built. Every other graph is built once and goes to the completion
    kernel at k = 2, in `_bfs_order`, whose exhaustion is the verdict.

    A None from the kernel proves pc >= 3, so pc_exact starts there, on
    the graph relabeled to its canonical form: the witness then certifies
    the graph a report prints, and only such graphs are ever labeled.
    pc_exact's witness has passed the exact checker already.
    """
    rows = _unpack_rows(n, packed)
    path = _dominating_path(rows)
    if path is not None and _dominates(rows, path):
        return ("two", None)
    g = from_adj_rows(n, rows)
    if complete(g, 2, {}, _bfs_order(g)) is not None:
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


def _examine_families(n: int, graphs) -> list:
    """_examine every graph, in order, with one path search per family:
    a run of two or more graphs that share their first n-1 rows once bit
    n-1 is masked off, that is, a parent P = G - x for the last vertex x.
    A level lists the children of one parent together.

    Lemma: if a path p of P 2-dominates P (`_dominates`) and x has at
    least two neighbours on p, then p 2-dominates G. It is a path of G,
    since P is G - x; a vertex of P off p keeps its two neighbours on p;
    and x is the one vertex of G not in P. So the parent's path is
    searched once, and a child whose last row meets it twice is settled;
    every other graph, and a family of one, takes _examine's route.
    """
    shift = n * (n - 1)
    parent_bits = sum(((1 << n - 1) - 1) << n * v for v in range(n - 1))
    out = []
    for parent, family in groupby(graphs, parent_bits.__and__):
        family = list(family)
        on_path = 0
        if len(family) > 1:
            rows = _unpack_rows(n, parent)[:-1]
            path = _dominating_path(rows)
            if path is not None and _dominates(rows, path):
                on_path = sum(1 << v for v in path)
        for packed in family:
            if (packed >> shift & on_path).bit_count() >= 2:
                out.append(("two", None))
            else:
                out.append(_examine(n, packed))
    return out


def _map_examine(n: int, graphs, jobs: int):
    """_examine every graph, in order, by families (_examine_families),
    on at most jobs worker processes: never more than the machine's CPUs
    or the chunks there are to hand out, and none for one worker or fewer
    than 4 graphs. A chunk boundary may split a family, which costs that
    family one more path search."""
    workers = min(jobs, os.cpu_count() or 1)
    chunk = max(1, len(graphs) // (8 * workers))
    workers = min(workers, -(-len(graphs) // chunk))
    if workers <= 1 or len(graphs) < 4:
        return _examine_families(n, graphs)
    from multiprocessing import get_context

    chunks = [graphs[i : i + chunk] for i in range(0, len(graphs), chunk)]
    with get_context("fork").Pool(workers) as pool:
        outcomes = pool.map(partial(_examine_families, n), chunks, chunksize=1)
    return list(chain.from_iterable(outcomes))


def _run_survey(name, filter_desc, n_lo, n_hi, graphs_for, jobs) -> SurveyReport:
    """Examine graphs_for(n), the packed rows (graph._pack_rows) of one
    graph per class on n vertices, for every n in range. Reports print
    canonical graph6 codes, the only graph6 a survey produces.

    The orders run from the top down, so the top level builds the levels
    below it that it grows from, and the lower orders filter those
    (_level's shared levels); timing[n] is the time spent on order n,
    building included. The report lists every order ascending."""
    totals, timing, found = {}, {}, {}
    for n in range(n_hi, n_lo - 1, -1):
        t0 = time.perf_counter()
        graphs = graphs_for(n)
        totals[n] = len(graphs)
        found[n] = [out for out in _map_examine(n, graphs, jobs) if out[0] != "two"]
        timing[n] = time.perf_counter() - t0
    exceptions, unresolved = [], []
    for n in range(n_lo, n_hi + 1):
        for kind, info in found[n]:
            if kind == "exception":
                pc, witness = info
                exceptions.append(ExceptionRecord(to_graph6(witness.graph), pc, witness))
            else:
                unresolved.append(UnresolvedRecord(*info))
    totals, timing = dict(sorted(totals.items())), dict(sorted(timing.items()))
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
            packed = _add_class(classes, n, _class_entry(g.adj, _vertex_keys(g.adj)))
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
        kn = _pack_rows([(1 << n) - 1 & ~(1 << v) for v in range(n)])
        return [packed for packed in _level("general", n, thr) if packed != kn]

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

    Built-in enumeration and corpora cover n up to BIPARTITE_MAX_N = 13,
    past the general chain's 9: the n=13 level (75,624 classes) takes
    about 35 s. jobs is as for survey_min_degree.
    """
    if not 4 <= n_lo <= n_hi:
        raise OutOfRange("need 4 <= n_lo <= n_hi")
    if jobs < 1:
        raise OutOfRange("jobs must be at least 1")
    if n_hi > BIPARTITE_MAX_N:
        raise TooLarge(f"bipartite survey covers n <= {BIPARTITE_MAX_N}")

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
