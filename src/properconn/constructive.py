"""Certificate-producing colorings: trees, bridgeless cores, gluing,
one-vertex extensions, and the 2-color decision pc2_pipeline.

Every operation checks its output with the exact checker before
returning it, exactly once and on the graph it certifies; a certificate
is never trusted on the strength of the construction alone. A path
coloring's check is handed the path, which the checker walks first.
Colorings that are searched for come from the completion kernel
`coloring.complete`, whose passing leaf check is that one check.
Searches are deterministic: fixed candidate orders, with no sampling.
A strong 2-coloring of a bipartite bridgeless graph is constructed, not
searched for. pc2_pipeline tries a path that spans g or 2-dominates it
(every vertex off it has two neighbours on it) first, and returns None
only after the kernel has exhausted every 2-coloring.
"""

from __future__ import annotations

import json
from itertools import islice, product

from .coloring import (
    PROFILE_MAX_N,
    EdgeColoring,
    _coloring_document,
    complete,
    has_strong_property,
    is_proper_connected,
)
from .errors import (
    ColoringGraphMismatch,
    DegreeTooLow,
    Disconnected,
    HasBridge,
    NotABridge,
    NotATree,
    OverlappingSets,
    TooLarge,
    TooSmall,
    UnsuitableBase,
    VerificationExhausted,
    VerificationFailed,
    VertexOutOfRange,
)
from .graph import (
    Graph,
    _set,
    _Value,
    bipartition,
    degree_stats,
    find_bridges,
    from_edge_list,
    is_connected,
    is_tree,
)
from .hamilton import hamilton_cycle  # noqa: F401  (perfbench/tracing.py wraps it here)
from .hamilton import hamilton_path  # noqa: F401  (perfbench/tracing.py wraps it here)
from .hamilton import hamilton_path_from  # noqa: F401  (perfbench/tracing.py wraps it here)

STRONG_SEARCH_MAX_N = 10
PIPELINE_MAX_N = 16
_PHASE_CAP = 4096
_DFS_STEPS = 1024


class PcCertificate(_Value):
    """A coloring with its claims: proper connected, and strong when
    `strong` is set; strategy records how it was built. The graph and the
    palette size are the coloring's own, so they cannot disagree with it.

    Every certificate this library builds passed the exact checker
    before it was returned. One read back with certificate_from_json is
    only a claim until verify_certificate passes it.
    """

    __slots__ = ("coloring", "strategy", "strong")

    def __init__(self, coloring: EdgeColoring, strategy: str, strong: bool):
        _set(self, "coloring", coloring)
        _set(self, "strategy", strategy)
        _set(self, "strong", strong)

    @property
    def graph(self) -> Graph:
        return self.coloring.graph

    @property
    def k(self) -> int:
        return self.coloring.k


def _certify(g: Graph, k: int, colors, strategy: str, path=None):
    """Wrap a coloring as a plain certificate, or raise if the checker
    refuses it. `path`, a path the coloring alternates along, is
    handed to the checker as a hint to walk before it searches."""
    coloring = EdgeColoring(g, k, tuple(colors))
    if path is None:
        ok = is_proper_connected(coloring)
    else:
        ok = is_proper_connected(coloring, path=path)
    if not ok:
        raise VerificationFailed(
            f"{strategy} construction produced a non proper-connected coloring"
        )
    return PcCertificate(coloring, strategy, False)


def _search(g: Graph, k: int, fixed, free, strategy: str, strong=False, deadline=None):
    """Certificate for the first completion of `fixed` over `free` that
    passes the exact check, or None when none does. The kernel's passing
    leaf check is the certificate's check, so it is not run again."""
    colors = complete(g, k, fixed, free, strong, deadline)
    if colors is None:
        return None
    return PcCertificate(EdgeColoring(g, k, colors), strategy, strong)


def _assignment_to_colors(g: Graph, assignment: dict) -> tuple[int, ...]:
    # g.edges is sorted pairs, so normalized keys suffice
    return tuple(assignment[e] for e in g.edges)


# ---------------------------------------------------------------------------
# trees and paths that span or 2-dominate


def color_tree(t: Graph) -> PcCertificate:
    """Proper edge coloring of a tree with max-degree many colors.

    For trees this is optimal: the unique path between two vertices is
    proper exactly when the edge coloring is proper at every inner vertex.
    """
    if not is_tree(t):
        raise NotATree(f"graph with n={t.n}, m={t.m} is not a tree")
    _, _, delta = degree_stats(t)
    colors = _assignment_to_colors(t, _tree_assignment(t.adj))
    return _certify(t, max(delta, 1), colors, "tree")


def _tree_assignment(rows) -> dict[tuple[int, int], int]:
    """Colors 1..max degree on the edges of the tree with adjacency rows
    rows, proper at every vertex."""
    assignment: dict[tuple[int, int], int] = {}
    seen = 1
    stack = [(0, 0)]  # (vertex, color of its parent edge; 0 at the root)
    while stack:
        v, parent_color = stack.pop()
        rest = rows[v] & ~seen
        seen |= rest
        color = 1
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            if color == parent_color:
                color += 1
            assignment[min(v, w), max(v, w)] = color
            stack.append((w, color))
            color += 1
            rest ^= low
    return assignment


def _dominating_path(adj):
    """A path P of the graph with adjacency rows adj (n = len(adj)) that
    spans it or 2-dominates it (every vertex off P has at least two
    neighbours on P), as a vertex list, or None. It reads only the rows,
    so the survey runs it before it builds a Graph.

    One fail-first depth-first search over simple paths. Start vertices
    are tried by degree, then index; candidates by fewest unvisited
    neighbours, then index, each packed as that count << 5 | vertex so
    that plain int order is that order. `one` and `two` are the vertices
    with at least one and at least two neighbours on the path. A path is
    accepted when it spans, or when it dead-ends with every vertex off it
    in `two`. The empty graph has the empty path.

    The search stops after _DFS_STEPS steps, so None is not a verdict:
    the pipeline's kernel decides those graphs. The 5 bits of the packing
    hold any n <= PIPELINE_MAX_N; larger graphs raise TooLarge.
    """
    n = len(adj)
    if n > PIPELINE_MAX_N:
        raise TooLarge(f"path search limited to n <= {PIPELINE_MAX_N}")
    if n == 0:
        return []
    left = [_DFS_STEPS]
    for packed in sorted(row.bit_count() << 5 | v for v, row in enumerate(adj)):
        v = packed & 31
        tail = _extend(adj, (1 << n) - 1, v, 1 << v, adj[v], 0, left)
        if tail is not None:
            return tail[::-1]
    return None


def _extend(adj, full: int, v: int, visited: int, one: int, two: int, left):
    """_dominating_path's search from the path ending at v: the rest of
    an accepted path from v, reversed, or None. left[0] is the steps
    left. (A module function, not a closure: a closure that calls itself
    is a reference cycle, which only the cyclic collector frees.)"""
    if left[0] <= 0:
        return None
    left[0] -= 1
    unvis = full & ~visited
    rest = adj[v] & unvis
    if not rest:
        return None if unvis & ~two else [v]
    if not rest & rest - 1:
        # one candidate: no list to build or sort
        w = rest.bit_length() - 1
        tail = _extend(adj, full, w, visited | rest, one | adj[w], two | one & adj[w], left)
        if tail is not None:
            tail.append(v)
        return tail
    cands = []
    while rest:
        low = rest & -rest
        w = low.bit_length() - 1
        cands.append((adj[w] & unvis).bit_count() << 5 | w)
        rest ^= low
    cands.sort()
    for packed in cands:
        w = packed & 31
        tail = _extend(adj, full, w, visited | 1 << w, one | adj[w], two | one & adj[w], left)
        if tail is not None:
            tail.append(v)
            return tail
    return None


def _bfs_order(g: Graph) -> list[tuple[int, int]]:
    """The edges of connected g in breadth-first order, the order in
    which the completion kernel assigns them when nothing is fixed.

    The search starts at a vertex of maximum degree, the lowest on ties;
    when a vertex is dequeued, its edges to vertices not yet dequeued
    follow in index order. Every prefix is connected and each edge meets
    the ones before it, so the kernel's early choices already constrain
    the paths its relaxation checks (fail first): on compute-mix's
    palette searches it runs about half the checks of g.edges order.
    """
    adj = g.adj
    if not adj:
        return []
    root = max(range(g.n), key=lambda v: (adj[v].bit_count(), -v))
    order = []
    queued, done = 1 << root, 0
    queue = [root]
    for v in queue:
        done |= 1 << v
        rest = adj[v] & ~done
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            order.append((v, w) if v < w else (w, v))
            if not queued & low:
                queued |= low
                queue.append(w)
            rest ^= low
    return order


def _path_colors(g: Graph, path) -> tuple[int, ...]:
    """2-coloring of g along a path P = p_0 .. p_l that spans or
    2-dominates g: P alternates 1, 2, 1, ...; an off-path vertex x with
    lowest and highest neighbours p_i and p_j on P gets x p_i in the
    color of p_{i-1} p_i (2 when i = 0) and x p_j in the color of
    p_j p_{j+1} (the color p_{l-1} p_l lacks when j = l); every other
    edge gets 1. When P spans, that is P's alternation alone.

    This coloring properly connects g. Pairs on P are joined by subpaths
    of P. From x, leaving through p_i continues rightwards along P and
    leaving through p_j continues leftwards, so x reaches every p_k. For
    off-path x and y, with y's neighbours on P running from p_i' to
    p_j', x p_i .. p_j' y is proper when i < j', and x p_j .. p_i' y when
    i' < j. If neither held, then i' < j' <= i < j <= i', a
    contradiction. Off-path vertices have two neighbours on P, so i < j
    and the two legs are distinct edges.
    """
    at = {v: i for i, v in enumerate(path)}
    color = {}
    for i, (a, b) in enumerate(zip(path, path[1:])):
        color[(a, b) if a < b else (b, a)] = 1 + i % 2
    off = [x for x in g.vertices() if x not in at] if len(path) < g.n else ()
    for x in off:
        on = [at[w] for w in g.neighbors(x) if w in at]
        i, j = min(on), max(on)
        for k, c in ((i, 2 - i % 2), (j, 1 + j % 2)):
            w = path[k]
            color[(x, w) if x < w else (w, x)] = c
    return tuple([color.get(e, 1) for e in g.edges])


def _dominates(adj, path) -> bool:
    """True iff path is a simple path of the graph with adjacency rows
    adj (vertices in range, none repeated, consecutive ones adjacent) and
    every vertex off it has at least two neighbours on it.

    That is the hypothesis of `_path_colors`' lemma, so the graph has
    pc <= 2 and the survey needs no coloring to know it. A spanning path
    is the case with no vertex off it (Borozan et al., Discrete Math. 312,
    2012: a graph with a Hamiltonian path has pc <= 2).
    """
    n = len(adj)
    visited, one, two, last = 0, 0, 0, None
    for x in path:
        if not 0 <= x < n or visited >> x & 1:
            return False
        if last is not None and not adj[last] >> x & 1:
            return False
        visited |= 1 << x
        two |= one & adj[x]
        one |= adj[x]
        last = x
    return not (1 << n) - 1 & ~visited & ~two


def _color_path(g: Graph, path) -> PcCertificate:
    """Checked k=2 certificate from _path_colors along path; the checker
    walks path first, so a spanning path's check runs no search. Strategy
    "hamilton_path" when the path spans, else "dominating_path"."""
    strategy = "hamilton_path" if len(path) == g.n else "dominating_path"
    return _certify(g, 2, _path_colors(g, path), strategy, path)


# ---------------------------------------------------------------------------
# strong colorings of bridgeless graphs


def _bfs_path(adj, start: int, away: int, stop: int):
    """The path [start, ..., z] that breadth-first search from start
    takes to the first vertex z of the mask stop it meets, not using the
    edge from start to away, or None. Vertices of stop are not expanded.
    Each vertex hangs from the first vertex in queue order adjacent to
    it, neighbours are met in index order, and z is the lowest vertex of
    stop adjacent to the first vertex in queue order that has one."""
    prev = [0] * len(adj)
    seen = 1 << start
    queue = [start]
    for v in queue:
        row = adj[v] & ~(1 << away) if v == start else adj[v]
        hit = row & stop
        if hit:
            path = [(hit & -hit).bit_length() - 1, v]
            while v != start:
                v = prev[v]
                path.append(v)
            return path[::-1]
        rest = row & ~seen
        seen |= rest
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            prev[w] = v
            queue.append(w)
            rest ^= low
    return None


def _shortest_cycle(g: Graph):
    """Vertex list of a shortest cycle, or None in a forest. Each edge
    uv closes the cycle from v back along `_bfs_path` from u to v
    without the edge uv; the first shortest in g.edges order wins."""
    best = None
    for u, v in g.edges:
        path = _bfs_path(g.adj, u, v, 1 << v)
        if path is not None and (best is None or len(path) < len(best)):
            best = path[::-1]
    return best


def _ear_decomposition(g: Graph):
    """Cycle-plus-ears cover of a connected bridgeless graph.

    Returns a list of vertex sequences: the first is a closed cycle, each
    later one a path whose endpoints already lie in the covered part and
    whose interior is new. Chords appear as two-vertex ears.

    The cycle is `_shortest_cycle`'s. Each ear starts with the first
    uncovered edge in g.edges order that has a covered end x; from its
    other end y, when not covered, it runs along `_bfs_path` back to the
    cover, not by the edge yx. The cover is a vertex mask and, per
    vertex, the mask of neighbours joined to it by a covered edge.
    """
    adj = g.adj
    cycle = _shortest_cycle(g)
    ears = [cycle]
    covered, done = 0, [0] * g.n
    seq = cycle + cycle[:1]
    while True:
        for a, b in zip(seq, seq[1:]):
            covered |= 1 << a | 1 << b
            done[a] |= 1 << b
            done[b] |= 1 << a
        for x, row in enumerate(adj):
            # neighbours above x across an uncovered edge, with a covered end
            rest = row & ~done[x] & -(2 << x)
            if not covered >> x & 1:
                rest &= covered
            if rest:
                break
        else:
            if tuple(done) != adj:
                raise Disconnected("uncovered edges unreachable from the cover")
            return ears
        y = (rest & -rest).bit_length() - 1
        if not covered >> x & 1:
            x, y = y, x
        if covered >> y & 1:
            ear = [x, y]
        else:
            path = _bfs_path(adj, y, x, covered)
            if path is None:
                raise HasBridge(f"edge ({x}, {y}) is a bridge; no ear returns")
            ear = [x] + path
        ears.append(ear)
        seq = ear


def _ear_edge_runs(ears):
    runs = []
    for idx, ear in enumerate(ears):
        seq = ear + [ear[0]] if idx == 0 else ear
        runs.append([(min(a, b), max(a, b)) for a, b in zip(seq, seq[1:])])
    return runs


def _ear_patterns(g: Graph):
    """2-color tuples that alternate 1, 2, 1, ... along each ear of
    `_ear_decomposition(g)`, one phase per ear: the first _PHASE_CAP
    phase vectors in `product` order, so all phases 0 come first."""
    edge_index = {e: i for i, e in enumerate(g.edges)}
    runs = _ear_edge_runs(_ear_decomposition(g))
    for phases in islice(product((0, 1), repeat=len(runs)), _PHASE_CAP):
        colors = [1] * g.m
        for run, phase in zip(runs, phases):
            for i, e in enumerate(run):
                colors[edge_index[e]] = 1 + (i + phase) % 2
        yield tuple(colors)


def strong_coloring_bridgeless(g: Graph) -> PcCertificate:
    """Checked strong certificate for a connected bridgeless graph:
    2 colors when bipartite, for n <= PROFILE_MAX_N, and at most 3
    otherwise, for n <= STRONG_SEARCH_MAX_N. The caps are tested before
    the ear decomposition is built, since its shortest cycle costs
    O(m (n + m)).

    Bipartite input is constructed, not searched: the first of
    `_ear_patterns`, which alternates 1, 2, 1, ... along every ear, is
    checked once, and a failed check raises VerificationFailed as a bug.
    The lemma below rules that out for any phase on each ear, not only
    for phase 0. Induction over the ears shows that every pair of
    vertices of the covered part H has proper paths in H that leave
    either end in both colors; the ears partition g's edges, so H ends
    as g. Paths in H avoid the interior of a new ear, so joining them to
    pieces of that ear keeps them simple.
    - Parity lemma. In a bipartite graph colored 1 and 2 a proper path
      alternates, so its last color is fixed by its first color and by
      whether its ends lie on the same side. Two proper u-v paths with
      different first colors thus have different last colors, so a
      pair is strong exactly when proper u-v paths leave u in both
      colors, and then they also leave v in both.
    - Base. The first ear is an even cycle colored alternately. Its two
      arcs between any two of its vertices leave each in different
      colors.
    - New ear x = a_0 ... a_l = y, with a new interior (x = y is allowed,
      and then l is even). For an inner vertex w and an old vertex z,
      one path runs along the ear to x, then takes an old x-z path that
      leaves x in the color other than that of a_0 a_1 (none when
      z = x). The other runs along the ear to y, then takes an old y-z
      path that leaves y in the color other than that of a_{l-1} a_l
      (none when z = y). The two leave w by its two ear edges, which
      have different colors.
    - Two inner vertices. One path runs along the ear between them. The
      other leaves the ear at x and crosses by an old x-y path Q that
      leaves x in the color other than that of a_0 a_1, then re-enters
      the ear at y. Q and the ear are proper x-y paths whose first
      colors differ, so by the parity lemma Q's last color differs from
      that of a_{l-1} a_l.
    - Closed ears. When x = y the two ear edges at x have different
      colors, since l is even, so the second path needs no Q.
    - Chords (l = 1) add no new pair, whatever their color.

    Non-bipartite input is searched: each ear pattern with two colors
    goes to the exact checker, and only then does the completion kernel
    run, over every 3-coloring. Every candidate is checked exactly, so
    the patterns never affect soundness. Borozan et al., "Proper
    connection of graphs", Discrete Math. 312 (2012), guarantee a strong
    3-coloring of every bridgeless graph, so an exhausted search is a
    bug, not a result, and raises.
    """
    bipartite = bipartition(g) is not None
    cap = PROFILE_MAX_N if bipartite else STRONG_SEARCH_MAX_N
    if g.n > cap:
        kind = "bipartite" if bipartite else "non-bipartite"
        raise TooLarge(f"strong coloring of {kind} graphs limited to n <= {cap}")
    if not is_connected(g):
        raise Disconnected("strong coloring needs a connected graph")
    bridges = find_bridges(g)
    if bridges:
        raise HasBridge(f"graph has bridge {bridges[0]}")
    if g.n < 3:
        raise TooSmall("bridgeless coloring needs n >= 3")
    for colors in _ear_patterns(g):
        coloring = EdgeColoring(g, 2, colors)
        if has_strong_property(coloring):
            strategy = "bipartite_bridgeless" if bipartite else "bridgeless_3"
            return PcCertificate(coloring, strategy, True)
        if bipartite:
            raise VerificationFailed(
                "bipartite_bridgeless construction produced a coloring that is not strong"
            )
    cert = _search(g, 3, {}, g.edges, "bridgeless_3", strong=True)
    if cert is None:
        raise VerificationExhausted(
            f"no strong 3-coloring exists for n={g.n}, m={g.m}; "
            "this contradicts the guarantee for bridgeless graphs"
        )
    return cert


# ---------------------------------------------------------------------------
# gluing across a bridge


def glue_across_bridge(
    cert_a: PcCertificate,
    cert_b: PcCertificate,
    bridge: tuple[int, int],
    embedding,
) -> PcCertificate:
    """Combine certificates of two bridge halves into one for the whole.

    Each half must contain the bridge as a pendant edge standing in for
    the contracted other side. embedding is a pair of sequences mapping
    each half's vertices to composite labels; the two images may overlap
    only in the bridge's endpoints. The second palette is renamed so both
    halves agree on the bridge color, and the union is re-verified.
    """
    map_a, map_b = embedding
    ga, gb = cert_a.graph, cert_b.graph
    if len(map_a) != ga.n or len(map_b) != gb.n:
        raise VertexOutOfRange("embedding size does not match a half")
    image_a, image_b = set(map_a), set(map_b)
    if len(image_a) != ga.n or len(image_b) != gb.n:
        raise VertexOutOfRange("embedding maps must be injective")
    u, v = bridge
    if image_a & image_b != {u, v}:
        raise OverlappingSets(
            f"halves may overlap only in the bridge ends, got {sorted(image_a & image_b)}"
        )
    labels = image_a | image_b
    n = len(labels)
    if labels != set(range(n)):
        raise VertexOutOfRange("composite labels must be 0..n-1")

    key = (min(u, v), max(u, v))
    assignment: dict[tuple[int, int], int] = {}
    for (x, y), c in zip(ga.edges, cert_a.coloring.colors):
        p, q = map_a[x], map_a[y]
        assignment[min(p, q), max(p, q)] = c
    bridge_color_a = assignment.get(key)
    if bridge_color_a is None:
        raise NotABridge("first half does not contain the bridge edge")
    b_pairs = {}
    for (x, y), c in zip(gb.edges, cert_b.coloring.colors):
        p, q = map_b[x], map_b[y]
        b_pairs[min(p, q), max(p, q)] = c
    if key not in b_pairs:
        raise NotABridge("second half does not contain the bridge edge")
    swap_a, swap_b = bridge_color_a, b_pairs[key]

    def rename(c):
        if c == swap_b:
            return swap_a
        if c == swap_a:
            return swap_b
        return c

    for e, c in b_pairs.items():
        assignment[e] = rename(c)
    composite = from_edge_list(n, assignment)
    if key not in find_bridges(composite):
        raise NotABridge(f"{key} is not a bridge of the composite")
    k = max(cert_a.k, cert_b.k)
    return _certify(composite, k, _assignment_to_colors(composite, assignment), "glue")


# ---------------------------------------------------------------------------
# vertex extensions


def _extension_edges(base: Graph, new_edges) -> list[tuple[int, int]]:
    """The attachment edges of the new vertex w = base.n as sorted pairs
    (v, w), each once; every edge must join w to a base vertex."""
    w = base.n
    attach = set()
    for u, v in new_edges:
        if v == w:
            u, v = v, u
        if u != w:
            raise VertexOutOfRange(f"edge ({u},{v}) does not touch the new vertex {w}")
        if not 0 <= v < w:
            raise VertexOutOfRange(f"edge endpoint {v} outside the base 0..{w - 1}")
        attach.add((v, w))
    return sorted(attach)


def extend_vertex(cert: PcCertificate, new_edges) -> PcCertificate:
    """Absorb one new vertex with >= 2 attachment edges into a 2-color
    certificate, by trying every color assignment on the new edges.

    When none works and the base coloring is proper connected, this
    raises VerificationExhausted, for a case claimed impossible. The
    claim is checked, not proved: a brute force over every connected
    base with n <= 6 and m <= 12, each of its proper-connecting
    2-colorings and each attachment set of two or more vertices
    (1,596,371 cases) found no failure, and a property test extends the
    pipeline's certificates of random bases, which are seldom strong.
    """
    if cert.k != 2:
        raise UnsuitableBase("extension needs a 2-color base certificate")
    base = cert.graph
    attach = _extension_edges(base, new_edges)
    if len(attach) < 2:
        raise DegreeTooLow(f"new vertex needs degree >= 2, got {len(attach)}")
    bigger = from_edge_list(base.n + 1, list(base.edges) + attach)
    base_assignment = dict(zip(base.edges, cert.coloring.colors))
    got = _search(bigger, 2, base_assignment, attach, "extend")
    if got is not None:
        return got
    # checked only now, so a sound base costs nothing extra
    if not is_proper_connected(cert.coloring):
        raise UnsuitableBase("the base coloring is not proper connected")
    raise VerificationExhausted(
        "no 2-color assignment on the new edges works; "
        "for a degree >= 2 attachment this should be impossible"
    )


# ---------------------------------------------------------------------------
# the 2-color decision


def pc2_pipeline(g: Graph):
    """A checked 2-color certificate, or None when g has no 2-coloring.

    Two steps. A path that spans g or 2-dominates it (every vertex off
    it has two neighbours on it), from one capped search on g's rows
    (`_dominating_path`) and colored by `_path_colors`, whose docstring
    proves that the coloring properly connects g. Else the completion
    kernel over every 2-coloring of g, assigned in `_bfs_order`, whose
    exhaustion is the verdict; its witness is the first passing
    coloring in that order. The survey takes the same two steps but
    keeps only the verdict (`survey._examine`).
    """
    if g.n > PIPELINE_MAX_N:
        raise TooLarge(f"pipeline limited to n <= {PIPELINE_MAX_N}")
    if not is_connected(g):
        raise Disconnected("only connected graphs have a connection number")
    path = _dominating_path(g.adj)
    if path is not None:
        return _color_path(g, path)
    return _search(g, 2, {}, _bfs_order(g), "exhaustive")


# ---------------------------------------------------------------------------
# serialization


def certificate_to_json(cert: PcCertificate) -> str:
    payload = {
        "n": cert.graph.n,
        "k": cert.k,
        "edges": [[u, v] for u, v in cert.graph.edges],
        "colors": list(cert.coloring.colors),
        "meta": {
            "strategy": cert.strategy,
            "strong": cert.strong,
        },
    }
    return json.dumps(payload)


def certificate_from_json(text: str) -> PcCertificate:
    coloring, payload = _coloring_document(text)
    meta = payload.get("meta", {})
    if type(meta) is not dict:
        raise ColoringGraphMismatch("bad certificate document: meta is not an object")
    strategy = meta.get("strategy", "exhaustive")
    strong = meta.get("strong", False)
    if type(strategy) is not str or type(strong) is not bool:
        raise ColoringGraphMismatch(
            "bad certificate document: strategy must be a string and strong a boolean"
        )
    return PcCertificate(coloring, strategy, strong)
