"""Certificate-producing colorings: trees, bridgeless cores, gluing,
one-vertex extensions, and the 2-color decision pc2_pipeline.

Every operation checks its output with the exact checker before
returning it, exactly once and on the graph it certifies; a certificate
is never trusted on the strength of the construction alone. A path
coloring's check is handed the path, which the checker walks first.
Colorings that are searched for come from the completion kernel
`coloring.complete`, whose passing leaf check is that one check.
Searches are deterministic: fixed candidate orders, and any sampled
candidates come from a seeded generator. pc2_pipeline tries a path that
spans g or 2-dominates it (every vertex off it has two neighbours on it)
first, and returns None only after the kernel has exhausted every
2-coloring.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product

from .coloring import (
    EdgeColoring,
    _coloring_document,
    complete,
    has_strong_property,  # noqa: F401  (perfbench/tracing.py wraps it here)
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


@dataclass(frozen=True)
class PcCertificate:
    """A coloring with its claims: proper connected, and strong when
    `strong` is set; strategy records how it was built. The graph and the
    palette size are the coloring's own, so they cannot disagree with it.

    Every certificate this library builds passed the exact checker
    before it was returned. One read back with certificate_from_json is
    only a claim until verify_certificate passes it.
    """

    coloring: EdgeColoring
    strategy: str
    strong: bool

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
    passes the exact check, or None when none does; with nothing free,
    one exact check of `fixed`. The kernel's passing leaf check is the
    certificate's check, so it is not run again."""
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
    colors = _assignment_to_colors(t, _tree_assignment(t))
    return _certify(t, max(delta, 1), colors, "tree")


def _tree_assignment(t: Graph) -> dict[tuple[int, int], int]:
    """Colors 1..max degree on the edges of tree t, proper at every vertex."""
    assignment: dict[tuple[int, int], int] = {}
    seen = {0}
    stack = [(0, 0)]  # (vertex, color of its parent edge; 0 at the root)
    while stack:
        v, parent_color = stack.pop()
        color = 1
        for w in t.neighbors(v):
            if w in seen:
                continue
            if color == parent_color:
                color += 1
            assignment[min(v, w), max(v, w)] = color
            seen.add(w)
            stack.append((w, color))
            color += 1
    return assignment


def _dominating_path(g: Graph):
    """A path P of g that spans it or 2-dominates it (every vertex off P
    has at least two neighbours on P), as a vertex list, or None.

    One fail-first depth-first search over simple paths. Start vertices
    are tried by degree, then index; candidates by fewest unvisited
    neighbours, then index, each packed as that count << 5 | vertex so
    that plain int order is that order. `one` and `two` are the vertices
    with at least one and at least two neighbours on the path. A path is
    accepted when it spans, or when it dead-ends with every vertex off it
    in `two`. The empty graph has the empty path.

    The search stops after _DFS_STEPS steps, so None is not a verdict:
    the pipeline's kernel decides those graphs.
    """
    if g.n == 0:
        return []
    left = [_DFS_STEPS]
    for packed in sorted(row.bit_count() << 5 | v for v, row in enumerate(g.adj)):
        v = packed & 31
        tail = _extend(g.adj, (1 << g.n) - 1, v, 1 << v, g.adj[v], 0, left)
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


def _color_path(g: Graph, path) -> PcCertificate:
    """Checked k=2 certificate from _path_colors along path; the checker
    walks path first, so a spanning path's check runs no search. Strategy
    "hamilton_path" when the path spans, else "dominating_path"."""
    strategy = "hamilton_path" if len(path) == g.n else "dominating_path"
    return _certify(g, 2, _path_colors(g, path), strategy, path)


# ---------------------------------------------------------------------------
# strong colorings of bridgeless graphs


def _shortest_cycle(g: Graph):
    """Vertex list of a shortest cycle, or None in a forest."""
    best = None
    for u, v in g.edges:
        # BFS u -> v avoiding the edge uv itself
        prev = {u: -1}
        queue = [u]
        while queue:
            nxt = []
            for x in queue:
                for y in g.neighbors(x):
                    if (x, y) in ((u, v), (v, u)) or y in prev:
                        continue
                    prev[y] = x
                    nxt.append(y)
            queue = nxt
            if v in prev:
                break
        if v not in prev:
            continue
        path = [v]
        while path[-1] != u:
            path.append(prev[path[-1]])
        if best is None or len(path) < len(best):
            best = path
    return best


def _ear_decomposition(g: Graph):
    """Cycle-plus-ears cover of a connected bridgeless graph.

    Returns a list of vertex sequences: the first is a closed cycle, each
    later one a path whose endpoints already lie in the covered part and
    whose interior is new. Chords appear as two-vertex ears.
    """
    cycle = _shortest_cycle(g)
    ears = [cycle]
    covered_v = set(cycle)
    covered_e = {
        (min(a, b), max(a, b))
        for a, b in zip(cycle, cycle[1:] + [cycle[0]])
    }
    while True:
        remaining = [e for e in g.edges if e not in covered_e]
        if not remaining:
            return ears
        ear = None
        for x, y in remaining:
            if y in covered_v and x not in covered_v:
                x, y = y, x
            if x not in covered_v:
                continue
            if y in covered_v:
                ear = [x, y]
                break
            # walk from y through fresh vertices until re-hitting the cover
            prev = {y: x}
            queue = [y]
            hit = None
            while queue and hit is None:
                nxt = []
                for a in queue:
                    for b in g.neighbors(a):
                        if b in prev or (a == y and b == x):
                            continue
                        prev[b] = a
                        if b in covered_v:
                            hit = b
                            break
                        nxt.append(b)
                    if hit is not None:
                        break
                queue = nxt
            if hit is None:
                raise HasBridge(f"edge ({x}, {y}) is a bridge; no ear returns")
            # hit == x means a closed ear: walk back through the fresh
            # interior, not straight into the hit vertex
            tail = [hit]
            cur = prev[hit]
            while cur != x:
                tail.append(cur)
                cur = prev[cur]
            tail.append(x)
            ear = tail[::-1]
            break
        if ear is None:
            raise Disconnected("uncovered edges unreachable from the cover")
        ears.append(ear)
        covered_v.update(ear)
        for a, b in zip(ear, ear[1:]):
            covered_e.add((min(a, b), max(a, b)))


def _ear_edge_runs(ears):
    runs = []
    for idx, ear in enumerate(ears):
        seq = ear + [ear[0]] if idx == 0 else ear
        runs.append([(min(a, b), max(a, b)) for a, b in zip(seq, seq[1:])])
    return runs


def _ear_patterns(g: Graph):
    """Deterministic stream of 2-color tuples that alternate colors 1 and
    2 along each ear of an ear decomposition, one phase per ear; seeded
    phases stand in for all of them when there are too many."""
    edge_index = {e: i for i, e in enumerate(g.edges)}
    runs = _ear_edge_runs(_ear_decomposition(g))

    def from_phases(phases):
        colors = [1] * g.m
        for run, phase in zip(runs, phases):
            for i, e in enumerate(run):
                colors[edge_index[e]] = 1 + (i + phase) % 2
        return tuple(colors)

    n_runs = len(runs)
    if (1 << n_runs) <= _PHASE_CAP:
        for phases in product((0, 1), repeat=n_runs):
            yield from_phases(phases)
    else:
        rng = random.Random(0x0EA5 ^ (g.n << 16) ^ g.m)
        for _ in range(_PHASE_CAP):
            yield from_phases([rng.randrange(2) for _ in range(n_runs)])


def strong_coloring_bridgeless(g: Graph) -> PcCertificate:
    """Checked strong certificate for a connected bridgeless graph:
    2 colors when bipartite, at most 3 otherwise.

    The ear-decomposition patterns are tried first, then the completion
    kernel searches every coloring of the palette; there is no sampling
    and no volume guard, only the n <= STRONG_SEARCH_MAX_N cap. Each
    candidate is checked exactly, so the patterns never affect soundness.
    Borozan et al., "Proper connection of graphs", Discrete Math. 312
    (2012), guarantee such a coloring, so an exhausted search is a bug,
    not a result, and raises.
    """
    if g.n > STRONG_SEARCH_MAX_N:
        raise TooLarge(f"strong search limited to n <= {STRONG_SEARCH_MAX_N}")
    if not is_connected(g):
        raise Disconnected("strong coloring needs a connected graph")
    bridges = find_bridges(g)
    if bridges:
        raise HasBridge(f"graph has bridge {bridges[0]}")
    if g.n < 3:
        raise TooSmall("bridgeless coloring needs n >= 3")
    bipartite = bipartition(g) is not None
    strategy = "bipartite_bridgeless" if bipartite else "bridgeless_3"
    for colors in _ear_patterns(g):
        cert = _search(g, 2, dict(zip(g.edges, colors)), (), strategy, strong=True)
        if cert is not None:
            return cert
    k = 2 if bipartite else 3
    cert = _search(g, k, {}, g.edges, strategy, strong=True)
    if cert is None:
        raise VerificationExhausted(
            f"no strong {k}-coloring exists for n={g.n}, m={g.m}; "
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
    it has two neighbours on it), from one capped search
    (`_dominating_path`) and colored by `_path_colors`, whose docstring
    proves that the coloring properly connects g. Else the completion
    kernel over every 2-coloring of g, whose exhaustion is the verdict.
    """
    if g.n > PIPELINE_MAX_N:
        raise TooLarge(f"pipeline limited to n <= {PIPELINE_MAX_N}")
    if not is_connected(g):
        raise Disconnected("only connected graphs have a connection number")

    path = _dominating_path(g)
    if path is not None:
        return _color_path(g, path)
    return _search(g, 2, {}, g.edges, "exhaustive")


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
