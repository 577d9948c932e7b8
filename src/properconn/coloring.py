"""Edge colorings and exact tests for proper connectivity.

A path is proper when consecutive edges always get different colors;
adjacent edges of the graph itself may share a color freely. The
predicates here answer two questions about a colored graph: is every
vertex pair joined by a proper simple path, and does every pair have two
proper paths whose first colors differ and whose last colors differ.

Everything is decided by exhaustive simple-path enumeration, all of it
by one depth-first search over the proper simple paths from a source,
which settles the targets it reaches and takes an optional step cap and
an optional cut. The checker runs it once from each source, under the
cap, and settles every later vertex it reaches; when that search runs
to the end, the vertices it missed are the failing pairs. Every subpath
of a proper simple path is itself proper and simple, so when the search
steps to a vertex x, each vertex on the current path is joined to x:
one search settles pairs for later sources too, and a source whose
pairs are all settled runs no search. A caller that knows a path may
hand it to the plain check: the checker walks it first, as far as it is
a proper simple path, and settles pairs the same way. An alternately
colored spanning path settles every pair without a search, and no
sequence can change the answer. Past the step cap, the unsettled pairs
go one at a time to the same search, now with one target, no cap and a
cut: it takes only the steps onto a (vertex, last color) state from
which a proper walk reaches the target. One reverse walk table,
searched breadth-first, gives those states. Walks may revisit vertices,
so the table can overcount: it cuts branches, but never accepts a pair.
The table has one state per vertex and color in use; the declared
palette size k does not size it, since a coloring whose k exceeds its
edge count is checked with its colors ranked 1..d.

`complete` is the one search over colorings: every exact coloring search
in the package (minimum palettes, strong sweeps, the 2-color pipeline's
last step, vertex extensions) extends a partial coloring through it.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left

from .errors import ColoringGraphMismatch, Disconnected, NotAPath, TooLarge
from .graph import (
    Graph,
    _edge_ends,
    _items,
    _reach_mask,
    _set,
    _twin_classes,
    _Value,
    is_connected,
)

PROFILE_MAX_N = 16


class EdgeColoring(_Value):
    """A total edge coloring: colors[i] in 1..k colors graph.edges[i]."""

    __slots__ = ("graph", "k", "colors")

    def __init__(self, graph: Graph, k: int, colors: tuple[int, ...]):
        if not isinstance(graph, Graph):
            raise ColoringGraphMismatch(f"a coloring colors a Graph, got {type(graph).__name__}")
        colors = _items(colors, ColoringGraphMismatch, "colors")
        # floats and bools compare like ints, but the checker indexes and
        # shifts by colors, so only ints are colors
        if type(k) is not int or k < 1:
            raise ColoringGraphMismatch(f"palette size must be an integer >= 1, got {k!r}")
        if len(colors) != graph.m:
            raise ColoringGraphMismatch(f"{len(colors)} colors for {graph.m} edges")
        bad = [c for c in colors if type(c) is not int or not 1 <= c <= k]
        if bad:
            raise ColoringGraphMismatch(f"colors {bad} are not integers in 1..{k}")
        _set(self, "graph", graph)
        _set(self, "k", k)
        _set(self, "colors", colors)

    def color(self, u: int, v: int) -> int:
        # ints first: bisect would compare any other type with the edges
        if type(u) is int and type(v) is int:
            edge = (min(u, v), max(u, v))
            i = bisect_left(self.graph.edges, edge)
            if i < len(self.colors) and self.graph.edges[i] == edge:
                return self.colors[i]
        raise ColoringGraphMismatch(f"({u!r},{v!r}) is not an edge")


def make_coloring(g: Graph, k: int, assignment) -> EdgeColoring:
    """Build an EdgeColoring from a dict {edge: color} or a parallel sequence."""
    if isinstance(assignment, dict):
        assignment = _colors_by_edge(g, assignment.items())
    return EdgeColoring(g, k, assignment)


def _colors_by_edge(g: Graph, pairs) -> tuple[int, ...]:
    """Colors in g.edges order from (edge, color) pairs that name each edge
    of g, in either orientation, with one color; an edge that is not a
    pair of ints is ColoringGraphMismatch."""
    normalized = {}
    for edge, c in pairs:
        u, v = _edge_ends(edge, ColoringGraphMismatch)
        key = (u, v) if u < v else (v, u)
        if normalized.setdefault(key, c) != c:
            raise ColoringGraphMismatch(f"conflicting colors for edge {key}")
    if normalized.keys() != set(g.edges):
        raise ColoringGraphMismatch("assignment does not cover the edge set")
    return tuple([normalized[e] for e in g.edges])


# ---------------------------------------------------------------------------
# internal machinery on primitive data (the checker behind every public
# predicate and every node of the completion kernel)


# Steps (edges followed) one source's capped DFS in _Machine.first_bad_pair
# may take before the targets it has not settled go to _Machine.pair_ok.
_DFS_STEPS = 256


class _Machine:
    """Per-coloring search state: color lookups, a reverse walk table, caches.

    dfs_from is the one search over proper simple paths, and
    first_bad_pair runs it in two passes. The first runs it once per
    source that still has an unsettled pair, under the step cap. Each
    such search records in linked[x] the vertices joined to x by a
    proper simple path: the current path's vertices whenever it steps to
    x, since every subpath of a proper simple path is proper and simple.
    In plain mode a path handed to first_bad_pair is walked first and
    records the same way, up to its first step that is not an edge,
    repeats the previous edge's color or revisits a vertex. The second
    pass, only for targets a capped search left unsettled, is pair_ok:
    the same search with one target, no cap, and its steps cut to those
    onto good_states, the states (vertex, last edge color), packed as
    v*k + color-1, from which a proper walk reaches the target, read off
    one reverse step table built on first use. recolor changes one
    edge's color in place and drops that table, which is how the
    completion kernel moves one machine from search node to search node.
    """

    def __init__(self, n: int, k: int, edges, colors):
        self.n = n
        self.k = k
        rows: list[dict[int, int]] = [{} for _ in range(n)]
        for (u, v), c in zip(edges, colors):
            rows[u][v] = c
            rows[v][u] = c
        self.rows = rows
        self._rtrans = None
        self._good: dict[int, int] = {}

    def recolor(self, u: int, v: int, c: int) -> None:
        """Give edge uv color c and drop the tables built from old colors."""
        self.rows[u][v] = self.rows[v][u] = c
        self._rtrans = None
        self._good.clear()

    def good_states(self, v: int) -> int:
        """States (w, last color) from which some proper walk ends at v,
        v's own states included."""
        cached = self._good.get(v)
        if cached is not None:
            return cached
        k = self.k
        block = (1 << k) - 1
        if self._rtrans is None:
            # rtrans[s]: the states one proper step before state s; a
            # step from x to w over color c follows any last color but c
            rtrans = [0] * (self.n * k)
            for w, row in enumerate(self.rows):
                for x, c in row.items():
                    rtrans[w * k + c - 1] |= (block ^ 1 << c - 1) << x * k
            self._rtrans = rtrans
        mask = _reach_mask(self._rtrans, block << v * k, -1)
        self._good[v] = mask
        return mask

    def pair_ok(self, u: int, v: int, strong: bool) -> bool:
        """True when u and v are joined by a proper simple path, or in
        strong mode by two whose first colors differ and whose last
        colors differ.

        dfs_from with v the only target and no step cap, over the steps
        onto a state (vertex, last color) that can still reach v by a
        walk: the walk table cuts the rest, and every step out of v, so a
        pair with no proper walk fails at once.
        """
        k = self.k
        good = self.good_states(v)
        rows = [
            {} if w == v else {x: c for x, c in row.items() if good >> (x * k + c - 1) & 1}
            for w, row in enumerate(self.rows)
        ]
        return not self.dfs_from(u, strong, 1 << v, [0] * self.n, rows, math.inf)[0]

    def dfs_from(
        self, u: int, strong: bool, pending: int, linked, rows=None, steps=None
    ) -> tuple[int, bool]:
        """One DFS over the proper simple paths that start at u.

        pending is the mask of targets not yet known to be good (reached
        by a proper path, or in strong mode by two paths whose first
        colors differ and whose last colors differ). Returns what is
        still pending and whether the DFS ended because no target was
        pending or every proper simple path from u was seen, rather than
        because its steps ran out: _DFS_STEPS, read at each call, unless
        `steps` is given. Each step onto a vertex x ORs the current
        path's vertices into linked[x]: the subpath from any of them to x
        is a proper simple path. The search follows `rows` (per vertex,
        {neighbor: color}): the coloring's own, or a cut of them, which
        costs the capped pass nothing per step.
        """
        if rows is None:
            rows = self.rows
        if steps is None:
            steps = _DFS_STEPS
        ends: dict[int, set[tuple[int, int]]] = {}

        def strong_pair(x: int, start: int, last: int) -> bool:
            seen = ends.setdefault(x, set())
            # the pairs recorded so far hold no strong pair, so only the
            # new one can complete one
            if any(s != start and e != last for s, e in seen):
                return True
            seen.add((start, last))
            return False

        def rec(w: int, visited: int, last: int, start: int) -> bool:
            nonlocal pending, steps
            for x, cx in rows[w].items():
                if cx == last or visited >> x & 1:
                    continue
                linked[x] |= visited
                # colors are >= 1, so a start of 0 means no edge yet
                first = start or cx
                if pending >> x & 1 and (not strong or strong_pair(x, first, cx)):
                    pending ^= 1 << x
                    if not pending:
                        return True
                steps -= 1
                if steps < 0 or rec(x, visited | 1 << x, cx, first):
                    return True
            return False

        rec(u, 1 << u, 0, 0)
        # rec holds itself through its closure cell; unbinding it frees the
        # search's state now rather than at the next cyclic collection
        del rec
        return pending, steps >= 0

    def first_bad_pair(self, strong: bool, path=()):
        """Lexicographically first pair (u, v) that fails, or None.

        Pairs are decided source by source, in order. In plain mode a
        pair (u, v) that an earlier source's search joined by a subpath
        is good already, so it is not pending for u, and u runs no search
        when nothing is pending; strong mode needs two paths per pair and
        gets no such head start.

        In plain mode the vertex sequence `path` is walked first, up to
        the first step that dfs_from would not take (a non-edge, a color
        equal to the previous edge's, a visited or unknown vertex, an
        element that is not an int), and each step marks linked as a
        search step does. The walk only settles pairs that a proper
        simple path joins, so any sequence leaves the answer as it is; a
        proper spanning path settles every pair, and then no search runs.
        """
        n = self.n
        linked = [0] * n
        # only an int is a vertex: 1.0 and True are equal to 1, so they
        # would pass a range test and find vertex 1's row entries
        first = path[0] if path else None
        if not strong and type(first) is int and 0 <= first < n:
            rows = self.rows
            w, last, visited = first, 0, 1 << first
            for x in path[1:]:
                cx = rows[w].get(x) if type(x) is int else None
                if cx is None or cx == last or visited >> x & 1:
                    break
                linked[x] |= visited
                w, last = x, cx
                visited |= 1 << x
            if visited == (1 << n) - 1:
                # a proper spanning path joins every pair by a subpath
                return None
        for u in range(n - 1):
            pending = (1 << n) - (2 << u)
            if not strong:
                pending &= ~linked[u]
                rest = pending
                while rest:
                    low = rest & -rest
                    if linked[low.bit_length() - 1] >> u & 1:
                        pending ^= low
                    rest ^= low
                if not pending:
                    continue
            pending, finished = self.dfs_from(u, strong, pending, linked)
            while pending:
                # a finished DFS saw every proper simple path from u
                v = (pending & -pending).bit_length() - 1
                if finished or not self.pair_ok(u, v, strong):
                    return (u, v)
                pending &= pending - 1
        return None


def _machine_for(c: EdgeColoring) -> _Machine:
    g, k, colors = c.graph, c.k, c.colors
    if k > g.m:
        # the walk table grows with k, which a document declares freely;
        # only equality of colors matters, so rank those in use as 1..d
        rank = {x: i for i, x in enumerate(sorted(set(colors)), 1)}
        k, colors = len(rank), [rank[x] for x in colors]
    return _Machine(g.n, k, g.edges, colors)


class _OutOfTime(Exception):
    pass


# A passing relaxation check costs about as much as a leaf check, so
# subtrees with at most this many leaves are enumerated without pruning.
# Measured over 1, 2, 4 and 8 with the twin-swap prune in place, on the
# benchmark's compute-mix seeds 1, 9 and 17 (2 cores, Python 3.11.7): 1
# and 2 were within 2% of each other and 1-4% ahead of 8, and 2 ran 687
# kernel checks on seed 1 against 673 at 1 and 1,013 at 8.
_PLAIN_LEAVES = 2


def _swap_pairs(g: Graph, ends) -> list[list[tuple[int, int]]]:
    """For each transposition of two consecutive members of a twin class
    of g, the position pairs (i, j), i < j, of the edge order `ends` (all
    of g's edges) that it exchanges, ascending in i; none when every
    class has one vertex."""
    classes = [cls for cls in _twin_classes(g.adj) if len(cls) > 1]
    if not classes:
        return []
    at = {e: p for p, e in enumerate(ends)}
    swaps = []
    for cls in classes:
        for a, b in zip(cls, cls[1:]):
            pairs = []
            for i, (u, v) in enumerate(ends):
                x = b if u == a else a if u == b else u
                y = b if v == a else a if v == b else v
                j = at[(x, y) if x < y else (y, x)]
                if i < j:
                    pairs.append((i, j))
            swaps.append(pairs)
    return swaps


def complete(g: Graph, k: int, fixed, free, strong: bool = False, deadline=None):
    """Lexicographically first k-coloring that extends `fixed` and passes
    the exact check, or None once every completion is ruled out.

    fixed maps edges to colors; free lists the other edges in the order
    they are assigned, and the first witness is the first in that order
    that plain enumeration (colors ascending) would reach. The j-th free
    edge holds its own fresh color k+1+j until it is assigned and again
    after backtracking, so one machine over k + len(free) colors, built
    once per call and recolored in place, is the relaxation at every
    search node; each node runs the exact checker on it. A proper path of
    any completion stays proper there (a fresh color differs from every
    other color), and two paths whose first or last colors differ still
    differ, so a rejected relaxation rules out the whole subtree;
    subtrees of at most _PLAIN_LEAVES leaves skip that check. At a leaf
    nothing is free and the same call is the exact check of the witness.
    The clock is read at every node; passing `deadline` (a
    time.monotonic() value) raises _OutOfTime.

    With nothing fixed the search breaks two symmetries. Colors may be
    relabeled, so they appear in restricted growth order (color c+1 only
    after color c). Twins of g may be swapped: for each swap σ of two
    consecutive members of a twin class, write c∘σ for the coloring that
    gives edge e the color c gives σ(e), compared with c position by
    position in free order.
    Only the pairs (i, j), i < j, of positions that σ exchanges can
    differ, so c∘σ < c exactly when the first such pair, in ascending i,
    whose colors differ has c[i] > c[j]. A node is pruned when its
    assigned prefix already decides that for some swap: scanning σ's
    pairs in ascending i, the first pair that is unassigned (j at or past
    the depth) or differs is a differing one with c[i] > c[j]. Each
    node rescans only the swaps with a pair ending at the position just
    assigned, since no other scan has moved.

    Lemma: neither prune changes the result. Relabeling the colors and
    applying an automorphism of g both map a passing coloring, plain or
    strong, to a passing one, and a twin swap is an automorphism. Let c*
    be the lexicographically least passing coloring. Its restricted
    growth relabeling is no larger, so c* is in restricted growth order,
    and c* <= c*∘σ for every swap σ, so no swap prunes a prefix of c*.
    Every coloring before c* fails, so the search still returns c*, and
    when no coloring passes it still returns None: every witness and
    every exhausted palette is the same as plain enumeration's.
    """
    index = {e: i for i, e in enumerate(g.edges)}
    slots = [index[e] for e in free]
    if len(slots) + len(fixed) != g.m or set(fixed) | set(free) != set(index):
        raise ColoringGraphMismatch("fixed and free edges must split the edge set")
    # fresh relaxation colors start at k+1, so a fixed color there is unsound
    bad = sorted({c for c in fixed.values() if not 1 <= c <= k})
    if bad:
        raise ColoringGraphMismatch(f"fixed colors {bad} outside 1..{k}")
    edges, r = g.edges, len(slots)
    colors = [0] * g.m
    for e, c in fixed.items():
        colors[index[e]] = c
    for j, i in enumerate(slots):
        colors[i] = k + 1 + j
    relaxed = _Machine(g.n, k + r, edges, colors)
    ends = [edges[i] for i in slots]
    symmetric = not fixed
    # swaps_at[j]: the pair lists of the swaps with a pair (i, j)
    swaps_at: list[list[list[tuple[int, int]]]] = [[] for _ in range(r)]
    if symmetric:
        for pairs in _swap_pairs(g, ends):
            for _, j in pairs:
                swaps_at[j].append(pairs)
    chosen = [0] * r

    def swap_is_smaller(depth: int) -> bool:
        # positions 0..depth are assigned
        for pairs in swaps_at[depth]:
            for i, j in pairs:
                if j > depth:
                    break
                a, b = chosen[i], chosen[j]
                if a != b:
                    if a > b:
                        return True
                    break
        return False

    def rec(depth: int, top: int) -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise _OutOfTime
        if depth == r or k ** (r - depth) > _PLAIN_LEAVES:
            if relaxed.first_bad_pair(strong) is not None:
                return False
            if depth == r:
                return True
        u, v = ends[depth]
        swapped = swaps_at[depth]
        for c in range(1, (min(k, top + 1) if symmetric else k) + 1):
            chosen[depth] = c
            if swapped and swap_is_smaller(depth):
                continue
            relaxed.recolor(u, v, c)
            if rec(depth + 1, max(top, c)):
                return True
        relaxed.recolor(u, v, k + 1 + depth)
        return False

    try:
        if not rec(0, 0):
            return None
        rows = relaxed.rows
        return tuple([rows[u][v] for u, v in edges])
    finally:
        # unbound for the same reason as in _Machine.dfs_from, on every way
        # out, since _OutOfTime leaves through rec
        del rec


# ---------------------------------------------------------------------------
# public operations


def is_proper_path(c: EdgeColoring, path) -> bool:
    """True iff the vertex sequence is a simple path whose consecutive
    edges never repeat a color; single-edge (and single-vertex) paths pass."""
    seq = list(path)
    if not seq:
        raise NotAPath("empty vertex sequence")
    g = c.graph
    for w in seq:
        if type(w) is not int or not 0 <= w < g.n:
            raise NotAPath(f"vertex {w!r} is not an int in 0..{g.n - 1}")
    if len(set(seq)) != len(seq):
        raise NotAPath(f"repeated vertex in {seq}")
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            raise NotAPath(f"({a},{b}) is not an edge")
    cols = [c.color(a, b) for a, b in zip(seq, seq[1:])]
    return all(c1 != c2 for c1, c2 in zip(cols, cols[1:]))


def _scan_pairs(c: EdgeColoring, strong: bool, path=()):
    g = c.graph
    if g.n > PROFILE_MAX_N:
        raise TooLarge(f"search limited to n <= {PROFILE_MAX_N}")
    if not is_connected(g):
        raise Disconnected("proper connectivity is defined on connected graphs")
    return _machine_for(c).first_bad_pair(strong, path)


def first_improper_pair(c: EdgeColoring):
    """Lexicographically first vertex pair with no proper path, or None."""
    return _scan_pairs(c, strong=False)


def first_weak_pair(c: EdgeColoring):
    """First pair lacking two proper paths that differ in both the first
    and the last edge color, or None."""
    return _scan_pairs(c, strong=True)


def is_proper_connected(c: EdgeColoring, *, path=()) -> bool:
    """True iff every vertex pair is joined by a proper simple path.

    `path` is a hint, any vertex sequence: the checker walks it before it
    searches (see _Machine.first_bad_pair), which orders its work but
    cannot change the answer. A proper spanning path decides it at once.
    """
    return _scan_pairs(c, False, path) is None


def has_strong_property(c: EdgeColoring) -> bool:
    return first_weak_pair(c) is None
