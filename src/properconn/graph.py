"""Immutable simple graphs with desk-scale structural algorithms.

Vertices are 0..n-1. Adjacency is kept as one bitmask row per vertex, so
edge tests are O(1) and graphs are cheap to copy and hash. All functions
here are pure; Graph values are safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    LoopEdge,
    MalformedGraph6,
    TooLarge,
    VertexOutOfRange,
)

CANONICAL_MAX_N = 12


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count, sorted edge list, bit rows."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return (self.adj[v]).bit_count()

    def neighbors(self, v: int):
        row = self.adj[v]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def vertices(self) -> range:
        return range(self.n)


def from_edge_list(n: int, pairs) -> Graph:
    """Build a normalized Graph: dedup, sort, symmetrize; loops rejected."""
    if n < 0:
        raise VertexOutOfRange(f"negative vertex count {n}")
    rows = [0] * n
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return from_adj_rows(n, rows)


def from_adj_rows(n: int, rows) -> Graph:
    """Internal-friendly constructor from trusted bitmask rows."""
    # the set bits above the diagonal, not all n(n-1)/2 pairs, so a large
    # n with few edges is cheap. From a list, tuple() takes a tuple of the
    # exact size off CPython's free list; from a generator it grows a new
    # one, parked on that free list when freed (a survey piled up 1 MB)
    edges = []
    for u in range(n):
        rest = rows[u] >> (u + 1)
        while rest:
            low = rest & -rest
            edges.append((u, u + low.bit_length()))
            rest ^= low
    return Graph(n, tuple(edges), tuple(rows))


# ---------------------------------------------------------------------------
# graph6 and edge-list text formats


def _pack_graph6(n: int, bits: int) -> str:
    """Short-form graph6 of the n-vertex graph whose upper-triangle bits,
    column by column, are the binary digits of bits (first bit most
    significant)."""
    total = n * (n - 1) // 2
    pad = -total % 6
    bits <<= pad
    return chr(n + 63) + "".join(
        chr((bits >> shift & 63) + 63) for shift in range(total + pad - 6, -1, -6)
    )


def to_graph6(g: Graph) -> str:
    """Encode in short-form graph6 (n <= 62), no header, no newline."""
    n = g.n
    if n > 62:
        raise TooLarge(f"short-form graph6 requires n <= 62, got {n}")
    bits = 0
    for j in range(1, n):
        for i in range(j):
            bits = bits << 1 | g.adj[i] >> j & 1
    return _pack_graph6(n, bits)


def from_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line; strict about length and padding."""
    line = text.strip()
    if not line:
        raise MalformedGraph6("empty graph6 line")
    first = ord(line[0])
    if first == 126:
        raise MalformedGraph6("long-form graph6 (n > 62) is not supported")
    if not 63 <= first <= 125:
        raise MalformedGraph6(f"bad size byte {line[0]!r}")
    n = first - 63
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = line[1:]
    if len(body) != nchars:
        raise MalformedGraph6(
            f"expected {nchars} data characters for n={n}, got {len(body)}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise MalformedGraph6(f"bad data byte {ch!r}")
        bits.extend(val >> shift & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise MalformedGraph6("nonzero padding bits")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return from_adj_rows(n, rows)


def format_edge_list_text(g: Graph) -> str:
    """Plain text format: one "n <count>" header then "u v" per edge."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise VertexOutOfRange('edge-list text must start with "n <count>"')
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise VertexOutOfRange(f"bad vertex count line {lines[0]!r}") from exc
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise VertexOutOfRange(f"bad edge line {ln!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return from_edge_list(n, pairs)


# ---------------------------------------------------------------------------
# basic structure


def degree_stats(g: Graph) -> tuple[tuple[int, ...], int, int]:
    """Per-vertex degrees plus (min, max); (degrees, 0, 0) on empty graphs."""
    degrees = tuple(row.bit_count() for row in g.adj)
    if not degrees:
        return degrees, 0, 0
    return degrees, min(degrees), max(degrees)


def _reach_mask(adj, start: int, allowed: int) -> int:
    """Bitmask of vertices reachable from start inside the allowed mask."""
    seen = 1 << start & allowed
    frontier = seen
    while frontier:
        nxt = 0
        row = frontier
        while row:
            low = row & -row
            nxt |= adj[low.bit_length() - 1]
            row ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    full = (1 << g.n) - 1
    return _reach_mask(g.adj, 0, full) == full


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


# ---------------------------------------------------------------------------
# bridges


def find_bridges(g: Graph) -> list[tuple[int, int]]:
    """All cut-edges, via one DFS with low-links. Sorted pairs, sorted list."""
    n = g.n
    order = [-1] * n
    low = [0] * n
    bridges = []
    counter = 0

    def dfs(root):
        nonlocal counter
        stack = [(root, -1, iter_neighbors(root))]
        order[root] = low[root] = counter
        counter += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if order[w] == -1:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, iter_neighbors(w)))
                    advanced = True
                    break
                elif w != parent:
                    low[v] = min(low[v], order[w])
                else:
                    parent = -2  # ignore exactly one parent edge
                    stack[-1] = (v, -2, it)
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > order[p]:
                        bridges.append((min(p, v), max(p, v)))

    def iter_neighbors(v):
        # each DFS frame owns a resumable iterator, never a restarting list
        return iter(list(Graph.neighbors(g, v)))

    for v in range(n):
        if order[v] == -1:
            dfs(v)
    return sorted(bridges)


# ---------------------------------------------------------------------------
# bipartite structure


@dataclass(frozen=True)
class Bipartition:
    sideU: frozenset[int]
    sideV: frozenset[int]


def bipartition(g: Graph):
    """The 2-coloring of a bipartite graph, or None if an odd cycle exists.

    Each component's lowest vertex lands in sideU, so the result is
    deterministic even on disconnected input.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side_u = frozenset(v for v in range(g.n) if color[v] == 0)
    side_v = frozenset(v for v in range(g.n) if color[v] == 1)
    return Bipartition(side_u, side_v)


# ---------------------------------------------------------------------------
# canonical labeling


def _canonical_perm(n: int, rows) -> tuple[list[int], list[int]]:
    """Permutation minimizing the column-major upper-triangle bit vector,
    and that minimum code as its list of per-position fields.

    Branch and bound: vertices are placed one position at a time; placing
    a vertex at position j contributes a j-bit field, its adjacency to the
    vertices at positions 0..j-1 with position 0 the most significant bit.
    The code is the concatenation of the fields, so codes compare field by
    field. Candidates are tried in ascending field order, and candidates
    that are interchangeable by a transposition automorphism are explored
    only once. A candidate is packed as field << 4 | vertex (n <= 12).

    A node whose prefix is below the best code's leads to a better code.
    One whose prefix ties it is cut by a lookahead bound. Let c(w) be the
    field of an unplaced vertex w against the prefix, of length j. If w
    lands at position j+i, its field there is c(w) followed by i bits for
    the vertices placed in between, so it is at least c(w) << i. Placing
    the unplaced vertices in ascending c order makes these bounds
    lexicographically least: a completion whose fields equal the bounds
    up to position j+i-1 has placed the i smallest c values there, so its
    vertex at j+i has c at least the next one. So the node's sorted
    candidate list bounds every completion's fields from below, and when
    that bound is not below the best code's remaining fields, no
    completion beats the best and the node returns. When a deeper call
    replaces the best code, the new code extends the current prefix, so
    the prefix ties it from then on.

    The search runs on the vertices renumbered in ascending degree. The
    minimum code does not depend on the numbering, but sparse vertices
    tend to lead it, so ties tried in that order reach a near-best code
    sooner and the bound cuts more.
    """
    if n <= 1:
        return list(range(n)), [0] * n
    order = sorted(range(n), key=lambda v: rows[v].bit_count())
    where = [0] * n
    for i, v in enumerate(order):
        where[v] = i
    rows = [sum(1 << where[w] for w in range(n) if rows[v] >> w & 1) for v in order]
    best_fields: list[int] = []
    best_perm: list[int] = []

    def extend(perm, fields, keys, left, tie) -> bool:
        """Search below the prefix perm, whose fields equal the best code's
        when tie is set and are smaller otherwise. keys are the unplaced
        vertices (the mask left) sorted by their field against perm.
        True when the best code was replaced."""
        nonlocal best_fields, best_perm
        j = len(perm)
        if tie:
            i = 0
            for key in keys:
                bound, field = key >> 4 << i, best_fields[j + i]
                if bound != field:
                    if bound > field:
                        return False
                    break
                i += 1
            else:
                return False
        if j == n - 1:
            # past the lookahead, the one vertex left completes a better code
            best_fields = fields + [keys[0] >> 4]
            best_perm = perm + [keys[0] & 15]
            return True
        improved = False
        top = best_fields[j] if tie else -1
        seen_rows: list[tuple[int, int, int]] = []
        for key in keys:
            chunk, v = key >> 4, key & 15
            if tie and chunk > top:
                break
            rest = left & ~(1 << v)
            sig = rows[v] & rest
            dup = False
            for c_prev, v_prev, s_prev in seen_rows:
                if c_prev == chunk and s_prev & ~(1 << v) == sig & ~(1 << v_prev):
                    dup = True
                    break
            if dup:
                continue
            seen_rows.append((chunk, v, sig))
            perm.append(v)
            fields.append(chunk)
            child = sorted(
                [(k >> 4 << 1 | sig >> (k & 15) & 1) << 4 | k & 15 for k in keys if k != key]
            )
            if extend(perm, fields, child, rest, chunk == top):
                tie = improved = True
                top = chunk
            perm.pop()
            fields.pop()
        return improved

    extend([], [], list(range(n)), (1 << n) - 1, False)
    # extend holds itself through its closure cell; unbinding it leaves no
    # reference cycle for the cyclic collector
    del extend
    return [order[v] for v in best_perm], best_fields


def _check_canonical_size(g: Graph) -> None:
    if g.n > CANONICAL_MAX_N:
        raise TooLarge(f"canonical labeling limited to n <= {CANONICAL_MAX_N}")


def canonical_form(g: Graph) -> Graph:
    """Relabel to the canonical representative of the isomorphism class."""
    _check_canonical_size(g)
    perm, _ = _canonical_perm(g.n, g.adj)
    rows = [0] * g.n
    for j in range(g.n):
        for i in range(j):
            if g.adj[perm[i]] >> perm[j] & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return from_adj_rows(g.n, rows)


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant byte string: graph6 of the canonical form.

    The minimum code's fields are graph6's bits in order, so they are
    packed directly rather than through canonical_form.
    """
    _check_canonical_size(g)
    _, fields = _canonical_perm(g.n, g.adj)
    bits = 0
    for j, field in enumerate(fields):
        bits = bits << j | field
    return _pack_graph6(g.n, bits).encode("ascii")


# ---------------------------------------------------------------------------
# isomorphism classes without labeling


def _vertex_keys(rows) -> list[int]:
    """Per-vertex invariant packed in one int: the degree, then the sum of
    the neighbours' degrees, then the triangles through the vertex. An
    isomorphism maps every vertex to one with the same key."""
    degrees = [row.bit_count() for row in rows]
    keys = []
    for row in rows:
        around = twice_triangles = 0
        rest = row
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            around += degrees[w]
            twice_triangles += (row & rows[w]).bit_count()
            rest ^= low
        keys.append(row.bit_count() << 16 | around << 8 | twice_triangles >> 1)
    return keys


def _child_keys(rows, keys, attach: int) -> list[int]:
    """_vertex_keys of the graph that rows grows into when a new last
    vertex is joined to the vertex set attach, derived from keys, the
    _vertex_keys of rows. With d = |attach| and c_u attached neighbours
    of u, an attached u gains degree 1, neighbour-degree sum c_u + d and
    c_u triangles; any other u gains c_u to its neighbour-degree sum. The
    new vertex has degree d, neighbour-degree sum d plus the attached
    degrees, and one triangle per edge inside attach."""
    d = attach.bit_count()
    child = []
    around = twice_inner = 0
    for u, row in enumerate(rows):
        c = (row & attach).bit_count()
        if attach >> u & 1:
            child.append(keys[u] + (1 << 16 | (c + d) << 8 | c))
            around += keys[u] >> 16
            twice_inner += c
        else:
            child.append(keys[u] + (c << 8))
    child.append(d << 16 | (d + around) << 8 | twice_inner >> 1)
    return child


def _isomorphic(a, keys_a, b, keys_b) -> bool:
    """Exact isomorphism test of the graphs with adjacency rows a and b.

    Backtracking over every bijection that maps each vertex of a to a
    vertex of b with the same key; since every isomorphism keeps keys,
    none is missed. The vertex of a placed next is the one with the most
    already-placed neighbours, ties going to the rarest key and then to
    the lowest index, and a vertex of b is accepted only when its placed
    neighbours are exactly the images of the placed neighbours of the
    vertex of a it receives.
    """
    n = len(a)
    if sorted(keys_a) != sorted(keys_b):
        return False
    by_key: dict[int, int] = {}
    for w, key in enumerate(keys_b):
        by_key[key] = by_key.get(key, 0) | 1 << w
    cands = [by_key[key] for key in keys_a]
    # score[u] packs (placed neighbours, -candidates, -u) for an unplaced
    # u, so the largest score is the next vertex; placing v adds one
    # placed neighbour to each unplaced neighbour of v
    s = n.bit_length() + 1
    score = [(n - mask.bit_count()) << s | n - 1 - u for u, mask in enumerate(cands)]
    order: list[int] = []
    placed = 0
    for _ in range(n):
        v = n - 1 - (max(score) & (1 << s) - 1)
        order.append(v)
        placed |= 1 << v
        score[v] = -1
        rest = a[v] & ~placed
        while rest:
            low = rest & -rest
            score[low.bit_length() - 1] += 1 << 2 * s
            rest ^= low
    back = [[j for j in range(i) if a[order[i]] >> order[j] & 1] for i in range(n)]
    # frees[i]: candidates for position i not tried yet; needs[i]: the
    # images of its placed neighbours, which its image's placed
    # neighbours must equal
    image, needs, frees = [0] * n, [0] * n, [0] * n
    frees[0] = cands[order[0]]
    used, i = 0, 0
    while True:
        free = frees[i]
        if not free:
            if i == 0:
                return False
            i -= 1
            used ^= 1 << image[i]
            continue
        low = free & -free
        frees[i] = free ^ low
        w = low.bit_length() - 1
        if b[w] & used != needs[i]:
            continue
        image[i] = w
        used |= low
        i += 1
        if i == n:
            return True
        need = 0
        for j in back[i]:
            need |= 1 << image[j]
        needs[i] = need
        frees[i] = cands[order[i]] & ~used


def _pack_rows(rows) -> int:
    """Adjacency rows of an n-vertex graph packed in one int, row v at
    bit n*v."""
    n = len(rows)
    packed = 0
    for row in reversed(rows):
        packed = packed << n | row
    return packed


def _unpack_rows(n: int, packed: int) -> list[int]:
    """The adjacency rows that _pack_rows packed for an n-vertex graph."""
    full = (1 << n) - 1
    return [packed >> n * v & full for v in range(n)]


def _add_class(classes: dict, rows, keys):
    """Add the graph with these adjacency rows and vertex keys
    (_vertex_keys, which the caller supplies) to classes unless a graph
    isomorphic to it is there already. Returns its packed rows
    (_pack_rows) when it was added, else None.

    classes holds graphs of one order. It maps the hash of a graph's
    sorted vertex keys (hashes of int tuples do not depend on
    PYTHONHASHSEED) to its one representative, or to a list of them when
    non-isomorphic graphs share the hash. A representative is stored as
    its packed rows only; its keys are recomputed on a collision.
    """
    n = len(rows)
    slot = hash(tuple(sorted(keys)))
    packed = _pack_rows(rows)
    held = classes.get(slot)
    if held is None:
        classes[slot] = packed
        return packed
    for rep in [held] if type(held) is int else held:
        rep_rows = _unpack_rows(n, rep)
        if _isomorphic(rows, keys, rep_rows, _vertex_keys(rep_rows)):
            return None
    if type(held) is int:
        classes[slot] = [held, packed]
    else:
        held.append(packed)
    return packed
