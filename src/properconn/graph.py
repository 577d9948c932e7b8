"""Immutable simple graphs: the Graph value class and _Value, the frozen
base of every record class (pickled and copied through __reduce__, which
rebuilds a value from its fields and so checks them again); the graph6
and edge-list text formats; connectivity, twin classes, bridges,
bipartitions and canonical labeling. Vertices are 0..n-1, adjacency is
one bitmask row per vertex, and every function here is pure.
"""

from __future__ import annotations

from .errors import (
    LoopEdge,
    MalformedGraph6,
    TooLarge,
    VertexOutOfRange,
)

CANONICAL_MAX_N = 13
# the most vertices an edge-list file or a coloring document may name:
# its rows are built before the graph is compared with anything, and
# past about 2**60 they cannot even be allocated
DOCUMENT_MAX_N = 1 << 20

# stores a field of a _Value past its blocking __setattr__; bound once, it
# saves each store the lookup of object.__setattr__
_set = object.__setattr__


class _Value:
    """Base of the package's record classes. A subclass names its fields
    in __slots__ and gets:

    - __init__(*fields), which stores the fields by position, in __slots__
      order (no caller passes one by keyword); a wrong count raises TypeError
    - == against its own class only (NotImplemented otherwise), and hash,
      both on the tuple of the fields
    - the repr Name(field=value, ...)
    - __match_args__, the field names
    - pickling and copying through __reduce__, which calls the class
      with the fields again, so a checking __init__ checks them again
    - AttributeError on assigning or deleting any attribute

    Graph, EdgeColoring and PcCertificate check their fields and
    VerificationReport defaults its reason, so those four keep their own
    __init__, which stores with _set (object.__setattr__). An unhashable
    subclass sets __hash__ = None; a mutable one also puts object's
    __setattr__ and __delattr__ back.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.__match_args__ = cls.__slots__

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, fields):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Value):
    """Simple undirected graph: vertex count, sorted edge list, bit rows.

    The checker reads the edge list and every other function the rows,
    so the two must agree: the constructor, which unpickling runs too,
    rebuilds the rows from a tuple of ascending pairs u < v of ints in
    0..n-1 and raises VertexOutOfRange unless they equal adj.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: tuple, adj: tuple):
        if type(n) is not int or n < 0:
            raise VertexOutOfRange(f"vertex count must be an integer >= 0, got {n!r}")
        if type(edges) is not tuple:
            raise VertexOutOfRange(f"edges must be a tuple, got {type(edges).__name__}")
        rows = [0] * n
        last = ()
        for e in edges:
            u, v = e if type(e) is tuple and len(e) == 2 else (None, None)
            if type(u) is not int or type(v) is not int or not 0 <= u < v < n or e <= last:
                raise VertexOutOfRange(f"edges must be ascending pairs u < v in 0..{n - 1}: {e!r}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            last = e
        rows = tuple(rows)
        if rows != adj:
            raise VertexOutOfRange("the rows adj are not those of the edge list")
        _set(self, "n", n)
        _set(self, "edges", edges)
        _set(self, "adj", rows)

    @property
    def m(self) -> int:
        return len(self.edges)

    def _row(self, v: int) -> int:
        # adj[-1] would read a negative vertex as counted from the end
        if type(v) is not int or not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v!r} is not an int in 0..{self.n - 1}")
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._row(v)
        return bool(self._row(u) >> v & 1)

    def degree(self, v: int) -> int:
        return self._row(v).bit_count()

    def neighbors(self, v: int):
        # not a generator, so that a bad vertex raises at the call
        row = self._row(v)
        return (w for w in range(row.bit_length()) if row >> w & 1)

    def vertices(self) -> range:
        return range(self.n)


def _edge_ends(edge, error) -> tuple[int, int]:
    """The two ends of an edge given as a pair of ints (bools are not),
    else the error class `error`, raised with the edge named."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        u = v = None
    if type(u) is not int or type(v) is not int:
        raise error(f"edge {edge!r} is not a pair of ints")
    return u, v


def _items(values, error, what: str) -> tuple:
    """The values of an iterable as a tuple, a copy that the caller's
    object cannot change, else the error class `error`, naming `what`."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{what} must be a sequence, got {type(values).__name__}") from None


def from_edge_list(n: int, pairs) -> Graph:
    """Build a normalized Graph: dedup, sort, symmetrize; loops rejected.
    The vertex count and the edge ends must be ints, each edge a pair."""
    if type(n) is not int:
        raise VertexOutOfRange(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise VertexOutOfRange(f"negative vertex count {n}")
    rows = [0] * n
    for edge in pairs:
        u, v = _edge_ends(edge, VertexOutOfRange)
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return from_adj_rows(n, rows)


def from_adj_rows(n: int, rows) -> Graph:
    """The Graph with these n bitmask rows, which Graph checks."""
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
    if type(text) is not str:
        raise MalformedGraph6(f"a graph6 line is a str, got {type(text).__name__}")
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


def parse_edge_list_text(text: str) -> Graph:
    """The graph of an edge-list text: an "n <count>" line, then one
    "u v" line per edge; count is at most DOCUMENT_MAX_N."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise VertexOutOfRange('edge-list text must start with "n <count>"')
    count = lines[0][2:].strip()
    # int() alone accepts "+3", "1_0" and non-ASCII digits such as "٥"
    if not (count.isascii() and count.isdigit()):
        raise VertexOutOfRange(f"bad vertex count line {lines[0]!r}")
    n = int(count)
    if n > DOCUMENT_MAX_N:
        raise TooLarge(f"edge lists name at most {DOCUMENT_MAX_N} vertices, got {n}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        # isdigit alone accepts digits such as "²" that int() rejects
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
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


def _reach_mask(adj, seeds: int, allowed: int) -> int:
    """Bitmask of the nodes reachable from the seed mask inside the
    allowed mask, where -1 allows every node; adj[x] is the mask of x's
    successors."""
    seen = seeds & allowed
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


def _twin_classes(rows) -> list[list[int]]:
    """The classes of twins of the graph with adjacency rows `rows`,
    ascending: u and v are twins when N(u) - v = N(v) - u. This is an
    equivalence, each class is a clique or an independent set, and any
    permutation of a class that fixes every other vertex is an
    automorphism.

    Twins that are not adjacent have equal rows, and adjacent twins have
    equal closed rows (row | 1 << u), so the classes are the groups of
    equal rows and of equal closed rows. They share one dict, as no row
    equals a closed row N[v]: a row holding v is the row of a neighbour
    w of v, and N[v] holds w while w's row does not. No vertex has twins
    of both kinds: N(u) = N(v) and N[u] = N[w] put w in N(v), so v in
    N[w] = N[u], yet u and v are not adjacent."""
    groups: dict[int, list[int]] = {}
    for u, row in enumerate(rows):
        groups.setdefault(row, []).append(u)
        groups.setdefault(row | 1 << u, []).append(u)
    classes = []
    for u, row in enumerate(rows):
        cls = groups[row]
        if len(cls) == 1:
            cls = groups[row | 1 << u]
        if cls[0] == u:
            classes.append(cls)
    return classes


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    full = (1 << g.n) - 1
    return _reach_mask(g.adj, 1, full) == full


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


# ---------------------------------------------------------------------------
# bridges


def find_bridges(g: Graph) -> list[tuple[int, int]]:
    """All cut-edges, via one iterative DFS with low-links. Sorted pairs,
    sorted list.

    A frame is (v, the neighbours of v not tried yet). A child's frame
    leaves out its parent: in a simple graph, that is exactly the tree
    edge it came by. Every other visited neighbour bounds low[v] by its
    order, and a finished child bounds its parent's low by its own; the
    edge between them is a bridge when the child's low is above the
    parent's order.
    """
    adj = g.adj
    order = [-1] * g.n
    low = [0] * g.n
    bridges = []
    counter = 0
    for root in range(g.n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack = [(root, adj[root])]
        while stack:
            v, rest = stack[-1]
            while rest:
                bit = rest & -rest
                rest ^= bit
                w = bit.bit_length() - 1
                if order[w] < 0:
                    stack[-1] = (v, rest)
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append((w, adj[w] & ~(1 << v)))
                    break
                low[v] = min(low[v], order[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > order[p]:
                        bridges.append((p, v) if p < v else (v, p))
    return sorted(bridges)


# ---------------------------------------------------------------------------
# bipartite structure


class Bipartition(_Value):
    __slots__ = ("sideU", "sideV")


def bipartition(g: Graph):
    """The 2-coloring of a bipartite graph, or None if an odd cycle exists.

    Each component's lowest vertex lands in sideU, so the result is
    deterministic even on disconnected input.
    """
    sides = _bipartite_sides(g.adj)
    if sides is None:
        return None
    return Bipartition(*(frozenset(v for v in g.vertices() if side >> v & 1) for side in sides))


def _bipartite_sides(rows):
    """bipartition on adjacency rows: the two sides as bitmasks, each
    component's lowest vertex in the first, or None.

    Breadth-first layers from each component's lowest vertex alternate
    between the sides. A graph is bipartite iff no edge joins two
    vertices of one layer, and an edge from a layer to the vertices
    already on its side can only be such an edge.
    """
    sides = [0, 0]
    left = (1 << len(rows)) - 1
    while left:
        frontier, i = left & -left, 0
        while frontier:
            sides[i] |= frontier
            left &= ~frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rows[low.bit_length() - 1]
                frontier ^= low
            if reach & sides[i]:
                return None
            frontier = reach & left
            i ^= 1
    return sides


# ---------------------------------------------------------------------------
# canonical labeling


def _canonical_fields(n: int, rows) -> list[int]:
    """The minimum over all permutations of the column-major upper-triangle
    bit vector, as its list of per-position fields.

    Branch and bound: vertices are placed one position at a time; placing
    a vertex at position j contributes a j-bit field, its adjacency to the
    vertices at positions 0..j-1 with position 0 the most significant bit.
    The code is the concatenation of the fields, so codes compare field by
    field. Candidates are tried in ascending field order, and candidates
    that are interchangeable by a transposition automorphism are explored
    only once. A candidate is packed as field << 4 | vertex (n <= 16).

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
        return [0] * n
    order = sorted(range(n), key=lambda v: rows[v].bit_count())
    where = [0] * n
    for i, v in enumerate(order):
        where[v] = i
    rows = [sum(1 << where[w] for w in range(n) if rows[v] >> w & 1) for v in order]
    best_fields: list[int] = []

    def extend(fields, keys, left, tie) -> bool:
        """Search below the prefix with these fields, which equal the best
        code's when tie is set and are smaller otherwise. keys are the
        unplaced vertices (the mask left) sorted by their field against
        the prefix. True when the best code was replaced."""
        nonlocal best_fields
        j = len(fields)
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
            fields.append(chunk)
            child = sorted(
                [(k >> 4 << 1 | sig >> (k & 15) & 1) << 4 | k & 15 for k in keys if k != key]
            )
            if extend(fields, child, rest, chunk == top):
                tie = improved = True
                top = chunk
            fields.pop()
        return improved

    extend([], list(range(n)), (1 << n) - 1, False)
    # extend holds itself through its closure cell; unbinding it leaves no
    # reference cycle for the cyclic collector
    del extend
    return best_fields


def _check_canonical_size(g: Graph) -> None:
    if g.n > CANONICAL_MAX_N:
        raise TooLarge(f"canonical labeling limited to n <= {CANONICAL_MAX_N}")


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant byte string: graph6 of the canonical form.

    The minimum code's fields are graph6's bits in order, so they are
    packed directly.
    """
    _check_canonical_size(g)
    fields = _canonical_fields(g.n, g.adj)
    bits = 0
    for j, field in enumerate(fields):
        bits = bits << j | field
    return _pack_graph6(g.n, bits).encode("ascii")
