"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from math import comb

import numpy as np
from hypothesis import strategies as st

from properconn import Graph, TooLarge, canonical_code, enumeration, from_edge_list, to_graph6
from properconn.enumeration import _add_class, _class_entry, _unpack_rows, _vertex_keys
from properconn.graph import _bipartite_sides, _reach_mask, _twin_classes

SWEEP_MAX_N = 7


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(m: int) -> Graph:
    return from_edge_list(m + 1, [(0, i) for i in range(1, m + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edge_list(10, outer + inner + spokes)


def friendship_graph(k: int = 3) -> Graph:
    """F_k: k triangles sharing vertex 0, the t-th on 0, 2t+1 and 2t+2."""
    edges = []
    for t in range(k):
        edges += [(0, 2 * t + 1), (0, 2 * t + 2), (2 * t + 1, 2 * t + 2)]
    return from_edge_list(2 * k + 1, edges)


def random_connected(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus a coin flip on every remaining pair."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for u, v in combinations(range(n), 2):
        if rng.random() < extra:
            edges.add((u, v))
    return from_edge_list(n, sorted(edges))


@st.composite
def graphs_with_twins(draw, top=12):
    """Rows of a graph on 0..top vertices: a random graph, then copies of
    its vertices, each adjacent to its original (a closed twin) or not
    (an open twin), then a random relabeling."""
    n = draw(st.integers(min_value=0, max_value=min(6, top)))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    for _ in range(draw(st.integers(min_value=0, max_value=top - n)) if n else 0):
        v, closed, w = draw(st.integers(0, len(rows) - 1)), draw(st.booleans()), len(rows)
        row = rows[v] | closed << v
        for u in range(w):
            if row >> u & 1:
                rows[u] |= 1 << w
        rows.append(row)
    label = draw(st.permutations(range(len(rows))))
    relabeled = [0] * len(rows)
    for u, row in enumerate(rows):
        relabeled[label[u]] = sum(1 << label[v] for v in range(len(rows)) if row >> v & 1)
    return relabeled


# --- brute-force oracles ---------------------------------------------------


def all_simple_paths(g: Graph, u: int, v: int):
    """Every simple u-v path as a vertex list, by plain DFS."""
    out = []
    stack = [(u, [u], 1 << u)]
    while stack:
        x, path, seen = stack.pop()
        if x == v:
            out.append(path)
            continue
        for y in g.neighbors(x):
            if not seen >> y & 1:
                stack.append((y, path + [y], seen | 1 << y))
    return out


def spanning_path(g: Graph):
    """A simple path through every vertex of g as a vertex list, or
    None, by plain DFS from each start vertex; for n <= 8."""
    if g.n > 8:
        raise TooLarge("the plain spanning-path search covers n <= 8")
    for start in range(g.n):
        stack = [[start]]
        while stack:
            path = stack.pop()
            if len(path) == g.n:
                return path
            stack += [path + [y] for y in g.neighbors(path[-1]) if y not in path]
    return None


def brute_profile(g: Graph, color_of, u: int, v: int):
    """Set of (start, end) colors over proper simple u-v paths."""
    pairs = set()
    for path in all_simple_paths(g, u, v):
        cols = [color_of(a, b) for a, b in zip(path, path[1:])]
        if all(c1 != c2 for c1, c2 in zip(cols, cols[1:])):
            pairs.add((cols[0], cols[-1]))
    return pairs


def brute_is_proper_connected(g: Graph, color_of) -> bool:
    return all(
        bool(brute_profile(g, color_of, u, v))
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def brute_has_strong(g: Graph, color_of) -> bool:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            prof = brute_profile(g, color_of, u, v)
            if not any(
                s1 != s2 and e1 != e2
                for s1, e1 in prof
                for s2, e2 in prof
            ):
                return False
    return True


def brute_first_bad_pair(g: Graph, color_of, strong: bool):
    """Lexicographically first pair whose brute-force profile fails."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            prof = brute_profile(g, color_of, u, v)
            if strong:
                good = any(s1 != s2 and e1 != e2 for s1, e1 in prof for s2, e2 in prof)
            else:
                good = bool(prof)
            if not good:
                return (u, v)
    return None


def per_pair_first_bad_pair(machine, strong: bool):
    """The checker's per-pair search (its one DFS with one target, cut
    by the reverse walk table) run on every pair in order, with no
    capped per-source pass in front of it."""
    for u in range(machine.n - 1):
        for v in range(u + 1, machine.n):
            if not machine.pair_ok(u, v, strong):
                return (u, v)
    return None


def brute_bridges(g: Graph):
    """An edge is a bridge iff removing it splits its component."""
    out = []
    for u, v in g.edges:
        rest = [e for e in g.edges if e != (u, v)]
        h = from_edge_list(g.n, rest)
        seen = {u}
        queue = [u]
        while queue:
            x = queue.pop()
            for y in h.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if v not in seen:
            out.append((u, v))
    return out


def brute_canonical_code(g: Graph) -> bytes:
    """The definition of the canonical code: over all n! vertex orders,
    the least column-major upper-triangle bit vector, as graph6."""
    n = g.n
    cols = [(i, j) for j in range(1, n) for i in range(j)]
    best = min(
        [g.adj[order[i]] >> order[j] & 1 for i, j in cols]
        for order in permutations(range(n))
    )
    edges = [pair for pair, bit in zip(cols, best) if bit]
    return to_graph6(from_edge_list(n, edges)).encode("ascii")


def brute_automorphisms(rows):
    """Every automorphism of the graph with adjacency rows `rows`, over
    all n! vertex permutations: p with p[u] the image of u."""
    n = len(rows)
    # a permutation that maps every edge onto an edge maps the edges onto
    # the edges, as there are as many
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if rows[u] >> w & 1]
    return [p for p in permutations(range(n)) if all(rows[p[u]] >> p[w] & 1 for u, w in edges)]


# --- independent enumeration oracle: labeled sweep ----------------------------


def _transposition_luts(n: int, pairs, pos):
    """For every label transposition, byte-lookup tables computing the
    induced permutation of adjacency-mask bits."""
    nbits = len(pairs)
    nchunks = (nbits + 7) // 8
    for a in range(n):
        for b in range(a + 1, n):
            perm = []
            for i, j in pairs:
                ii = b if i == a else a if i == b else i
                jj = b if j == a else a if j == b else j
                perm.append(pos[(min(ii, jj), max(ii, jj))])
            luts = []
            for c in range(nchunks):
                lut = np.zeros(256, dtype=np.uint32)
                for v in range(256):
                    w = 0
                    for bit in range(8):
                        p = c * 8 + bit
                        if v >> bit & 1 and p < nbits:
                            w |= 1 << perm[p]
                    lut[v] = w
                luts.append(lut)
            yield luts


def enumerate_connected_by_sweep(n: int):
    """Second, independent generator: scan all labeled adjacency masks,
    keep local lexicographic minima under label transpositions (the true
    class minimum always survives), then dedup by canonical code.

    Returns the sorted canonical graph6 codes. Cross-checking this list
    against the augmentation chain is the enumeration acceptance gate.
    """
    if not 2 <= n <= SWEEP_MAX_N:
        raise TooLarge(f"labeled sweep covers 2 <= n <= {SWEEP_MAX_N}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pos = {pair: idx for idx, pair in enumerate(pairs)}
    nbits = comb(n, 2)
    masks = np.arange(1 << nbits, dtype=np.uint32)
    keep = np.ones(masks.size, dtype=bool)
    for luts in _transposition_luts(n, pairs, pos):
        permuted = luts[0][masks & 0xFF]
        if len(luts) > 1:
            permuted |= luts[1][(masks >> np.uint32(8)) & 0xFF]
        if len(luts) > 2:
            permuted |= luts[2][(masks >> np.uint32(16)) & 0xFF]
        keep &= masks <= permuted
    full = (1 << n) - 1
    codes = set()
    for mask in masks[keep].tolist():
        adj = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if mask >> idx & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        if _reach_mask(adj, 1, full) != full:
            continue
        codes.add(canonical_code(from_edge_list(n, [p for idx, p in enumerate(pairs) if mask >> idx & 1])))
    return sorted(code.decode("ascii") for code in codes)


# --- reference level builder --------------------------------------------------


def vertex_key_from_scratch(rows, u):
    """The vertex key of u that enumeration._level's prune (b) compares,
    in the graph with adjacency rows `rows`, from scratch: its degree, the
    sum of its neighbours' degrees, and its triangles counted as the edges
    among its neighbours."""
    around = [w for w in range(len(rows)) if rows[u] >> w & 1]
    return (
        len(around),
        sum(rows[w].bit_count() for w in around),
        sum(1 for a, b in combinations(around, 2) if rows[a] >> b & 1),
    )


def rejected_by_the_per_vertex_prefilter(rows, attach):
    """Prune (b) of enumeration._level, vertex by vertex from scratch: in
    the child of the graph with adjacency rows `rows` whose new vertex
    attaches to the vertex mask `attach`, some vertex that is non-cut has
    a larger vertex key (vertex_key_from_scratch) than the new vertex."""
    m = len(rows)
    grown = [row | (attach >> v & 1) << m for v, row in enumerate(rows)] + [attach]
    full, mine = (1 << m + 1) - 1, vertex_key_from_scratch(grown, m)
    return any(
        vertex_key_from_scratch(grown, u) > mine
        and _reach_mask(grown, 1 << m, full & ~(1 << u)) == full & ~(1 << u)
        for u in range(m)
    )


def attachment_sets_by_product(kind: str, rows, t: int, weight, least: int = 0, meet: int = 0):
    """enumeration._attachment_sets the plain way: every union of one
    lowest-index prefix per twin class, summed over itertools.product of
    the classes' options, then filtered by size."""
    full = (1 << len(rows)) - 1
    sides = [full] if kind == "general" else _bipartite_sides(rows)
    low = sum(1 << v for v, row in enumerate(rows) if row.bit_count() == t - 1)
    prefixes = []
    for cls in _twin_classes(rows):
        sums = [0]
        for v in cls:
            sums.append(sums[-1] + weight[v])
        prefixes.append(sums[-1:] if low >> cls[0] & 1 else sums)
    sets = []
    for side in sides:
        if low & ~side:
            continue
        options = [[s for s in sums if not s & full & ~side] for sums in prefixes]
        for s in map(sum, product(*options)):
            d = (s & full).bit_count()
            if d >= max(t, 1) and not (2 <= d < least or d == least and s & meet):
                sets.append(s)
    return sets


def size_rule_of(rows):
    """The least and meet that enumeration._children passes to
    _attachment_sets for the graph with adjacency rows `rows`, from
    scratch: D, the largest degree of a vertex whose deletion leaves the
    graph connected, and the mask of those vertices of degree D (none
    when D < 2)."""
    full = (1 << len(rows)) - 1
    solid = {}
    for u, row in enumerate(rows):
        left = full & ~(1 << u)
        if _reach_mask(rows, left & -left, left) == left:
            solid[u] = row.bit_count()
    most = max(solid.values(), default=0)
    meet = sum(1 << u for u, degree in solid.items() if degree == most)
    return most, meet if most >= 2 else 0


def level_through_one_dict(kind: str, n: int, t: int):
    """enumeration._level(kind, n, t) the plain way, with no routes and no
    orbit prune: every child that prunes (a) and (b) keep, built from
    scratch and sent through one enumeration._add_class dict. Prune (a)
    is enumeration._attachment_sets on bitmask weights, with nothing left
    out by size, and (b) the per-vertex prefilter. This is the level the
    builder must reproduce, representatives and order alike."""
    classes, kept = {}, []
    for parent in enumeration._level(kind, n - 1, max(t - 1, 0)):
        rows = _unpack_rows(n - 1, parent)
        for attach in enumeration._attachment_sets(kind, rows, t, [1 << v for v in range(n - 1)]):
            if rejected_by_the_per_vertex_prefilter(rows, attach):
                continue
            grown = [row | (attach >> v & 1) << n - 1 for v, row in enumerate(rows)] + [attach]
            packed = _add_class(classes, n, _class_entry(grown, _vertex_keys(grown)))
            if packed is not None:
                kept.append(packed)
    return tuple(kept)
