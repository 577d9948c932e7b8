"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from properconn import Graph, from_edge_list


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


def friendship_graph() -> Graph:
    # three triangles sharing vertex 0
    return from_edge_list(
        7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]
    )


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
