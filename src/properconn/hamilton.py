"""Exact Hamilton path and cycle search for desk-scale graphs.

All searches are exhaustive backtracking over bitmask states with memoized
dead states, a reachability prune on the unvisited part, and fail-first
candidate ordering (fewest unvisited neighbors first). Dense graphs, the
hot case for the survey, resolve essentially without backtracking.

Cycles are returned as a vertex list whose closing edge back to the first
vertex is implicit.
"""

from __future__ import annotations

from .errors import TooLarge, VertexOutOfRange
from .graph import Graph, _reach_mask, find_bridges, is_connected

HAMILTON_MAX_N = 16


def _check(g: Graph, *vertices):
    if g.n > HAMILTON_MAX_N:
        raise TooLarge(f"exact search limited to n <= {HAMILTON_MAX_N}, got n = {g.n}")
    for v in vertices:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spanning_path(adj, n: int, start: int, end_mask: int):
    """Spanning simple path from start whose far end lies in end_mask,
    as a vertex list, or None."""
    full = (1 << n) - 1
    dead = set()

    def rec(v: int, visited: int):
        if visited == full:
            return [v] if end_mask >> v & 1 else None
        key = (v, visited)
        if key in dead:
            return None
        unvis = full & ~visited
        if _reach_mask(adj, v, unvis | 1 << v) & unvis != unvis:
            dead.add(key)
            return None
        cands = sorted(
            ((adj[w] & unvis).bit_count(), w) for w in _bits(adj[v] & unvis)
        )
        for _, w in cands:
            tail = rec(w, visited | 1 << w)
            if tail is not None:
                return [v] + tail
        dead.add(key)
        return None

    return rec(start, 1 << start)


def hamilton_path(g: Graph):
    """A spanning simple path, or None.

    Complete in one search: a universal helper vertex is appended and a
    spanning path is grown from it, so every real vertex is tried as a
    path end while dead states stay shared.
    """
    _check(g)
    if g.n == 0:
        return None
    if g.n == 1:
        return [0]
    if not is_connected(g):
        return None
    n = g.n
    full = (1 << n) - 1
    adj = list(g.adj) + [full]
    adj = [row | 1 << n if i < n else row for i, row in enumerate(adj)]
    found = _spanning_path(adj, n + 1, n, full)
    return found[1:] if found else None


def hamilton_path_from(g: Graph, u: int):
    """A spanning simple path with one end at u, or None."""
    _check(g, u)
    if g.n == 1:
        return [u]
    if not is_connected(g):
        return None
    return _spanning_path(g.adj, g.n, u, (1 << g.n) - 1)


def hamilton_cycle(g: Graph):
    """A spanning cycle as a vertex list (closing edge implicit), or None."""
    _check(g)
    if g.n < 3 or not is_connected(g) or find_bridges(g):
        return None
    return _spanning_path(g.adj, g.n, 0, g.adj[0])
