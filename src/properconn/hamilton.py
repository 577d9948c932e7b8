"""Exact Hamilton path and cycle search for desk-scale graphs.

All searches are exhaustive backtracking over bitmask states with memoized
dead states, a reachability prune on the unvisited part, and fail-first
candidate ordering (fewest unvisited neighbors first). Dense graphs, the
hot case for the survey, resolve essentially without backtracking.

Cycles are returned as a vertex list whose closing edge back to the first
vertex is implicit.
"""

from __future__ import annotations

from .errors import OutOfRange, SameVertex, TooLarge, VertexOutOfRange
from .graph import Graph, _reach_mask, bridge_block_tree, find_bridges, is_connected

HAMILTON_MAX_N = 16
LONG_SEARCH_MAX_N = 12


def _check(g: Graph, cap: int, *vertices):
    if g.n > cap:
        raise TooLarge(f"exact search limited to n <= {cap}, got n = {g.n}")
    for v in vertices:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spanning_path(adj, n: int, start: int, end_mask: int, solo: int = -1):
    """Spanning simple path from start whose far end lies in end_mask.

    If solo >= 0 that vertex is only allowed as the very last step (used
    when the far endpoint is pinned). Returns the vertex list or None.
    """
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
        cands = []
        for w in _bits(adj[v] & unvis):
            if w == solo and unvis != 1 << w:
                continue
            cands.append(((adj[w] & unvis).bit_count(), w))
        cands.sort()
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
    _check(g, HAMILTON_MAX_N)
    if g.n == 0:
        return None
    if g.n == 1:
        return [0]
    if not is_connected(g):
        return None
    # each leaf of the bridge-block tree pins down one path end
    if len(bridge_block_tree(g).leaves()) > 2:
        return None
    n = g.n
    full = (1 << n) - 1
    adj = list(g.adj) + [full]
    adj = [row | 1 << n if i < n else row for i, row in enumerate(adj)]
    found = _spanning_path(adj, n + 1, n, full)
    return found[1:] if found else None


def hamilton_path_from(g: Graph, u: int):
    """A spanning simple path with one end at u, or None."""
    _check(g, HAMILTON_MAX_N, u)
    if g.n == 1:
        return [u]
    if not is_connected(g):
        return None
    return _spanning_path(g.adj, g.n, u, (1 << g.n) - 1)


def hamilton_path_between(g: Graph, u: int, v: int):
    """A spanning simple path with ends u and v exactly, or None."""
    _check(g, HAMILTON_MAX_N, u, v)
    if u == v:
        raise SameVertex(f"endpoints must differ, both are {u}")
    if not is_connected(g):
        return None
    return _spanning_path(g.adj, g.n, u, 1 << v, solo=v)


def hamilton_cycle(g: Graph):
    """A spanning cycle as a vertex list (closing edge implicit), or None."""
    _check(g, HAMILTON_MAX_N)
    if g.n < 3 or not is_connected(g) or find_bridges(g):
        return None
    return _spanning_path(g.adj, g.n, 0, g.adj[0])


def hamilton_cycle_through(g: Graph, u: int):
    """A spanning cycle listed starting at u, or None."""
    _check(g, HAMILTON_MAX_N, u)
    cycle = hamilton_cycle(g)
    if cycle is None:
        return None
    at = cycle.index(u)
    return cycle[at:] + cycle[:at]


def longest_cycle(g: Graph):
    """A maximum-length simple cycle, or None on acyclic graphs."""
    _check(g, LONG_SEARCH_MAX_N)
    if g.m >= 3:
        spanning = hamilton_cycle(g) if g.n >= 3 else None
        if spanning is not None:
            return spanning
    best: list[int] | None = None
    n = g.n
    adj = g.adj
    for anchor in range(n):
        # anchor is forced to be the least vertex on the cycle
        above = ((1 << n) - 1) & ~((1 << (anchor + 1)) - 1)

        def rec(v: int, visited: int, path: list[int]):
            nonlocal best
            allowed = adj[v] & above & ~visited
            if len(path) >= 3 and adj[v] >> anchor & 1:
                if best is None or len(path) > len(best):
                    best = path[:]
            avail = above & ~visited
            room = _reach_mask(adj, v, avail | 1 << v)
            cap = len(path) + (room & avail).bit_count()
            if best is not None and cap <= len(best):
                return
            for w in _bits(allowed):
                path.append(w)
                rec(w, visited | 1 << w, path)
                path.pop()

        rec(anchor, 1 << anchor, [anchor])
        if best is not None and len(best) == n:
            break
    return best


def has_path_of_length(g: Graph, u: int, v: int, length: int) -> bool:
    """Exact test for a simple u-v path with the given edge count."""
    _check(g, LONG_SEARCH_MAX_N, u, v)
    if u == v:
        raise SameVertex(f"endpoints must differ, both are {u}")
    if not 1 <= length <= g.n - 1:
        raise OutOfRange(f"length must be in 1..{g.n - 1}, got {length}")
    adj = g.adj
    want = length + 1  # vertices on the path
    dead = set()

    def rec(w: int, visited: int) -> bool:
        count = visited.bit_count()
        if count == want:
            return w == v
        key = (w, visited)
        if key in dead:
            return False
        unvis = ((1 << g.n) - 1) & ~visited
        needed = want - count
        reach = _reach_mask(adj, w, unvis | 1 << w)
        if not reach >> v & 1 or (reach & unvis).bit_count() < needed:
            dead.add(key)
            return False
        for x in _bits(adj[w] & unvis):
            if x == v and needed != 1:
                continue
            if rec(x, visited | 1 << x):
                return True
        dead.add(key)
        return False

    return rec(u, 1 << u)
