"""Exact Hamilton path and cycle search for desk-scale graphs.

All searches are exhaustive backtracking over bitmask states with memoized
dead states, a reachability prune on the unvisited part, and fail-first
candidate ordering (fewest unvisited neighbors first). Dense graphs
resolve essentially without backtracking, so the search's first branch
runs first as a plain descent that skips the prune, the ordering sort
and the memo; only when it dead-ends does the full search run, and it
returns the same paths either way. On bipartite graphs a side count
settles lopsided sides at once and fixes the path's ends when the sides
differ by one.

No library code calls these searches (pc_upper and the pipeline use
constructive's capped path search); tests use them as the exact
reference, and constructive imports them only for the benchmark's tracer.

Cycles are returned as a vertex list whose closing edge back to the first
vertex is implicit.
"""

from __future__ import annotations

from .errors import TooLarge, VertexOutOfRange
from .graph import Graph, _bipartite_sides, _reach_mask, find_bridges, is_connected

HAMILTON_MAX_N = 16


def _check(g: Graph, *vertices):
    if g.n > HAMILTON_MAX_N:
        raise TooLarge(f"exact search limited to n <= {HAMILTON_MAX_N}, got n = {g.n}")
    for v in vertices:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")


def _spanning_path(adj, n: int, start: int, end_mask: int):
    """Spanning simple path from start whose far end lies in end_mask,
    as a vertex list, or None. n <= 32.

    Candidates are tried by fewest unvisited neighbours, then by index;
    each is packed as that count << 5 | vertex so that plain int order is
    that order. A dead state (v, visited) is keyed as visited << 5 | v.
    The path is built by appending on the way back, so it is reversed at
    the end.

    The search's first branch is taken first on its own, as a plain
    descent with no reachability scan, sort or memo. The prune never cuts
    a branch that succeeds and no state is dead before the first
    backtrack, so when the descent ends at a spanning path it is the
    path the search would return; only a dead end runs the search.
    """
    full = (1 << n) - 1
    path = [start]
    v, visited = start, 1 << start
    while visited != full:
        unvis = full & ~visited
        rest = adj[v] & unvis
        if not rest:
            break
        best = 1 << 30
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            packed = (adj[w] & unvis).bit_count() << 5 | w
            if packed < best:
                best = packed
            rest ^= low
        v = best & 31
        visited |= 1 << v
        path.append(v)
    if visited == full and end_mask >> v & 1:
        return path

    dead = set()
    back: list[int] = []

    def rec(v: int, visited: int) -> bool:
        if visited == full:
            if end_mask >> v & 1:
                back.append(v)
                return True
            return False
        key = visited << 5 | v
        if key in dead:
            return False
        unvis = full & ~visited
        rest = adj[v] & unvis
        # v adjacent to every unvisited vertex reaches them all
        if rest != unvis and _reach_mask(adj, 1 << v, unvis | 1 << v) & unvis != unvis:
            dead.add(key)
            return False
        cands = []
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            cands.append((adj[w] & unvis).bit_count() << 5 | w)
            rest ^= low
        cands.sort()
        for packed in cands:
            w = packed & 31
            if rec(w, visited | 1 << w):
                back.append(v)
                return True
        dead.add(key)
        return False

    found = rec(start, 1 << start)
    # rec holds itself, and through it dead, in its closure cell; unbinding
    # it frees them now rather than at the next cyclic collection
    del rec
    return back[::-1] if found else None


def hamilton_path(g: Graph):
    """A spanning simple path, or None.

    Complete in one search: a helper vertex joined to every possible path
    end is appended and a spanning path is grown from it, so every such
    vertex is tried as a path end while dead states stay shared.

    On a bipartite graph with sides of a >= b vertices, consecutive path
    vertices lie on opposite sides, so a spanning path alternates sides:
    it exists only if a - b <= 1, and when a = b + 1 it has an odd
    number of vertices and starts and ends on the larger side. So a gap
    of two or more returns None at once, and a gap of one joins the
    helper to the larger side only and requires the far end there.
    """
    _check(g)
    if g.n == 0:
        return None
    if g.n == 1:
        return [0]
    if not is_connected(g):
        return None
    n = g.n
    ends = (1 << n) - 1
    sides = _bipartite_sides(g.adj)
    if sides is not None:
        gap = sides[0].bit_count() - sides[1].bit_count()
        if abs(gap) >= 2:
            return None
        if gap:
            ends = sides[0] if gap > 0 else sides[1]
    adj = [row | (ends >> v & 1) << n for v, row in enumerate(g.adj)] + [ends]
    found = _spanning_path(adj, n + 1, n, ends)
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
