"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import numpy as np

from properconn import Graph, TooLarge, canonical_code, from_edge_list
from properconn.graph import _reach_mask

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
    """The checker's per-pair search (walk and good-state pruning) run on
    every pair in order, with no per-source DFS in front of it."""
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
        if _reach_mask(adj, 0, full) != full:
            continue
        codes.add(canonical_code(from_edge_list(n, [p for idx, p in enumerate(pairs) if mask >> idx & 1])))
    return sorted(code.decode("ascii") for code in codes)
