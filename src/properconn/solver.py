"""Exact computation of the minimum palette for proper connectivity.

Upper bounds come from constructions (complete, a spanning or
2-dominating path, spanning tree). Lower bounds are proved: the most
bridges at any one vertex, and every palette that the exhaustive search
ran out of, plus the definitional fact that only complete graphs work
with one color. The search budget is wall-clock capped (PC_BUDGET_MS);
running out is reported as a bracketing interval, never as a silent
wrong answer.
"""

from __future__ import annotations

import os
import time

from .coloring import (
    PROFILE_MAX_N,
    _OutOfTime,
    first_improper_pair,
    first_weak_pair,
    has_strong_property,
    is_proper_connected,
)
from .constructive import (
    PcCertificate,
    _bfs,
    _bfs_order,
    _certify,
    _color_path,
    _color_spanning_tree,
    _dominating_path,
    _search,
    color_tree,
)
from .errors import Disconnected, OutOfRange, PcError, SearchBudgetExceeded, TooLarge
from .graph import (
    Graph,
    _set,
    _Value,
    degree_stats,
    find_bridges,
    is_complete,
    is_connected,
)


def _budget_deadline():
    """time.monotonic() deadline from PC_BUDGET_MS (milliseconds), or None
    when the variable is unset or empty; any other value that is not a
    non-negative integer raises OutOfRange."""
    raw = os.environ.get("PC_BUDGET_MS", "")
    if not raw:
        return None
    problem = f"PC_BUDGET_MS must be a non-negative integer of milliseconds, got {raw!r}"
    if not (raw.isascii() and raw.isdigit()):
        raise OutOfRange(problem)
    try:
        return time.monotonic() + int(raw) / 1000.0
    except (OverflowError, ValueError):
        # past 4,300 digits the value is no int, past about 10**308 ms no float
        raise OutOfRange(problem) from None


def pc_upper(g: Graph) -> PcCertificate:
    """A verified certificate bounding the palette from above.

    Complete graphs get one color. A tree (m = n-1) of max degree >= 3
    gets `color_tree`'s proper coloring with max-degree many colors: it
    has no cycle, so a path 2-dominates it only by spanning it, which
    only a path graph allows, and it is its own breadth-first tree from
    every root, so neither search below could do better. Otherwise a path
    that spans g or 2-dominates it, from the pipeline's capped search
    (`_dominating_path`), gives two; the fallback colors the
    breadth-first spanning tree with the fewest colors over all roots,
    filling non-tree edges with color 1. The capped search is no verdict,
    so the tree's k may exceed pc(G). Each certificate gets one exact
    check, on g, capped at PROFILE_MAX_N vertices: the tree's coloring
    alone is never checked, since a proper path of the tree is one of g.
    """
    if not is_connected(g):
        raise Disconnected("upper bounds are defined for connected graphs")
    if g.n > PROFILE_MAX_N:
        raise TooLarge(f"search limited to n <= {PROFILE_MAX_N}")
    if is_complete(g):
        return _certify(g, 1, (1,) * g.m, "complete")
    if g.m == g.n - 1 and degree_stats(g)[2] >= 3:
        return color_tree(g)
    path = _dominating_path(g.adj)
    if path is not None:
        return _color_path(g, path)
    tree = min(
        (_bfs(g.adj, root)[1] for root in range(g.n)),
        key=lambda rows: max(row.bit_count() for row in rows),
    )
    return _color_spanning_tree(g, tree)


def _bridge_star(g: Graph) -> int:
    """The most bridges that meet at any one vertex."""
    count = [0] * g.n
    for u, v in find_bridges(g):
        count[u] += 1
        count[v] += 1
    return max(count, default=0)


def pc_exact(g: Graph, kmax=None) -> tuple[int, PcCertificate]:
    """The exact minimum palette size with a verified witness.

    If b bridges meet at one vertex v, then pc(G) >= b: for two of them,
    vx and vy, the only x-y path is x v y, since a path leaves x's side of
    vx and enters y's side of vy only through those edges, so the two
    bridges need different colors. Palettes from max(2, b) up to the k of
    pc_upper's certificate are tried in increasing order; when that k is
    2 or less, no search runs and b is not computed. Each is searched by
    the completion kernel (coloring.complete) over all edges in breadth-first
    order from a vertex of maximum degree (`_bfs_order`), colors
    ascending, in restricted growth order (color c+1 only after color
    c), which skips only relabelings of colorings already tried, and
    skipping every coloring that a swap of two twin vertices maps onto
    a lexicographically smaller one, which passes exactly when it does.
    Every node checks the partial coloring with each unassigned edge
    given its own fresh color; no completion connects a pair that this
    relaxation leaves unconnected, so a rejection prunes the whole
    subtree. The witness is the first proper-connecting coloring in
    that order and passed the exact checker, and an exhausted palette
    is a lower bound. The budget clock starts when the call does and is read at
    every search node; an invalid PC_BUDGET_MS raises OutOfRange on every
    call, complete graphs included. pc_upper raises Disconnected on a
    disconnected graph and gives a complete graph its one-color
    certificate, for which no palette is searched.
    With kmax set, no palette above kmax is searched: unless the proved
    bound meets the upper bound, the bracket [max(2, b, kmax+1), upper]
    is raised rather than guessed. A kmax that is neither None nor an int
    raises OutOfRange.
    """
    if kmax is not None and type(kmax) is not int:
        raise OutOfRange(f"kmax must be an int or None, got {kmax!r}")
    deadline = _budget_deadline()
    upper = pc_upper(g)
    if upper.k <= 2:
        return upper.k, upper
    order = _bfs_order(g)
    for k in range(max(2, _bridge_star(g)), upper.k):
        if kmax is not None and k > kmax:
            raise SearchBudgetExceeded(
                k, upper.k, f"palettes above kmax={kmax} are not searched"
            )
        try:
            cert = _search(g, k, {}, order, "exhaustive", deadline=deadline)
        except _OutOfTime:
            raise SearchBudgetExceeded(
                k, upper.k, f"budget hit while searching palette {k}"
            ) from None
        if cert is not None:
            return k, cert
    return upper.k, upper


class VerificationReport(_Value):
    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str = ""):
        _set(self, "ok", ok)
        _set(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(cert: PcCertificate) -> VerificationReport:
    """Recompute every claim a certificate makes; never raises.

    The graph and the palette size are the coloring's own, so the claims
    left are proper connectivity and, when claimed, the strong property.
    """
    try:
        coloring = cert.coloring
        # the strong property implies the plain one, so a passing
        # certificate costs one check; a failing one is scanned again
        # to name the pair
        check = has_strong_property if cert.strong else is_proper_connected
        if not check(coloring):
            pair = first_improper_pair(coloring)
            if pair is not None:
                return VerificationReport(False, f"no proper path for pair {pair}")
            pair = first_weak_pair(coloring)
            return VerificationReport(False, f"strong property fails at {pair}")
    except PcError as exc:
        return VerificationReport(False, f"verification impossible: {exc}")
    return VerificationReport(True)
