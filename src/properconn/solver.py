"""Exact computation of the minimum palette for proper connectivity.

Upper bounds come from constructions (complete, spanning path, spanning
tree); lower bounds come only from exhausted search at smaller palettes,
plus the definitional fact that only complete graphs work with one color.
The search budget is wall-clock capped (PC_BUDGET_MS); running out is
reported as a bracketing interval, never as a silent wrong answer.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .coloring import (
    _OutOfTime,
    first_improper_pair,
    first_weak_pair,
    has_strong_property,
    is_proper_connected,
)
from .constructive import (
    PcCertificate,
    _certify,
    _search,
    color_hamilton_path,
    color_tree,
)
from .errors import Disconnected, OutOfRange, PcError, SearchBudgetExceeded, TooLarge
from .graph import Graph, degree_stats, from_edge_list, is_complete, is_connected

EXHAUSTIVE_VOLUME = 1 << 22
SMALL_N, SMALL_M = 10, 24


def _budget_deadline():
    """time.monotonic() deadline from PC_BUDGET_MS (milliseconds), or None
    when the variable is unset or empty; any other value that is not a
    non-negative integer raises OutOfRange."""
    raw = os.environ.get("PC_BUDGET_MS", "")
    if not raw:
        return None
    if not (raw.isascii() and raw.isdigit()):
        raise OutOfRange(
            f"PC_BUDGET_MS must be a non-negative integer of milliseconds, got {raw!r}"
        )
    return time.monotonic() + int(raw) / 1000.0


def _bfs_tree(g: Graph, root: int):
    seen = {root}
    queue = [root]
    edges = []
    while queue:
        nxt = []
        for v in queue:
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    edges.append((min(v, w), max(v, w)))
                    nxt.append(w)
        queue = nxt
    return edges


def pc_upper(g: Graph) -> PcCertificate:
    """A verified certificate bounding the palette from above.

    Complete graphs get one color; otherwise a spanning path gives two;
    the fallback colors the breadth-first spanning tree with the fewest
    colors over all roots, filling non-tree edges with color 1.
    """
    if not is_connected(g):
        raise Disconnected("upper bounds are defined for connected graphs")
    if is_complete(g):
        return _certify(g, 1, (1,) * g.m, "complete")
    try:
        cert = color_hamilton_path(g)
    except TooLarge:
        cert = None
    if cert is not None:
        return cert
    best_edges, best_delta = None, g.n
    for root in range(g.n):
        edges = _bfs_tree(g, root)
        tree = from_edge_list(g.n, edges)
        delta = degree_stats(tree)[2]
        if delta < best_delta:
            best_edges, best_delta = edges, delta
    tree = from_edge_list(g.n, best_edges)
    inner = color_tree(tree)
    assignment = {e: 1 for e in g.edges}
    for e, c in zip(tree.edges, inner.coloring.colors):
        assignment[e] = c
    colors = tuple(assignment[e] for e in g.edges)
    return _certify(g, inner.k, colors, "tree")


def pc_exact(g: Graph, kmax=None) -> tuple[int, PcCertificate]:
    """The exact minimum palette size with a verified witness.

    Palettes are tried in increasing order. Each is searched by the
    completion kernel (coloring.complete) over all edges in g.edges order,
    colors ascending, in restricted growth order (color c+1 only after
    color c), which skips only relabelings of colorings already tried.
    Every node checks the partial coloring with each unassigned edge given
    its own fresh color; no completion connects a pair that this
    relaxation leaves unconnected, so a rejection prunes the whole
    subtree. The witness is the lexicographically first proper-connecting
    coloring and passed the exact checker, and an exhausted palette is a
    lower bound. The volume guard is unchanged: a palette with
    k^(m-1) > EXHAUSTIVE_VOLUME candidates is refused on graphs with more
    than SMALL_N vertices or SMALL_M edges, however few nodes the pruned
    search would visit. The budget clock starts when the call does and is
    read at every search node; an invalid PC_BUDGET_MS raises OutOfRange
    on every call, complete graphs included.
    With kmax set this becomes a bounded decision: if every palette up to
    kmax is exhausted the bracketing interval is raised rather than
    guessed.
    """
    deadline = _budget_deadline()
    if not is_connected(g):
        raise Disconnected("the invariant is defined for connected graphs")
    if is_complete(g):
        return 1, _certify(g, 1, (1,) * g.m, "complete")
    upper = pc_upper(g)
    hi = upper.k if kmax is None else min(kmax, upper.k)
    for k in range(2, hi + 1):
        if k == upper.k:
            return upper.k, upper
        feasible = (g.n <= SMALL_N and g.m <= SMALL_M) or k ** (
            g.m - 1
        ) <= EXHAUSTIVE_VOLUME
        if not feasible:
            # smaller palettes all exhausted, so the bracket below is proven
            raise SearchBudgetExceeded(
                k, upper.k, f"palette {k} over {g.m - 1} free edges exceeds the guard"
            )
        try:
            cert = _search(g, k, {}, g.edges, "exhaustive", deadline=deadline)
        except _OutOfTime:
            raise SearchBudgetExceeded(
                k, upper.k, f"budget hit while searching palette {k}"
            ) from None
        if cert is not None:
            return k, cert
    raise SearchBudgetExceeded(
        hi + 1, upper.k, f"all palettes up to kmax={hi} exhausted"
    )


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(cert: PcCertificate) -> VerificationReport:
    """Recompute every claim a certificate makes; never raises."""
    try:
        coloring = cert.coloring
        if coloring.graph != cert.graph:
            return VerificationReport(False, "coloring belongs to another graph")
        if coloring.k > cert.k or any(c > cert.k for c in coloring.colors):
            return VerificationReport(False, f"coloring exceeds {cert.k} colors")
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
