"""The benchmark's workloads: their inputs, the timed calls and the
correctness gate.

Each workload is built by `build(properconn, name, seed)` and run by
`run(properconn, name, inputs, tracer)`. A run returns its wall time, the
operations it attempted, how many of them ended as a bracket or an
`unresolved` record instead of an answer, and every wrong answer it saw.
Library calls go through module attributes (`properconn.solver.pc_exact`)
so that a traced run sees them.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from math import comb

WORKLOADS = ("mindeg-survey", "bipartite-survey", "compute-mix")

MINDEG_TOTALS = {5: 10, 6: 60, 7: 506, 8: 7441}
BIPARTITE_TOTALS = {4: 1, 5: 1, 6: 5, 7: 9, 8: 45, 9: 160}
MINDEG_EXCEPTIONS = {"F@QFw", "G@LCE["}

# compute-mix strata: items per order n = 6..9. Trees are split by max
# degree because exact search on a tree costs about sum k^(n-2) over
# k < max degree, so an unsplit random tree stratum swings the batch cost
# several-fold between seeds.
MIX_ORDERS = range(6, 10)
MIX_STRATA = {
    "path": 8,
    "tree3": 6,
    "tree4": 4,
    "sparse": 6,
    "mid": 12,
    "dense": 12,
}


# ---------------------------------------------------------------------------
# compute-mix inputs


def _tree_edges(rng, n, max_degree):
    """A random tree on n vertices whose max degree is exactly max_degree."""
    while True:
        deg = [0] * n
        edges = []
        for v in range(1, n):
            u = rng.choice([u for u in range(v) if deg[u] < max_degree])
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
        if max(deg) == max_degree:
            return edges


def _connected_edges(rng, n, m):
    """A random connected graph on n vertices with m edges: a random
    spanning tree plus m - (n-1) further distinct pairs."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    rest = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    rng.shuffle(rest)
    edges.update(rest[: m - (n - 1)])
    return sorted(edges)


def _relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in edges]


def _stratum_edges(rng, stratum, n):
    if stratum == "path":
        return _relabel(rng, n, _tree_edges(rng, n, 2))
    if stratum == "tree3":
        return _relabel(rng, n, _tree_edges(rng, n, 3))
    if stratum == "tree4":
        return _relabel(rng, n, _tree_edges(rng, n, 4))
    if stratum == "sparse":
        return _connected_edges(rng, n, n + 1)
    if stratum == "mid":
        return _connected_edges(rng, n, comb(n, 2) // 2)
    if stratum == "dense":
        return _connected_edges(rng, n, comb(n, 2) - n // 2)
    raise ValueError(f"unknown stratum {stratum}")


def mix_items(pc, seed: int):
    """[(label, stratum, graph)]: the frozen instances, one complete graph
    per order, then the seeded strata in a seeded order."""
    items = [
        ("F@QFw", "frozen", pc.graph.from_graph6("F@QFw")),
        ("G@LCE[", "frozen", pc.graph.from_graph6("G@LCE[")),
        ("star_of_bicliques(2)", "frozen", pc.survey.make_star_of_bicliques(2)),
    ]
    for n in MIX_ORDERS:
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
        items.append((f"K{n}", "complete", pc.graph.from_edge_list(n, edges)))
    rng = random.Random(seed)
    batch = []
    for stratum, count in MIX_STRATA.items():
        for n in MIX_ORDERS:
            for i in range(count):
                g = pc.graph.from_edge_list(n, _stratum_edges(rng, stratum, n))
                batch.append((f"{stratum}/n{n}/{i}", stratum, g))
    rng.shuffle(batch)
    return items + batch


# ---------------------------------------------------------------------------
# running and checking


def build(pc, name: str, seed: int):
    """Inputs from the seed. The surveys take none and ignore the seed."""
    if name == "compute-mix":
        return mix_items(pc, seed)
    if name in WORKLOADS:
        return None
    raise ValueError(f"unknown workload {name}")


def _audit(pc, cert):
    """What `pc verify` does with a written witness."""
    text = pc.constructive.certificate_to_json(cert)
    back = pc.constructive.certificate_from_json(text)
    return back, pc.solver.verify_certificate(back)


def _span(tracer, name):
    return tracer.root(name) if tracer else nullcontext()


def _run_survey(pc, name, tracer):
    t0 = time.perf_counter()
    with _span(tracer, "bench.survey"):
        if name == "mindeg-survey":
            report = pc.survey.survey_min_degree(5, 8)
        else:
            report = pc.survey.survey_bipartite(4, 9)
        audits = [(rec, *_audit(pc, rec.certificate)) for rec in report.exceptions]
    wall = time.perf_counter() - t0

    wrong = []
    expected_totals = MINDEG_TOTALS if name == "mindeg-survey" else BIPARTITE_TOTALS
    expected_exceptions = MINDEG_EXCEPTIONS if name == "mindeg-survey" else set()
    if report.totals != expected_totals:
        wrong.append(f"totals {report.totals} != {expected_totals}")
    found = {rec.graph6 for rec in report.exceptions}
    if found != expected_exceptions or len(report.exceptions) != len(found):
        wrong.append(f"exceptions {sorted(found)} != {sorted(expected_exceptions)}")
    for rec, back, verdict in audits:
        if rec.pc != 3 or back.k != 3:
            wrong.append(f"exception {rec.graph6} reported pc={rec.pc}, k={back.k}")
        if back.graph != pc.graph.from_graph6(rec.graph6):
            wrong.append(f"exception {rec.graph6} certifies another graph")
        if not verdict:
            wrong.append(f"exception {rec.graph6} witness fails: {verdict.reason}")
    attempted = sum(report.totals.values())
    return {
        "wall_s": wall,
        "attempted": attempted,
        "unanswered": len(report.unresolved),
        "wrong": wrong,
    }


def _expected_pc(pc, stratum, g):
    """The known value: pc(K_n) = 1, pc(tree) = max degree, and every
    frozen instance needs 3. None where only the certificate vouches."""
    if stratum == "complete":
        return 1
    if stratum in ("path", "tree3", "tree4"):
        return pc.graph.degree_stats(g)[2]
    if stratum == "frozen":
        return 3
    return None


def _run_mix(pc, items, tracer):
    SearchBudgetExceeded = pc.errors.SearchBudgetExceeded
    outcomes = []
    compute_ms, verify_ms = [], []
    t0 = time.perf_counter()
    for label, stratum, g in items:
        a = time.perf_counter()
        with _span(tracer, "bench.compute"):
            try:
                value, cert = pc.solver.pc_exact(g)
                text = pc.constructive.certificate_to_json(cert)
            except SearchBudgetExceeded as exc:
                value, text = (exc.lower, exc.upper), None
        b = time.perf_counter()
        compute_ms.append((b - a) * 1e3)
        verdict = back = None
        if text is not None:
            with _span(tracer, "bench.verify"):
                back = pc.constructive.certificate_from_json(text)
                verdict = pc.solver.verify_certificate(back)
            verify_ms.append((time.perf_counter() - b) * 1e3)
        outcomes.append((label, stratum, g, value, back, verdict))
    wall = time.perf_counter() - t0

    wrong = []
    unanswered = 0
    for label, stratum, g, value, back, verdict in outcomes:
        expected = _expected_pc(pc, stratum, g)
        if isinstance(value, tuple):
            unanswered += 1
            lower, upper = value
            if expected is None or not lower <= expected <= upper:
                wrong.append(f"{label}: bracket [{lower}, {upper}] misses pc={expected}")
            continue
        if expected is not None and value != expected:
            wrong.append(f"{label}: pc={value}, expected {expected}")
        if value < 2 and not pc.graph.is_complete(g):
            wrong.append(f"{label}: pc={value} on a noncomplete graph")
        if back.k != value:
            wrong.append(f"{label}: certificate k={back.k} but pc={value}")
        if back.graph != g:
            wrong.append(f"{label}: certificate is for another graph")
        if not verdict:
            wrong.append(f"{label}: witness fails after JSON round trip: {verdict.reason}")
    return {
        "wall_s": wall,
        "attempted": len(items),
        "unanswered": unanswered,
        "wrong": wrong,
        "compute_ms": compute_ms,
        "verify_ms": verify_ms,
    }


def run(pc, name: str, inputs, tracer=None):
    if name == "compute-mix":
        return _run_mix(pc, inputs, tracer)
    return _run_survey(pc, name, tracer)
