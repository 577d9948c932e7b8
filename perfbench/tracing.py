"""Spans around the calls into each properconn module, and the per-layer
metrics computed from them.

Tracing replaces public functions at the module attribute their caller
looks them up by (for example `properconn.survey.canonical_code`, which
`survey._level` reads from its own globals). Nothing inside the library
changes. Spans stay in memory as lists
`[name, start, end, parent, run, note]`, where `parent` is the index of
the enclosing span (-1 for a root) and `run` is the index of the root
span, so all spans of one request share it. They are written out once,
after the measured work.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, RUN, NOTE = range(6)

# every strategy name pc2_pipeline can put on a certificate
STRATEGIES = ("hamilton_path", "bipartite_bridgeless", "glue", "hub_branches", "extend")
SURVEY_NS = range(4, 10)
LABEL_NS = range(2, 10)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        run = self.spans[parent][RUN] if parent >= 0 else idx
        span = [name, time.perf_counter(), 0.0, parent, run, None]
        self.spans.append(span)
        stack.append(idx)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A span the benchmark itself opens around a request."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, note=None, eager: bool = False):
        """`fn` with a span around each call. `note(args, result)` stores a
        small value on the span; an exception stores its class name.
        `eager` drains a generator inside the span and yields from a list."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
                if note is not None:
                    span[NOTE] = note(args, result)
            except BaseException as exc:
                span[NOTE] = type(exc).__name__
                raise
            finally:
                self._close(span)
            return iter(result) if eager else result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trun\tnote\n")
            for name, start, end, parent, run, note in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run}\t{note}\n")


def _pipeline_note(args, cert):
    return "none" if cert is None else cert.strategy


def _pairs_note(args, result):
    n = args[0].graph.n
    return n * (n - 1) // 2


def _order_note(args, result):
    return args[0].n


def _enum_note(args, graphs):
    return (args[0], len(graphs))


def instrument(tracer: Tracer, properconn) -> None:
    """Wrap the layer boundaries for the rest of the process."""
    survey, solver, constructive = properconn.survey, properconn.solver, properconn.constructive
    points = [
        (survey, "survey_min_degree", "survey.survey_min_degree", None, False),
        (survey, "survey_bipartite", "survey.survey_bipartite", None, False),
        (survey, "enumerate_connected", "survey.enumerate_connected", _enum_note, True),
        (survey, "canonical_code", "graph.canonical_code", _order_note, False),
        (survey, "pc2_pipeline", "constructive.pc2_pipeline", _pipeline_note, False),
        (survey, "pc_exact", "solver.pc_exact", None, False),
        (survey, "verify_certificate", "solver.verify_certificate", None, False),
        (solver, "pc_exact", "solver.pc_exact", None, False),
        (solver, "pc_upper", "solver.pc_upper", None, False),
        (solver, "verify_certificate", "solver.verify_certificate", None, False),
        (solver, "is_proper_connected", "coloring.verify", _pairs_note, False),
        (solver, "has_strong_property", "coloring.verify", _pairs_note, False),
        (constructive, "is_proper_connected", "coloring.certify", None, False),
        (constructive, "has_strong_property", "coloring.certify", None, False),
        (constructive, "hamilton_path", "hamilton.hamilton_path", None, False),
        (constructive, "hamilton_path_from", "hamilton.hamilton_path_from", None, False),
        (constructive, "hamilton_cycle", "hamilton.hamilton_cycle", None, False),
    ]
    for module, attr, name, note, eager in points:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, note, eager))


def wrapper_cost_s(calls: int = 20000, trials: int = 5) -> float:
    """Seconds one traced call adds over a plain call, on this machine."""

    def noop(x):
        return x

    best = None
    for _ in range(trials):
        tracer = Tracer()
        traced = tracer.wrap(noop, "noop")
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        cost = ((t2 - t1) - (t1 - t0)) / calls
        best = cost if best is None else min(best, cost)
    return max(best, 0.0)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, busy seconds and self seconds from the spans."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    covered = [0.0] * len(spans)
    for span in spans:
        dur = span[END] - span[START]
        calls[span[NAME]] += 1
        total[span[NAME]] += dur
        if span[PARENT] >= 0:
            covered[span[PARENT]] += dur
    self_s: dict[str, float] = defaultdict(float)
    for idx, span in enumerate(spans):
        self_s[span[NAME]] += span[END] - span[START] - covered[idx]

    labels = {n: 0 for n in LABEL_NS}
    enum_s = {n: 0.0 for n in SURVEY_NS}
    classes = {n: 0 for n in SURVEY_NS}
    settled = {s: 0 for s in STRATEGIES + ("none",)}
    strategy_s = {s: 0.0 for s in settled}
    unresolved = verify_pairs = 0
    for span in spans:
        name, note = span[NAME], span[NOTE]
        dur = span[END] - span[START]
        if name == "graph.canonical_code" and note in labels:
            labels[note] += 1
        elif name == "survey.enumerate_connected" and isinstance(note, tuple):
            enum_s[note[0]] += dur
            classes[note[0]] += note[1]
        elif name == "constructive.pc2_pipeline" and note in strategy_s:
            strategy_s[note] += dur
            settled[note] += 1
        elif name == "solver.pc_exact" and note == "SearchBudgetExceeded":
            unresolved += 1
        elif name == "coloring.verify" and isinstance(note, int):
            verify_pairs += note

    m: dict[str, float] = {}
    canon = calls["graph.canonical_code"]
    m["graph.canonical_calls"] = canon
    m["graph.canonical_s"] = total["graph.canonical_code"]
    m["graph.canonical_us"] = total["graph.canonical_code"] / canon * 1e6 if canon else 0.0
    for n in LABEL_NS:
        m[f"graph.canonical_calls.n{n}"] = labels[n]
    for n in SURVEY_NS:
        m[f"survey.enum_s.n{n}"] = enum_s[n]
        m[f"survey.classes.n{n}"] = classes[n]
    m["survey.fallthrough"] = settled["none"]

    pipeline = calls["constructive.pc2_pipeline"]
    m["constructive.pipeline_calls"] = pipeline
    m["constructive.pipeline_s"] = total["constructive.pc2_pipeline"]
    for s in STRATEGIES:
        m[f"constructive.settled.{s}"] = settled[s]
    for s in strategy_s:
        m[f"constructive.strategy_s.{s}"] = strategy_s[s]
    done = sum(settled[s] for s in STRATEGIES)
    m["constructive.settle_ratio"] = done / pipeline if pipeline else 0.0

    ham = [name for name in calls if name.startswith("hamilton.")]
    m["hamilton.calls"] = sum(calls[name] for name in ham)
    m["hamilton.s"] = sum(total[name] for name in ham)

    m["solver.pc_exact_calls"] = calls["solver.pc_exact"]
    m["solver.pc_exact_s"] = total["solver.pc_exact"]
    m["solver.pc_upper_s"] = total["solver.pc_upper"]
    m["solver.search_s"] = self_s["solver.pc_exact"]
    m["solver.unresolved"] = unresolved

    m["coloring.verify_calls"] = calls["coloring.verify"]
    m["coloring.verify_s"] = total["coloring.verify"]
    m["coloring.verify_us_per_pair"] = (
        total["coloring.verify"] / verify_pairs * 1e6 if verify_pairs else 0.0
    )
    m["coloring.certify_calls"] = calls["coloring.certify"]
    m["coloring.certify_s"] = total["coloring.certify"]
    m["trace.spans"] = len(spans)
    return m
