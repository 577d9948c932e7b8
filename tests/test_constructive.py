"""Certificate builders: trees, spanning paths, bridgeless strong colorings,
gluing, vertex absorption, and the 2-color decision pc2_pipeline."""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from properconn import coloring, constructive
from properconn import survey as survey_mod
from properconn import (
    ColoringGraphMismatch,
    DegreeTooLow,
    EdgeColoring,
    HasBridge,
    NotABridge,
    NotATree,
    OverlappingSets,
    PcCertificate,
    PcError,
    TooLarge,
    VertexOutOfRange,
    bipartition,
    certificate_from_json,
    certificate_to_json,
    color_tree,
    enumerate_connected,
    extend_vertex,
    find_bridges,
    from_adj_rows,
    from_edge_list,
    from_graph6,
    glue_across_bridge,
    has_strong_property,
    is_connected,
    make_star_of_bicliques,
    pc2_pipeline,
    pc_exact,
    pc_upper,
    strong_coloring_bridgeless,
    to_graph6,
    verify_certificate,
)
from properconn.graph import _unpack_rows
from util import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    friendship_graph,
    path_graph,
    petersen,
    random_connected,
    star_graph,
)

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def check(cert, k=None, strategy=None, strong=None):
    assert verify_certificate(cert).ok
    if k is not None:
        assert cert.k == k
    if strategy is not None:
        assert cert.strategy == strategy
    if strong is not None:
        assert cert.strong == strong
    return cert


# --- trees -------------------------------------------------------------------


def test_tree_coloring_uses_max_degree_colors():
    check(color_tree(path_graph(6)), k=2, strategy="tree")
    check(color_tree(star_graph(5)), k=5, strategy="tree")
    spider = from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    check(color_tree(spider), k=3)


def test_tree_coloring_rejects_cycles():
    with pytest.raises(NotATree):
        color_tree(cycle_graph(4))


def test_single_vertex_tree():
    cert = color_tree(from_edge_list(1, []))
    assert cert.k == 1 and verify_certificate(cert).ok


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(3, 9))
@PROPERTY_SETTINGS
def test_tree_coloring_is_proper_at_every_vertex(seed, n):
    g = random_connected(random.Random(seed), n, 0.0)
    cert = check(color_tree(g))
    # adjacent tree edges never share a color, so paths are proper
    c = cert.coloring
    for v in range(n):
        nbrs = list(g.neighbors(v))
        seen = [c.color(v, w) for w in nbrs]
        assert len(set(seen)) == len(seen)


# --- spanning paths ----------------------------------------------------------


def test_hamilton_path_coloring():
    check(pc_upper(cycle_graph(6)), k=2, strategy="hamilton_path")
    check(pc_upper(petersen()), k=2, strategy="hamilton_path")
    check(pc_upper(star_graph(3)), strategy="tree")


def test_hamilton_path_coloring_single_edge():
    # pc_upper gives K2 its one-color "complete" certificate; the path
    # coloring's palette is 2 even when one color suffices
    g = from_edge_list(2, [(0, 1)])
    cert = constructive._color_path(g, constructive._dominating_path(g))
    check(cert, k=2, strategy="hamilton_path")


def test_a_path_coloring_is_checked_without_a_search(monkeypatch):
    # the checker walks the alternating path it is handed, which settles
    # every pair; verify_certificate, given no path, still passes it
    searches = []
    real = coloring._Machine.dfs_from

    def spy(self, *args):
        searches.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(coloring._Machine, "dfs_from", spy)
    checked = 0
    for packed in survey_mod._level("general", 8, 2):
        g = from_adj_rows(8, _unpack_rows(8, packed))
        path = constructive._dominating_path(g)
        if path is None or len(path) < g.n:
            continue
        cert = constructive._color_path(g, path)
        assert searches == []
        assert verify_certificate(cert).ok
        searches.clear()
        checked += 1
    assert checked == 7214


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(2, 9),
    st.integers(0, 5),
)
def test_a_two_dominating_path_coloring_connects_the_graph(seed, length, off):
    # a random path, each other vertex joined to two or more of its
    # vertices, random extra edges, then a random relabeling
    rng = random.Random(seed)
    n = length + off
    edges = {(i, i + 1) for i in range(length - 1)}
    for x in range(length, n):
        for p in rng.sample(range(length), rng.randint(2, length)):
            edges.add((p, x))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.15:
                edges.add((u, v))
    label = list(range(n))
    rng.shuffle(label)
    g = from_edge_list(n, [(label[u], label[v]) for u, v in edges])
    path = label[:length]
    colors = constructive._path_colors(g, path)
    cert = PcCertificate(EdgeColoring(g, 2, colors), "dominating_path", False)
    assert verify_certificate(cert).ok, (g.edges, path, colors)


def test_the_path_step_colors_a_spanning_path_as_color_hamilton_path():
    for g in [cycle_graph(6), petersen(), complete_bipartite(3, 4), path_graph(5)]:
        cert = pc2_pipeline(g)
        assert cert.strategy == "hamilton_path"
        path = constructive._dominating_path(g)
        assert sorted(path) == list(g.vertices())
        hamilton = [2 if i % 2 else 1 for i in range(len(path) - 1)]
        on_path = {tuple(sorted(e)): c for e, c in zip(zip(path, path[1:]), hamilton)}
        assert cert.coloring.colors == tuple(on_path.get(e, 1) for e in g.edges)


def test_no_two_dominating_path_in_three_color_graphs():
    for g in [make_star_of_bicliques(2), friendship_graph()]:
        assert pc_exact(g)[0] == 3
        assert constructive._dominating_path(g) is None


def test_a_capped_path_search_leaves_the_graph_to_the_kernel(monkeypatch):
    # the first descent from vertex 2 runs 2 0 1 3 5 and dead-ends with 4
    # touching the path at 3 alone; a later branch finds a path
    g = from_edge_list(7, [(0, 1), (0, 2), (0, 6), (1, 3), (3, 4), (3, 5), (3, 6), (4, 6)])
    assert constructive._dominating_path(g) is not None
    monkeypatch.setattr(constructive, "_DFS_STEPS", g.n)
    assert constructive._dominating_path(g) is None
    check(pc2_pipeline(g), k=2, strategy="exhaustive")


def test_the_empty_graph_gets_the_vacuous_certificate():
    for n in (0, 1):
        cert = check(pc2_pipeline(from_edge_list(n, [])), k=2, strategy="hamilton_path")
        assert cert.coloring.colors == ()


# --- bridgeless strong colorings ----------------------------------------------


def test_strong_coloring_on_even_cycle():
    cert = check(strong_coloring_bridgeless(cycle_graph(6)), strong=True)
    assert cert.k == 2
    assert cert.strategy == "bipartite_bridgeless"


def test_strong_coloring_on_odd_cycle():
    cert = check(strong_coloring_bridgeless(cycle_graph(5)), strong=True)
    assert cert.k <= 3
    assert cert.strategy == "bridgeless_3"


def test_strong_coloring_on_petersen():
    cert = check(strong_coloring_bridgeless(petersen()), strong=True)
    assert cert.k <= 3
    assert has_strong_property(cert.coloring)


def test_strong_coloring_on_complete_bipartite():
    cert = check(strong_coloring_bridgeless(complete_bipartite(2, 3)), strong=True)
    assert cert.k == 2


def random_bipartite_bridgeless(rng, n):
    while True:
        a = rng.choice([3, 4, 5])
        p = rng.choice([0.35, 0.5, 0.7])
        edges = [(u, v) for u in range(a) for v in range(a, n) if rng.random() < p]
        g = from_edge_list(n, edges)
        if is_connected(g) and not find_bridges(g):
            return g


def random_bridgeless(rng, n):
    while True:
        g = random_connected(rng, n, rng.choice([0.15, 0.25, 0.4]))
        if not find_bridges(g):
            return g


def test_strong_search_settles_every_graph_at_the_size_cap():
    # no volume guard stands behind the ear patterns: the kernel must
    # settle each bridgeless graph up to n=10 with 2 colors when bipartite
    # and at most 3 otherwise (Borozan et al., Discrete Math. 312, 2012)
    rng = random.Random(20261018)
    graphs = [cycle_graph(9), complete_graph(10), petersen(), complete_bipartite(5, 5)]
    graphs += [random_bridgeless(rng, rng.choice([9, 10])) for _ in range(40)]
    graphs += [random_bipartite_bridgeless(rng, rng.choice([9, 10])) for _ in range(20)]
    t0 = time.monotonic()
    for g in graphs:
        cert = strong_coloring_bridgeless(g)
        assert cert.strong and verify_certificate(cert).ok
        if bipartition(g) is not None:
            assert cert.k == 2
        else:
            assert cert.k <= 3
    # an odd cycle has no strong 2-coloring, so C9 comes from the kernel
    assert strong_coloring_bridgeless(cycle_graph(9)).k == 3
    assert time.monotonic() - t0 < 30


def test_strong_coloring_guards():
    with pytest.raises(HasBridge):
        strong_coloring_bridgeless(path_graph(4))
    with pytest.raises(ValueError):
        strong_coloring_bridgeless(from_edge_list(1, []))
    with pytest.raises(TooLarge):
        strong_coloring_bridgeless(cycle_graph(11))


# --- gluing ------------------------------------------------------------------


def two_triangle_halves():
    # each half: a triangle with a pendant standing in for the far side
    a = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    b = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    return pc_exact(a)[1], pc_exact(b)[1]


def test_glue_two_triangles():
    ca, cb = two_triangle_halves()
    comp = glue_across_bridge(ca, cb, (2, 3), ([0, 1, 2, 3], [3, 4, 5, 2]))
    check(comp, k=2, strategy="glue")
    assert comp.graph.n == 6 and comp.graph.m == 7


def test_glue_rejects_overlapping_interiors():
    ca, cb = two_triangle_halves()
    with pytest.raises(OverlappingSets):
        glue_across_bridge(ca, cb, (2, 3), ([0, 1, 2, 3], [3, 1, 5, 2]))


def test_glue_rejects_missing_bridge():
    # first half lacks the (2,3) edge even though both labels exist in it
    a = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    ca = pc_exact(a)[1]
    cb = two_triangle_halves()[1]
    with pytest.raises(NotABridge):
        glue_across_bridge(ca, cb, (2, 3), ([0, 1, 2, 3], [3, 4, 5, 2]))


def tampered(cert):
    """JSON copies of cert that claim more than their colors give: each
    color in turn changed, then a false strong claim; all say
    "verified": true."""
    doc = json.loads(certificate_to_json(cert))
    doc["meta"]["verified"] = True
    copies = []
    for i, c in enumerate(doc["colors"]):
        forged = json.loads(json.dumps(doc))
        forged["colors"][i] = c % doc["k"] + 1
        copies.append(certificate_from_json(json.dumps(forged)))
    doc["meta"]["strong"] = True
    copies.append(certificate_from_json(json.dumps(doc)))
    return copies


def test_tampered_inputs_give_errors_or_checked_certificates():
    # glue and extension trust no claim of their inputs: each call either
    # raises a PcError or returns a certificate the checker passes
    ca, cb = two_triangle_halves()
    c4 = strong_coloring_bridgeless(cycle_graph(4))
    path = pc_upper(path_graph(4))
    embedding = ([0, 1, 2, 3], [3, 4, 5, 2])
    calls = []
    for forged in tampered(ca):
        calls.append(lambda f=forged: glue_across_bridge(f, cb, (2, 3), embedding))
    for forged in tampered(c4) + tampered(path):
        calls.append(lambda f=forged: extend_vertex(f, [(4, 0), (4, 2)]))
    outcomes = {"raised": 0, "checked": 0}
    for call in calls:
        try:
            cert = call()
        except PcError:
            outcomes["raised"] += 1
            continue
        assert verify_certificate(cert).ok
        outcomes["checked"] += 1
    assert outcomes["raised"] and outcomes["checked"]


def test_glue_keeps_first_half_palette():
    # only the second half is renamed, so the bridge keeps its a-side color
    ca, cb = two_triangle_halves()
    comp = glue_across_bridge(ca, cb, (2, 3), ([0, 1, 2, 3], [3, 4, 5, 2]))
    assert comp.coloring.color(2, 3) == ca.coloring.color(2, 3)
    for (x, y), want in zip(ca.graph.edges, ca.coloring.colors):
        assert comp.coloring.color(x, y) == want


# --- vertex absorption -------------------------------------------------------


def test_extend_vertex_grows_a_cycle():
    base = check(strong_coloring_bridgeless(cycle_graph(4)))
    bigger = extend_vertex(base, [(4, 0), (4, 2)])
    check(bigger, k=2, strategy="extend")
    assert bigger.graph.n == 5


def test_extend_vertex_needs_two_attachments():
    base = strong_coloring_bridgeless(cycle_graph(4))
    with pytest.raises(DegreeTooLow):
        extend_vertex(base, [(4, 0)])


def test_extend_vertex_needs_two_color_base():
    base = pc_exact(star_graph(3))[1]  # k=3 certificate
    with pytest.raises(ValueError):
        extend_vertex(base, [(4, 0), (4, 1)])


def test_extend_vertex_checks_its_attachment_edges():
    base = strong_coloring_bridgeless(cycle_graph(4))
    for edges in ([(4, 0), (0, 1)], [(4, 0), (4, 9)], [(4, 0), (4, 4)]):
        with pytest.raises(VertexOutOfRange):
            extend_vertex(base, edges)
    # either orientation, and repeats count once
    bigger = extend_vertex(base, [(0, 4), (4, 2), (2, 4)])
    assert bigger.graph.degree(4) == 2


@given(st.integers(min_value=0, max_value=2**32 - 1))
@PROPERTY_SETTINGS
def test_extend_vertex_random_attachments(seed):
    rng = random.Random(seed)
    base_graph = cycle_graph(rng.choice([4, 6]))
    base = strong_coloring_bridgeless(base_graph)
    w = base_graph.n
    attach = rng.sample(range(base_graph.n), rng.choice([2, 3]))
    bigger = extend_vertex(base, [(w, u) for u in attach])
    assert verify_certificate(bigger).ok and bigger.graph.degree(w) == len(attach)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(3, 7),
    st.sampled_from([0.2, 0.4, 0.6]),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_extend_vertex_takes_bases_that_are_not_strong(seed, n, extra):
    # criterion 6 extends strong bases only; the pipeline's certificates
    # of random graphs are seldom strong, and extend_vertex claims that
    # those extend too
    rng = random.Random(seed)
    base_graph = random_connected(rng, n, extra)
    base = pc2_pipeline(base_graph)
    if base is None:
        return
    attach = rng.sample(range(n), rng.randint(2, n))
    bigger = extend_vertex(base, [(n, u) for u in attach])
    assert bigger.k == 2 and verify_certificate(bigger).ok


# --- pipeline ----------------------------------------------------------------


def test_pipeline_stage_exemplars():
    # one frozen graph per outcome: spanning path, 2-dominating path,
    # kernel
    cases = {
        "BW": "hamilton_path",
        "E?~o": "dominating_path",  # complete bipartite 2x4
        "E?No": "exhaustive",
    }
    for code, tag in cases.items():
        got = pc2_pipeline(from_graph6(code))
        assert got is not None and got.strategy == tag
        check(got, k=2)


def test_pipeline_gives_up_on_three_color_graphs():
    for g in [star_graph(3), friendship_graph(), from_graph6("G@LCE[")]:
        assert pc2_pipeline(g) is None


def test_pipeline_none_is_the_verdict_pc_above_two():
    # every connected graph on 2..7 vertices (995 classes)
    graphs = [g for n in range(2, 8) for g in enumerate_connected(n)]
    assert len(graphs) == 995
    for g in graphs:
        assert (pc2_pipeline(g) is None) == (pc_exact(g)[0] > 2), to_graph6(g)


def test_pipeline_runs_no_strong_search(monkeypatch):
    # the kernel step searches plain 2-colorings of g itself
    from properconn import constructive

    kernel = constructive.complete
    strong_calls = []

    def recorded(g, k, fixed, free, strong=False, deadline=None):
        if strong:
            strong_calls.append(to_graph6(g))
        return kernel(g, k, fixed, free, strong, deadline)

    monkeypatch.setattr(constructive, "complete", recorded)
    for n in range(2, 8):
        for g in enumerate_connected(n):
            pc2_pipeline(g)
    assert strong_calls == []


def test_pipeline_size_guard():
    with pytest.raises(TooLarge):
        pc2_pipeline(path_graph(17))


def test_pipeline_rejects_disconnected():
    from properconn import Disconnected

    with pytest.raises(Disconnected):
        pc2_pipeline(from_edge_list(4, [(0, 1), (2, 3)]))


# --- certificate serialization -------------------------------------------------


def test_certificate_json_round_trip():
    cert = strong_coloring_bridgeless(cycle_graph(6))
    text = certificate_to_json(cert)
    doc = json.loads(text)
    assert doc["k"] == 2 and doc["meta"]["strategy"] == "bipartite_bridgeless"
    back = certificate_from_json(text)
    assert back == cert and verify_certificate(back).ok


def test_certificate_json_verified_flag_has_no_effect():
    cert = strong_coloring_bridgeless(cycle_graph(6))
    doc = json.loads(certificate_to_json(cert))
    assert "verified" not in doc["meta"]
    doc["colors"] = [1] * len(doc["colors"])
    plain = certificate_from_json(json.dumps(doc))
    doc["meta"]["verified"] = True
    claimed = certificate_from_json(json.dumps(doc))
    assert claimed == plain
    assert not verify_certificate(claimed).ok


def test_certificate_json_refuses_tampering():
    cert = strong_coloring_bridgeless(cycle_graph(6))
    doc = json.loads(certificate_to_json(cert))
    doc["colors"][0] = doc["colors"][1]
    restored = certificate_from_json(json.dumps(doc))
    assert not verify_certificate(restored).ok


@pytest.mark.parametrize("meta", [[], "x", {"strategy": 3}, {"strong": 1}, {"strong": "true"}])
def test_certificate_json_rejects_malformed_meta(meta):
    doc = json.loads(certificate_to_json(strong_coloring_bridgeless(cycle_graph(6))))
    doc["meta"] = meta
    with pytest.raises(ColoringGraphMismatch):
        certificate_from_json(json.dumps(doc))
