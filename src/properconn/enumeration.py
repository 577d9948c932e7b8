"""Isomorph-free enumeration of small connected graphs without canonical
labeling: the level builder (_level, cached in _LEVELS), its class
entries (_class_entry: a graph's packed rows with its vertex keys above
them) and their dedup (_dedup, one stream for a level or a corpus).

Augmentation (grow by one vertex, keep one child per class) enumerates
the classes for n <= 9, and the bipartite survey's classes for n <= 13;
the test suite cross-checks it with an independent labeled
adjacency-mask sweep for n <= 7. Children are pruned by twin classes, a
canonical-deletion prefilter and the parent's automorphisms. The
prefilter also shows which survivors can meet no isomorph at all; the
others are deduplicated level-wide, each by vertex invariants (derived
from the parent's) plus an exact isomorphism test. A level with minimum
degree >= t grows from levels filtered the same way; the minimum-degree
1 level is the full level, and the minimum-degree 2 level is filtered
from the full level once that is built.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

from .graph import _bipartite_sides, _reach_mask, _twin_classes, is_connected


# ---------------------------------------------------------------------------
# isomorphism classes without labeling


# bits per vertex key in a _class_entry: a key is below 2**24 for n <= 13
_KEY_BITS = 24
_KEY_MASK = (1 << _KEY_BITS) - 1


def _vertex_keys(rows) -> list[int]:
    """Per-vertex invariant packed in one int: the degree, then the sum of
    the neighbours' degrees, then the triangles through the vertex. An
    isomorphism maps every vertex to one with the same key."""
    degrees = [row.bit_count() for row in rows]
    keys = []
    for row in rows:
        around = twice_triangles = 0
        rest = row
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            around += degrees[w]
            twice_triangles += (row & rows[w]).bit_count()
            rest ^= low
        keys.append(row.bit_count() << 16 | around << 8 | twice_triangles >> 1)
    return keys


def _isomorphisms(a, keys_a, b, keys_b):
    """Yield every isomorphism from the graph with adjacency rows a onto
    the one with rows b, given their vertex keys, as a list: item v is
    the bit of v's image.

    Backtracking over every bijection that maps each vertex of a to a
    vertex of b with the same key; since every isomorphism keeps keys,
    none is missed. The vertices of a are placed in breadth-first order
    from one of the rarest key (lowest index on ties), each component in
    turn, so every vertex but a component's first has a placed neighbour.
    A vertex of b is accepted only when its placed neighbours are exactly
    the images of the placed neighbours of the vertex of a it receives.
    """
    n = len(a)
    if sorted(keys_a) != sorted(keys_b):
        return
    by_key: dict[int, int] = {}
    for w, key in enumerate(keys_b):
        by_key[key] = by_key.get(key, 0) | 1 << w
    cands = [by_key[key] for key in keys_a]
    sizes = [mask.bit_count() for mask in cands]
    start = sizes.index(min(sizes))
    # before[i]: the neighbours of order[i] placed ahead of it
    order, before = [start], [0]
    full = (1 << n) - 1
    seen, k = 1 << start, 0
    while True:
        while k < len(order):
            rest = a[order[k]] & ~seen
            k += 1
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                order.append(w)
                before.append(a[w] & seen)
                seen |= low
                rest ^= low
        if seen == full:
            break
        rest = full & ~seen
        low = rest & -rest
        order.append(low.bit_length() - 1)
        before.append(0)
        seen |= low
    # image[v]: the bit of v's image in b; frees[i]: candidates for
    # position i not tried yet; needs[i]: the images of its placed
    # neighbours, which its image's placed neighbours must equal
    image, needs, frees = [0] * n, [0] * n, [0] * n
    frees[0] = cands[start]
    used, i = 0, 0
    while True:
        free = frees[i]
        if not free:
            if i == 0:
                return
            i -= 1
            used ^= image[order[i]]
            continue
        low = free & -free
        frees[i] = free ^ low
        if b[low.bit_length() - 1] & used != needs[i]:
            continue
        image[order[i]] = low
        if i == n - 1:
            yield image[:]
            continue
        used |= low
        i += 1
        need = 0
        rest = before[i]
        while rest:
            bit = rest & -rest
            need |= image[bit.bit_length() - 1]
            rest ^= bit
        needs[i] = need
        frees[i] = cands[order[i]] & ~used


def _class_automorphisms(rows, keys, classes) -> list[list[int]]:
    """The automorphisms of the graph with adjacency rows `rows`, vertex
    keys `keys` and twin classes `classes`, as maps of the classes (item
    i: the index of class i's image), sorted, so the identity is first.

    An automorphism maps twins to twins, so it permutes the classes and
    keeps their sizes, keys and joins (two classes are joined completely
    or not at all). Each such permutation lifts to automorphisms: the
    degree in the keys shows that a class and its image are both cliques
    or both independent. So these are the automorphisms of the quotient
    graph on the classes labeled by key and size, and they keep the sum
    of the labels of the classes joined to each class too. With a class
    per label, or per such pair, there is only the identity."""
    k = len(classes)
    labels = [keys[cls[0]] << 8 | len(cls) for cls in classes]
    if len(set(labels)) == k:
        return [list(range(k))]
    at = [0] * len(rows)
    for i, cls in enumerate(classes):
        for v in cls:
            at[v] = i
    quotient, refined = [], []
    for i, cls in enumerate(classes):
        joined = around = 0
        rest = rows[cls[0]]
        while rest:
            low = rest & -rest
            j = at[low.bit_length() - 1]
            if not joined >> j & 1:
                joined |= 1 << j
                around += labels[j]
            rest ^= low
        quotient.append(joined & ~(1 << i))
        refined.append(labels[i] << 40 | around)
    if len(set(refined)) == k:
        return [list(range(k))]
    images = _isomorphisms(quotient, refined, quotient, refined)
    return sorted([bit.bit_length() - 1 for bit in image] for image in images)


def _pack_rows(rows) -> int:
    """Adjacency rows of an n-vertex graph packed in one int, row v at
    bit n*v."""
    n = len(rows)
    packed = 0
    for row in reversed(rows):
        packed = packed << n | row
    return packed


def _unpack_rows(n: int, packed: int) -> list[int]:
    """The adjacency rows that _pack_rows packed for an n-vertex graph."""
    full = (1 << n) - 1
    return [packed >> n * v & full for v in range(n)]


def _class_entry(rows, keys) -> int:
    """The graph with these adjacency rows and vertex keys (_vertex_keys)
    as one int: its packed rows (_pack_rows) in the low n*n bits, which
    _unpack_rows reads from it as they are, and above them the keys,
    _KEY_BITS bits each, vertex 0's lowest."""
    packed = 0
    for key in reversed(keys):
        packed = packed << _KEY_BITS | key
    return packed << len(rows) ** 2 | _pack_rows(rows)


def _entry_keys(n: int, entry: int) -> list[int]:
    """The vertex keys of an n-vertex graph's _class_entry."""
    top = n * n
    return [entry >> at & _KEY_MASK for at in range(top, top + _KEY_BITS * n, _KEY_BITS)]


def _add_class(classes: dict, n: int, entry: int):
    """Add the n-vertex graph of this entry (_class_entry) to classes
    unless a graph isomorphic to it is there already. Returns its packed
    rows (_pack_rows) when it was added, else None.

    classes, the table of one _dedup stream, holds graphs of one order.
    It maps the hash of a graph's sorted vertex keys (hashes of int
    tuples do not depend on PYTHONHASHSEED) to its one representative's
    entry, or to a list of them when non-isomorphic graphs share the
    hash, so a collision reads the keys it compares with instead of
    recomputing them.
    """
    keys = _entry_keys(n, entry)
    slot = hash(tuple(sorted(keys)))
    packed = entry & (1 << n * n) - 1
    held = classes.get(slot)
    if held is None:
        classes[slot] = entry
        return packed
    rows = _unpack_rows(n, entry)
    for rep in [held] if type(held) is int else held:
        if any(_isomorphisms(rows, keys, _unpack_rows(n, rep), _entry_keys(n, rep))):
            return None
    if type(held) is int:
        classes[slot] = [held, entry]
    else:
        held.append(entry)
    return packed


def _dedup(n: int, stream):
    """Yield the packed rows (_pack_rows) of the first graph of each
    class in a stream of n-vertex (route, entry) pairs, in order. Route 0
    passes a graph with no isomorph in the stream (entry: its packed
    rows); route 2 goes through one _add_class table (entry: its
    _class_entry).

    Exact on any stream whose route-0 graphs have no isomorph in it: all
    on route 2 (_corpus_rows), or the children (_children) of pairwise
    non-isomorphic parents (_level's routes). So the children of any
    subset of a level's parents give, once, each class whose
    canonical-deletion parent (_level's soundness) is in the subset."""
    classes: dict = {}
    for route, entry in stream:
        if not route:
            yield entry
        elif (packed := _add_class(classes, n, entry)) is not None:
            yield packed


def _corpus_rows(corpus, n, predicate):
    """Packed rows (_pack_rows) of the corpus graphs on n vertices
    that are connected and pass the predicate, the first of each class in
    corpus order (_dedup, all on route 2)."""
    graphs = (g for g in corpus if g.n == n and is_connected(g) and predicate(g))
    return list(_dedup(n, ((2, _class_entry(g.adj, _vertex_keys(g.adj))) for g in graphs)))


# ---------------------------------------------------------------------------
# canonical augmentation


_LEVELS: dict[tuple[str, int, int], tuple[int, ...]] = {}


def _attachment_sets(
    kind: str, rows, t: int, weight, least: int = 0, meet: int = 0, classes=None
):
    """The vertex sets the next vertex may attach to, in the graph with
    adjacency rows `rows`, when the child must have minimum degree >= t:
    at least t vertices (and at least one), holding every vertex of
    degree t-1. The bipartite chain attaches within one side only, which
    keeps the child bipartite. Sets of 2 to least-1 vertices are left
    out, and so are the sets of exactly least vertices that meet the
    vertex mask `meet`.

    Each set is returned as the sum of weight[v] over its vertices v. A
    weight must hold 1 << v in its low len(rows) bits, so the low bits of
    a sum are the set; weights of 1 << v give the sets' bitmasks.

    Within each twin class (`classes`, by default _twin_classes(rows))
    only a lowest-index prefix is attached to: any other set maps onto
    such a one by an automorphism of the graph that permutes vertices
    within twin classes, and that automorphism, fixing the new vertex,
    carries one child onto the other. Twins share a
    degree, so the vertices of degree t-1 are whole classes. The sets are
    the unions of one prefix per class, which are disjoint, in
    itertools.product order: the classes are folded in from the last, each
    one's options outermost. Before the last fold, a union is dropped when
    it is below its floor, need = max(t, 2, least) less the most vertices
    the classes still to fold can add, unless it may end as one vertex."""
    full = (1 << len(rows)) - 1
    sides = [full] if kind == "general" else _bipartite_sides(rows)
    low = sum(1 << v for v, row in enumerate(rows) if row.bit_count() == t - 1)
    prefixes = []
    for cls in _twin_classes(rows) if classes is None else classes:
        sums = [0]
        for v in cls:
            sums.append(sums[-1] + weight[v])
        prefixes.append(sums[-1:] if low >> cls[0] & 1 else sums)
    fewest = max(t, 1)
    need = max(fewest, 2, least)
    small = 1 if fewest == 1 else -1  # the most vertices of a union that may end as one
    sets = []
    for side in sides:
        if low & ~side:
            continue
        out = full & ~side
        options = [[s for s in sums if not s & out] for sums in prefixes] if out else prefixes
        floor = need - sum((opts[-1] & full).bit_count() for opts in options)
        combos = [0]
        for opts in reversed(options):
            floor += (opts[-1] & full).bit_count()
            if 0 < floor < need:
                combos = [
                    s
                    for a in opts
                    for b in combos
                    if not small < ((s := a + b) & full).bit_count() < floor
                ]
            else:
                combos = [a + b for a in opts for b in combos]
        for s in combos:
            d = (s & full).bit_count()
            if d >= fewest and not (2 <= d < least or d == least and s & meet):
                sets.append(s)
    return sets


@cache
def _order_tables(m: int) -> tuple:
    """The parts of _children's layout for parents of order m, built once
    per m: the offsets c_at, a_at and r_at of a weight's fields; ones (1 in
    every _KEY_BITS field), guard (every field's top bit) and fields (all
    their bits); by_row[row], the degree and spread bits of a vertex with
    that row, for all 2**m rows; and fixed[v], the bits of v's weight that
    do not depend on the parent. A vertex v with row `row` then weighs
    fixed[v] + by_row[row]."""
    f, n = _KEY_BITS, m + 1
    c_at = m + 8
    a_at = c_at + f * m
    r_at = a_at + f * m
    ones = sum(1 << f * u for u in range(m))
    by_row = [0]
    for row in range(1, 1 << m):
        u = (row & -row).bit_length() - 1
        by_row.append(by_row[row & row - 1] + (1 << m | 1 << c_at + f * u))
    fixed = [
        1 << v | 1 << a_at + f * v | (1 << n * v + m | 1 << n * m + v) << r_at for v in range(m)
    ]
    return c_at, a_at, r_at, ones, ones << f - 1, (1 << f * m) - 1, by_row, fixed


def _children(kind: str, rows, t: int):
    """Yield (route, entry) for each child of the graph with adjacency
    rows `rows` that passes prunes (a), (b) and (c) of _level, in
    attachment-set order, with the new vertex last: route is what (b)
    proves about its isomorphs (_level), 0 none or 2 any child of the level;
    entry is a route-2 child's _class_entry, a route-0 child's _pack_rows.

    Nothing is built per child but a few ints. What a set A changes is a
    sum over its vertices, so each vertex v gets one weight and
    `_attachment_sets` sums the weights of a set's vertices. Low to high,
    a weight holds v's bit; v's degree in 8 bits (the sum is the degree
    sum of A, below 256 for n <= 13); the spread of v's row, one _KEY_BITS field per vertex
    holding 1 at v's neighbours (the sum holds c_u = |N(u) & A| in field
    u); 1 in field v (the sum marks A's fields); and the two bits v adds
    to the child's packed rows. All but the degree and the spread are
    fixed per order (_order_tables). From these the keys of the old
    vertices in the child, packed as in a class entry, are one expression
    (_vertex_keys): an attached u gains degree 1, neighbour-degree
    sum c_u + |A| and c_u triangles, any other u gains c_u to its
    neighbour-degree sum.

    Prune (b) then runs on all fields at once. The new vertex's key is
    head = |A| << 16 | (|A| + the degree sum of A) << 8 | half the sum of
    c_u over the attached u (its triangles), and u outranks it when u's
    key is at least head + 1; setting each field's top bit (a guard) and
    subtracting that threshold from every field leaves the guard set
    exactly there. A u whose deletion leaves the parent connected is a
    non-cut vertex of the child, except when A = {u}: then u separates the
    new vertex. Any other u is a non-cut vertex of the child when A meets
    every component of the parent minus u. With D the largest degree of a
    u of the first kind, every set of 2 to D-1 vertices is dropped (u
    outranks the new vertex outside or inside A), and so is every set of
    exactly D >= 2 vertices that holds such a u of degree D (it has degree
    D + 1 in the child), so `_attachment_sets` leaves them out (the degree
    leads the key). The same test at threshold head finds the old vertices
    whose key ties the new vertex's: a child with none takes route 0, and
    one with some route 2. One pass over the parent packs its keys (guards
    set) and rows and finds its cut vertices, tracing the components of
    the parent minus u only for those.

    Isomorphic siblings share the new vertex's key, so a child whose key
    is new among its siblings is first in its orbit; prune (c)
    (_orbit_test) checks only the others."""
    m, n = len(rows), len(rows) + 1
    f = _KEY_BITS
    c_at, a_at, r_at, ones, guard, fields, by_row, fixed = _order_tables(m)
    keys = _vertex_keys(rows)
    classes = _twin_classes(rows)
    full = (1 << m) - 1
    gbase, base_rows, solid, most, meet, cuts = guard, 0, 0, 0, 0, []
    for u, row in enumerate(rows):
        gbase += keys[u] << f * u
        base_rows += row << n * u
        bit, left = 1 << f * u + f - 1, full & ~(1 << u)
        part = _reach_mask(rows, left & -left, left)
        if part == left:
            solid |= bit
            if keys[u] >> 16 > most:
                most, meet = keys[u] >> 16, 1 << u
            elif keys[u] >> 16 == most:
                meet |= 1 << u
            continue
        parts = [part]
        while left := left ^ parts[-1]:
            parts.append(_reach_mask(rows, left & -left, left))
        cuts.append((bit, parts))
    weight = [fixed[v] + by_row[row] for v, row in enumerate(rows)]
    heads, first = set(), None
    for s in _attachment_sets(kind, rows, t, weight, most, meet if most >= 2 else 0, classes):
        attach = s & full
        d = attach.bit_count()
        c = s >> c_at & fields
        on = s >> a_at & fields
        inner = c & on * _KEY_MASK
        # the new vertex's triangles: half of the sum of inner's fields,
        # which the product with ones gathers in field m-1
        tri = (inner * ones >> f * (m - 1) & _KEY_MASK) >> 1
        head = (d << 8 | d + (s >> m & 255)) << 8 | tri
        child = gbase + (c << 8) + on * (1 << 16 | d << 8) + inner
        over = (child - (head + 1) * ones) & guard
        if over & (solid & ~(on << f - 1) if d == 1 else solid):
            continue
        if over & ~solid and any(
            over & bit and all(comp & attach for comp in parts) for bit, parts in cuts
        ):
            continue
        tied = (child - head * ones) & guard != over
        if head in heads:
            first = first or _orbit_test(kind, rows, keys, classes)
            if not first(attach):
                continue
        heads.add(head)
        entry = base_rows + (s >> r_at)
        yield (2, (child - guard | head << f * m) << n * n | entry) if tied else (0, entry)


def _orbit_test(kind: str, rows, keys, classes):
    """Prune (c) of _level for the graph with adjacency rows `rows`,
    vertex keys `keys` and twin classes `classes`: a function that tells
    whether an attachment set of (a), as a vertex mask, comes first in
    its orbit under the automorphisms of the graph.

    A set of (a) is known by its counts c_i in the classes, and
    _attachment_sets yields it at place sum_i c_i * p_i, p_i being the
    product of |class j| + 1 over the classes j after i, plus 2**m per
    vertex on the second side of the bipartite chain. A class map g
    (_class_automorphisms) sends it to the set with c_i vertices in
    class g(i). So class i gets one _KEY_BITS field per map, holding
    p_g(i), and a set's counts times these hold the places of all its
    images, the identity's first (below 2**23 for m <= 18); the guarded
    subtraction of prune (b) then finds an earlier one."""
    group = _class_automorphisms(rows, keys, classes)
    if len(group) == 1:
        return lambda attach: True
    m, f = len(rows), _KEY_BITS
    side = 0 if kind == "general" else _bipartite_sides(rows)[1]
    places, place = [0] * len(classes), 1
    for i in reversed(range(len(classes))):
        places[i] = place + ((side >> classes[i][0] & 1) << m)
        place *= len(classes[i]) + 1
    orbit = [
        (sum(1 << v for v in cls), sum(places[to[i]] << f * j for j, to in enumerate(group)))
        for i, cls in enumerate(classes)
    ]
    ones = sum(1 << f * j for j in range(len(group)))
    guard = ones << f - 1

    def first(attach):
        at = 0
        for mask, images in orbit:
            at += (attach & mask).bit_count() * images
        return ((at | guard) - (at & _KEY_MASK) * ones) & guard == guard

    return first


def _level(kind: str, n: int, t: int) -> tuple[int, ...]:
    """Packed rows (_pack_rows) of one representative per connected
    class on n vertices with minimum degree >= t (bipartite ones for that
    kind), in a deterministic order; they are not canonical forms.

    Each class H on n vertices is grown from one on n-1 by a new vertex
    attached to a chosen set. Three prunes run before a child is kept:

    (a) the set has at least t vertices, holds every parent vertex of
        degree t-1 and meets each twin class of the parent in a
        lowest-index prefix (`_attachment_sets`);
    (b) the child is dropped when some non-cut vertex has a larger key
        than the new vertex, a key (_vertex_keys) being the degree, then
        the sum of the neighbours' degrees, then the triangles through
        the vertex (the cheap half of McKay's canonical deletion, J.
        Algorithms 26, 1998);
    (c) the child is dropped when an automorphism of the parent maps its
        set onto one that (a) yields earlier (McKay's orbit pruning,
        `_orbit_test`); that set's child is isomorphic to this one by a
        map that fixes the new vertex, so (b) keeps it too.

    `_children` runs all three, on a child's keys packed in one int. Its
    kept children stream through `_dedup`: one that may meet an isomorph
    from another parent goes to `_add_class`, which buckets by sorted
    vertex invariants and tests isomorphism exactly, so no child is
    labeled. _vertex_keys runs once per parent: a child's keys follow
    from its parent's.

    Routes. The new vertex x of a child is top when no other has its key.

    Lemma (unique top). An isomorphism g from a child C with top x onto a
    kept child C' maps x to the new vertex x' of C': g keeps keys and
    non-cut vertices, and (b) gave x and x' the largest key among the
    non-cut vertices, which in C' only g(x) has. So C - x and C' - x' are
    isomorphic, hence one parent P (a level holds one per class).

    Lemma (orbits). Children of P with sets A and A' are isomorphic by a
    map that fixes the new vertex iff an automorphism of P maps A onto A'
    (restrict the map, or extend the automorphism). So by (c) a kept top
    child has no isomorph among the other kept children.

    So `_children` routes a top child to no dict (route 0) and a tied
    child to the level-wide dict (route 2). A tied child that (c) drops
    is isomorphic to an earlier sibling that takes that dict too, so the
    level is the one a single dict for all the children of (a) and (b)
    gives, representatives and order alike. At _level("general", 8, 2),
    (c) drops 1,611 of the 9,351 children that (b) keeps, and the routes
    take 5,458 and 2,282 (298 of them duplicates) of the rest.

    Soundness: in H delete a non-cut vertex v of maximum key among the
    non-cut vertices. H - v is connected with minimum degree >= t-1, so
    its class has a representative P in _level(kind, n-1, max(t-1, 0));
    let f map H - v onto P. S = f(N(v)) has deg(v) >= t vertices and
    holds every vertex whose degree dropped to t-1. Permuting twins maps
    S onto a set of (a) whose child is isomorphic to H by a map that
    fixes the new vertex, so (b) keeps it (that map keeps keys and
    non-cut vertices), and (c) keeps the first set of its orbit. In the
    bipartite chain H - v stays bipartite with N(v) on one side, and
    automorphisms keep or swap the sides. So every class reaches the
    dedup, which keeps its first child and, being exact, never merges two
    classes. t = 0 is the unfiltered chain. Both proofs use of the key
    only that isomorphisms preserve it; a finer key leaves fewer ties.

    Shared levels. For n >= 2 the t = 1 level is the t = 0 level: both
    ask for a nonempty set, and only the one-vertex parent has a vertex
    of degree 0, which its one nonempty set holds. The t = 2 level is the
    t = 0 level filtered to minimum degree >= 2, with the same
    representatives in the same order, so it is filtered once that is
    built: the parents are the same, as (n-1, 1) is (n-1, 0); a parent's
    t = 2 sets are its t <= 1 sets whose child has minimum degree >= 2,
    in the same relative order (a class of degree-1 vertices keeps only
    its whole-class option); prunes (b) and (c) do not depend on t, as
    (c) compares a set only with its images; and the dedup keeps the
    first child of each class.

    Cold, on one core of a 2-core machine under Python 3.11.7, the
    min-degree chain of survey_min_degree(5, 8) takes about 0.079 s, the
    full general level at n=8 about 0.10 s, _level("general", 9, 3)
    (84,242 classes) about 0.79 s at 23 MB peak RSS, the full general
    level at n=9 (261,080 classes) about 1.9 s at 38 MB and
    _level("bipartite", 12, 2) (67,704 classes) about 3.0 s.
    """
    if n == 1:
        return (0,) if t == 0 else ()
    if t == 1:
        t = 0
    key = (kind, n, t)
    if key not in _LEVELS:
        full = _LEVELS.get((kind, n, 0))
        if t == 2 and full is not None:
            _LEVELS[key] = tuple(
                packed for packed in full if min(map(int.bit_count, _unpack_rows(n, packed))) >= 2
            )
        else:
            parents = _level(kind, n - 1, max(t - 1, 0))
            children = (_children(kind, _unpack_rows(n - 1, p), t) for p in parents)
            _LEVELS[key] = tuple(_dedup(n, chain.from_iterable(children)))
    return _LEVELS[key]
