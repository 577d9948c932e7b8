"""A sparse family where the two-color heuristics are provably hopeless.

Take four complete bipartite blocks K_{t,t} and join one corner of three
of them to a hub in the fourth. The three joining edges all meet at the
hub, and any proper route between two outer blocks must cross two of
them back to back, so their colors must be pairwise different: three
colors are forced no matter how large t grows, even though min degree
scales like n/8.

For t=2 (16 vertices) this script lets the solver prove it: pc2_pipeline
returns None (its kernel ruled out every 2-coloring), pc_exact's 2-color
sweep comes back empty too, and a hand-picked 3-coloring passes the
checker.
"""

import time

from properconn import (
    SearchBudgetExceeded,
    degree_stats,
    find_bridges,
    is_proper_connected,
    make_coloring,
    make_star_of_bicliques,
    pc2_pipeline,
    pc_exact,
)

WITNESS = (1, 2, 1, 2, 3, 2, 1, 3, 2, 1, 2, 3, 2, 2, 3, 1, 2, 2, 3)


def main():
    for t in (1, 2, 3):
        g = make_star_of_bicliques(t)
        _, lo, hi = degree_stats(g)
        print(
            f"t={t}: n={g.n:<3} m={g.m:<3} min degree {lo} = n/8, "
            f"bridges at the hub: {find_bridges(g)}"
        )
    print()

    g = make_star_of_bicliques(2)
    print("t=2 in detail:")
    verdict = "no 2-coloring" if pc2_pipeline(g) is None else "2 colors suffice"
    print(f"  pc2_pipeline says: {verdict}")

    t0 = time.monotonic()
    try:
        pc_exact(g, kmax=2)
        print("  unexpected: a 2-coloring was found")
    except SearchBudgetExceeded as exc:
        took = time.monotonic() - t0
        print(f"  2-color sweep exhausted in {took:.1f}s: pc in [{exc.lower}, {exc.upper}]")

    witness = make_coloring(g, 3, dict(zip(g.edges, WITNESS)))
    print(f"  a 3-coloring passes the checker: {is_proper_connected(witness)}")
    print("  so pc = 3 exactly.")


if __name__ == "__main__":
    main()
