"""A sparse family where the two-color heuristics are provably hopeless.

Take four complete bipartite blocks K_{t,t} and join one corner of three
of them to a hub in the fourth. The three joining edges are bridges
that all meet at the hub, and any route between two outer blocks must
cross two of them back to back, so their colors must be pairwise
different: three colors are forced no matter how large t grows, even
though min degree scales like n/8.

For t=2 (16 vertices) this script lets the solver prove it: pc2_pipeline
returns None (its kernel ruled out every 2-coloring), pc_exact starts at
the hub's bridge bound of 3 and finds a 3-coloring, and the witness
passes the checker again.
"""

import time

from properconn import (
    degree_stats,
    find_bridges,
    make_star_of_bicliques,
    pc2_pipeline,
    pc_exact,
    verify_certificate,
)


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
    pc, cert = pc_exact(g)
    took = time.monotonic() - t0
    print(f"  pc_exact: pc = {pc} in {took:.2f}s, strategy {cert.strategy}")
    print(f"  witness: {list(cert.coloring.colors)}")
    print(f"  the witness passes the checker: {verify_certificate(cert).ok}")


if __name__ == "__main__":
    main()
