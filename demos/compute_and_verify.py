"""Compute proper connection numbers and check the certificates.

The solver never asks you to trust it: every answer comes with an edge
coloring that is re-verified from scratch, and verify_certificate lets
you audit any coloring you are handed, including corrupted ones.
"""

from properconn import (
    from_edge_list,
    from_graph6,
    pc_exact,
    to_graph6,
    verify_certificate,
)

NAMED = {
    "complete K5": from_graph6("D~{"),
    "path P5": from_edge_list(5, [(i, i + 1) for i in range(4)]),
    "cycle C5": from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)]),
    "star with 4 leaves": from_edge_list(5, [(0, i) for i in range(1, 5)]),
    "three triangles sharing a vertex": from_graph6("F@QFw"),
}


def main():
    print("graph                                 pc  strategy     colors")
    print("-" * 66)
    certs = {}
    for name, g in NAMED.items():
        pc, cert = pc_exact(g)
        certs[name] = cert
        colors = ",".join(str(c) for c in cert.coloring.colors)
        print(f"{name:<37} {pc}   {cert.strategy:<12} {colors}")

    print()
    print("Every certificate re-verifies:")
    for name, cert in certs.items():
        report = verify_certificate(cert)
        print(f"  {name:<37} ok={report.ok}")

    # now corrupt one and watch the verifier catch it
    victim = certs["cycle C5"]
    from properconn import EdgeColoring, PcCertificate

    monochrome = (1,) * victim.graph.m
    forged = PcCertificate(
        EdgeColoring(victim.graph, victim.k, monochrome),
        victim.strategy,
        victim.strong,
    )
    report = verify_certificate(forged)
    print()
    print(f"Tampered C5 coloring: ok={report.ok}")
    print(f"  reason: {report.reason}")

    g6 = to_graph6(NAMED["cycle C5"])
    print()
    print(f"(C5 in graph6 is {g6!r}; try: pc compute --graph6 '{g6}')")


if __name__ == "__main__":
    main()
