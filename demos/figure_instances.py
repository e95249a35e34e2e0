#!/usr/bin/env python3
"""Walk through the two shipped six-vertex instances, fixtures/fig1a.bg
and fixtures/fig1b.bg.

Both are pairs of all-plus triangles, so no walk can turn at an interior
vertex: every nontrivial path is a single edge, there are no source-to-
target paths at all, and every link is a turnaround.
"""

from pathlib import Path

from bimenger import (
    enumerate_paths,
    enumerate_xy_links,
    oracle_max_links,
    oracle_min_separator,
    solve_menger,
)
from bimenger.bmcli import parse_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

inst = parse_instance((FIXTURES / "fig1a.bg").read_text())
g, X, Y = inst.graph, inst.X, inst.Y
print("instance A:", g.n, "vertices,", g.m, "edges, X =", sorted(X), "Y =", sorted(Y))

print("X-Y paths:", len(enumerate_paths(g, X, Y)))          # none: the sides are disconnected
print("nontrivial X-X paths:", len(enumerate_paths(g, X, X, nontrivial_only=True)))

links = enumerate_xy_links(g, X, Y)
print("links:", len(links), "- all", {l.kind for l in links})  # 3 x 3 turnarounds

# one turnaround occupies two X vertices and two Y vertices, and a second
# disjoint one does not fit inside a triangle, so the packing value is 2
pk = oracle_max_links(g, X, Y)
print("max packing (turnarounds count twice):", pk.value)

# a separator must destroy one whole triangle's edges; one vertex leaves
# an edge standing, so the minimum has size 2 and the bound is tight here
sep = oracle_min_separator(g, X, Y)
print("min separator:", sorted(sep.vertices))

cert = solve_menger(g, X, Y)
print("solver certificate: value", cert.value, "separator", sorted(cert.separator))
print()

# instance B drops one X-side edge; both remaining X edges share the
# vertex a, so deleting a alone kills every link while the packing value
# stays 2: the min-max inequality is strict, and weight-2 counting of
# turnarounds is what keeps the packing side on top
inst = parse_instance((FIXTURES / "fig1b.bg").read_text())
g, X, Y = inst.graph, inst.X, inst.Y
print("instance B:", g.n, "vertices,", g.m, "edges")
print("links:", len(enumerate_xy_links(g, X, Y)))
cert = solve_menger(g, X, Y)
print("solver certificate: value", cert.value, "separator", sorted(cert.separator))
for link in cert.links:
    parts = ["-".join(map(str, w.vertices)) for w in link.walks]
    print("packed", link.kind, "of weight", link.weight, ":", " + ".join(parts))
