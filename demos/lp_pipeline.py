#!/usr/bin/env python3
"""Step through the LP pipeline by hand on one small instance.

Shows each stage the solver normally hides: terminal attachment, vertex
splitting, the packing program and its dual (one solve of the dual,
whose final tableau also holds an optimum of the program, checked as an
exact pair), support decomposition, and
the cut that becomes the separator.  Ends with the relaxation-gap
witness that explains why values come from a perfect matching, not from
the relaxation.
"""

from bimenger import (
    build_graph,
    build_dual,
    build_primal,
    decompose_packing,
    extract_cut,
    map_cut_to_separator,
    map_links_back,
    is_integral,
    simplex_max,
)
from bimenger.bigraph import MINUS, PLUS
from bimenger.matching import max_packing
from bimenger.ratlp import dual_vectors, is_feasible, primal_point
from bimenger.reduce import attach_terminals, split_and_close

# a five-vertex instance with one genuine path and one turnaround
g = build_graph(
    ["a", "b", "c", "d", "e"],
    [
        ("a", "b", PLUS, PLUS),    # an X-X edge: one half of a turnaround
        ("d", "e", PLUS, PLUS),    # a Y-Y edge: the other half
        ("c", "d", MINUS, PLUS),   # c-d: an X-Y path candidate
    ],
)
X, Y = {"a", "b", "c"}, {"d", "e"}

g_hat, s, t, tmap = attach_terminals(g, X, Y)
print("attached:", g_hat.n, "vertices,", g_hat.m, "edges, terminals", s, t)

g_prime, f, smap = split_and_close(g_hat, s, t)
print("split:", g_prime.n, "vertices,", g_prime.m, "edges, closing edge", f)

P = build_primal(g_prime, f)
D = build_dual(P)   # read off (P) alone: row k of (D) is column k of (P)
dsol = simplex_max(D)
# one solve: a basic optimum of (P) sits in the reduced costs of (D)'s
# surplus columns, x_k = -d(sl:k)
x = primal_point(D, dsol)
print("relaxed packing LP:", x[-1], "(integral:", is_integral(x), ")")
print("exact LP pair: x feasible for (P):", is_feasible(P, x),
      " root feasible for (D):", is_feasible(D, dsol.values),
      " x_f = dual LP:", x[-1] == -dsol.objective_value)

# an integral point of (P) is a perfect matching of the half vertices
chosen, xf = max_packing(g_prime, f, smap.split_origin)
print("exact integral optimum:", xf)

dec = decompose_packing(g_prime, f, chosen, xf)
links = map_links_back([tmap, smap], dec.links)
for link in links:
    parts = ["-".join(map(str, w.vertices)) for w in link.walks]
    print("packed", link.kind, "weight", link.weight, ":", " + ".join(parts))

z, y = dual_vectors(D, dsol, g_prime)
cut = extract_cut(g_prime, f, z, y)
print("cut size:", len(cut), "<= sum of y* =", sum(y.values()))
print("mapped separator:", sorted(map(str, map_cut_to_separator([tmap, smap], cut))))

# the relaxation gap: on a linkless instance the LP still reaches 1 by
# pushing half a unit into a same-signed gadget pair and cancelling it
# through a split edge; no 0/1 point can do that, and the matching finds
# the true value 0
print()
g0 = build_graph(["x", "y"], [])
gh0, s0, t0, _ = attach_terminals(g0, {"x"}, {"y"})
gp0, f0, smap0 = split_and_close(gh0, s0, t0)
D0 = build_dual(build_primal(gp0, f0))
print("linkless instance: relaxed =", primal_point(D0, simplex_max(D0))[-1],
      " exact =", max_packing(gp0, f0, smap0.split_origin)[1])
