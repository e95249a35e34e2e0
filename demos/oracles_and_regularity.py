#!/usr/bin/env python3
"""Oracles, matrix regularity, and the two auxiliary reductions.

Everything the solver claims is re-checkable by brute force at this
scale; this script exercises those cross-checks directly.
"""

import random
from pathlib import Path

from bimenger import (
    build_graph,
    check_k_regular,
    incidence_matrix,
    oracle_max_links,
    oracle_st,
    oracle_xpaths,
    solve_st,
    solve_xpaths,
    switch_vertex,
)
from bimenger.bigraph import MINUS, PLUS
from bimenger.bmcli import parse_instance
from bimenger.reduce import double_for_xpaths

# incidence matrices of loop-free bidirected graphs have column sums 2,
# which makes twice the inverse of every nonsingular submatrix integral
g = build_graph(
    ["u", "v", "w"],
    [("u", "v", PLUS, MINUS), ("v", "w", PLUS, PLUS), ("u", "w", MINUS, MINUS)],
)
M = incidence_matrix(g)
print("incidence rows:")
for vid, row in zip(M.row_ids, M.rows):
    print(" ", vid, list(row))
print("2-regular up to order 3:", check_k_regular(M.as_lists(), 2, max_order=3))

# switching a vertex flips all its half-edge signs and changes nothing
# observable: every packing and separator value is preserved
h = switch_vertex(g, "v")
print(
    "packing before/after switching v:",
    oracle_max_links(g, {"u"}, {"w"}).value,
    oracle_max_links(h, {"u"}, {"w"}).value,
)

# the two-terminal variant: terminals are excluded from the separator,
# and a direct edge between them makes separation impossible
st = build_graph(
    ["s", "m", "t"],
    [("s", "m", MINUS, PLUS), ("m", "t", MINUS, PLUS)],
)
pk, sep = oracle_st(st, "s", "t")
print("s-t packing", pk.value, "separator", sorted(sep.vertices))
cert = solve_st(st, "s", "t")
print("s-t certificate agrees:", cert.value == pk.value)

# X-path packing reduces to turnaround packing between two copies; the
# all-plus triangle shows the factor two is genuinely needed: one path
# can be packed but two vertices must be deleted to kill all of them
triangle = Path(__file__).resolve().parent.parent / "fixtures" / "x_triangle.bg"
inst = parse_instance(triangle.read_text())
tri, X = inst.graph, inst.X
print("triangle oracle (packing, hitting):", oracle_xpaths(tri, X))
doubled, X2 = double_for_xpaths(tri, X)
print(
    "doubled-copy turnaround value:",
    oracle_max_links(doubled, X, X2, max_vertices=doubled.n, max_edges=doubled.m).value,
)
cert = solve_xpaths(tri, X)
print("xpath certificate: packing", cert.value, "separator", sorted(cert.separator))

# a quick randomized parity check of solver against oracle
rng = random.Random(99)
agree = 0
for _ in range(10):
    n, m = rng.randrange(2, 6), rng.randrange(0, 7)
    vs = [f"v{i}" for i in range(n)]
    es = []
    for _ in range(m):
        u, v = rng.sample(vs, 2)
        es.append((u, v,
                   PLUS if rng.random() < 0.5 else MINUS,
                   PLUS if rng.random() < 0.5 else MINUS))
    gg = build_graph(vs, es)
    X = set(rng.sample(vs, min(2, n)))
    packing, hitting = oracle_xpaths(gg, X)
    agree += solve_xpaths(gg, X).value == packing
print("solver = oracle on", agree, "of 10 random X-path instances")
