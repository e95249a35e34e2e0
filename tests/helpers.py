"""Helpers that only the tests use: (x, x_f) read off a solved (P),
forward lifts through the reductions, the signed z-sum of a link, the no-turnaround equality verdict, the
doubled split graph of the X-path pipeline, and the scripts of `tools/`."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from bimenger import (
    BidirectedGraph,
    Link,
    SplitMap,
    TerminalMap,
    Walk,
    check_walk,
    enumerate_xy_links,
    oracle_max_links,
    oracle_min_separator,
    solve_menger,
)
from bimenger.bigraph import MINUS, PLUS
from bimenger.ratlp import LpProblem, LpSolution
from bimenger.reduce import (
    InvalidDerivedLink,
    attach_terminals,
    double_for_xpaths,
    s_side,
    split_and_close,
)


def primal_vectors(problem: LpProblem, sol: LpSolution) -> tuple[dict, object]:
    """(x per edge id, x_f) from a solved primal."""
    x = {}
    xf = None
    for name, v in zip(problem.names, sol.values):
        if name == "xf":
            xf = v
        elif name.startswith("x:"):
            x[int(name[2:])] = v
    return x, xf


def link_sigma_sum(g: BidirectedGraph, z: dict, link: Link):
    """Sum of sigma(u,e) z_u + sigma(v,e) z_v over the link's edges."""
    total = 0
    for w in link.walks:
        for eid in w.edges:
            e = g.edge(eid)
            total += e.sign_u.unit * z[e.u] + e.sign_v.unit * z[e.v]
    return total


class EqualityVerdict(NamedTuple):
    applicable: bool
    holds: Optional[bool]
    max_paths: Optional[int]
    min_separator: Optional[int]


def check_no_turnaround_equality(g: BidirectedGraph, X: Iterable, Y: Iterable) -> EqualityVerdict:
    """When no X-Y turnaround exists, max paths must equal min separator.

    The precondition is verified by enumeration; on instances with a
    turnaround the verdict is not_applicable (holds=None).
    """
    X, Y = set(X), set(Y)
    links = enumerate_xy_links(g, X, Y)
    if any(link.kind == "turnaround" for link in links):
        return EqualityVerdict(False, None, None, None)
    pack = oracle_max_links(g, X, Y)
    sep = oracle_min_separator(g, X, Y)
    cert = solve_menger(g, X, Y)
    holds = pack.value == sep.size == cert.value
    return EqualityVerdict(True, holds, pack.value, int(sep.size))


def lift_link_through_terminal(tmap: TerminalMap, link: Link) -> Link:
    """Lift an X-Y link of the source graph to an s-t link of the gadgeted graph."""
    s, t, g_hat = tmap.s, tmap.t, tmap.derived
    x_gadget, y_gadget, arrival = tmap.x_gadget, tmap.y_gadget, tmap.arrival_edge

    def s_edge(x):
        xg = x_gadget[x]
        (e,) = [e for e in g_hat.incident(s) if e.other(s) == xg]
        return e.eid

    def t_edge(y):
        yg = y_gadget[y]
        (e,) = [e for e in g_hat.incident(t) if e.other(t) == yg]
        return e.eid

    def lift_path(w: Walk) -> Walk:
        x, y = w.start, w.end
        if w.is_trivial:
            ax = arrival[(x, "X", PLUS)]
            ay = arrival[(y, "Y", MINUS)]
        else:
            ax = arrival[(x, "X", g_hat.edge(w.edges[0]).sign_at(x).flip())]
            ay = arrival[(y, "Y", g_hat.edge(w.edges[-1]).sign_at(y).flip())]
        vertices = (s, x_gadget[x]) + w.vertices + (y_gadget[y], t)
        edges = (s_edge(x), ax) + w.edges + (ay, t_edge(y))
        return Walk(vertices, edges)

    def lift_part(w: Walk, side: str) -> Walk:
        gadget = x_gadget if side == "X" else y_gadget
        term = s if side == "X" else t
        term_edge = s_edge if side == "X" else t_edge
        a, b = w.start, w.end
        ea = arrival[(a, side, g_hat.edge(w.edges[0]).sign_at(a).flip())]
        eb = arrival[(b, side, g_hat.edge(w.edges[-1]).sign_at(b).flip())]
        vertices = (term, gadget[a]) + w.vertices + (gadget[b], term)
        edges = (term_edge(a), ea) + w.edges + (eb, term_edge(b))
        return Walk(vertices, edges)

    if link.kind == "path":
        out = Link("path", (lift_path(link.path),))
    else:
        out = Link(
            "turnaround",
            (lift_part(link.ss_part, "X"), lift_part(link.tt_part, "Y")),
        )
    for w in out.walks:
        if not check_walk(g_hat, w):
            raise InvalidDerivedLink("lifted walk is not valid in the gadgeted graph")
    return out


def lift_walk_through_split(smap: SplitMap, w: Walk) -> Walk:
    """Lift a walk of the source graph to the split graph, inserting split edges."""
    g, g_prime, s, t = smap.source, smap.derived, smap.s, smap.t
    split_edge_of = smap.split_edge_of

    def image(v, sign):
        if v in (s, t):
            return v
        split = g_prime.edge(split_edge_of[v])  # minus at v+, plus at v-
        return split.u if sign is PLUS else split.v

    vertices = []
    edges = []
    if w.is_trivial:
        raise InvalidDerivedLink("cannot lift a trivial walk into the split graph")
    first = g.edge(w.edges[0])
    vertices.append(image(w.start, first.sign_at(w.start)))
    for i, eid in enumerate(w.edges):
        e = g.edge(eid)
        v_prev, v_next = w.vertices[i], w.vertices[i + 1]
        if image(v_prev, e.sign_at(v_prev)) != vertices[-1]:
            # hop across the split edge before leaving v_prev
            edges.append(split_edge_of[v_prev])
            vertices.append(image(v_prev, e.sign_at(v_prev)))
        edges.append(eid)
        vertices.append(image(v_next, e.sign_at(v_next)))
    out = Walk(tuple(vertices), tuple(edges))
    if not check_walk(g_prime, out):
        raise InvalidDerivedLink("lifted walk is not valid in the split graph")
    return out


def doubled_split(g: BidirectedGraph, X: Iterable):
    """(split doubled graph, f, s side, reduction chain) of
    ``solve_xpaths`` on ``g`` and ``X``; the s side is what s reaches
    without f."""
    g2, X2 = double_for_xpaths(g, X)
    g_hat, s, t, tmap = attach_terminals(g2, X, X2)
    g_prime, f, smap = split_and_close(g_hat, s, t)
    return g_prime, f, s_side(g_prime, f), [tmap, smap]


def load_tool(name: str):
    """The script ``tools/<name>.py`` as a module (`tools/` is not a package)."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
