"""Helpers that only the tests use: the shipped instances of `fixtures/`
and the suite200 instances, (x, x_f) and the chosen edge set read off a
solved (P), the tables the reduction records keep in one direction only,
read the other way, forward lifts through the reductions, the signed
z-sum of a link, the no-turnaround equality verdict, the doubled split
graph of the X-path pipeline, and the scripts of `tools/`."""

from __future__ import annotations

import functools
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
from bimenger.bmcli import InstanceFile, _trial_params, parse_instance, random_instance
from bimenger.ratlp import LpProblem, LpSolution
from bimenger.reduce import (
    InvalidDerivedLink,
    attach_terminals,
    double_for_xpaths,
    s_side,
    split_and_close,
)


ROOT = Path(__file__).resolve().parent.parent
SUITE_SEED = 301  # the acceptance suite's seed (suite200)


def shipped(name: str) -> tuple[BidirectedGraph, frozenset, frozenset]:
    """(graph, X, Y) of the shipped instance ``fixtures/<name>.bg``."""
    inst = parse_instance((ROOT / "fixtures" / f"{name}.bg").read_text())
    return inst.graph, inst.X, inst.Y


@functools.cache
def suite200_instances() -> tuple[InstanceFile, ...]:
    """The acceptance suite: the 200 trials of ``bmcli selfcheck --seed
    301 --max-vertices 7``.  The instances are frozen, so one copy is
    shared."""
    return tuple(random_instance(_trial_params(SUITE_SEED, i, 7)) for i in range(200))


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


def chosen_edges(x: dict) -> frozenset:
    """The edges that the 0/1 vector ``x`` sets to 1, as
    ``decompose_packing`` takes them; fails on any other value."""
    assert all(v in (0, 1) for v in x.values()), x
    return frozenset(eid for eid, v in x.items() if v == 1)


def split_edge_of(smap: SplitMap) -> dict:
    """Each non-terminal's split edge: ``smap.split_origin`` inverted."""
    return {v: eid for eid, v in smap.split_origin.items()}


def gadget_of(tmap: TerminalMap, side: str) -> dict:
    """Each X (``side`` "X") or Y ("Y") vertex's gadget vertex: the
    neighbours of s or t, taken to the vertex they guard by
    ``back_vertex``."""
    term = tmap.s if side == "X" else tmap.t
    return {tmap.back_vertex[e.other(term)]: e.other(term) for e in tmap.derived.incident(term)}


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
    g_hat = tmap.derived
    terminal = {"X": tmap.s, "Y": tmap.t}
    gadget = {side: gadget_of(tmap, side) for side in terminal}

    def entry(v, side: str, sign_at_v) -> tuple[tuple, tuple]:
        """(vertices, edges) of the gadget walk from the side's terminal
        up to v, whose last edge meets v with ``sign_at_v``."""
        term, gv = terminal[side], gadget[side][v]
        (first,) = [e.eid for e in g_hat.incident(term) if e.other(term) == gv]
        (arrival,) = [e.eid for e in g_hat.incident(gv) if e.other(gv) == v and e.sign_at(v) == sign_at_v]
        return (term, gv), (first, arrival)

    def lift(w: Walk, start_side: str, end_side: str) -> Walk:
        if w.is_trivial:
            signs = (PLUS, MINUS)
        else:
            signs = (g_hat.edge(w.edges[0]).sign_at(w.start).flip(),
                     g_hat.edge(w.edges[-1]).sign_at(w.end).flip())
        (va, ea), (vb, eb) = entry(w.start, start_side, signs[0]), entry(w.end, end_side, signs[1])
        return Walk(va + w.vertices + vb[::-1], ea + w.edges + eb[::-1])

    if link.kind == "path":
        out = Link("path", (lift(link.path, "X", "Y"),))
    else:
        out = Link("turnaround", (lift(link.ss_part, "X", "X"), lift(link.tt_part, "Y", "Y")))
    for w in out.walks:
        if not check_walk(g_hat, w):
            raise InvalidDerivedLink("lifted walk is not valid in the gadgeted graph")
    return out


def lift_walk_through_split(smap: SplitMap, w: Walk) -> Walk:
    """Lift a walk of the source graph to the split graph, inserting split edges."""
    g, g_prime, s, t = smap.source, smap.derived, smap.s, smap.t
    split_edge = split_edge_of(smap)

    def image(v, sign):
        if v in (s, t):
            return v
        split = g_prime.edge(split_edge[v])  # minus at v+, plus at v-
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
            edges.append(split_edge[v_prev])
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
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
