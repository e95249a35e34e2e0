"""Graph reductions with invertible bookkeeping.

Three constructions feed the LP pipeline:

* terminal attachment: new terminals s and t wired to the source and
  target sets through per-vertex gadgets, so that s-t links of the
  result correspond exactly to set-to-set links of the input;
* vertex splitting: every non-terminal v becomes v+/v- joined by a
  capacity-one split edge, plus a closing edge f from t back to s, which
  turns internal vertex-disjointness into edge-disjointness; the edge
  ends at s become minus and those at t plus;
* doubling: two disjoint copies, used to reduce X-path packing to
  turnaround packing between the copies.

The terminal attachment deliberately does not wire x to s by two
parallel edges: that would create a two-edge closed trail at s standing
for a trivial path, inflating packings on instances with no links at
all.  The gadget below admits exactly one s-edge per source vertex and
pushes the sign choice one step away from s, which kills the spurious
trail while keeping every genuine link liftable.  This equivalence is
enforced by oracle-parity tests rather than assumed.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from .bigraph import (
    MINUS,
    PLUS,
    BidirectedGraph,
    Edge,
    EdgeId,
    Sign,
    UnknownVertex,
    VerificationFailure,
    VertexId,
    vertex_sort_key,
)
from .walks import Link, Walk, check_walk


class EqualTerminals(Exception):
    """s and t must be distinct."""


class DirectTerminalEdge(Exception):
    """A direct s-t edge makes every internal separator infinite."""


class InvalidDerivedLink(VerificationFailure):
    """A link handed to a backward map does not fit the construction."""


class UnmappableEdge(VerificationFailure):
    """A cut edge with no original vertex to charge (the closing edge f)."""


@dataclasses.dataclass(frozen=True)
class ReductionMap:
    """Bookkeeping for one reduction step.

    Edges keep their ids outside a doubling.  ``special`` holds the
    construction-specific records (terminals, gadget tables, split
    edges, the closing edge f, copies).
    """

    kind: str  # "terminal" | "split" | "double"
    source: BidirectedGraph
    derived: BidirectedGraph
    special: dict


def _fresh(base: str, used: set) -> str:
    name = base
    while name in used:
        name += "'"
    used.add(name)
    return name


def _next_eid(edges: Sequence[Edge]) -> int:
    return max((e.eid for e in edges), default=-1) + 1


def attach_terminals(
    g: BidirectedGraph, X: Iterable, Y: Iterable
) -> tuple[BidirectedGraph, VertexId, VertexId, ReductionMap]:
    """Attach auxiliary terminals s and t through per-vertex gadgets.

    For each x in X, in vertex order, a fresh vertex x~X is added with a
    single edge s--x~X (minus at s, plus at x~X) and two parallel edges
    x~X--x (minus at x~X, one with plus and one with minus at x); then
    the same for each y in Y, with t and plus in place of s and minus.
    Every edge end at s is minus and every one at t is plus, the signs
    ``split_and_close`` gives them.
    """
    X, Y = set(X), set(Y)
    missing = (X | Y) - g.vertex_set
    if missing:
        raise UnknownVertex(f"terminal sets reference undeclared vertices {sorted(map(str, missing))}")
    if not X or not Y:
        raise ValueError("attach_terminals needs nonempty X and Y")

    used = {str(v) for v in g.vertices}
    s = _fresh("s", used)
    t = _fresh("t", used)
    x_order = sorted(X, key=vertex_sort_key)
    y_order = sorted(Y, key=vertex_sort_key)
    x_gadget = {x: _fresh(f"{x}~X", used) for x in x_order}
    y_gadget = {y: _fresh(f"{y}~Y", used) for y in y_order}

    vertices = list(g.vertices) + [s, t] + [x_gadget[x] for x in x_order] + [y_gadget[y] for y in y_order]
    edges = list(g.edges)
    eid = _next_eid(edges)
    gadget_origin: dict[EdgeId, VertexId] = {}
    arrival_edge: dict[tuple[VertexId, str, Sign], EdgeId] = {}

    for terminal, order, gadget, side, sign in (
        (s, x_order, x_gadget, "X", MINUS), (t, y_order, y_gadget, "Y", PLUS)
    ):
        for v in order:
            edges.append(Edge(eid, terminal, gadget[v], sign, sign.flip()))
            gadget_origin[eid] = v
            eid += 1
            for sign_at_v in (PLUS, MINUS):
                edges.append(Edge(eid, gadget[v], v, sign, sign_at_v))
                gadget_origin[eid] = v
                arrival_edge[(v, side, sign_at_v)] = eid
                eid += 1

    g_hat = BidirectedGraph(tuple(vertices), tuple(edges))
    rmap = ReductionMap(
        kind="terminal",
        source=g,
        derived=g_hat,
        special={
            "s": s,
            "t": t,
            "X": frozenset(X),
            "Y": frozenset(Y),
            "x_gadget": x_gadget,
            "y_gadget": y_gadget,
            "gadget_origin": gadget_origin,
            "arrival_edge": arrival_edge,
        },
    )
    return g_hat, s, t, rmap


def split_and_close(
    g: BidirectedGraph, s: VertexId, t: VertexId
) -> tuple[BidirectedGraph, EdgeId, ReductionMap]:
    """Split every non-terminal vertex and close the graph with edge f.

    Each v outside {s,t} becomes v+ (inheriting the plus edge ends) and
    v- (the minus ends), joined by a split edge with minus at v+ and
    plus at v-.  Every edge end at s becomes minus and every one at t
    plus: links meet s and t only as walk endpoints, which carry no sign
    condition, so the s-t links are unchanged.  A new edge f joins t to s
    with plus at s and minus at t.  Refuses a direct s-t edge.
    """
    if s == t:
        raise EqualTerminals(f"terminals coincide: {s!r}")
    if not g.has_vertex(s) or not g.has_vertex(t):
        raise UnknownVertex("terminal not in graph")

    used = {str(v) for v in g.vertices}
    plus_of, minus_of = {}, {}
    non_terminals = [v for v in g.vertices if v not in (s, t)]
    for v in non_terminals:
        plus_of[v] = _fresh(f"{v}+", used)
        minus_of[v] = _fresh(f"{v}-", used)

    def end(v: VertexId, sign: Sign) -> tuple[VertexId, Sign]:
        if v == s:
            return s, MINUS
        if v == t:
            return t, PLUS
        return (plus_of[v] if sign is PLUS else minus_of[v]), sign

    vertices = [s, t]
    for v in non_terminals:
        vertices.append(plus_of[v])
        vertices.append(minus_of[v])

    edges = []
    for e in g.edges:
        if {e.u, e.v} == {s, t}:
            raise DirectTerminalEdge(f"edge {e.eid} joins {s!r} and {t!r} directly")
        (u, sign_u), (v, sign_v) = end(e.u, e.sign_u), end(e.v, e.sign_v)
        edges.append(Edge(e.eid, u, v, sign_u, sign_v))
    eid = _next_eid(edges)
    split_edge_of: dict[VertexId, EdgeId] = {}
    split_origin: dict[EdgeId, VertexId] = {}
    for v in non_terminals:
        edges.append(Edge(eid, plus_of[v], minus_of[v], MINUS, PLUS))
        split_edge_of[v] = eid
        split_origin[eid] = v
        eid += 1
    f = eid
    edges.append(Edge(f, s, t, PLUS, MINUS))

    back_vertex = {}
    for v in non_terminals:
        back_vertex[plus_of[v]] = v
        back_vertex[minus_of[v]] = v

    g_prime = BidirectedGraph(tuple(vertices), tuple(edges))
    rmap = ReductionMap(
        kind="split",
        source=g,
        derived=g_prime,
        special={
            "s": s,
            "t": t,
            "f": f,
            "split_edge_of": split_edge_of,
            "split_origin": split_origin,
            "back_vertex": back_vertex,
        },
    )
    return g_prime, f, rmap


def double_for_xpaths(
    g: BidirectedGraph, X: Iterable
) -> tuple[BidirectedGraph, frozenset, frozenset, ReductionMap]:
    """Disjoint union of two relabelled copies; X1 and X2 are the images of X."""
    X = set(X)
    missing = X - g.vertex_set
    if missing:
        raise UnknownVertex(f"X references undeclared vertices {sorted(map(str, missing))}")
    used = {str(v) for v in g.vertices}
    copy1 = {v: _fresh(f"{v}'", used) for v in g.vertices}
    copy2 = {v: _fresh(f"{v}''", used) for v in g.vertices}

    vertices = [copy1[v] for v in g.vertices] + [copy2[v] for v in g.vertices]
    edges = [Edge(e.eid, copy1[e.u], copy1[e.v], e.sign_u, e.sign_v) for e in g.edges]
    eid = _next_eid(edges)
    edge_map = {}
    for e in g.edges:
        edges.append(Edge(eid, copy2[e.u], copy2[e.v], e.sign_u, e.sign_v))
        edge_map[e.eid] = (e.eid, eid)
        eid += 1

    g2 = BidirectedGraph(tuple(vertices), tuple(edges))
    back_vertex = {w: v for v, w in copy1.items()}
    back_vertex.update({w: v for v, w in copy2.items()})
    rmap = ReductionMap(
        kind="double",
        source=g,
        derived=g2,
        special={
            "copy1": copy1,
            "copy2": copy2,
            "back_vertex": back_vertex,
            "back_edge": {d: o for o, (d1, d2) in edge_map.items() for d in (d1, d2)},
        },
    )
    return g2, frozenset(copy1[x] for x in X), frozenset(copy2[x] for x in X), rmap


def mirror_doubled_edges(
    dmap: ReductionMap, tmap: ReductionMap, smap: ReductionMap
) -> dict[EdgeId, EdgeId]:
    """The t-side mirror of each s-side edge of the doubled split graph.

    ``dmap`` is a doubling, ``tmap`` the terminal attachment of its output
    between X1 (at s) and X2 (at t), and ``smap`` the split of that.  The
    s side, all that s reaches without f, is the first copy with the
    gadgets of X1; swapping the copies, s with t and each gadget x'~X with
    x''~Y (switched, so the gadget's plus half meets the other's minus
    half) maps it onto the t side.  f is its own mirror and not a key.
    """
    copy1, copy2 = dmap.special["copy1"], dmap.special["copy2"]
    vertex = {copy1[v]: copy2[v] for v in copy1}
    y_gadget = tmap.special["y_gadget"]
    vertex.update((xg, y_gadget[vertex[x]]) for x, xg in tmap.special["x_gadget"].items())
    edge = {e: d for d, e in dmap.special["back_edge"].items() if d != e}
    arrival = tmap.special["arrival_edge"]
    edge.update((eid, arrival[(vertex[x], "Y", sign)])
                for (x, side, sign), eid in arrival.items() if side == "X")
    g_hat, s, t = tmap.derived, tmap.special["s"], tmap.special["t"]
    t_edge = {e.other(t): e.eid for e in g_hat.incident(t)}
    edge.update((e.eid, t_edge[vertex[e.other(s)]]) for e in g_hat.incident(s))
    split_edge_of = smap.special["split_edge_of"]
    edge.update((split_edge_of[v], split_edge_of[w]) for v, w in vertex.items())
    return edge


# ---------------------------------------------------------------------------
# backward maps


def _unsplit_walk(rmap: ReductionMap, w: Walk) -> Walk:
    """Collapse v+/v- pairs and drop split edges; result lives in rmap.source."""
    back = rmap.special["back_vertex"]
    split_origin = rmap.special["split_origin"]
    if rmap.special["f"] in w.edges:
        raise InvalidDerivedLink("link uses the closing edge f")

    def back_v(v):
        return back.get(v, v)

    vertices = [back_v(w.vertices[0])]
    edges = []
    for eid, nxt in zip(w.edges, w.vertices[1:]):
        if eid in split_origin:
            if back_v(nxt) != vertices[-1]:
                raise InvalidDerivedLink("split edge does not stay on one original vertex")
            continue
        edges.append(eid)
        vertices.append(back_v(nxt))
    out = Walk(tuple(vertices), tuple(edges))
    if not check_walk(rmap.source, out):
        raise InvalidDerivedLink("collapsed walk is not valid in the source graph")
    return out


def _strip_terminal_walk(rmap: ReductionMap, w: Walk) -> Walk:
    """Remove the two-edge gadget prefix/suffix of an s-t, s-s or t-t walk."""
    s, t = rmap.special["s"], rmap.special["t"]
    gadget_origin = rmap.special["gadget_origin"]
    if w.start not in (s, t) or w.end not in (s, t):
        raise InvalidDerivedLink("walk does not start and end at the auxiliary terminals")
    if len(w.edges) < 4:
        raise InvalidDerivedLink("walk too short to carry the terminal gadgets")
    for eid in w.edges[:2] + w.edges[-2:]:
        if eid not in gadget_origin:
            raise InvalidDerivedLink("walk does not enter the graph through a gadget")
    inner_vertices = w.vertices[2:-2]
    inner_edges = w.edges[2:-2]
    out = Walk(tuple(inner_vertices), tuple(inner_edges))
    if not check_walk(rmap.source, out):
        raise InvalidDerivedLink("stripped walk is not valid in the source graph")
    return out


def _map_link_back_one(rmap: ReductionMap, link: Link) -> Link:
    if rmap.kind == "split":
        return Link(link.kind, tuple(_unsplit_walk(rmap, w) for w in link.walks))
    if rmap.kind == "terminal":
        return Link(link.kind, tuple(_strip_terminal_walk(rmap, w) for w in link.walks))
    raise InvalidDerivedLink(f"no link mapping for reduction kind {rmap.kind!r}")


def map_links_back(map_chain: Sequence[ReductionMap], links: Iterable[Link]) -> list[Link]:
    """Map links of the most-derived graph back through the chain.

    ``map_chain`` is in application order (original graph first); paths
    map to paths and turnarounds to turnarounds.
    """
    out = list(links)
    for rmap in reversed(map_chain):
        out = [_map_link_back_one(rmap, link) for link in out]
    return out


def map_cut_to_separator(map_chain: Sequence[ReductionMap], F: Iterable[EdgeId]) -> frozenset:
    """Charge every cut edge to one original vertex.

    Split edges map to the vertex they split, gadget edges and the split
    edges of gadget vertices to the terminal-set vertex they guard, and
    surviving original edges to their lexicographically least endpoint
    outside the terminals.
    """
    tokens = [("edge", eid) for eid in F]
    exclude: set = set()
    for rmap in reversed(map_chain):
        nxt = []
        if rmap.kind == "split":
            split_origin = rmap.special["split_origin"]
            f = rmap.special["f"]
            for kind, payload in tokens:
                if kind == "vertex":
                    nxt.append((kind, rmap.special["back_vertex"].get(payload, payload)))
                elif payload == f:
                    raise UnmappableEdge("the closing edge f cannot be charged to a vertex")
                elif payload in split_origin:
                    nxt.append(("vertex", split_origin[payload]))
                else:
                    nxt.append(("edge", payload))
            exclude = {rmap.special["s"], rmap.special["t"]}
        elif rmap.kind == "terminal":
            gadget_origin = rmap.special["gadget_origin"]
            gadget_vertex = {w: v for table in ("x_gadget", "y_gadget")
                             for v, w in rmap.special[table].items()}
            for kind, payload in tokens:
                if kind == "vertex":  # a link through a gadget vertex passes its X/Y vertex
                    nxt.append((kind, gadget_vertex.get(payload, payload)))
                elif payload in gadget_origin:
                    nxt.append(("vertex", gadget_origin[payload]))
                else:
                    nxt.append(("edge", payload))
            exclude = set()
        else:
            raise UnmappableEdge(f"no cut mapping for reduction kind {rmap.kind!r}")
        tokens = nxt

    original = map_chain[0].source
    out = set()
    for kind, payload in tokens:
        if kind == "vertex":
            out.add(payload)
            continue
        e = original.edge(payload)
        candidates = [v for v in e.endpoints if v not in exclude]
        if not candidates:
            raise UnmappableEdge(f"edge {payload} joins the terminals directly")
        out.add(min(candidates, key=vertex_sort_key))
    return frozenset(out)

