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

Each construction also returns a frozen record of what it built,
``TerminalMap``, ``SplitMap`` or ``DoubleMap``: the tables that are read,
and its own backward maps.  ``walk_back`` takes a walk back one step,
``charge`` does the same for cut tokens (terminal and split maps), and
``DoubleMap.first_copy`` projects a doubled vertex set into the first copy.

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


# A cut token is ("edge", eid) or ("vertex", v) in the graph at hand.
Token = tuple[str, object]


@dataclasses.dataclass(frozen=True)
class TerminalMap:
    """What ``attach_terminals`` added to ``source`` to make ``derived``.

    ``x_gadget``/``y_gadget`` give each X/Y vertex its gadget vertex,
    ``gadget_origin`` each gadget edge the X/Y vertex it guards, and
    ``arrival_edge[(v, side, sign)]`` the gadget edge that meets v with
    that sign ("X" or "Y" side).
    """

    source: BidirectedGraph
    derived: BidirectedGraph
    s: VertexId
    t: VertexId
    x_gadget: dict[VertexId, VertexId]
    y_gadget: dict[VertexId, VertexId]
    gadget_origin: dict[EdgeId, VertexId]
    arrival_edge: dict[tuple[VertexId, str, Sign], EdgeId]

    uncharged = frozenset()  # s and t are not in the source

    def walk_back(self, w: Walk) -> Walk:
        """Remove the two-edge gadget prefix/suffix of an s-t, s-s or t-t walk."""
        if w.start not in (self.s, self.t) or w.end not in (self.s, self.t):
            raise InvalidDerivedLink("walk does not start and end at the auxiliary terminals")
        if len(w.edges) < 4:
            raise InvalidDerivedLink("walk too short to carry the terminal gadgets")
        if any(eid not in self.gadget_origin for eid in w.edges[:2] + w.edges[-2:]):
            raise InvalidDerivedLink("walk does not enter the graph through a gadget")
        out = Walk(tuple(w.vertices[2:-2]), tuple(w.edges[2:-2]))
        if not check_walk(self.source, out):
            raise InvalidDerivedLink("stripped walk is not valid in the source graph")
        return out

    def charge(self, tokens: Iterable[Token]) -> list[Token]:
        """Gadget edges and gadget vertices go to the X/Y vertex they guard."""
        gadget_vertex = {w: v for table in (self.x_gadget, self.y_gadget) for v, w in table.items()}
        out = []
        for kind, payload in tokens:
            if kind == "vertex":  # a link through a gadget vertex passes its X/Y vertex
                out.append((kind, gadget_vertex.get(payload, payload)))
            elif payload in self.gadget_origin:
                out.append(("vertex", self.gadget_origin[payload]))
            else:
                out.append(("edge", payload))
        return out


@dataclasses.dataclass(frozen=True)
class SplitMap:
    """What ``split_and_close`` did to ``source`` to make ``derived``.

    ``split_edge_of`` gives each non-terminal its split edge and
    ``split_origin`` the reverse; ``back_vertex`` takes v+ and v- to v;
    ``f`` is the closing edge.  Other edges keep their ids.
    """

    source: BidirectedGraph
    derived: BidirectedGraph
    s: VertexId
    t: VertexId
    f: EdgeId
    split_edge_of: dict[VertexId, EdgeId]
    split_origin: dict[EdgeId, VertexId]
    back_vertex: dict[VertexId, VertexId]

    @property
    def uncharged(self) -> frozenset:  # no cut edge is charged to s or t
        return frozenset((self.s, self.t))

    def walk_back(self, w: Walk) -> Walk:
        """Collapse v+/v- pairs and drop split edges; result lives in ``source``."""
        if self.f in w.edges:
            raise InvalidDerivedLink("link uses the closing edge f")

        def back_v(v):
            return self.back_vertex.get(v, v)

        vertices = [back_v(w.vertices[0])]
        edges = []
        for eid, nxt in zip(w.edges, w.vertices[1:]):
            if eid in self.split_origin:
                if back_v(nxt) != vertices[-1]:
                    raise InvalidDerivedLink("split edge does not stay on one original vertex")
                continue
            edges.append(eid)
            vertices.append(back_v(nxt))
        out = Walk(tuple(vertices), tuple(edges))
        if not check_walk(self.source, out):
            raise InvalidDerivedLink("collapsed walk is not valid in the source graph")
        return out

    def charge(self, tokens: Iterable[Token]) -> list[Token]:
        """Split edges and halves go to the vertex they split; f raises."""
        out = []
        for kind, payload in tokens:
            if kind == "vertex":
                out.append((kind, self.back_vertex.get(payload, payload)))
            elif payload == self.f:
                raise UnmappableEdge("the closing edge f cannot be charged to a vertex")
            elif payload in self.split_origin:
                out.append(("vertex", self.split_origin[payload]))
            else:
                out.append(("edge", payload))
        return out


@dataclasses.dataclass(frozen=True)
class DoubleMap:
    """The two copies ``double_for_xpaths`` made of its input graph.

    ``copy1``/``copy2`` give each input vertex its image in each copy;
    ``back_vertex`` and ``back_edge`` take either copy's vertices and
    edges back to the input.
    """

    copy1: dict[VertexId, VertexId]
    copy2: dict[VertexId, VertexId]
    back_vertex: dict[VertexId, VertexId]
    back_edge: dict[EdgeId, EdgeId]

    def walk_back(self, w: Walk) -> Walk:
        """The input walk that a walk of either copy is an image of."""
        return Walk(tuple(self.back_vertex[v] for v in w.vertices),
                    tuple(self.back_edge[eid] for eid in w.edges))

    def first_copy(self, vertices: Iterable[VertexId]) -> frozenset:
        """The input vertices whose first-copy images are in ``vertices``."""
        images = set(self.copy1.values())
        return frozenset(self.back_vertex[v] for v in vertices if v in images)


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
) -> tuple[BidirectedGraph, VertexId, VertexId, TerminalMap]:
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
    return g_hat, s, t, TerminalMap(g, g_hat, s, t, x_gadget, y_gadget, gadget_origin, arrival_edge)


def split_and_close(
    g: BidirectedGraph, s: VertexId, t: VertexId
) -> tuple[BidirectedGraph, EdgeId, SplitMap]:
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

    back_vertex = {w: v for v in non_terminals for w in (plus_of[v], minus_of[v])}

    g_prime = BidirectedGraph(tuple(vertices), tuple(edges))
    return g_prime, f, SplitMap(g, g_prime, s, t, f, split_edge_of, split_origin, back_vertex)


def double_for_xpaths(
    g: BidirectedGraph, X: Iterable
) -> tuple[BidirectedGraph, frozenset, frozenset, DoubleMap]:
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
    back_edge = {}
    for e in g.edges:
        edges.append(Edge(eid, copy2[e.u], copy2[e.v], e.sign_u, e.sign_v))
        back_edge[e.eid] = back_edge[eid] = e.eid
        eid += 1

    g2 = BidirectedGraph(tuple(vertices), tuple(edges))
    back_vertex = {w: v for v, w in copy1.items()}
    back_vertex.update({w: v for v, w in copy2.items()})
    dmap = DoubleMap(copy1, copy2, back_vertex, back_edge)
    return g2, frozenset(copy1[x] for x in X), frozenset(copy2[x] for x in X), dmap


def mirror_doubled_edges(
    dmap: DoubleMap, tmap: TerminalMap, smap: SplitMap
) -> dict[EdgeId, EdgeId]:
    """The t-side mirror of each s-side edge of the doubled split graph.

    ``dmap`` is a doubling, ``tmap`` the terminal attachment of its output
    between X1 (at s) and X2 (at t), and ``smap`` the split of that.  The
    s side, all that s reaches without f, is the first copy with the
    gadgets of X1; swapping the copies, s with t and each gadget x'~X with
    x''~Y (switched, so the gadget's plus half meets the other's minus
    half) maps it onto the t side.  f is its own mirror and not a key.
    """
    vertex = {dmap.copy1[v]: dmap.copy2[v] for v in dmap.copy1}
    vertex.update((xg, tmap.y_gadget[vertex[x]]) for x, xg in tmap.x_gadget.items())
    edge = {e: d for d, e in dmap.back_edge.items() if d != e}
    arrival = tmap.arrival_edge
    edge.update((eid, arrival[(vertex[x], "Y", sign)])
                for (x, side, sign), eid in arrival.items() if side == "X")
    g_hat, s, t = tmap.derived, tmap.s, tmap.t
    t_edge = {e.other(t): e.eid for e in g_hat.incident(t)}
    edge.update((e.eid, t_edge[vertex[e.other(s)]]) for e in g_hat.incident(s))
    edge.update((smap.split_edge_of[v], smap.split_edge_of[w]) for v, w in vertex.items())
    return edge


# ---------------------------------------------------------------------------
# backward maps


def map_links_back(map_chain: Sequence[TerminalMap | SplitMap], links: Iterable[Link]) -> list[Link]:
    """Map links of the most-derived graph back through the chain.

    ``map_chain`` is in application order (original graph first); paths
    map to paths and turnarounds to turnarounds.
    """
    out = list(links)
    for rmap in reversed(map_chain):
        out = [Link(link.kind, tuple(rmap.walk_back(w) for w in link.walks)) for link in out]
    return out


def map_cut_to_separator(map_chain: Sequence[TerminalMap | SplitMap], F: Iterable[EdgeId]) -> frozenset:
    """Charge every cut edge to one original vertex.

    Split edges map to the vertex they split, gadget edges and the split
    edges of gadget vertices to the terminal-set vertex they guard, and
    surviving original edges to their lexicographically least endpoint
    outside the terminals.
    """
    tokens = [("edge", eid) for eid in F]
    for rmap in reversed(map_chain):
        tokens = rmap.charge(tokens)

    original, exclude = map_chain[0].source, map_chain[0].uncharged
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

