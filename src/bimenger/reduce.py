"""Graph reductions with invertible bookkeeping.

Three constructions feed the LP pipeline:

* terminal attachment: new terminals s and t wired to the source and
  target sets through per-vertex gadgets, so that s-t links of the
  result correspond exactly to set-to-set links of the input;
* vertex splitting: every non-terminal v becomes v+/v- joined by a
  capacity-one split edge, plus a closing edge f from t back to s, which
  turns internal vertex-disjointness into edge-disjointness; the edge
  ends at s become minus and those at t plus;
* doubling: the input itself and a disjoint second copy, used to reduce
  X-path packing to turnaround packing between the copies.

Attachment and splitting also return a frozen record of what they built,
``TerminalMap`` or ``SplitMap``, whose ``back_vertex`` takes each vertex
the construction made to the vertex it stands for.  Both backward maps
read one vertex rule: a vertex of the most-derived graph goes to its
image under the chain's ``back_vertex`` maps.  A link maps back walk by
walk: original edges are kept, every other edge must join two vertices
with the same image, and the auxiliary terminals, which have no image,
may only end a walk (``map_links_back``).  A cut edge is charged to the
least image of its ends in the original graph, terminals excepted
(``map_cut_to_separator``).  The doubling needs no record: its first
copy is the input, where the X-path certificate lies (README, "The cut
lies on the s side").

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
class TerminalMap:
    """What ``attach_terminals`` added to ``source`` to make ``derived``.

    ``back_vertex`` gives each gadget vertex the X/Y vertex it guards.
    The gadget of an X (Y) vertex is the neighbour of s (t) that
    ``back_vertex`` takes to it, and its edges are in ``derived``.
    """

    source: BidirectedGraph
    derived: BidirectedGraph
    s: VertexId
    t: VertexId
    back_vertex: dict[VertexId, VertexId]


@dataclasses.dataclass(frozen=True)
class SplitMap:
    """What ``split_and_close`` did to ``source`` to make ``derived``.

    ``split_origin`` gives each split edge the non-terminal it splits;
    ``back_vertex`` takes v+ and v- to v; ``f`` is the closing edge.
    Other edges keep their ids.
    """

    source: BidirectedGraph
    derived: BidirectedGraph
    s: VertexId
    t: VertexId
    f: EdgeId
    split_origin: dict[EdgeId, VertexId]
    back_vertex: dict[VertexId, VertexId]


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
    ends = {"X": (s, MINUS), "Y": (t, PLUS)}
    gadget = {(side, v): _fresh(f"{v}~{side}", used)
              for side, vs in (("X", X), ("Y", Y)) for v in sorted(vs, key=vertex_sort_key)}

    edges = list(g.edges)
    eid = _next_eid(edges)
    for (side, v), w in gadget.items():
        terminal, sign = ends[side]
        edges.append(Edge(eid, terminal, w, sign, -sign))
        eid += 1
        for sign_at_v in (PLUS, MINUS):
            edges.append(Edge(eid, w, v, sign, sign_at_v))
            eid += 1

    back_vertex = {w: v for (_, v), w in gadget.items()}
    g_hat = BidirectedGraph(g.vertices + (s, t) + tuple(gadget.values()), tuple(edges))
    return g_hat, s, t, TerminalMap(g, g_hat, s, t, back_vertex)


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

    def end(v: VertexId, sign: int) -> tuple[VertexId, int]:
        if v == s:
            return s, MINUS
        if v == t:
            return t, PLUS
        return (plus_of[v] if sign == PLUS else minus_of[v]), sign

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
    split_origin: dict[EdgeId, VertexId] = {}
    for v in non_terminals:
        edges.append(Edge(eid, plus_of[v], minus_of[v], MINUS, PLUS))
        split_origin[eid] = v
        eid += 1
    f = eid
    edges.append(Edge(f, s, t, PLUS, MINUS))

    back_vertex = {w: v for v in non_terminals for w in (plus_of[v], minus_of[v])}

    g_prime = BidirectedGraph(tuple(vertices), tuple(edges))
    return g_prime, f, SplitMap(g, g_prime, s, t, f, split_origin, back_vertex)


def s_side(g_prime: BidirectedGraph, f: EdgeId) -> frozenset:
    """The vertices that s reaches in ``g_prime`` without the closing edge f."""
    s = g_prime.edge(f).u
    side, todo = {s}, [s]
    while todo:
        v = todo.pop()
        for e in g_prime.incident(v):
            if e.eid != f and e.other(v) not in side:
                side.add(e.other(v))
                todo.append(e.other(v))
    return frozenset(side)


def double_for_xpaths(g: BidirectedGraph, X: Iterable) -> tuple[BidirectedGraph, frozenset]:
    """Disjoint union of ``g`` itself, the first copy, and a relabelled
    second copy; X2 is the image of X in the second copy.

    The first copy keeps the vertex names and edge ids of ``g``, so what
    lies in it needs no map back; the second copy's vertices are v'' (or
    a fresh name) and its edges take fresh ids, in the order of ``g``.
    """
    X = set(X)
    missing = X - g.vertex_set
    if missing:
        raise UnknownVertex(f"X references undeclared vertices {sorted(map(str, missing))}")
    used = {str(v) for v in g.vertices}
    copy2 = {v: _fresh(f"{v}''", used) for v in g.vertices}
    eid = _next_eid(g.edges)
    edges = tuple(
        Edge(eid + i, copy2[e.u], copy2[e.v], e.sign_u, e.sign_v) for i, e in enumerate(g.edges)
    )
    g2 = BidirectedGraph(g.vertices + tuple(copy2.values()), g.edges + edges)
    return g2, frozenset(copy2[x] for x in X)


# ---------------------------------------------------------------------------
# backward maps


def _image(map_chain: Sequence[TerminalMap | SplitMap], v: VertexId) -> VertexId:
    """v's image under the chain's ``back_vertex`` maps, most-derived first."""
    for rmap in reversed(map_chain):
        v = rmap.back_vertex.get(v, v)
    return v


def map_links_back(map_chain: Sequence[TerminalMap | SplitMap], links: Iterable[Link]) -> list[Link]:
    """Map links of the most-derived graph back to the original graph,
    ``map_chain[0].source``, with ``map_chain`` in application order.

    Each vertex goes to its ``_image``.  An edge of the original graph is
    kept; any other edge (a gadget edge, a split edge or f) must join two
    vertices with the same image, and is dropped.  An auxiliary terminal,
    which has no image, may only end a walk, and goes with the edge that
    meets it there.  The result must be a walk of the original graph;
    anything else raises ``InvalidDerivedLink``.
    """
    original = map_chain[0].source
    original_edges = {e.eid for e in original.edges}

    def walk_back(w: Walk) -> Walk:
        images, edges = [_image(map_chain, v) for v in w.vertices], list(w.edges)
        if edges and images[0] not in original.vertex_set:
            del images[0], edges[0]
        if edges and images[-1] not in original.vertex_set:
            del images[-1], edges[-1]
        if not original.vertex_set.issuperset(images):
            raise InvalidDerivedLink("an auxiliary terminal lies inside the walk")
        out_vertices, out_edges = images[:1], []
        for eid, v in zip(edges, images[1:]):
            if eid in original_edges:
                out_edges.append(eid)
                out_vertices.append(v)
            elif v != out_vertices[-1]:
                raise InvalidDerivedLink(f"construction edge {eid} joins two original vertices")
        out = Walk(tuple(out_vertices), tuple(out_edges))
        if not check_walk(original, out):
            raise InvalidDerivedLink("mapped walk is not valid in the original graph")
        return out

    return [Link(link.kind, tuple(map(walk_back, link.walks))) for link in links]


def map_cut_to_separator(map_chain: Sequence[TerminalMap | SplitMap], F: Iterable[EdgeId]) -> frozenset:
    """Charge every cut edge to one original vertex: the least, by
    ``vertex_sort_key``, of the ``_image``s of its two ends that lie in
    the original graph and are not its terminals s and t.

    So a split edge goes to the vertex it splits, a gadget edge or the
    split edge of a gadget vertex to the X/Y vertex it guards, and an
    original edge to its least endpoint outside the terminals.  An edge
    with no such image, the closing edge f, raises ``UnmappableEdge``.
    """
    derived, first = map_chain[-1].derived, map_chain[0]
    keep = first.source.vertex_set - {first.s, first.t}
    out = set()
    for eid in F:
        images = [_image(map_chain, v) for v in derived.edge(eid).endpoints]
        candidates = [v for v in images if v in keep]
        if not candidates:
            raise UnmappableEdge(f"cut edge {eid} has no original vertex to charge")
        out.add(min(candidates, key=vertex_sort_key))
    return frozenset(out)
