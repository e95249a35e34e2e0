"""Bidirected multigraph core: signed edges, deletion, switching, incidence matrix.

A bidirected graph is a multigraph in which every endpoint of every edge
carries a sign, the int ``PLUS`` (+1) or ``MINUS`` (-1), which is also the
edge's entry at that vertex in the signed incidence matrix.  Vertices and
edges keep their insertion order so that matrices and certificates built
from a graph are reproducible.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Hashable, Iterable

VertexId = Hashable
EdgeId = int


class GraphError(Exception):
    """Base class for graph construction errors."""


class UnknownVertex(GraphError):
    """An edge endpoint or operation argument names an undeclared vertex."""


class LoopRejected(GraphError):
    """Edges with equal endpoints are not allowed."""


class DuplicateVertexId(GraphError):
    """The same vertex id was declared twice."""


class SignRejected(GraphError):
    """An edge end carries a sign other than the ints +1 and -1."""


class VerificationFailure(Exception):
    """A solver step produced something its own checks reject; the base of
    the typed failures of the reductions and the certificate pipelines."""


PLUS = 1
MINUS = -1


@dataclasses.dataclass(frozen=True)
class Edge:
    eid: EdgeId
    u: VertexId
    v: VertexId
    sign_u: int
    sign_v: int

    def sign_at(self, w: VertexId) -> int:
        if w == self.u:
            return self.sign_u
        if w == self.v:
            return self.sign_v
        raise UnknownVertex(f"vertex {w!r} is not an endpoint of edge {self.eid}")

    def other(self, w: VertexId) -> VertexId:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise UnknownVertex(f"vertex {w!r} is not an endpoint of edge {self.eid}")

    @property
    def endpoints(self) -> tuple[VertexId, VertexId]:
        return (self.u, self.v)


@dataclasses.dataclass(frozen=True)
class BidirectedGraph:
    """Immutable bidirected multigraph.

    ``vertices`` and ``edges`` preserve insertion order; edge ids are the
    positions at which edges were added (gaps appear after deletion).
    Parallel edges are permitted, loops are not.
    """

    vertices: tuple[VertexId, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise DuplicateVertexId(f"vertex {v!r} declared twice")
            seen.add(v)
        for e in self.edges:
            if e.u == e.v:
                raise LoopRejected(f"edge {e.eid} is a loop at {e.u!r}")
            if e.u not in seen or e.v not in seen:
                raise UnknownVertex(f"edge {e.eid} has undeclared endpoint")

    @functools.cached_property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    @functools.cached_property
    def _incidence(self) -> dict[VertexId, tuple[Edge, ...]]:
        table = {w: [] for w in self.vertices}
        for e in self.edges:
            table[e.u].append(e)
            table[e.v].append(e)
        return {w: tuple(es) for w, es in table.items()}

    @functools.cached_property
    def _edge_index(self) -> dict[EdgeId, Edge]:
        return {e.eid: e for e in self.edges}

    def incident(self, v: VertexId) -> tuple[Edge, ...]:
        """Edges incident to v, in edge order."""
        return self._incidence[v]

    def edge(self, eid: EdgeId) -> Edge:
        return self._edge_index[eid]

    def has_vertex(self, v: VertexId) -> bool:
        return v in self.vertex_set

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)


def build_graph(
    vertex_ids: Iterable[VertexId],
    edge_specs: Iterable[tuple[VertexId, VertexId, int, int]],
) -> BidirectedGraph:
    """Build a bidirected graph; edge ids are assigned in input order.

    Every sign must be the int ``PLUS`` or ``MINUS``; a float or bool
    equal to 1 is refused too, since the LP rows are built from the signs.
    """
    vertices = tuple(vertex_ids)
    edges = []
    for i, (u, v, su, sv) in enumerate(edge_specs):
        if any(type(sign) is not int or sign not in (PLUS, MINUS) for sign in (su, sv)):
            raise SignRejected(f"edge {i} has signs {su!r}, {sv!r}; a sign is +1 or -1")
        edges.append(Edge(i, u, v, su, sv))
    return BidirectedGraph(vertices, tuple(edges))


def incidence_matrix(g: BidirectedGraph) -> list[list[int]]:
    """The signed incidence matrix as rows: row i is ``g.vertices[i]``,
    column j is ``g.edges[j]``, and an entry is the edge's sign at the
    vertex, or 0 when the vertex is not an endpoint."""
    vpos = {v: i for i, v in enumerate(g.vertices)}
    rows = [[0] * g.m for _ in range(g.n)]
    for j, e in enumerate(g.edges):
        rows[vpos[e.u]][j] = e.sign_u
        rows[vpos[e.v]][j] = e.sign_v
    return rows


def delete_vertices(g: BidirectedGraph, drop: Iterable[VertexId]) -> BidirectedGraph:
    """Remove the given vertices and every incident edge; surviving ids are kept."""
    drop = set(drop)
    unknown = drop - g.vertex_set
    if unknown:
        raise UnknownVertex(f"cannot delete undeclared vertices {sorted(map(str, unknown))}")
    vertices = tuple(v for v in g.vertices if v not in drop)
    edges = tuple(e for e in g.edges if e.u not in drop and e.v not in drop)
    return BidirectedGraph(vertices, edges)


def switch_vertex(g: BidirectedGraph, v: VertexId) -> BidirectedGraph:
    """Negate every half-edge sign at v.  Walk validity is preserved."""
    if not g.has_vertex(v):
        raise UnknownVertex(f"cannot switch undeclared vertex {v!r}")
    edges = []
    for e in g.edges:
        su = -e.sign_u if e.u == v else e.sign_u
        sv = -e.sign_v if e.v == v else e.sign_v
        edges.append(Edge(e.eid, e.u, e.v, su, sv))
    return BidirectedGraph(g.vertices, tuple(edges))


def vertex_sort_key(v: VertexId) -> str:
    """Canonical total order on vertex ids (lexicographic on the string form).

    Plain string ids compare as themselves; structured ids from the
    reductions get a deterministic order too.
    """
    return str(v)
