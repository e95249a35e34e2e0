"""Bidirected walk semantics and exhaustive enumeration.

Consecutive edges of a walk must carry opposite signs at their common
vertex; nothing is required at the two ends, not even when they coincide
(closed trails impose no condition between the last and first edge).

Enumeration here is deliberately brute force: one depth-first search,
``alternating_paths``, with the last used sign as state, exponential in
the worst case.  It is the ground truth the LP pipeline is checked
against, never the fast path.
"""

from __future__ import annotations

import dataclasses
from typing import Container, Iterable, Iterator, NamedTuple, Optional

from .bigraph import BidirectedGraph, EdgeId, Sign, VertexId


@dataclasses.dataclass(frozen=True)
class Walk:
    """Alternating vertex/edge sequence v0, e1, v1, ..., ek, vk (k >= 0)."""

    vertices: tuple[VertexId, ...]
    edges: tuple[EdgeId, ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("walk needs one more vertex than edges")

    @property
    def start(self) -> VertexId:
        return self.vertices[0]

    @property
    def end(self) -> VertexId:
        return self.vertices[-1]

    @property
    def is_trivial(self) -> bool:
        return not self.edges

    @property
    def is_closed(self) -> bool:
        return self.start == self.end

    def canonical_key(self):
        fwd = (tuple(map(str, self.vertices)), self.edges)
        rev = (tuple(map(str, reversed(self.vertices))), tuple(reversed(self.edges)))
        return min(fwd, rev)


class WalkVerdict(NamedTuple):
    ok: bool
    reason: Optional[str] = None
    position: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


VALID = WalkVerdict(True)


def check_walk(g: BidirectedGraph, w: Walk) -> WalkVerdict:
    """Validity verdict; an invalid walk reports the first violating index."""
    for i, v in enumerate(w.vertices):
        if not g.has_vertex(v):
            return WalkVerdict(False, "unknown_vertex", i)
    for i, eid in enumerate(w.edges):
        try:
            e = g.edge(eid)
        except KeyError:
            return WalkVerdict(False, "unknown_edge", i)
        if {e.u, e.v} != {w.vertices[i], w.vertices[i + 1]}:
            return WalkVerdict(False, "edge_endpoints", i)
    # alternation at internal positions only
    for i in range(1, len(w.edges)):
        v = w.vertices[i]
        if g.edge(w.edges[i - 1]).sign_at(v) == g.edge(w.edges[i]).sign_at(v):
            return WalkVerdict(False, "alternation", i)
    return VALID


def is_path(g: BidirectedGraph, w: Walk) -> bool:
    """A path is a valid walk with pairwise-distinct vertices."""
    return bool(check_walk(g, w)) and len(set(w.vertices)) == len(w.vertices)


def is_almost_path(g: BidirectedGraph, w: Walk) -> bool:
    """Nontrivial closed trail whose vertices are distinct except start = end."""
    if w.is_trivial or not w.is_closed:
        return False
    if not check_walk(g, w):
        return False
    if len(set(w.edges)) != len(w.edges):
        return False
    interior = w.vertices[1:-1]
    return len(set(interior)) == len(interior) and w.start not in interior


@dataclasses.dataclass(frozen=True)
class Link:
    """An X-Y path (weight 1) or an X-Y turnaround (weight 2).

    A turnaround is the vertex-disjoint union of a source-side part and a
    target-side part.  At set level the parts are nontrivial X-X and Y-Y
    paths; in the two-terminal flavour they are s-s and t-t almost paths.
    """

    kind: str  # "path" | "turnaround"
    walks: tuple[Walk, ...]

    @property
    def weight(self) -> int:
        return 1 if self.kind == "path" else 2

    @property
    def path(self) -> Walk:
        return self._part("path", 0)

    @property
    def ss_part(self) -> Walk:
        return self._part("turnaround", 0)

    @property
    def tt_part(self) -> Walk:
        return self._part("turnaround", 1)

    def _part(self, kind: str, i: int) -> Walk:
        if self.kind != kind:
            raise ValueError(f"a {self.kind} link has no {kind} part")
        return self.walks[i]

    def vertex_set(self) -> frozenset:
        return frozenset(v for w in self.walks for v in w.vertices)

    def edge_set(self) -> frozenset:
        return frozenset(e for w in self.walks for e in w.edges)

    def canonical_key(self):
        return (self.kind, tuple(sorted(w.canonical_key() for w in self.walks)))


def path_link(w: Walk) -> Link:
    return Link("path", (w,))


def turnaround_link(ss: Walk, tt: Walk) -> Link:
    return Link("turnaround", (ss, tt))


class LinkVerdict(NamedTuple):
    kind: str  # "path" | "turnaround" | "not_a_link"
    reason: Optional[str] = None


def _part_ok(g: BidirectedGraph, w: Walk, terminals: set) -> Optional[str]:
    """None if w qualifies as a turnaround part anchored in ``terminals``."""
    if w.is_trivial:
        return "trivial_part"
    if w.start not in terminals or w.end not in terminals:
        return "part_endpoint_outside_set"
    if w.is_closed:
        if not is_almost_path(g, w):
            return "not_an_almost_path"
    elif not is_path(g, w):
        return "not_a_path"
    return None


def classify_link(g: BidirectedGraph, candidate: Link, X: Iterable, Y: Iterable) -> LinkVerdict:
    """Classify a candidate against source set X and target set Y."""
    X, Y = set(X), set(Y)
    if candidate.kind == "path":
        w = candidate.path
        if not is_path(g, w):
            return LinkVerdict("not_a_link", "not_a_path")
        if w.start in X and w.end in Y:
            return LinkVerdict("path")
        if w.start in Y and w.end in X:
            return LinkVerdict("path")
        return LinkVerdict("not_a_link", "endpoints_not_in_sets")
    ss, tt = candidate.ss_part, candidate.tt_part
    reason = _part_ok(g, ss, X) or _part_ok(g, tt, Y)
    if reason:
        return LinkVerdict("not_a_link", reason)
    if set(ss.vertices) & set(tt.vertices):
        return LinkVerdict("not_a_link", "parts_share_a_vertex")
    return LinkVerdict("turnaround")


def alternating_paths(
    g: BidirectedGraph,
    start: VertexId,
    sign: Optional[Sign] = None,
    avoid: Container = frozenset(),
    stop: Container = frozenset(),
) -> Iterator[Walk]:
    """Every path from ``start``, depth first in incidence order, each
    yielded before its extensions, the trivial path first.

    ``sign`` is the sign at ``start`` of the edge the walk arrived by
    (None: none), so the first edge must carry the other one.  The paths
    never enter a vertex of ``avoid`` and end at every vertex of ``stop``
    they enter.  The enumerations here and the oracle's existence tests
    all run on this search.
    """
    vertices, edges = [start], []
    on_path = {start}

    def extend(cur, last_sign):
        yield Walk(tuple(vertices), tuple(edges))
        if edges and cur in stop:
            return
        for e in g.incident(cur):
            w = e.other(cur)
            if e.sign_at(cur) == last_sign or w in on_path or w in avoid:
                continue
            vertices.append(w)
            edges.append(e.eid)
            on_path.add(w)
            yield from extend(w, e.sign_at(w))
            on_path.discard(w)
            edges.pop()
            vertices.pop()

    return extend(start, sign)


def closed_trails(g: BidirectedGraph, v: VertexId, avoid: Container = frozenset()) -> Iterator[Walk]:
    """Every almost path at v that enters no vertex of ``avoid``, once in
    each direction: leave v by one edge, come back by another.  Coming
    back along the first edge breaks alternation, so no edge repeats."""
    for e in g.incident(v):
        w = e.other(v)
        if w in avoid:
            continue
        for p in alternating_paths(g, w, e.sign_at(w), avoid, stop={v}):
            if p.end == v:
                yield Walk((v,) + p.vertices, (e.eid,) + p.edges)


def _distinct(walks: Iterable[Walk]) -> list[Walk]:
    """``walks`` in order, each kept once up to reversal."""
    out: list[Walk] = []
    seen = set()
    for w in walks:
        key = w.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(w)
    return out


def enumerate_paths(
    g: BidirectedGraph,
    A: Iterable,
    Bset: Iterable,
    nontrivial_only: bool = False,
) -> list[Walk]:
    """All A-Bset paths, deduplicated up to reversal.

    First vertex in A, last in Bset, internal vertices unrestricted.  A
    vertex in the intersection yields a trivial single-vertex path unless
    ``nontrivial_only`` is set.
    """
    A, Bset = set(A), set(Bset)
    return _distinct(
        w for a in g.vertices if a in A for w in alternating_paths(g, a)
        if w.end in Bset and not (nontrivial_only and w.is_trivial)
    )


def enumerate_almost_paths(g: BidirectedGraph, v: VertexId) -> list[Walk]:
    """All nontrivial closed trails at v with distinct interior vertices,
    deduplicated up to reversal."""
    return _distinct(closed_trails(g, v))


def _with_turnarounds(paths: list[Walk], sources: list[Walk], targets: list[Walk]) -> list[Link]:
    """The path links, then every vertex-disjoint pairing of a source-side
    part with a target-side part as a turnaround."""
    links = [path_link(w) for w in paths]
    for p in sources:
        pset = set(p.vertices)
        links.extend(turnaround_link(p, q) for q in targets if pset.isdisjoint(q.vertices))
    return links


def enumerate_xy_links(g: BidirectedGraph, X: Iterable, Y: Iterable) -> list[Link]:
    """All X-Y paths plus all X-Y turnarounds (vertex-disjoint pairings of a
    nontrivial X-X path with a nontrivial Y-Y path)."""
    X, Y = set(X), set(Y)
    return _with_turnarounds(
        enumerate_paths(g, X, Y),
        enumerate_paths(g, X, X, nontrivial_only=True),
        enumerate_paths(g, Y, Y, nontrivial_only=True),
    )


def enumerate_st_links(g: BidirectedGraph, s: VertexId, t: VertexId) -> list[Link]:
    """All s-t paths plus all s-t turnarounds (vertex-disjoint pairings of an
    s-s almost path with a t-t almost path)."""
    return _with_turnarounds(
        enumerate_paths(g, {s}, {t}), enumerate_almost_paths(g, s), enumerate_almost_paths(g, t)
    )
