"""Brute-force ground truth for packings and separators.

Everything here is exhaustive search at desk scale: packings by
branch-and-bound over the enumerated link list with value-based pruning,
separators by subset enumeration in increasing cardinality (first hit is
a minimum, ties resolved lexicographically).  Certainty over speed.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Iterable

from .bigraph import BidirectedGraph, VerificationFailure, VertexId, delete_vertices, vertex_sort_key
from .reduce import EqualTerminals
from .walks import (
    Link,
    alternating_paths,
    closed_trails,
    enumerate_almost_paths,
    enumerate_paths,
    enumerate_st_links,
    enumerate_xy_links,
)

DEFAULT_MAX_VERTICES = 10
DEFAULT_MAX_EDGES = 16


class SizeBoundExceeded(Exception):
    """Instance too large for exhaustive search."""


@dataclasses.dataclass(frozen=True)
class PackingResult:
    value: int
    links: tuple[Link, ...]


@dataclasses.dataclass(frozen=True)
class SeparatorResult:
    size: float  # nonnegative integer, or math.inf
    vertices: frozenset

    @property
    def is_infinite(self) -> bool:
        return self.size == math.inf


def within_limits(
    g: BidirectedGraph, max_vertices: int = DEFAULT_MAX_VERTICES, max_edges: int = DEFAULT_MAX_EDGES
) -> bool:
    """Whether the exhaustive searches may run on ``g``: at most
    ``max_vertices`` vertices and ``max_edges`` edges."""
    return g.n <= max_vertices and g.m <= max_edges


def _check_bounds(g: BidirectedGraph, max_vertices: int, max_edges: int) -> None:
    if not within_limits(g, max_vertices, max_edges):
        raise SizeBoundExceeded(
            f"oracle bound exceeded: {g.n} vertices / {g.m} edges "
            f"(limits {max_vertices}/{max_edges})"
        )


def _footprint_key(fs: frozenset) -> tuple:
    return tuple(sorted(map(str, fs)))


def _max_weight_disjoint(items: list[tuple[int, frozenset, Link]]) -> tuple[int, list[Link]]:
    """Branch and bound for a maximum-weight family of disjoint footprints."""
    items = sorted(items, key=lambda it: (-it[0], _footprint_key(it[1])))
    suffix = [0] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + items[i][0]
    best_val = 0
    best_sel: list[Link] = []

    def rec(i: int, used: frozenset, val: int, sel: list[Link]) -> None:
        nonlocal best_val, best_sel
        if val > best_val:
            best_val, best_sel = val, sel[:]
        for j in range(i, len(items)):
            if val + suffix[j] <= best_val:
                return
            w, fs, link = items[j]
            if fs & used:
                continue
            sel.append(link)
            rec(j + 1, used | fs, val + w, sel)
            sel.pop()

    rec(0, frozenset(), 0, [])
    return best_val, best_sel


def _dedupe_by_footprint(pairs: Iterable[tuple[frozenset, Link]]) -> list[tuple[int, frozenset, Link]]:
    """Keep one heaviest witness per footprint; a path never beats a
    turnaround on the same vertex set."""
    best: dict[frozenset, tuple[int, Link]] = {}
    for fs, link in pairs:
        cur = best.get(fs)
        if cur is None or link.weight > cur[0]:
            best[fs] = (link.weight, link)
    return [(w, fs, link) for fs, (w, link) in best.items()]


def _exists_path(g, A, Bset, forbidden=frozenset(), nontrivial_only=False) -> bool:
    Bset = {b for b in Bset if b in g.vertex_set and b not in forbidden}
    return bool(Bset) and any(
        w.end in Bset and not (nontrivial_only and w.is_trivial)
        for a in A if a in g.vertex_set and a not in forbidden
        for w in alternating_paths(g, a, avoid=forbidden, stop=Bset)
    )


def _exists_almost_path(g, v, forbidden=frozenset()) -> bool:
    return v in g.vertex_set and v not in forbidden and any(closed_trails(g, v, forbidden))


def has_xy_link(g: BidirectedGraph, X: Iterable, Y: Iterable) -> bool:
    X, Y = set(X), set(Y)
    if _exists_path(g, X, Y):
        return True
    for p in enumerate_paths(g, X, X, nontrivial_only=True):
        if _exists_path(g, Y, Y, forbidden=frozenset(p.vertices), nontrivial_only=True):
            return True
    return False


def has_st_link(g: BidirectedGraph, s: VertexId, t: VertexId) -> bool:
    if _exists_path(g, {s}, {t}):
        return True
    for p in enumerate_almost_paths(g, s):
        forbidden = frozenset(p.vertices)
        if t in forbidden:
            continue
        if _exists_almost_path(g, t, forbidden=forbidden):
            return True
    return False


def oracle_max_links(
    g: BidirectedGraph,
    X: Iterable,
    Y: Iterable,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> PackingResult:
    """Exact maximum over pairwise vertex-disjoint link families,
    turnarounds counted twice."""
    _check_bounds(g, max_vertices, max_edges)
    links = enumerate_xy_links(g, X, Y)
    items = _dedupe_by_footprint((link.vertex_set(), link) for link in links)
    value, sel = _max_weight_disjoint(items)
    return PackingResult(value, tuple(sel))


def min_separator(g: BidirectedGraph, pool: Iterable, has_link: Callable) -> SeparatorResult:
    """Smallest subset of ``pool`` whose deletion from ``g`` leaves a graph
    on which ``has_link`` is false: subsets in increasing size, each size
    in lexicographic order, so the first hit is a minimum."""
    ordered = sorted(pool, key=vertex_sort_key)
    for k in range(len(ordered) + 1):
        for S in itertools.combinations(ordered, k):
            if not has_link(delete_vertices(g, S)):
                return SeparatorResult(k, frozenset(S))
    raise VerificationFailure("no vertex set separates, not even the whole pool")


def oracle_min_separator(
    g: BidirectedGraph,
    X: Iterable,
    Y: Iterable,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> SeparatorResult:
    """Smallest vertex set whose deletion leaves no X-Y link."""
    _check_bounds(g, max_vertices, max_edges)
    X, Y = set(X), set(Y)
    return min_separator(g, g.vertices, lambda h: has_xy_link(h, X, Y))


def min_st_separator(g: BidirectedGraph, s: VertexId, t: VertexId) -> SeparatorResult:
    """Smallest set of internal vertices whose deletion leaves no s-t link."""
    return min_separator(g, (v for v in g.vertices if v not in (s, t)),
                         lambda h: has_st_link(h, s, t))


def oracle_st(
    g: BidirectedGraph,
    s: VertexId,
    t: VertexId,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> tuple[PackingResult, SeparatorResult]:
    """Maximum internally vertex-disjoint s-t links (turnarounds twice) and
    the minimum internal separator; the separator is infinite when a direct
    s-t edge makes every internal vertex set insufficient."""
    if s == t:
        raise EqualTerminals(f"terminals coincide: {s!r}")
    _check_bounds(g, max_vertices, max_edges)
    links = enumerate_st_links(g, s, t)

    direct = [lk for lk in links if not (lk.vertex_set() - {s, t})]
    rest = []
    for lk in links:
        internal = lk.vertex_set() - {s, t}
        if internal:
            rest.append((internal, lk))
    value, sel = _max_weight_disjoint(_dedupe_by_footprint(rest))
    packing = PackingResult(value + len(direct), tuple(direct) + tuple(sel))

    if direct:
        return packing, SeparatorResult(math.inf, frozenset())
    return packing, min_st_separator(g, s, t)


def min_xpath_hitting_set(g: BidirectedGraph, X: Iterable) -> SeparatorResult:
    """Smallest vertex set meeting every nontrivial X-X path."""
    X = set(X)
    return min_separator(g, g.vertices, lambda h: _exists_path(h, X, X, nontrivial_only=True))


def oracle_xpaths(
    g: BidirectedGraph,
    X: Iterable,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> tuple[int, int]:
    """(maximum number of vertex-disjoint nontrivial X-X paths,
    minimum size of a vertex set hitting every such path)."""
    _check_bounds(g, max_vertices, max_edges)
    X = set(X)
    paths = enumerate_paths(g, X, X, nontrivial_only=True)
    items = _dedupe_by_footprint(
        (frozenset(p.vertices), Link("path", (p,))) for p in paths
    )
    max_packing, _ = _max_weight_disjoint(items)
    hitting = min_xpath_hitting_set(g, X)
    return max_packing, int(hitting.size)
