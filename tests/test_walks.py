import random

import pytest
from hypothesis import given

from bimenger import (
    build_graph,
    check_walk,
    classify_link,
    delete_vertices,
    enumerate_almost_paths,
    enumerate_paths,
    enumerate_st_links,
    enumerate_xy_links,
)
from bimenger.bigraph import MINUS, PLUS
from bimenger.fixtures import fig1a, fig1b
from bimenger.oracle import _exists_almost_path, _exists_path
from bimenger.walks import (
    Link,
    Walk,
    alternating_paths,
    is_almost_path,
    is_path,
    path_link,
    turnaround_link,
)

from .conftest import graphs, random_graph


def test_walk_alternation_valid():
    g = build_graph(
        ["u", "v", "w"],
        [("u", "v", PLUS, MINUS), ("v", "w", PLUS, PLUS)],
    )
    verdict = check_walk(g, Walk(("u", "v", "w"), (0, 1)))
    assert verdict.ok


def test_walk_alternation_violation_position():
    g = build_graph(
        ["u", "v", "w"],
        [("u", "v", PLUS, MINUS), ("v", "w", MINUS, PLUS)],
    )
    verdict = check_walk(g, Walk(("u", "v", "w"), (0, 1)))
    assert not verdict.ok
    assert verdict.reason == "alternation"
    assert verdict.position == 1


def test_closed_trail_no_condition_at_endpoints():
    # parallel edges with opposite signs at x, both minus at s
    g = build_graph(
        ["s", "x"],
        [("s", "x", MINUS, PLUS), ("s", "x", MINUS, MINUS)],
    )
    w = Walk(("s", "x", "s"), (0, 1))
    assert check_walk(g, w).ok
    assert is_almost_path(g, w)


def test_walk_wrong_endpoint():
    g = build_graph(["a", "b", "c"], [("a", "b", PLUS, PLUS)])
    verdict = check_walk(g, Walk(("a", "c"), (0,)))
    assert not verdict.ok and verdict.reason == "edge_endpoints"


def test_trivial_path_is_link():
    g = build_graph(["v"], [])
    verdict = classify_link(g, path_link(Walk(("v",), ())), {"v"}, {"v"})
    assert verdict.kind == "path"


def test_classify_fig1a_turnaround():
    g, X, Y = fig1a()
    xx = Walk(("x1", "x2"), (0,))
    yy = Walk(("y1", "y2"), (3,))
    verdict = classify_link(g, turnaround_link(xx, yy), X, Y)
    assert verdict.kind == "turnaround"


def test_classify_rejects_shared_vertex():
    g, X, Y = fig1a()
    verdict = classify_link(
        g,
        turnaround_link(Walk(("x1", "x2"), (0,)), Walk(("x2", "x3"), (1,))),
        X,
        {"x2", "x3"},
    )
    assert verdict.kind == "not_a_link"
    assert verdict.reason == "parts_share_a_vertex"


def test_classify_rejects_repeated_edge_part():
    g = build_graph(["x1", "x2"], [("x1", "x2", PLUS, PLUS)])
    bad = Walk(("x1", "x2", "x1"), (0, 0))
    verdict = classify_link(g, turnaround_link(bad, bad), {"x1"}, {"x2"})
    assert verdict.kind == "not_a_link"


def test_enumerate_paths_empty():
    g = build_graph(["a", "b"], [])
    assert enumerate_paths(g, {"a"}, {"b"}) == []


def test_enumerate_paths_fig1a_across_is_empty():
    g, X, Y = fig1a()
    assert enumerate_paths(g, X, Y) == []


def test_enumerate_paths_fig1a_xx_nontrivial():
    g, X, Y = fig1a()
    paths = enumerate_paths(g, X, X, nontrivial_only=True)
    assert len(paths) == 3
    assert all(len(p.edges) == 1 for p in paths)


def test_enumerate_paths_trivial_on_intersection():
    g = build_graph(["a", "b"], [])
    paths = enumerate_paths(g, {"a"}, {"a", "b"})
    assert [p.vertices for p in paths] == [("a",)]


def test_almost_paths_parallel_pair():
    g = build_graph(["v", "w"], [("v", "w", PLUS, PLUS), ("v", "w", MINUS, MINUS)])
    assert len(enumerate_almost_paths(g, "v")) == 1


def test_almost_paths_need_alternation_at_far_end():
    g = build_graph(["v", "w"], [("v", "w", PLUS, PLUS), ("v", "w", MINUS, PLUS)])
    assert enumerate_almost_paths(g, "v") == []


def test_almost_paths_fig1a_none():
    g, _, _ = fig1a()
    assert enumerate_almost_paths(g, "x1") == []


def test_xy_links_fig1a():
    g, X, Y = fig1a()
    links = enumerate_xy_links(g, X, Y)
    assert len(links) == 9
    assert all(l.kind == "turnaround" for l in links)


def test_xy_links_fig1b():
    g, X, Y = fig1b()
    links = enumerate_xy_links(g, X, Y)
    assert len(links) == 6
    assert all(l.kind == "turnaround" for l in links)


def test_xy_links_edgeless():
    g = build_graph(["a", "b"], [])
    assert enumerate_xy_links(g, {"a"}, {"b"}) == []


def test_st_links_smallest_turnaround():
    g = build_graph(
        ["s", "u", "t", "w"],
        [
            ("s", "u", MINUS, PLUS),
            ("s", "u", MINUS, MINUS),
            ("t", "w", PLUS, PLUS),
            ("t", "w", PLUS, MINUS),
        ],
    )
    links = enumerate_st_links(g, "s", "t")
    assert len(links) == 1
    assert links[0].kind == "turnaround"
    assert links[0].weight == 2


@given(graphs(max_n=5, max_m=6))
def test_enumerated_paths_are_paths_and_reversal_invariant(g):
    A = set(g.vertices[:3])
    B = set(g.vertices[2:])
    for w in enumerate_paths(g, A, B):
        assert is_path(g, w)
        assert check_walk(g, Walk(w.vertices[::-1], w.edges[::-1])).ok


@given(graphs(max_n=5, max_m=6))
def test_enumerated_almost_paths_shape(g):
    for v in g.vertices:
        for w in enumerate_almost_paths(g, v):
            assert w.start == w.end == v
            interior = w.vertices[1:-1]
            assert len(set(interior)) == len(interior)
            assert v not in interior
            assert len(set(w.edges)) == len(w.edges)


@given(graphs(max_n=5, max_m=6, all_plus=True))
def test_all_plus_paths_have_at_most_one_edge(g):
    A = set(g.vertices)
    for w in enumerate_paths(g, A, A):
        assert len(w.edges) <= 1


@given(graphs(max_n=5, max_m=6))
def test_link_monotonicity_under_deletion(g):
    X = set(g.vertices[:2])
    Y = set(g.vertices[2:4])
    drop = {g.vertices[-1]} - (X | Y)
    before = {l.canonical_key() for l in enumerate_xy_links(g, X, Y)}
    after = {
        l.canonical_key()
        for l in enumerate_xy_links(delete_vertices(g, drop), X, Y)
    }
    assert after <= before


def test_alternating_paths_order_avoid_stop_and_entry_sign():
    # the path a - b - c - d, alternating at b and c, and a branch b - e
    g = build_graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b", PLUS, MINUS), ("b", "c", PLUS, MINUS),
         ("c", "d", PLUS, MINUS), ("b", "e", PLUS, PLUS)],
    )

    def walks(**kw):
        return ["".join(vertices) for vertices, _ in alternating_paths(g, "a", **kw)]

    assert walks() == ["a", "ab", "abc", "abcd", "abe"]
    assert walks(stop={"c"}) == ["a", "ab", "abc", "abe"]
    assert walks(avoid={"c"}) == ["a", "ab", "abe"]
    assert walks(sign=PLUS) == ["a"]
    assert walks(sign=MINUS) == walks()


def _edge_sequences(g):
    """Every walk of at most n edges that follows incidences, with no
    condition on signs or repeats: the edge sequences the definitions
    of a path and an almost path choose from."""
    out = []

    def extend(vertices, edges):
        out.append(Walk(tuple(vertices), tuple(edges)))
        if len(edges) < g.n:
            for e in g.incident(vertices[-1]):
                extend(vertices + [e.other(vertices[-1])], edges + [e.eid])

    for v in g.vertices:
        extend([v], [])
    return out


def _assert_same_up_to_reversal(found, expected):
    keys = {w.canonical_key() for w in found}
    assert len(keys) == len(found)
    assert keys == {w.canonical_key() for w in expected}


def test_search_finds_exactly_the_walks_of_the_definitions():
    rng = random.Random(19)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 5), rng.randint(0, 7))
        sequences = _edge_sequences(g)
        paths = [w for w in sequences if is_path(g, w)]
        almost = [w for w in sequences if is_almost_path(g, w)]
        A = set(rng.sample(g.vertices, rng.randint(1, g.n)))
        B = set(rng.sample(g.vertices, rng.randint(1, g.n)))
        forbidden = frozenset(rng.sample(g.vertices, rng.randint(0, 2)))
        for nontrivial_only in (False, True):
            expected = [w for w in paths if w.start in A and w.end in B
                        and not (nontrivial_only and w.is_trivial)]
            _assert_same_up_to_reversal(enumerate_paths(g, A, B, nontrivial_only), expected)
            exists = any(forbidden.isdisjoint(w.vertices) for w in expected)
            assert _exists_path(g, A, B, forbidden, nontrivial_only) == exists
        for v in g.vertices:
            expected = [w for w in almost if w.start == v]
            _assert_same_up_to_reversal(enumerate_almost_paths(g, v), expected)
            exists = any(forbidden.isdisjoint(w.vertices) for w in expected)
            assert _exists_almost_path(g, v, forbidden) == exists
