import random

import pytest

from bimenger import (
    EqualTerminals,
    SizeBoundExceeded,
    VerificationFailure,
    build_graph,
    classify_link,
    delete_vertices,
    enumerate_xy_links,
    oracle_max_links,
    oracle_min_separator,
    oracle_st,
    oracle_xpaths,
)
from bimenger.bigraph import MINUS, PLUS
from bimenger.oracle import has_st_link, has_xy_link, min_separator
from bimenger.reduce import attach_terminals

from .conftest import random_graph, random_sets
from .helpers import shipped


def test_fig1a_values():
    g, X, Y = shipped("fig1a")
    assert oracle_max_links(g, X, Y).value == 2
    assert len(oracle_min_separator(g, X, Y)) == 2


def test_fig1b_values():
    g, X, Y = shipped("fig1b")
    assert oracle_max_links(g, X, Y).value == 2
    sep = oracle_min_separator(g, X, Y)
    assert len(sep) == 1
    assert sep == {"a"}


def test_edgeless_zero():
    g = build_graph(["a", "b"], [])
    assert oracle_max_links(g, {"a"}, {"b"}).value == 0
    assert len(oracle_min_separator(g, {"a"}, {"b"})) == 0


def test_packing_witness_verifies():
    g, X, Y = shipped("fig1a")
    pk = oracle_max_links(g, X, Y)
    assert pk.value == sum(l.weight for l in pk.links)
    seen = set()
    for link in pk.links:
        assert classify_link(g, link, X, Y).kind == link.kind
        assert not (link.vertex_set() & seen)
        seen |= link.vertex_set()


def test_separator_witness_verifies():
    g, X, Y = shipped("fig1b")
    sep = oracle_min_separator(g, X, Y)
    assert not has_xy_link(delete_vertices(g, sep), X, Y)


def test_size_bound():
    g = build_graph([f"v{i}" for i in range(12)], [])
    with pytest.raises(SizeBoundExceeded):
        oracle_max_links(g, {"v0"}, {"v1"})
    # configurable
    assert oracle_max_links(g, {"v0"}, {"v1"}, max_vertices=12).value == 0


def test_st_single_edge_infinite_separator():
    g = build_graph(["s", "t"], [("s", "t", MINUS, PLUS)])
    pk, sep = oracle_st(g, "s", "t")
    assert pk.value == 1
    assert sep is None


def test_st_path_through_internal_vertex():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    pk, sep = oracle_st(g, "s", "t")
    assert pk.value == 1
    assert len(sep) == 1 and sep == {"v"}


def test_st_equal_terminals():
    g = build_graph(["s"], [])
    with pytest.raises(EqualTerminals):
        oracle_st(g, "s", "s")


def test_st_on_gadgeted_fig1a_matches_set_version():
    g, X, Y = shipped("fig1a")
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    pk, sep = oracle_st(g_hat, s, t, max_vertices=14, max_edges=24)
    assert pk.value == 2
    assert len(sep) == 2


def test_xpaths_single_edge():
    g = build_graph(["a", "b"], [("a", "b", PLUS, PLUS)])
    assert oracle_xpaths(g, {"a", "b"}) == (1, 1)


def test_xpaths_triangle_shows_sharp_factor_two():
    g, X, _ = shipped("x_triangle")
    packing, hitting = oracle_xpaths(g, X)
    assert (packing, hitting) == (1, 2)
    assert 2 * packing >= hitting


def test_xpaths_edgeless():
    g = build_graph(["a", "b"], [])
    assert oracle_xpaths(g, {"a", "b"}) == (0, 0)


def test_min_separator_lexicographic_tie_break():
    # {a}, {b} and {m} all separate; the lexicographically first wins
    g = build_graph(
        ["a", "b", "m", "z"],
        [("a", "m", PLUS, PLUS), ("m", "b", MINUS, PLUS)],
    )
    sep = oracle_min_separator(g, {"a"}, {"b"})
    assert sep == {"a"}


def test_min_separator_raises_rather_than_return_an_infinite_size():
    # a link that no vertex deletion clears: the search runs out of subsets
    g = build_graph(["a", "b", "c"], [("a", "b", PLUS, MINUS)])
    with pytest.raises(VerificationFailure):
        min_separator(g, g.vertices, lambda h: True)
    sep = min_separator(g, ["c", "b"], lambda h: h.has_vertex("b"))
    assert (len(sep), sep) == (1, {"b"})


def test_min_max_inequality_randomized(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 7), rng.randrange(0, 11))
        X, Y = random_sets(rng, g, overlap=bool(rng.randrange(2)))
        pk = oracle_max_links(g, X, Y)
        sep = oracle_min_separator(g, X, Y)
        assert pk.value >= len(sep)
        # separator witness re-verifies
        assert not has_xy_link(delete_vertices(g, sep), X, Y)


def test_no_turnaround_implies_equality_randomized(rng):
    checked = 0
    for _ in range(120):
        g = random_graph(rng, rng.randrange(2, 6), rng.randrange(0, 7))
        X, Y = random_sets(rng, g)
        links = enumerate_xy_links(g, X, Y)
        if any(l.kind == "turnaround" for l in links):
            continue
        checked += 1
        pk = oracle_max_links(g, X, Y)
        sep = oracle_min_separator(g, X, Y)
        assert pk.value == len(sep)
    assert checked >= 20


def test_cor15_inequality_randomized(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 7), rng.randrange(0, 9))
        X = set(rng.sample(list(g.vertices), rng.randrange(0, min(4, g.n + 1))))
        packing, hitting = oracle_xpaths(g, X)
        assert 2 * packing >= hitting


def test_st_min_max_randomized(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 7), rng.randrange(0, 10))
        s, t = g.vertices[0], g.vertices[1]
        pk, sep = oracle_st(g, s, t)
        if sep is None:
            assert any(
                {e.u, e.v} == {s, t} for e in g.edges
            ), "infinite separator needs a direct edge"
            continue
        assert pk.value >= len(sep)
        assert not has_st_link(delete_vertices(g, sep), s, t)
