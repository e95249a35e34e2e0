import pytest
from hypothesis import given

from bimenger import (
    DuplicateVertexId,
    LoopRejected,
    SignRejected,
    UnknownVertex,
    build_graph,
    delete_vertices,
    incidence_matrix,
    switch_vertex,
)
from bimenger.bigraph import MINUS, PLUS
from bimenger.walks import enumerate_paths

from .conftest import graphs
from .helpers import shipped


def test_build_simple():
    g = build_graph(["a", "b"], [("a", "b", PLUS, MINUS)])
    assert g.n == 2 and g.m == 1
    assert g.edges[0].eid == 0
    assert g.edges[0].sign_at("a") == PLUS
    assert g.edges[0].sign_at("b") == MINUS


def test_edge_ids_in_input_order():
    g = build_graph(["a", "b", "c"], [("a", "b", PLUS, PLUS), ("b", "c", MINUS, PLUS)])
    assert [e.eid for e in g.edges] == [0, 1]


def test_loop_rejected():
    with pytest.raises(LoopRejected):
        build_graph(["a"], [("a", "a", PLUS, MINUS)])


def test_unknown_vertex_rejected():
    with pytest.raises(UnknownVertex):
        build_graph(["a"], [("a", "b", PLUS, MINUS)])


def test_duplicate_vertex_rejected():
    with pytest.raises(DuplicateVertexId):
        build_graph(["a", "a"], [])


@pytest.mark.parametrize("su, sv", [(2, PLUS), (0, MINUS), (PLUS, "+"), (1.0, MINUS), (True, PLUS)])
def test_sign_other_than_plus_or_minus_one_rejected(su, sv):
    with pytest.raises(SignRejected):
        build_graph(["a", "b"], [("a", "b", su, sv)])


def test_sign_flip_involution():
    assert (PLUS, MINUS) == (1, -1)
    assert -PLUS == MINUS
    assert -(-MINUS) == MINUS


def test_fig1a_builds_with_column_sums_two():
    g, X, Y = shipped("fig1a")
    assert g.n == 6 and g.m == 6
    M = incidence_matrix(g)
    for j in range(g.m):
        assert sum(abs(row[j]) for row in M) == 2
        # all-plus fixture: both nonzeros are +1
        assert sum(row[j] for row in M) == 2


def test_incidence_entry_signs():
    g = build_graph(["a", "b"], [("a", "b", PLUS, MINUS)])
    assert incidence_matrix(g) == [[1], [-1]]


def test_incidence_digraph_encoding():
    # tails minus, heads plus: the classical digraph incidence matrix
    g = build_graph(
        ["a", "b", "c"],
        [("a", "b", MINUS, PLUS), ("b", "c", MINUS, PLUS)],
    )
    M = incidence_matrix(g)
    for j in range(g.m):
        col = [row[j] for row in M]
        assert sorted(col) == [-1, 0, 1]


def test_delete_empty_is_identity():
    g, _, _ = shipped("fig1a")
    assert delete_vertices(g, set()) == g


def test_delete_fig1b_kills_x_side():
    g, X, Y = shipped("fig1b")
    h = delete_vertices(g, {"a"})
    assert all(e.u not in X or e.v not in X for e in h.edges)
    assert not [e for e in h.edges if e.u in X and e.v in X]


def test_delete_everything():
    g, _, _ = shipped("fig1a")
    h = delete_vertices(g, set(g.vertices))
    assert h.n == 0 and h.m == 0


def test_delete_unknown_vertex():
    g, _, _ = shipped("fig1a")
    with pytest.raises(UnknownVertex):
        delete_vertices(g, {"nope"})


def test_delete_keeps_ids():
    g, _, _ = shipped("fig1a")
    h = delete_vertices(g, {"x2"})
    assert {e.eid for e in h.edges} < {e.eid for e in g.edges}
    for e in h.edges:
        assert g.edge(e.eid) == e


def test_switch_is_involution():
    g, _, _ = shipped("fig1b")
    assert switch_vertex(switch_vertex(g, "a"), "a") == g


def test_switch_single_edge():
    g = build_graph(["a", "b"], [("a", "b", PLUS, MINUS)])
    h = switch_vertex(g, "a")
    assert h.edges[0].sign_u == MINUS and h.edges[0].sign_v == MINUS


def test_switch_unknown():
    g, _, _ = shipped("fig1a")
    with pytest.raises(UnknownVertex):
        switch_vertex(g, "zz")


@given(graphs(max_n=5, max_m=7))
def test_column_abs_sum_exactly_two(g):
    M = incidence_matrix(g)
    for j in range(g.m):
        assert sum(abs(row[j]) for row in M) == 2


@given(graphs(max_n=5, max_m=6))
def test_switching_preserves_walks(g):
    v = g.vertices[0]
    h = switch_vertex(g, v)
    A = set(g.vertices[: g.n // 2])
    B = set(g.vertices[g.n // 2 :])
    before = {w.canonical_key() for w in enumerate_paths(g, A, B)}
    after = {w.canonical_key() for w in enumerate_paths(h, A, B)}
    assert before == after


def test_determinism():
    specs = [("a", "b", PLUS, MINUS), ("b", "c", MINUS, MINUS)]
    assert build_graph(["a", "b", "c"], specs) == build_graph(["a", "b", "c"], specs)
