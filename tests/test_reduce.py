import pytest

from bimenger import (
    DirectTerminalEdge,
    EqualTerminals,
    UnknownVertex,
    build_graph,
    enumerate_paths,
    oracle_max_links,
    oracle_min_separator,
    oracle_st,
    oracle_xpaths,
)
from bimenger.bigraph import MINUS, PLUS
from bimenger.fixtures import fig1a, x_triangle
from bimenger.reduce import (
    UnmappableEdge,
    attach_terminals,
    double_for_xpaths,
    map_cut_to_separator,
    map_links_back,
    split_and_close,
)
from bimenger.walks import Link, Walk, check_walk, path_link

from .conftest import random_graph, random_sets
from .helpers import lift_link_through_terminal, lift_walk_through_split


def test_attach_sizes():
    g, X, Y = fig1a()
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    assert g_hat.n == g.n + len(X) + len(Y) + 2
    assert g_hat.m == g.m + 3 * len(X) + 3 * len(Y)


def test_attach_normalized_terminals():
    g, X, Y = fig1a()
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    assert all(e.sign_at(s) is MINUS for e in g_hat.incident(s))
    assert all(e.sign_at(t) is PLUS for e in g_hat.incident(t))
    assert len(g_hat.incident(s)) == len(X)
    assert len(g_hat.incident(t)) == len(Y)


def test_attach_requires_known_vertices():
    g = build_graph(["a"], [])
    with pytest.raises(UnknownVertex):
        attach_terminals(g, {"zz"}, {"a"})


def test_gadget_blocks_spurious_links():
    # the two-parallel-edge wiring would admit a two-edge closed trail at
    # s standing for a trivial path; the gadget must not
    g = build_graph(["x", "y"], [])
    g_hat, s, t, _ = attach_terminals(g, {"x"}, {"y"})
    assert g_hat.n == 6 and g_hat.m == 6
    pk, sep = oracle_st(g_hat, s, t)
    assert pk.value == 0
    assert sep.size == 0


def test_verbatim_parallel_wiring_would_inflate():
    # witness for why the gadget exists: wiring x straight to s by two
    # parallel edges creates a spurious turnaround on a linkless instance
    g = build_graph(
        ["x", "y", "s", "t"],
        [
            ("x", "s", PLUS, MINUS),
            ("x", "s", MINUS, MINUS),
            ("y", "t", PLUS, PLUS),
            ("y", "t", MINUS, PLUS),
        ],
    )
    pk, sep = oracle_st(g, "s", "t")
    assert pk.value == 2
    assert sep.size == 1


def test_gadget_oracle_parity_randomized(rng):
    for _ in range(12):
        g = random_graph(rng, rng.randrange(2, 6), rng.randrange(0, 7))
        X, Y = random_sets(rng, g, max_size=2, overlap=bool(rng.randrange(2)))
        if not X or not Y:
            continue
        g_hat, s, t, _ = attach_terminals(g, X, Y)
        pk, sep = oracle_st(g_hat, s, t, max_vertices=g_hat.n, max_edges=g_hat.m)
        assert pk.value == oracle_max_links(g, X, Y).value
        assert sep.size == oracle_min_separator(g, X, Y).size


def test_split_forces_terminal_signs(rng):
    # minus ends at s and plus ends at t, except on f; the s-t values are
    # pinned by test_solve_st_separator_avoids_terminals, on graphs whose
    # terminal signs are mixed
    forced = 0
    for _ in range(30):
        g = random_graph(rng, rng.randrange(4, 8), rng.randrange(0, 10))
        s, t = g.vertices[0], g.vertices[1]
        if any({e.u, e.v} == {s, t} for e in g.edges):
            continue
        g_prime, f, _ = split_and_close(g, s, t)
        assert all(e.sign_at(s) is MINUS for e in g_prime.incident(s) if e.eid != f)
        assert all(e.sign_at(t) is PLUS for e in g_prime.incident(t) if e.eid != f)
        assert len(g_prime.incident(s)) == len(g.incident(s)) + 1
        assert len(g_prime.incident(t)) == len(g.incident(t)) + 1
        forced += any(e.sign_at(s) is PLUS for e in g.incident(s))
        forced += any(e.sign_at(t) is MINUS for e in g.incident(t))
    assert forced >= 5


def test_split_rejects_bad_terminals():
    g = build_graph(["a"], [])
    with pytest.raises(EqualTerminals):
        split_and_close(g, "a", "a")
    with pytest.raises(UnknownVertex):
        split_and_close(g, "a", "zz")


def test_split_sizes():
    g, X, Y = fig1a()
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    g_prime, f, _ = split_and_close(g_hat, s, t)
    assert g_prime.n == 2 * (g_hat.n - 2) + 2
    assert g_prime.m == g_hat.m + (g_hat.n - 2) + 1


def test_split_rejects_direct_edge():
    g = build_graph(["s", "t"], [("s", "t", MINUS, PLUS)])
    with pytest.raises(DirectTerminalEdge):
        split_and_close(g, "s", "t")


def test_split_capacity_structure():
    g, X, Y = fig1a()
    g_hat, s, t, tmap = attach_terminals(g, X, Y)
    g_prime, f, smap = split_and_close(g_hat, s, t)
    split_edge_of = smap.split_edge_of
    assert set(split_edge_of) == set(g_hat.vertices) - {s, t}
    for v, eid in split_edge_of.items():
        vp, vm = g_prime.edge(eid).endpoints  # v+ then v-
        minus_at_plus = [e for e in g_prime.incident(vp) if e.sign_at(vp) is MINUS]
        plus_at_minus = [e for e in g_prime.incident(vm) if e.sign_at(vm) is PLUS]
        assert len(minus_at_plus) == 1
        assert len(plus_at_minus) == 1
        assert minus_at_plus[0].eid == eid
        assert plus_at_minus[0].eid == eid


def test_closing_edge_is_unique_plus_at_s():
    g, X, Y = fig1a()
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    g_prime, f, _ = split_and_close(g_hat, s, t)
    fe = g_prime.edge(f)
    assert {fe.u, fe.v} == {s, t}
    assert fe.sign_at(s) is PLUS and fe.sign_at(t) is MINUS
    plus_at_s = [e for e in g_prime.incident(s) if e.sign_at(s) is PLUS]
    assert [e.eid for e in plus_at_s] == [f]


def test_split_path_correspondence():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap = split_and_close(g, "s", "t")
    vp, vm = g_prime.edge(smap.split_edge_of["v"]).endpoints
    paths = enumerate_paths(g_prime, {"s"}, {"t"})
    routed = [p for p in paths if f not in p.edges]
    assert len(routed) == 1
    assert routed[0].vertices == ("s", vp, vm, "t")


def _st_draws(rng, count, n_range, m_range, keep=lambda g: True):
    """``count`` random graphs whose first two vertices, s and t, share no
    edge and that ``keep`` accepts, drawn in at most 50 * count attempts."""
    out = []
    for _ in range(50 * count):
        g = random_graph(rng, rng.randrange(*n_range), rng.randrange(*m_range))
        s, t = g.vertices[0], g.vertices[1]
        if not any({e.u, e.v} == {s, t} for e in g.edges) and keep(g):
            out.append(g)
            if len(out) == count:
                break
    assert len(out) == count
    return out


def test_split_path_counts_randomized(rng):
    for g in _st_draws(rng, 10, (2, 6), (0, 7)):
        s, t = g.vertices[0], g.vertices[1]
        g_prime, f, _ = split_and_close(g, s, t)
        before = enumerate_paths(g, {s}, {t})
        after = [p for p in enumerate_paths(g_prime, {s}, {t}) if f not in p.edges]
        assert len(before) == len(after)


def test_double_sizes_and_disjointness():
    g, X = x_triangle()
    g2, X1, X2, _ = double_for_xpaths(g, X)
    assert g2.n == 2 * g.n and g2.m == 2 * g.m
    assert not (X1 & X2)
    assert enumerate_paths(g2, X1, X2) == []


def test_double_oracle_parity():
    g, X = x_triangle()
    g2, X1, X2, _ = double_for_xpaths(g, X)
    packing, _ = oracle_xpaths(g, X)
    assert oracle_max_links(g2, X1, X2).value == 2 * packing


def test_double_oracle_parity_randomized(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randrange(2, 5), rng.randrange(0, 6))
        X = set(g.vertices[: rng.randrange(1, g.n + 1)])
        g2, X1, X2, _ = double_for_xpaths(g, X)
        packing, _ = oracle_xpaths(g, X)
        assert (
            oracle_max_links(g2, X1, X2, max_vertices=g2.n, max_edges=g2.m).value
            == 2 * packing
        )


def test_double_walk_back_and_first_copy_randomized(rng):
    # the doubling's own back-maps, which solve_xpaths applies to its
    # packed paths and to its cut
    nontrivial = 0
    for _ in range(10):
        g = random_graph(rng, rng.randrange(3, 6), rng.randrange(2, 9))
        X = set(g.vertices[: rng.randrange(2, g.n + 1)])
        g2, X1, X2, dmap = double_for_xpaths(g, X)
        for copy in (dmap.copy1, dmap.copy2):
            images = set(copy.values())
            edge = {o: d for d, o in dmap.back_edge.items() if g2.edge(d).u in images}
            for w in enumerate_paths(g, X, X):
                lifted = Walk(tuple(copy[v] for v in w.vertices), tuple(edge[e] for e in w.edges))
                assert check_walk(g2, lifted)
                back = dmap.walk_back(lifted)
                assert path_link(back).canonical_key() == path_link(w).canonical_key()
                nontrivial += not w.is_trivial
        A = set(rng.sample(g.vertices, rng.randrange(g.n + 1)))
        B = set(rng.sample(g.vertices, rng.randrange(g.n + 1)))
        assert dmap.first_copy({dmap.copy1[v] for v in A} | {dmap.copy2[v] for v in B}) == A
    assert nontrivial >= 2 * 40  # each path lifts into both copies


def test_lift_and_map_back_roundtrip(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randrange(2, 6), rng.randrange(0, 7))
        X, Y = random_sets(rng, g, max_size=2, overlap=bool(rng.randrange(2)))
        if not X or not Y:
            continue
        pk = oracle_max_links(g, X, Y)
        if not pk.links:
            continue
        g_hat, s, t, tmap = attach_terminals(g, X, Y)
        g_prime, f, smap = split_and_close(g_hat, s, t)
        for link in pk.links:
            lifted = lift_link_through_terminal(tmap, link)
            lifted2 = Link(
                lifted.kind,
                tuple(lift_walk_through_split(smap, w) for w in lifted.walks),
            )
            (back,) = map_links_back([tmap, smap], [lifted2])
            assert back.canonical_key() == link.canonical_key()


def test_split_lift_roundtrip_st_links(rng):
    def has_link(g):
        return bool(oracle_st(g, *g.vertices[:2])[0].links)

    for g in _st_draws(rng, 8, (3, 6), (1, 8), keep=has_link):
        s, t = g.vertices[0], g.vertices[1]
        pk, _ = oracle_st(g, s, t)
        g_prime, f, smap = split_and_close(g, s, t)
        for link in pk.links:
            lifted = Link(
                link.kind,
                tuple(lift_walk_through_split(smap, w) for w in link.walks),
            )
            (back,) = map_links_back([smap], [lifted])
            assert back.canonical_key() == link.canonical_key()


def test_map_gadget_path_collapses_to_trivial():
    g = build_graph(["x"], [])
    g_hat, s, t, tmap = attach_terminals(g, {"x"}, {"x"})
    paths = enumerate_paths(g_hat, {s}, {t})
    assert paths, "trivial path must lift through the gadgets"
    (back,) = map_links_back([tmap], [Link("path", (paths[0],))])
    assert back.path.vertices == ("x",)
    assert back.path.is_trivial


def test_map_cut_split_edge_to_vertex():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap = split_and_close(g, "s", "t")
    split_eid = smap.split_edge_of["v"]
    assert map_cut_to_separator([smap], {split_eid}) == {"v"}
    assert map_cut_to_separator([smap], set()) == frozenset()


def test_map_cut_rejects_f():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap = split_and_close(g, "s", "t")
    with pytest.raises(UnmappableEdge):
        map_cut_to_separator([smap], {f})


def test_map_cut_original_edge_excludes_terminals():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap = split_and_close(g, "s", "t")
    assert map_cut_to_separator([smap], {0}) == {"v"}
    assert map_cut_to_separator([smap], {1}) == {"v"}


def test_map_cut_gadget_edges_charge_the_guarded_vertex():
    g, X, Y = fig1a()
    g_hat, s, t, tmap = attach_terminals(g, X, Y)
    g_prime, f, smap = split_and_close(g_hat, s, t)
    origin = tmap.gadget_origin
    for eid, x in list(origin.items())[:4]:
        mapped = map_cut_to_separator([tmap, smap], {eid})
        assert mapped == {x}
    split_edge_of = smap.split_edge_of
    for table in (tmap.x_gadget, tmap.y_gadget):
        for x, xg in table.items():
            assert map_cut_to_separator([tmap, smap], {split_edge_of[xg]}) == {x}
