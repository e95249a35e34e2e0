"""The packing that `bimenger.matching` finds, checked against the oracles,
the known values of the disjoint unions and the cut rounds on (P), with
its links decomposed, mapped back and classified in the input graph."""

import pytest

from bimenger import oracle_max_links, oracle_st, oracle_xpaths, ratlp
from bimenger.bigraph import vertex_sort_key
from bimenger.bmcli import GenParams, random_instance
from bimenger.certify import _pairwise_disjoint, decompose_packing
from bimenger.matching import max_packing
from bimenger.reduce import attach_terminals, map_links_back, split_and_close
from bimenger.walks import classify_link, path_link

from .helpers import doubled_split, load_tool, suite200_instances

unions = load_tool("unions")


def _split(g, X, Y):
    """(split graph, f, reduction chain) of ``solve_menger``."""
    g_hat, s, t, tmap = attach_terminals(g, X, Y)
    g_prime, f, smap = split_and_close(g_hat, s, t)
    return g_prime, f, [tmap, smap]


def _packing(g_prime, f, chain):
    """(x_f, links mapped back through ``chain``) of the matching's packing,
    whose chosen edges and x_f satisfy every balance row of (P)."""
    chosen, xf = max_packing(g_prime, f, chain[-1].split_origin)
    P = ratlp.build_primal(g_prime, f)
    point = [xf if name == "xf" else int(int(name[2:]) in chosen) for name in P.names]
    assert chosen <= {int(name[2:]) for name in P.names[:-1]}
    assert all(sum(a * x for a, x in zip(row, point)) == 0 for row in P.a_eq)
    return xf, map_links_back(chain, decompose_packing(g_prime, f, chosen, xf).links)


def _check_links(g, links, ends, terminals=frozenset()):
    assert all(classify_link(g, link, *ends).kind == link.kind for link in links)
    assert _pairwise_disjoint(links, terminals)


def _menger_value(g, X, Y):
    value, links = _packing(*_split(g, X, Y))
    _check_links(g, links, (X, Y))
    assert sum(link.weight for link in links) == value
    return value


def _xpaths_value(g, X):
    # every packed link is a turnaround, whose s-s part is an X-path of
    # the first copy, g itself
    g_prime, f, _, chain = doubled_split(g, X)
    xf, links = _packing(g_prime, f, chain)
    paths = [path_link(link.ss_part) for link in links]
    _check_links(g, paths, (X, X))
    assert xf == 2 * len(paths)
    return len(paths)


def _cut_rounds_value(g_prime, f, side=None):
    P = ratlp.build_primal(g_prime, f, side)
    return ratlp.solve_integral_max(P, ratlp.simplex_max(P)).objective_value


def test_values_are_the_oracle_optima_on_suite200():
    checked = {"solve": 0, "solve-st": 0, "xpaths": 0}
    for inst in suite200_instances():
        g, X, Y = inst.graph, inst.X, inst.Y
        if X and Y:
            assert _menger_value(g, X, Y) == oracle_max_links(g, X, Y).value
            checked["solve"] += 1
            s, t = min(X, key=vertex_sort_key), min(Y, key=vertex_sort_key)
            if s != t and not any({e.u, e.v} == {s, t} for e in g.edges):
                g_prime, f, smap = split_and_close(g, s, t)
                value, links = _packing(g_prime, f, [smap])
                _check_links(g, links, ({s}, {t}), frozenset({s, t}))
                assert value == sum(link.weight for link in links) == oracle_st(g, s, t)[0].value
                checked["solve-st"] += 1
        if X:
            assert _xpaths_value(g, X) == oracle_xpaths(g, X)[0]
            checked["xpaths"] += 1
    # solve-st skips the draws whose s and t coincide or are joined, which
    # it refuses
    assert checked == {"solve": 130, "solve-st": 55, "xpaths": 171}


@pytest.mark.parametrize("name", ["solve", "xpaths", "fig1a", "fig1b"])
def test_disjoint_unions_pack_k_times_their_copy(name):
    for k in (1, 2, 5, 10, 20, 40):
        inst = unions.union(name, k)
        if name == "xpaths":
            value = _xpaths_value(inst.graph, inst.X)
        else:
            value = _menger_value(inst.graph, inst.X, inst.Y)
        assert value == unions.expected(name, k)[0]


@pytest.mark.parametrize("name, k", [("solve", 3), ("solve", 5), ("fig1a", 3), ("fig1b", 4),
                                     ("xpaths", 3)])
def test_chained_unions_match_the_cut_rounds(name, k):
    inst = unions.union(name, k, chained=True)
    if name == "xpaths":
        g_prime, f, side, _ = doubled_split(inst.graph, inst.X)
        assert 2 * _xpaths_value(inst.graph, inst.X) == _cut_rounds_value(g_prime, f, side)
    else:
        g_prime, f, _ = _split(inst.graph, inst.X, inst.Y)
        assert _menger_value(inst.graph, inst.X, inst.Y) == _cut_rounds_value(g_prime, f)


@pytest.mark.parametrize("n, seed", [(20, 0), (25, 1), (30, 2), (40, 0)])
def test_large_draws_match_the_cut_rounds(n, seed):
    inst = random_instance(GenParams(n, int(1.8 * n), seed, 4, 4))
    g_prime, f, _ = _split(inst.graph, inst.X, inst.Y)
    assert _menger_value(inst.graph, inst.X, inst.Y) == _cut_rounds_value(g_prime, f)
