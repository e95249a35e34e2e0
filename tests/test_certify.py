import dataclasses
import importlib.util
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bimenger import (
    DualInfeasible,
    NotBalanced,
    build_graph,
    certify,
    classify_link,
    decompose_packing,
    delete_vertices,
    enumerate_st_links,
    extract_cut,
    failed_checks,
    oracle_max_links,
    oracle_min_separator,
    oracle_st,
    oracle_xpaths,
    ratlp,
    reduce,
    solve_menger,
    solve_st,
    solve_xpaths,
)
from bimenger.bigraph import MINUS, PLUS, vertex_sort_key
from bimenger.bmcli import GenParams, parse_instance, random_instance, run_cli
from bimenger.certify import _certify, _finish_certificate
from bimenger.oracle import _exists_path, has_st_link, has_xy_link
from bimenger.ratlp import (
    build_dual,
    build_primal,
    simplex_max,
    solve_integral_max,
)
from bimenger.reduce import (
    DirectTerminalEdge,
    attach_terminals,
    double_for_xpaths,
    split_and_close,
)
from bimenger.walks import check_walk

from .conftest import random_graph, random_sets, recording_cuts
from .helpers import (
    ROOT,
    check_no_turnaround_equality,
    chosen_edges,
    doubled_split,
    link_sigma_sum,
    load_tool,
    primal_vectors,
    shipped,
    split_edge_of,
    suite200_instances,
)


def st_pipeline(g, s, t):
    """(split graph, f, split map, chosen edges, x_f) of the integral
    optimum of (P) that the cut rounds find, not the matching's."""
    g_prime, f, smap = split_and_close(g, s, t)
    P = build_primal(g_prime, f)
    x, xf = primal_vectors(P, solve_integral_max(P, simplex_max(P)))
    return g_prime, f, smap, chosen_edges(x), int(xf)


def test_decompose_single_path():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap, chosen, xf = st_pipeline(g, "s", "t")
    assert xf == 1
    dec = decompose_packing(g_prime, f, chosen, xf)
    assert len(dec.links) == 1
    assert dec.links[0].kind == "path"
    assert dec.slack_cycles == 0


def test_decompose_turnaround_uses_two_f_copies():
    g = build_graph(
        ["s", "u", "t", "w"],
        [
            ("s", "u", MINUS, PLUS),
            ("s", "u", MINUS, MINUS),
            ("t", "w", PLUS, PLUS),
            ("t", "w", PLUS, MINUS),
        ],
    )
    g_prime, f, smap, chosen, xf = st_pipeline(g, "s", "t")
    assert xf == 2
    dec = decompose_packing(g_prime, f, chosen, xf)
    assert [l.kind for l in dec.links] == ["turnaround"]
    assert dec.links[0].weight == 2
    ss, tt = dec.links[0].walks
    assert ss.start == ss.end == "s"
    assert tt.start == tt.end == "t"


def test_decompose_discards_slack_cycle():
    g = build_graph(
        ["s", "v", "t", "c1", "c2", "c3", "c4"],
        [
            ("s", "v", MINUS, PLUS),
            ("v", "t", MINUS, PLUS),
            ("c1", "c2", PLUS, PLUS),
            ("c1", "c2", MINUS, MINUS),
            ("c3", "c4", PLUS, PLUS),
            ("c3", "c4", MINUS, MINUS),
        ],
    )
    g_prime, f, smap, chosen, xf = st_pipeline(g, "s", "t")
    base = decompose_packing(g_prime, f, chosen, xf)
    split_edge = split_edge_of(smap)
    augmented = set(chosen)
    for cycles, (edges, vertices) in enumerate([((2, 3), ("c1", "c2")), ((4, 5), ("c3", "c4"))], 1):
        augmented.update(edges)
        augmented.update(split_edge[v] for v in vertices)
        dec = decompose_packing(g_prime, f, frozenset(augmented), xf)
        assert dec.slack_cycles == cycles
        assert dec.links == base.links


@pytest.mark.parametrize("branch_on", ["segment", "cycle"])
def test_decompose_rejects_a_support_that_branches_at_an_inner_vertex(branch_on):
    # a closed graph that is not a split graph: v carries two plus and two
    # minus ends of the support, balanced, so only the walker can object
    if branch_on == "segment":  # two s-v-t paths through v, x_f = 2
        specs = [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)] * 2
        xf = 2
    else:  # two closed trails a-v-a and b-v-b, walked from a
        specs = [("a", "v", PLUS, PLUS), ("a", "v", MINUS, MINUS),
                 ("b", "v", PLUS, PLUS), ("b", "v", MINUS, MINUS)]
        xf = 0
    g_prime = build_graph(["s", "t", "v", "a", "b"], specs + [("s", "t", PLUS, MINUS)])
    f = len(specs)
    with pytest.raises(NotBalanced, match="at 'v'"):
        decompose_packing(g_prime, f, frozenset(range(f)), xf)


def test_decompose_wants_paired_segments_of_weight_x_f():
    # a plus end at s and a minus end at t let the balance rows hold with
    # an s-s segment (and a t-t segment) at x_f = 0
    loops = [("s", "a", MINUS, PLUS), ("a", "s", MINUS, PLUS),
             ("t", "b", PLUS, MINUS), ("b", "t", PLUS, MINUS)]
    g_prime = build_graph(["s", "t", "a", "b"], loops + [("s", "t", PLUS, MINUS)])
    with pytest.raises(NotBalanced, match="1 s-s vs 0 t-t"):
        decompose_packing(g_prime, 4, frozenset({0, 1}), 0)
    with pytest.raises(NotBalanced, match="does not match x_f = 0"):
        decompose_packing(g_prime, 4, frozenset(range(4)), 0)


def test_decompose_rejects_unbalanced():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap, chosen, xf = st_pipeline(g, "s", "t")
    with pytest.raises(NotBalanced):
        decompose_packing(g_prime, f, frozenset(), xf)


def test_extract_cut_rejects_zero_dual():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap, chosen, xf = st_pipeline(g, "s", "t")
    z = {v: 0 for v in g_prime.vertices}
    y = {e.eid: 0 for e in g_prime.edges if e.eid != f}
    with pytest.raises(DualInfeasible):
        extract_cut(g_prime, f, z, y)


def test_cut_on_three_vertex_path():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    with recording_cuts() as cuts:
        cert = solve_st(g, "s", "t")
    [(*_, cut)] = cuts
    assert len(cut) == 1
    assert cert.separator == {"v"}


def _assert_cut_soundness(g, X, Y):
    with recording_cuts() as cuts:
        solve_menger(g, X, Y)
    [(g_prime, f, z, y, cut)] = cuts
    fe = g_prime.edge(f)
    s, t = fe.u, fe.v
    assert f not in cut
    assert len(cut) <= sum(y.values())
    for link in enumerate_st_links(g_prime, s, t):
        if f in link.edge_set():
            continue
        total = link_sigma_sum(g_prime, z, link)
        expect = (z[t] - z[s]) * (1 if link.kind == "path" else 2)
        assert total == expect
        assert total < 0
        assert cut & link.edge_set()


def test_cut_soundness_fig1a():
    _assert_cut_soundness(*shipped("fig1a"))


def test_cut_soundness_randomized(rng):
    done = 0
    for _ in range(12):
        g = random_graph(rng, rng.randrange(2, 6), rng.randrange(0, 7))
        X, Y = random_sets(rng, g, max_size=2, overlap=bool(rng.randrange(2)))
        if not X or not Y:
            continue
        _assert_cut_soundness(g, X, Y)
        done += 1
    assert done >= 6


def test_solve_fig1a():
    g, X, Y = shipped("fig1a")
    cert = solve_menger(g, X, Y)
    assert cert.value == 2
    assert len(cert.separator) == 2
    assert cert.checks["separator_verified"] is True
    assert sum(l.weight for l in cert.links) == 2
    assert all(classify_link(g, l, X, Y).kind == l.kind for l in cert.links)


def test_solve_fig1b_strict_inequality():
    g, X, Y = shipped("fig1b")
    cert = solve_menger(g, X, Y)
    assert cert.value == 2
    assert cert.separator == {"a"}
    assert not has_xy_link(delete_vertices(g, cert.separator), X, Y)


def test_solve_single_vertex_trivial_path():
    g = build_graph(["v"], [])
    cert = solve_menger(g, {"v"}, {"v"})
    assert cert.value == 1
    assert cert.separator == {"v"}
    assert cert.links[0].path.is_trivial


def test_solve_empty_sets_short_circuit():
    g = build_graph(["v"], [])
    cert = solve_menger(g, set(), {"v"})
    assert cert.value == 0
    assert cert.separator == frozenset()
    assert cert.links == ()


def test_solve_linkless_instance_is_zero():
    g = build_graph(["x", "y"], [])
    cert = solve_menger(g, {"x"}, {"y"})
    assert cert.value == 0
    assert cert.separator == frozenset()


def test_solve_st_path():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    cert = solve_st(g, "s", "t")
    assert cert.value == 1
    assert cert.separator == {"v"}


def test_solve_st_turnaround_pair():
    g = build_graph(
        ["s", "u", "t", "w"],
        [
            ("s", "u", MINUS, PLUS),
            ("s", "u", MINUS, MINUS),
            ("t", "w", PLUS, PLUS),
            ("t", "w", PLUS, MINUS),
        ],
    )
    cert = solve_st(g, "s", "t")
    assert cert.value == 2
    pk, _ = oracle_st(g, "s", "t")
    assert pk.value == 2


def test_solve_st_direct_edge_refused():
    g = build_graph(["s", "t"], [("s", "t", PLUS, PLUS)])
    with pytest.raises(DirectTerminalEdge):
        solve_st(g, "s", "t")


def test_solve_st_separator_avoids_terminals(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randrange(3, 6), rng.randrange(0, 8))
        s, t = g.vertices[0], g.vertices[1]
        if any({e.u, e.v} == {s, t} for e in g.edges):
            continue
        cert = solve_st(g, s, t)
        assert s not in cert.separator and t not in cert.separator
        pk, sep = oracle_st(g, s, t)
        assert cert.value == pk.value
        assert len(cert.separator) <= cert.value


def test_xpaths_triangle():
    g, X, _ = shipped("x_triangle")
    cert = solve_xpaths(g, X)
    assert cert.value == 1
    assert len(cert.separator) <= 2
    assert cert.checks["cor15_bound"] is True
    assert oracle_xpaths(g, X) == (1, 2)


def test_xpaths_single_edge():
    g = build_graph(["a", "b"], [("a", "b", PLUS, MINUS)])
    cert = solve_xpaths(g, {"a", "b"})
    assert cert.value == 1
    assert len(cert.separator) == 1


def test_xpaths_edgeless():
    g = build_graph(["a", "b"], [])
    cert = solve_xpaths(g, {"a", "b"})
    assert cert.value == 0
    assert cert.separator == frozenset()


def test_xpaths_matches_oracle_randomized(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randrange(2, 5), rng.randrange(0, 6))
        X = set(g.vertices[: rng.randrange(1, g.n + 1)])
        cert = solve_xpaths(g, X)
        packing, hitting = oracle_xpaths(g, X)
        assert cert.value == packing
        assert 2 * cert.value >= hitting
        assert 2 * cert.value >= len(cert.separator)


def _raise(*args, **kwargs):
    raise AssertionError("a pipeline ran a separator search it should not need")


def test_xpaths_runs_no_set_version_separator_search(monkeypatch):
    monkeypatch.setattr(certify, "oracle_min_separator", _raise)
    monkeypatch.setattr(certify, "has_xy_link", _raise, raising=False)
    instances = [shipped("x_triangle")[:2]]
    for inst in suite200_instances()[:20]:
        if inst.X:
            instances.append((inst.graph, inst.X))
    for g, X in instances:
        cert = solve_xpaths(g, X)
        assert cert.value == oracle_xpaths(g, X)[0]
        assert failed_checks(cert) == []


def test_xpaths_walks_the_s_side_once_per_op(monkeypatch):
    # the fold reads the s side; the matching steps by 1 and 2 on every
    # graph, so it walks none
    walks = [0]
    original = reduce.s_side

    def counted(*args):
        walks[0] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("bimenger") and getattr(module, "s_side", None) is original:
            monkeypatch.setattr(module, "s_side", counted)
    instances = [shipped("x_triangle")[:2]]
    instances += [(inst.graph, inst.X) for inst in suite200_instances() if inst.X]
    for g, X in instances:
        walks[0] = 0
        solve_xpaths(g, X)
        assert walks[0] == 1


def test_xpaths_separator_from_the_projected_cut_is_not_from_the_oracle():
    inst = suite200_instances()[0]
    g, X = inst.graph, inst.X
    cert = solve_xpaths(g, X)
    g2, X2 = double_for_xpaths(g, X)
    g_hat, s, t, tmap = attach_terminals(g2, X, X2)
    *_, smap = split_and_close(g_hat, s, t)
    cut = certify._finish_certificate([tmap, smap]).separator
    copy2 = dict(zip(g2.vertices[g.n:], g.vertices))
    projections = {cut & g.vertex_set, frozenset(copy2[v] for v in cut if v in copy2)}
    assert cert.separator in projections
    assert cert.checks["separator_from_oracle"] is False


def _above_oracle_limits(g):
    """``g`` with isolated vertices added up to 11, above the oracle limits."""
    pad = tuple(f"pad{i}" for i in range(11 - g.n))
    return build_graph(g.vertices + pad, [(e.u, e.v, e.sign_u, e.sign_v) for e in g.edges])


def test_xpaths_above_oracle_limits_keeps_a_projection_within_cor15(monkeypatch):
    # suite200 instance 18: the doubled cut is as large as the doubled value
    # (2), so each projection is within the Cor. 15 bound of 2 * value
    inst = suite200_instances()[18]
    monkeypatch.setattr(certify, "min_xpath_hitting_set", _raise)
    cert = solve_xpaths(_above_oracle_limits(inst.graph), inst.X)
    assert (cert.value, len(cert.separator)) == (1, 2)
    assert cert.checks["separator_from_oracle"] is False
    assert failed_checks(cert) == []


def test_xpaths_above_oracle_limits_searches_when_the_doubled_cut_is_large():
    # suite200 instance 3: a doubled cut of 3 against a doubled value of 2
    inst = suite200_instances()[3]
    small = solve_xpaths(inst.graph, inst.X)
    cert = solve_xpaths(_above_oracle_limits(inst.graph), inst.X)
    assert cert.checks["separator_from_oracle"] is True
    assert (cert.value, cert.separator) == (small.value, small.separator)
    assert failed_checks(cert) == []


def _nontrivial_suite200(count):
    """(graph, X, Y, s, t) of the first ``count`` suite200 instances with X
    and Y nonempty; s and t are the least X and Y vertices, or None where
    they coincide or an edge joins them."""
    out = []
    for inst in suite200_instances():
        if not (inst.X and inst.Y):
            continue
        g = inst.graph
        s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
        if s == t or any({e.u, e.v} == {s, t} for e in g.edges):
            s = t = None
        out.append((g, inst.X, inst.Y, s, t))
        if len(out) == count:
            return out


def test_cut_separators_are_verified_above_oracle_limits():
    # no exhaustive test runs at 11 vertices; the mapped cut is proven
    for g, X, Y, s, t in _nontrivial_suite200(12):
        g = _above_oracle_limits(g)
        cert = solve_menger(g, X, Y)
        assert cert.checks["separator_verified"] is True
        assert not has_xy_link(delete_vertices(g, cert.separator), X, Y)
        if s is not None:
            cert = solve_st(g, s, t)
            assert cert.checks["separator_verified"] is True
            assert not has_st_link(delete_vertices(g, cert.separator), s, t)


def test_solve_and_solve_st_run_no_exhaustive_separator_test(monkeypatch):
    monkeypatch.setattr(certify, "has_xy_link", _raise, raising=False)
    monkeypatch.setattr(certify, "has_st_link", _raise, raising=False)
    for g, X, Y, s, t in _nontrivial_suite200(20):
        cert = solve_menger(g, X, Y)
        assert cert.value == oracle_max_links(g, X, Y).value
        assert failed_checks(cert) == []
        if s is not None:
            cert = solve_st(g, s, t)
            assert cert.value == oracle_st(g, s, t)[0].value
            assert failed_checks(cert) == []


def _families():
    """The benchmark's `families` module, which is not a package."""
    if "families" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "families.py"
        spec = importlib.util.spec_from_file_location("families", path)
        sys.modules["families"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["families"])
    return sys.modules["families"]


def _xpath_instances():
    """(graph, X) of the suite200 instances with X nonempty and of the
    first 20 draws of the benchmark's `xpaths` family, seed 101."""
    suite = list(suite200_instances())
    bench = [parse_instance(text) for text in _families().FAMILIES["xpaths"].instances(101)[:20]]
    return [(inst.graph, inst.X) for inst in suite + bench if inst.X]


def test_folded_xpath_programs_match_the_full_doubled_programs():
    # the s-side programs of solve_xpaths against (P) and (D) of the whole
    # doubled split graph, solved directly; the mapped cut and the s-s
    # parts of the packed turnarounds lie in the first copy, g itself,
    # which solve_xpaths relies on when it reports them with no map back
    for g, X in _xpath_instances():
        g_prime, f, side, chain = doubled_split(g, X)
        P = build_primal(g_prime, f)
        root, full_dual = simplex_max(P), simplex_max(build_dual(P))
        full = solve_integral_max(P, root)
        # the packing decomposes, or _finish_certificate raises
        with recording_cuts() as cuts:
            folded = _finish_certificate(chain, side)
        [(*_, cut)] = cuts
        assert folded.primal_value == root.objective_value
        assert folded.value == full.objective_value
        assert folded.dual_value == -full_dual.objective_value
        assert all(side.issuperset(g_prime.edge(eid).endpoints) for eid in cut)
        assert folded.separator <= g.vertex_set
        assert all(check_walk(g, link.ss_part) for link in folded.links)


def _balanced_points(P):
    """x_f at every 0/1 point of the other columns of ``P`` that satisfies
    its balance rows (x_f is its last column), by a depth-first search
    that checks each row once its last 0/1 column is set."""
    k = P.ncols - 1
    xf_rows = [i for i, row in enumerate(P.a_eq) if row[k]]
    closing = {}
    for i, row in enumerate(P.a_eq):
        if i not in xf_rows:
            closing.setdefault(max(j for j in range(k) if row[j]), []).append(i)
    entries = [[(i, row[j]) for i, row in enumerate(P.a_eq) if row[j]] for j in range(k)]
    sums = [0] * len(P.a_eq)
    out = []

    def visit(j):
        if j == k:
            forced = {Fraction(-sums[i], P.a_eq[i][k]) for i in xf_rows}
            if len(forced) == 1:
                out.append(forced.pop())
            return
        for v in (0, 1):  # x_j = v
            for i, a in entries[j]:
                sums[i] += v * a
            if all(sums[i] == 0 for i in closing.get(j, ())):
                visit(j + 1)
        for i, a in entries[j]:
            sums[i] -= a

    visit(0)
    return out


def test_folded_primal_is_even_at_every_integral_point():
    # handshake: every vertex but s has as many plus as minus ends, so an
    # even degree, and x_f is the degree at s
    checked, packings = 0, 0
    for inst in suite200_instances():
        if not inst.X:
            continue
        g_prime, f, side, *_ = doubled_split(inst.graph, inst.X)
        P = build_primal(g_prime, f, side)
        if P.ncols - 1 > 16:
            continue
        values = _balanced_points(P)
        assert values and all(v % 2 == 0 for v in values)
        checked += 1
        packings += sum(v > 0 for v in values)
    assert checked >= 10 and packings >= 10, (checked, packings)


def test_xpaths_tests_one_separator_candidate(monkeypatch):
    # one path search, on the certificate's separator, when that is the
    # pipeline's own (the mapped cut, or the empty set when no path is
    # packed); none when the oracle's minimum replaces it
    calls = []
    monkeypatch.setattr(certify, "_exists_path", lambda *a, **k: calls.append(a) or _exists_path(*a, **k))
    kept = replaced = 0
    for g, X in _xpath_instances()[:60]:
        calls.clear()
        cert = solve_xpaths(g, X)
        if cert.checks["separator_from_oracle"]:
            assert calls == []
            replaced += 1
        else:
            [(searched, *_)] = calls
            assert searched.vertex_set == g.vertex_set - cert.separator
            kept += 1
    assert kept >= 10 and replaced >= 10, (kept, replaced)


@pytest.mark.parametrize("pipeline", ["menger", "xpaths"])
def test_fractional_dual_fallback_gives_the_same_certificates(monkeypatch, pipeline):
    # every dual root of these pipelines on suite200 is integral, so force
    # the integral dual search (primal_integral_raw reads False too, which
    # only changes that flag); solve-st meets real fractional dual roots
    # (test_solve_st_certifies_fractional_dual_roots)
    monkeypatch.setattr(certify, "is_integral", lambda values: False)
    for g, X, Y, _, _ in _nontrivial_suite200(20):
        if pipeline == "menger":
            cert = solve_menger(g, X, Y)
            assert cert.value == oracle_max_links(g, X, Y).value
            assert not has_xy_link(delete_vertices(g, cert.separator), X, Y)
        else:
            cert = solve_xpaths(g, X)
            assert cert.value == oracle_xpaths(g, X)[0]
            assert not _exists_path(delete_vertices(g, cert.separator), X, X, nontrivial_only=True)
        assert failed_checks(cert) == []
        assert cert.checks["dual_integral_raw"] is False


@pytest.mark.parametrize("n, m, seed", [(5, 8, 12), (6, 14, 15), (7, 15, 36)])
def test_solve_st_certifies_fractional_dual_roots(n, m, seed):
    # s-t draws whose dual root is fractional, so the certificate's cut
    # comes from the integral dual search
    inst = random_instance(GenParams(n, m, seed, 2, 2))
    s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
    cert = solve_st(inst.graph, s, t)
    packing, separator = oracle_st(inst.graph, s, t)
    assert cert.checks["dual_integral_raw"] is False
    assert failed_checks(cert) == []
    assert cert.value == packing.value
    assert len(cert.separator) == len(separator)


def test_finish_certificate_builds_the_primal_once(monkeypatch):
    # build_dual reads (D) off the (P) that _finish_certificate already holds
    counts = {"build_primal": 0, "_finish_certificate": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # certify's name and ratlp's each wrap the original, so every build is
    # counted once, whichever name it is called by
    count(certify, "build_primal")
    count(ratlp, "build_primal")
    count(certify, "_finish_certificate")
    for g, X, Y, s, t in _nontrivial_suite200(10):
        solve_menger(g, X, Y)
        solve_xpaths(g, X)
        if s is not None:
            solve_st(g, s, t)
    assert counts["_finish_certificate"] >= 20
    assert counts["build_primal"] == counts["_finish_certificate"]


def _pipeline_programs():
    """(chain, split graph, f, side) of the certificate step of fig1a and
    of every suite200 instance, under ``solve`` (X and Y nonempty) and
    under ``xpaths`` (X nonempty, folded onto the s side)."""
    g, X, Y = shipped("fig1a")
    instances = [(g, X, Y)] + [(inst.graph, inst.X, inst.Y) for inst in suite200_instances()]
    for g, X, Y in instances:
        if X and Y:
            g_hat, s, t, tmap = attach_terminals(g, X, Y)
            g_prime, f, smap = split_and_close(g_hat, s, t)
            yield [tmap, smap], g_prime, f, None
        if X:
            g_prime, f, side, chain = doubled_split(g, X)
            yield chain, g_prime, f, side


def test_finish_certificate_makes_one_cold_solve(monkeypatch):
    # the cold solve is that of (D); (P)'s point is read off its tableau
    cold = ratlp._Tableau.all_artificial
    solves = [0]

    def counted(cls, p):
        solves[0] += 1
        return cold(p)

    monkeypatch.setattr(ratlp._Tableau, "all_artificial", classmethod(counted))
    programs = 0
    for chain, *_, side in _pipeline_programs():
        solves[0] = 0
        _finish_certificate(chain, side)
        assert solves[0] == 1
        programs += 1
    assert programs > 300


def _fractional_dual_st_programs():
    """(split graph, f) of the `solve-st` draws of `tools/certdump.py`
    whose dual root is fractional."""
    for n, m, seed in load_tool("certdump").FRACTIONAL_DUAL_ST:
        inst = random_instance(GenParams(n, m, seed, 2, 2))
        s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
        g_prime, f, _ = split_and_close(inst.graph, s, t)
        yield g_prime, f


def test_the_point_read_off_the_dual_is_an_optimum_of_the_primal():
    # simplex_max(P) is the reference here only; the certificates never
    # solve (P)
    programs = [(g_prime, f, side) for _, g_prime, f, side in _pipeline_programs()]
    programs += [(g_prime, f, None) for g_prime, f in _fractional_dual_st_programs()]
    fractional = 0
    for g_prime, f, side in programs:
        P = build_primal(g_prime, f, side)
        D = build_dual(P)
        root = simplex_max(D)
        x = ratlp.primal_point(D, root)
        assert ratlp.is_feasible(P, x)
        assert ratlp.is_feasible(D, root.values)
        assert x[-1] == simplex_max(P).objective_value == -root.objective_value
        fractional += not ratlp.is_integral(root.values[j] for j in ratlp.dual_integral_columns(D))
    assert len(programs) > 330 and fractional >= 37


def _bumped_edge(D, sol):
    x = ratlp.primal_point(D, sol)
    return (x[0] + 1, *x[1:])


def _bumped_surplus(p):
    sol = simplex_max(p)
    return dataclasses.replace(sol, values=(*sol.values[:-1], sol.values[-1] + 1))


def _lowered_objective(p):
    sol = simplex_max(p)
    return dataclasses.replace(sol, objective_value=sol.objective_value - 1)


@pytest.mark.parametrize(
    "attr, fake",
    [("primal_point", _bumped_edge), ("simplex_max", _bumped_surplus),
     ("simplex_max", _lowered_objective)],
    ids=["primal-point", "dual-point", "dual-objective"],
)
def test_duality_fails_on_a_perturbed_pair(monkeypatch, attr, fake):
    # an edge of (P)'s point, the surplus of f in (D)'s root point or the
    # root's objective, each moved by one
    monkeypatch.setattr(certify, attr, fake)
    g, X, Y = shipped("fig1a")
    cert = solve_menger(g, X, Y)
    assert cert.checks["duality"] is False
    assert failed_checks(cert) == ["duality"]
    argv = ["solve", "--input", str(ROOT / "fixtures" / "fig1a.bg")]
    assert run_cli(argv, io.StringIO(), io.StringIO()) == 2


def test_no_turnaround_equality_on_dag_encoding():
    g = build_graph(
        ["a", "b", "c"],
        [("a", "b", MINUS, PLUS), ("b", "c", MINUS, PLUS)],
    )
    verdict = check_no_turnaround_equality(g, {"a"}, {"c"})
    assert verdict.applicable
    assert verdict.holds
    assert verdict.max_paths == verdict.min_separator == 1


def test_no_turnaround_equality_fig1a_not_applicable():
    g, X, Y = shipped("fig1a")
    verdict = check_no_turnaround_equality(g, X, Y)
    assert not verdict.applicable
    assert verdict.holds is None


def test_no_turnaround_equality_edgeless():
    g = build_graph(["a", "b"], [])
    verdict = check_no_turnaround_equality(g, {"a"}, {"b"})
    assert verdict.applicable
    assert verdict.holds
    assert verdict.max_paths == 0


def test_certificates_are_deterministic():
    g, X, Y = shipped("fig1b")
    a = solve_menger(g, X, Y)
    b = solve_menger(g, X, Y)
    assert a == b


def test_decomposed_links_classify_in_split_graph(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randrange(3, 6), rng.randrange(1, 8))
        s, t = g.vertices[0], g.vertices[1]
        if any({e.u, e.v} == {s, t} for e in g.edges):
            continue
        g_prime, f, smap, chosen, xf = st_pipeline(g, s, t)
        dec = decompose_packing(g_prime, f, chosen, xf)
        assert sum(l.weight for l in dec.links) == xf
        for link in dec.links:
            assert classify_link(g_prime, link, {s}, {t}).kind == link.kind


def test_certificate_chain_randomized(rng):
    for _ in range(15):
        g = random_graph(rng, rng.randrange(2, 7), rng.randrange(0, 10))
        X, Y = random_sets(rng, g, overlap=bool(rng.randrange(2)))
        cert = solve_menger(g, X, Y)
        pk = oracle_max_links(g, X, Y)
        sep = oracle_min_separator(g, X, Y)
        assert cert.value == pk.value
        assert pk.value >= len(sep)
        assert len(cert.separator) <= cert.value
        assert cert.checks["duality"]
        if X and Y:
            assert cert.checks["separator_verified"] is True
            assert cert.value == sum(l.weight for l in cert.links)


# _certify on the path x-v-y (value 1), with stand-in searches
SMALL, BIG = frozenset({"v"}), frozenset({"x", "v"})


def _certify_path(separator, separates, oracle_search=None):
    g = build_graph(["x", "v", "y"], [("x", "v", PLUS, MINUS), ("v", "y", PLUS, MINUS)])
    cert = solve_menger(g, {"x"}, {"y"})
    assert cert.value == 1
    return _certify(
        dataclasses.replace(cert, separator=separator), g, ({"x"}, {"y"}), separates, oracle_search,
        ("separator_within_value", cert.value),
    )


@pytest.mark.parametrize(
    "separator, confirms, verified, failed",
    [
        (SMALL, None, True, []),  # proven: no search runs
        (SMALL, True, True, []),
        (BIG, True, True, ["separator_within_value"]),  # no oracle to fall back on
        (SMALL, False, False, ["separator_verified"]),
    ],
    ids=["proven", "confirmed", "confirmed-above-value", "refuted"],
)
def test_certify_tests_the_one_separator_once(separator, confirms, verified, failed):
    tested = []
    separates = None if confirms is None else lambda S: tested.append(S) or confirms
    cert = _certify_path(separator, separates)
    assert tested == ([] if confirms is None else [separator])
    assert cert.separator == separator
    assert cert.checks["separator_verified"] is verified
    assert cert.checks["separator_from_oracle"] is False
    assert failed_checks(cert) == failed


def test_certify_falls_back_to_the_oracle_above_value():
    cert = _certify_path(BIG, lambda S: False, lambda: SMALL)
    assert cert.separator == SMALL
    assert cert.checks["separator_verified"] is True
    assert cert.checks["separator_from_oracle"] is True
    assert failed_checks(cert) == []


def test_certify_keeps_a_separator_within_value():
    def oracle():
        pytest.fail("the oracle runs only above value")

    assert _certify_path(SMALL, lambda S: True, oracle).separator == SMALL


def _suite200_st_runs():
    """(graph, s, t) of the `solve-st` runs of `tools/certdump.py` on
    suite200: s and t are the least X and Y vertices, where they differ."""
    out = []
    for inst in suite200_instances():
        if inst.X and inst.Y:
            s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
            if s != t:
                out.append((inst.graph, s, t))
    return out


def test_separator_fallbacks_return_finite_sizes_on_suite200():
    # the three searches _certify falls back on share oracle.min_separator,
    # which returns a vertex set or raises, never an infinite size; solve_st
    # refuses a direct s-t edge, the one case without a finite internal
    # separator
    searched = 0
    for inst in suite200_instances():
        g, X, Y = inst.graph, inst.X, inst.Y
        found = []
        if X and Y:
            found.append(certify.oracle_min_separator(g, X, Y))
        if X:
            found.append(certify.min_xpath_hitting_set(g, X))
        for sep in found:
            assert isinstance(sep, frozenset)
            searched += 1
    for g, s, t in _suite200_st_runs():
        if any({e.u, e.v} == {s, t} for e in g.edges):
            continue
        sep = certify.min_st_separator(g, s, t)
        assert isinstance(sep, frozenset)
        assert not sep & {s, t}
        searched += 1
    assert searched >= 300, searched


def test_solve_st_separators_never_hold_a_terminal():
    # map_cut_to_separator and min_st_separator both leave s and t out;
    # above the oracle limits the mapped cut is the separator
    certified = refused = 0
    for g, s, t in _suite200_st_runs():
        for h in (g, _above_oracle_limits(g)):
            try:
                cert = solve_st(h, s, t)
            except DirectTerminalEdge:
                refused += 1
                continue
            assert not cert.separator & {s, t}
            certified += 1
    assert (certified, refused) == (110, 102)


def test_failed_checks_needs_every_required_key():
    # each certificate names the separator bound its pipeline proves, and
    # is judged by that bound only
    g = build_graph(["s", "v", "t"], [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)])

    def flipped(cert, **checks):
        assert failed_checks(cert) == []
        return dataclasses.replace(cert, checks={**cert.checks, **checks})

    st = flipped(solve_st(g, "s", "t"), separator_within_value=False)
    assert failed_checks(st) == ["separator_within_value"]
    xpaths = flipped(solve_xpaths(g, {"s", "t"}), cor15_bound=False)
    assert failed_checks(xpaths) == ["cor15_bound"]
    assert failed_checks(flipped(solve_menger(g, {"s"}, {"t"}), cor15_bound=False)) == []


# a packing of value 0 certifies the empty separator in every pipeline


def test_edgeless_instance_above_oracle_limits_certifies_the_empty_separator(tmp_path):
    # the mapped LP cut here is {v0}, over the value, and no oracle runs
    # at 11 vertices; the exact value 0 proves the empty set instead
    path = tmp_path / "edgeless.bg"
    path.write_text("".join(f"vertex v{i}\n" for i in range(11)) + "set X v0\nset Y v1\n",
                    encoding="utf-8")
    out = io.StringIO()
    assert run_cli(["solve", "--input", str(path), "--json"], out, io.StringIO()) == 0
    doc = json.loads(out.getvalue())
    assert (doc["value"], doc["separator"]) == (0, [])
    assert doc["checks"]["separator_from_oracle"] is False


def test_solve_st_above_oracle_limits_certifies_the_empty_separator():
    # a fractional dual root whose mapped cut is {v3} at value 0
    inst = random_instance(GenParams(5, 6, 11, 2, 2))
    s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
    cert = solve_st(_above_oracle_limits(inst.graph), s, t)
    assert (cert.value, cert.separator) == (0, frozenset())
    assert cert.checks["dual_integral_raw"] is False
    assert failed_checks(cert) == []


def test_no_certificate_of_value_0_runs_a_separator_search(monkeypatch):
    calls = []
    for name in ("oracle_min_separator", "min_st_separator"):
        search = getattr(certify, name)
        monkeypatch.setattr(certify, name,
                            lambda *args, search=search: calls.append(args) or search(*args))
    runs = [(lambda g=inst.graph, X=inst.X, Y=inst.Y: solve_menger(g, X, Y))
            for inst in suite200_instances()]
    runs += [(lambda g=g, s=s, t=t: solve_st(g, s, t)) for g, s, t in _suite200_st_runs()
             if not any({e.u, e.v} == {s, t} for e in g.edges)]
    zero = searched = 0
    for run in runs:
        before = len(calls)
        cert = run()
        if cert.value == 0:
            assert len(calls) == before and cert.separator == frozenset()
            zero += 1
        searched += len(calls) > before
    assert (zero, searched) == (123, 13)
