import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bimenger import (
    DualInfeasible,
    NotBalanced,
    NotIntegral,
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
    solve_menger,
    solve_st,
    solve_xpaths,
)
from bimenger.bigraph import MINUS, PLUS, vertex_sort_key
from bimenger.bmcli import GenParams, _trial_params, parse_instance, random_instance
from bimenger.certify import _certify, _finish_certificate
from bimenger.fixtures import fig1a, fig1b, x_triangle
from bimenger.oracle import SeparatorResult, _exists_path, has_st_link, has_xy_link
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
from bimenger.walks import check_walk, path_link

from .conftest import random_graph, random_sets, recording_cuts
from .helpers import (
    check_no_turnaround_equality,
    doubled_split,
    link_sigma_sum,
    primal_vectors,
)


def st_pipeline(g, s, t):
    g_prime, f, smap = split_and_close(g, s, t)
    P = build_primal(g_prime, f)
    x, xf = primal_vectors(P, solve_integral_max(P, simplex_max(P)))
    return g_prime, f, smap, x, int(xf)


def test_decompose_single_path():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap, x, xf = st_pipeline(g, "s", "t")
    assert xf == 1
    dec = decompose_packing(g_prime, f, x, xf)
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
    g_prime, f, smap, x, xf = st_pipeline(g, "s", "t")
    assert xf == 2
    dec = decompose_packing(g_prime, f, x, xf)
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
    g_prime, f, smap, x, xf = st_pipeline(g, "s", "t")
    base = decompose_packing(g_prime, f, x, xf)
    augmented = dict(x)
    for cycles, (edges, vertices) in enumerate([((2, 3), ("c1", "c2")), ((4, 5), ("c3", "c4"))], 1):
        for eid in edges:
            augmented[eid] = 1
        for v in vertices:
            augmented[smap.split_edge_of[v]] = 1
        dec = decompose_packing(g_prime, f, augmented, xf)
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
        decompose_packing(g_prime, f, dict.fromkeys(range(f), 1), xf)


def test_decompose_rejects_fractional():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap, x, xf = st_pipeline(g, "s", "t")
    bad = dict(x)
    bad[0] = Fraction(1, 2)
    with pytest.raises(NotIntegral):
        decompose_packing(g_prime, f, bad, xf)


def test_decompose_rejects_unbalanced():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap, x, xf = st_pipeline(g, "s", "t")
    bad = {eid: 0 for eid in x}
    with pytest.raises(NotBalanced):
        decompose_packing(g_prime, f, bad, xf)


def test_extract_cut_rejects_zero_dual():
    g = build_graph(
        ["s", "v", "t"],
        [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)],
    )
    g_prime, f, smap, x, xf = st_pipeline(g, "s", "t")
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
    _assert_cut_soundness(*fig1a())


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
    g, X, Y = fig1a()
    cert = solve_menger(g, X, Y)
    assert cert.value == 2
    assert len(cert.separator) == 2
    assert cert.checks["separator_verified"] is True
    assert sum(l.weight for l in cert.links) == 2
    assert all(classify_link(g, l, X, Y).kind == l.kind for l in cert.links)


def test_solve_fig1b_strict_inequality():
    g, X, Y = fig1b()
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
    g, X = x_triangle()
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
    instances = [x_triangle()]
    for i in range(20):
        inst = random_instance(_trial_params(301, i, 7))
        if inst.X:
            instances.append((inst.graph, inst.X))
    for g, X in instances:
        cert = solve_xpaths(g, X)
        assert cert.value == oracle_xpaths(g, X)[0]
        assert failed_checks(cert, "xpaths") == []


def test_xpaths_separator_from_the_projected_cut_is_not_from_the_oracle():
    inst = random_instance(_trial_params(301, 0, 7))  # suite200 instance 0
    g, X = inst.graph, inst.X
    cert = solve_xpaths(g, X)
    g2, X2 = double_for_xpaths(g, X)
    g_hat, s, t, tmap = attach_terminals(g2, X, X2)
    g_prime, f, smap = split_and_close(g_hat, s, t)
    cut = certify._finish_certificate([tmap, smap], g_prime, f).separator
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
    inst = random_instance(_trial_params(301, 18, 7))
    monkeypatch.setattr(certify, "min_xpath_hitting_set", _raise)
    cert = solve_xpaths(_above_oracle_limits(inst.graph), inst.X)
    assert (cert.value, len(cert.separator)) == (1, 2)
    assert cert.checks["separator_from_oracle"] is False
    assert failed_checks(cert, "xpaths") == []


def test_xpaths_above_oracle_limits_searches_when_the_doubled_cut_is_large():
    # suite200 instance 3: a doubled cut of 3 against a doubled value of 2
    inst = random_instance(_trial_params(301, 3, 7))
    small = solve_xpaths(inst.graph, inst.X)
    cert = solve_xpaths(_above_oracle_limits(inst.graph), inst.X)
    assert cert.checks["separator_from_oracle"] is True
    assert (cert.value, cert.separator) == (small.value, small.separator)
    assert failed_checks(cert, "xpaths") == []


def _nontrivial_suite200(count):
    """(graph, X, Y, s, t) of the first ``count`` suite200 instances with X
    and Y nonempty; s and t are the least X and Y vertices, or None where
    they coincide or an edge joins them."""
    out = []
    for i in range(200):
        inst = random_instance(_trial_params(301, i, 7))
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
        assert failed_checks(cert, "menger") == []
        if s is not None:
            cert = solve_st(g, s, t)
            assert cert.value == oracle_st(g, s, t)[0].value
            assert failed_checks(cert, "st") == []


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
    suite = [random_instance(_trial_params(301, i, 7)) for i in range(200)]
    bench = [parse_instance(text) for text in _families().FAMILIES["xpaths"].instances(101)[:20]]
    return [(inst.graph, inst.X) for inst in suite + bench if inst.X]


def test_folded_xpath_programs_match_the_full_doubled_programs():
    # the s-side programs of solve_xpaths against (P) and (D) of the whole
    # doubled split graph, solved directly; the mapped cut and the packed
    # paths lie in the first copy, g itself, which solve_xpaths relies on
    # when it reports them with no map back
    for g, X in _xpath_instances():
        g_prime, f, side, chain = doubled_split(g, X)
        P = build_primal(g_prime, f)
        root, full_dual = simplex_max(P), simplex_max(build_dual(P))
        full = solve_integral_max(P, root)
        # the folded packing decomposes, or _finish_certificate raises
        with recording_cuts() as cuts:
            folded = _finish_certificate(chain, g_prime, f, side)
        [(*_, cut)] = cuts
        assert folded.primal_value == root.objective_value
        assert folded.value == full.objective_value
        assert folded.dual_value == -full_dual.objective_value
        assert all(side.issuperset(g_prime.edge(eid).endpoints) for eid in cut)
        assert folded.separator <= g.vertex_set
        assert all(check_walk(g, link.path) for link in folded.links)


def _doubled_x_triangle():
    """The doubled split graph of ``x_triangle``, its s side, and the
    integral optimum (x, x_f) of its full, unfolded (P)."""
    g_prime, f, side, *_ = doubled_split(*x_triangle())
    P = build_primal(g_prime, f)
    x, xf = primal_vectors(P, solve_integral_max(P, simplex_max(P)))
    return g_prime, f, side, x, int(xf)


def test_decompose_on_the_side_gives_the_ss_parts_of_the_unfolded_packing():
    g_prime, f, side, x, xf = _doubled_x_triangle()
    unfolded = decompose_packing(g_prime, f, x, xf)
    assert xf > 0 and all(link.kind == "turnaround" for link in unfolded.links)
    on_side = {eid: v for eid, v in x.items() if side.issuperset(g_prime.edge(eid).endpoints)}
    folded = decompose_packing(g_prime, f, on_side, xf, side)
    assert folded.links == tuple(path_link(link.ss_part) for link in unfolded.links)


def test_decompose_on_the_side_rejects_an_unbalanced_side_vertex():
    g_prime, f, side, x, xf = _doubled_x_triangle()
    on_side = {eid: v for eid, v in x.items() if side.issuperset(g_prime.edge(eid).endpoints)}
    dropped = dict(on_side)
    dropped[max(eid for eid, v in on_side.items() if v == 1)] = 0
    with pytest.raises(NotBalanced, match="signed degree"):
        decompose_packing(g_prime, f, dropped, xf, side)
    with pytest.raises(NotBalanced, match="leaves the side"):
        decompose_packing(g_prime, f, x, xf, side)


def test_decompose_on_the_side_wants_x_f_twice_the_ss_segments():
    # a plus end at s lets the balance rows hold with one s-s segment at x_f = 0
    g_prime = build_graph(["s", "t", "a"], [("s", "a", MINUS, PLUS), ("a", "s", MINUS, PLUS),
                                            ("s", "t", PLUS, MINUS)])
    with pytest.raises(NotBalanced, match="does not match x_f = 0"):
        decompose_packing(g_prime, 2, {0: 1, 1: 1}, 0, frozenset({"s", "a"}))


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
    for i in range(200):
        inst = random_instance(_trial_params(301, i, 7))
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
    # the second copy's projection is always empty: the one candidate is
    # the first copy's when a path is packed, the empty set when none is
    calls = []
    monkeypatch.setattr(certify, "_exists_path", lambda *a, **k: calls.append(a) or _exists_path(*a, **k))
    packed = 0
    for g, X in _xpath_instances()[:60]:
        calls.clear()
        cert = solve_xpaths(g, X)
        assert len(calls) == 1
        assert (calls[0][0].n < g.n) == (cert.value > 0)
        packed += cert.value > 0
    assert packed >= 10


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
        assert failed_checks(cert, pipeline) == []
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
    assert failed_checks(cert, "st") == []
    assert cert.value == packing.value
    assert len(cert.separator) == separator.size


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
    g, X, Y = fig1a()
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
    g, X, Y = fig1b()
    a = solve_menger(g, X, Y)
    b = solve_menger(g, X, Y)
    assert a == b


def test_decomposed_links_classify_in_split_graph(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randrange(3, 6), rng.randrange(1, 8))
        s, t = g.vertices[0], g.vertices[1]
        if any({e.u, e.v} == {s, t} for e in g.edges):
            continue
        g_prime, f, smap, x, xf = st_pipeline(g, s, t)
        dec = decompose_packing(g_prime, f, x, xf)
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
        assert pk.value >= sep.size
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
        cert, g, ({"x"}, {"y"}), separator, separates, oracle_search,
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
    assert failed_checks(cert, "menger") == failed


def test_certify_falls_back_to_the_oracle_above_value():
    cert = _certify_path(BIG, lambda S: False, lambda: SeparatorResult(1, SMALL))
    assert cert.separator == SMALL
    assert cert.checks["separator_verified"] is True
    assert cert.checks["separator_from_oracle"] is True
    assert failed_checks(cert, "menger") == []


def test_certify_keeps_a_separator_within_value():
    def oracle():
        pytest.fail("the oracle runs only above value")

    assert _certify_path(SMALL, lambda S: True, oracle).separator == SMALL


def _suite200_st_runs():
    """(graph, s, t) of the `solve-st` runs of `tools/certdump.py` on
    suite200: s and t are the least X and Y vertices, where they differ."""
    out = []
    for i in range(200):
        inst = random_instance(_trial_params(301, i, 7))
        if inst.X and inst.Y:
            s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
            if s != t:
                out.append((inst.graph, s, t))
    return out


def test_separator_fallbacks_return_finite_sizes_on_suite200():
    # the three searches _certify falls back on share oracle.min_separator,
    # which raises rather than return an infinite size; solve_st refuses a
    # direct s-t edge, the one case without a finite internal separator
    searched = 0
    for i in range(200):
        inst = random_instance(_trial_params(301, i, 7))
        g, X, Y = inst.graph, inst.X, inst.Y
        found = []
        if X and Y:
            found.append(certify.oracle_min_separator(g, X, Y))
        if X:
            found.append(certify.min_xpath_hitting_set(g, X))
        for sep in found:
            assert sep.size == len(sep.vertices)
            searched += 1
    for g, s, t in _suite200_st_runs():
        if any({e.u, e.v} == {s, t} for e in g.edges):
            continue
        sep = certify.min_st_separator(g, s, t)
        assert sep.size == len(sep.vertices)
        assert not sep.vertices & {s, t}
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
    g = build_graph(["s", "v", "t"], [("s", "v", MINUS, PLUS), ("v", "t", MINUS, PLUS)])
    cert = solve_st(g, "s", "t")
    assert failed_checks(cert, "st") == []
    assert failed_checks(cert, "xpaths") == ["cor15_bound"]
