"""Unions of k copies of one small instance (`tools/unions.py`): answers
known above the oracle limits, and the rounds of cuts that the integral
search takes on their (P)."""

import io

import pytest

from bimenger import certify, oracle_max_links, oracle_min_separator, oracle_xpaths, ratlp
from bimenger.bmcli import run_cli, serialize_instance
from bimenger.reduce import attach_terminals, split_and_close

from .helpers import doubled_split, load_tool, shipped

unions = load_tool("unions")


def test_copies_have_the_stated_values():
    inst = unions.union("solve", 1)
    assert (oracle_max_links(inst.graph, inst.X, inst.Y).value,
            len(oracle_min_separator(inst.graph, inst.X, inst.Y))) == unions.expected("solve", 1)
    inst = unions.union("xpaths", 1)
    assert oracle_xpaths(inst.graph, inst.X) == unions.expected("xpaths", 1)
    for name in ("fig1a", "fig1b"):
        inst = unions.union(name, 1)
        assert (oracle_max_links(inst.graph, inst.X, inst.Y).value,
                len(oracle_min_separator(inst.graph, inst.X, inst.Y))) == unions.expected(name, 1)


def test_unions_copy_the_copy():
    copy = unions.union("solve", 1)
    for chained in (False, True):
        inst = unions.union("solve", 3, chained)
        g = inst.graph
        assert (g.n, g.m) == (3 * copy.graph.n, 3 * copy.graph.m + 2 * chained)
        assert len(inst.X) == 3 * len(copy.X) and len(inst.Y) == 3 * len(copy.Y)
    assert unions.expected("xpaths", 5) == (5, 10)


@pytest.mark.parametrize("chained", [False, True])
def test_solve_unions_finish_with_the_value_of_their_copies(chained):
    # a disjoint union packs k times its copy's value; a chained one has no
    # such ground truth, but its search finishes within the LP bound
    for k in range(1, 9):
        inst = unions.union("solve", k, chained)
        cert = certify.solve_menger(inst.graph, inst.X, inst.Y)
        if chained:
            assert k <= cert.value <= cert.primal_value
        else:
            assert cert.value == unions.expected("solve", k)[0]
        assert cert.checks["separator_verified"]


def _solve_exit(tmp_path, name: str, k: int) -> int:
    """The exit code of `bmcli solve` on the disjoint union of k copies."""
    path = tmp_path / "union.bg"
    path.write_text(serialize_instance(unions.union(name, k)), encoding="utf-8")
    return run_cli(["solve", "--input", str(path)], io.StringIO(), io.StringIO())


@pytest.mark.xfail(strict=True, reason="the mapped cut keeps 2 vertices per copy, and above "
                   "the oracle limits no smaller separator is searched (ROADMAP item 4)")
def test_solve_union_of_two_copies_exits_0(tmp_path):
    assert _solve_exit(tmp_path, "solve", 2) == 0


@pytest.mark.parametrize("name", ["fig1a", "fig1b"])
def test_figure1_unions_pack_twice_their_copies(tmp_path, name):
    # every link of a triangle pair is a turnaround, counted twice; one
    # copy is within the oracle limits, so its separator is the minimum
    for k in range(1, 6):
        inst = unions.union(name, k)
        cert = certify.solve_menger(inst.graph, inst.X, inst.Y)
        assert cert.value == unions.expected(name, k)[0] == 2 * k
    assert _solve_exit(tmp_path, name, 1) == 0


@pytest.mark.xfail(strict=True, reason="the mapped cut keeps 3 vertices per copy (6 > value 4), "
                   "and above the oracle limits no smaller separator is searched "
                   "(ROADMAP item 4)")
@pytest.mark.parametrize("name", ["fig1a", "fig1b"])
def test_figure1_union_of_two_copies_exits_0(tmp_path, name):
    assert _solve_exit(tmp_path, name, 2) == 0


def test_xpaths_union_of_one_copy():
    # from k = 2 on, the projected separator exceeds the value and the
    # exhaustive hitting-set search runs above the oracle limits
    inst = unions.union("xpaths", 1)
    cert = certify.solve_xpaths(inst.graph, inst.X)
    assert (cert.value, len(cert.separator)) == unions.expected("xpaths", 1)
    assert cert.checks["cor15_bound"]


def _primal(g, X, Y):
    """(P) of ``solve_menger`` on ``g``, ``X`` and ``Y``."""
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    g_prime, f, _ = split_and_close(g_hat, s, t)
    return ratlp.build_primal(g_prime, f)


def _rounds_per_search(monkeypatch, programs) -> list:
    """The rounds of cuts of the integral search on each of ``programs``:
    its dual-simplex calls, less the one after the bounds are rounded."""
    rounds = []
    dual = ratlp._Tableau.dual

    def counted_dual(tab):
        rounds[-1] += 1
        return dual(tab)

    with monkeypatch.context() as m:
        m.setattr(ratlp._Tableau, "dual", counted_dual)
        for p in programs:
            rounds.append(-1)
            assert ratlp.solve_integral_max(p, ratlp.simplex_max(p)).status == "optimal"
    return rounds


def test_rounds_per_search_are_pinned(monkeypatch):
    # the certificates take their packing from the matching; the cut
    # rounds on (P) stay pinned, on the programs themselves
    g, X, Y = shipped("fig1a")
    g_prime, f, side, _ = doubled_split(g, X | Y)
    programs = [_primal(g, X, Y), ratlp.build_primal(g_prime, f, side)]
    for k in (2, 4, 8):
        inst = unions.union("solve", k)
        programs.append(_primal(inst.graph, inst.X, inst.Y))
    assert _rounds_per_search(monkeypatch, programs) == [2] * 5
