"""The pivot path of every exact solve on a few fixed CLI runs, pinned.

Under Bland's rule in the primal simplex and the fixed rule of the dual
simplex, the pivots of a solve depend on its program alone.  A change to
the tableau that keeps every pivot keeps these counts; one that moves a
tie-break moves them.
"""

import io
import random
from fractions import Fraction
from pathlib import Path

from bimenger import ratlp
from bimenger.bigraph import vertex_sort_key
from bimenger.bmcli import GenParams, random_instance, run_cli, serialize_instance

from .helpers import suite200_instances
from .test_ratlp import _random_bounded_lp, search

FIG1A = Path(__file__).resolve().parent.parent / "fixtures" / "fig1a.bg"
# GenParams(n, m, seed, 2, 2) s-t draws whose dual root is fractional
FRACTIONAL_DUAL_ST = [(5, 8, 12), (6, 14, 15), (7, 15, 36)]


def pivot_path(monkeypatch, run) -> tuple:
    """One (pivots, bound flips, re-solves, re-solve pivots) per cold
    solve that ``run()`` makes, in call order: per tableau built on the
    all-artificial basis.  The re-solves are those of the integral search
    that continues from that cold solve: dual-simplex calls, one after the
    bounds are rounded and one per round of cuts, and the dual simplex
    makes no bound flip."""
    log = []
    in_re_solve = [False]
    all_artificial, exchange = ratlp._Tableau.all_artificial, ratlp._Tableau._exchange
    flip, dual = ratlp._Tableau._flip, ratlp._Tableau.dual

    def counted_cold(cls, p):
        log.append([0, 0, 0, 0])
        return all_artificial(p)

    def counted_exchange(tab, *args):
        log[-1][3 if in_re_solve[0] else 0] += 1
        return exchange(tab, *args)

    def counted_flip(tab, *args):
        log[-1][1] += 1
        return flip(tab, *args)

    def counted_dual(tab):
        log[-1][2] += 1
        in_re_solve[0] = True
        try:
            return dual(tab)
        finally:
            in_re_solve[0] = False

    with monkeypatch.context() as m:
        m.setattr(ratlp._Tableau, "all_artificial", classmethod(counted_cold))
        m.setattr(ratlp._Tableau, "_exchange", counted_exchange)
        m.setattr(ratlp._Tableau, "_flip", counted_flip)
        m.setattr(ratlp._Tableau, "dual", counted_dual)
        run()
    return tuple(map(tuple, log))


def _cli(argv):
    def run():
        assert run_cli(argv, io.StringIO(), io.StringIO()) == 0
    return run


def _runs(tmp_path):
    """(name, argv) of fig1a and of the first ten suite200 instances,
    each under ``solve`` and ``xpaths``, and of the three s-t draws of
    ``test_solve_st_certifies_fractional_dual_roots`` under ``solve-st``,
    whose dual root is fractional."""
    paths = [("fig1a", FIG1A)]
    for i in range(10):
        path = tmp_path / f"suite200-{i:03d}.bg"
        path.write_text(serialize_instance(suite200_instances()[i]),
                        encoding="utf-8")
        paths.append((f"suite200/{i:03d}", path))
    for name, path in paths:
        for command in ("solve", "xpaths"):
            yield (name, command), _cli([command, "--input", str(path), "--json"])
    for n, m, seed in FRACTIONAL_DUAL_ST:
        inst = random_instance(GenParams(n, m, seed, 2, 2))
        s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
        path = tmp_path / f"{n}-{m}-{seed}.bg"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        argv = ["solve-st", "--input", str(path), "--s", s, "--t", t, "--json"]
        yield (f"{n}-{m}-{seed}", "solve-st"), _cli(argv)


def _random_lps():
    """The integral search on the bounded LPs of the box-enumeration test.
    Unlike the pipeline runs, which make no bound flip, these flip, and
    they start phase 1 with several live artificials."""
    rng = random.Random(4242)
    for _ in range(300):
        search(_random_bounded_lp(rng))


# the cold solves measured on the tableau that still carried every frozen
# artificial column, the re-solves on the rounds of Gomory cuts; a run
# without a solve has an empty X, or for `solve` an empty Y.  A run makes
# one cold solve, of (D): the packing comes from the matching, and the
# point of (P) is read off the final tableau of (D).  The integral search
# on a fractional dual root continues from that root.
EXPECTED = {
    ('fig1a', 'solve'): ((113, 0, 0, 0),),
    ('fig1a', 'xpaths'): ((61, 0, 0, 0),),
    ('suite200/000', 'solve'): ((57, 0, 0, 0),),
    ('suite200/000', 'xpaths'): ((41, 0, 0, 0),),
    ('suite200/001', 'solve'): (),
    ('suite200/001', 'xpaths'): (),
    ('suite200/002', 'solve'): ((121, 0, 0, 0),),
    ('suite200/002', 'xpaths'): ((71, 0, 0, 0),),
    ('suite200/003', 'solve'): ((113, 0, 0, 0),),
    ('suite200/003', 'xpaths'): ((79, 0, 0, 0),),
    ('suite200/004', 'solve'): (),
    ('suite200/004', 'xpaths'): (),
    ('suite200/005', 'solve'): ((77, 0, 0, 0),),
    ('suite200/005', 'xpaths'): ((44, 0, 0, 0),),
    ('suite200/006', 'solve'): ((78, 0, 0, 0),),
    ('suite200/006', 'xpaths'): ((46, 0, 0, 0),),
    ('suite200/007', 'solve'): (),
    ('suite200/007', 'xpaths'): ((62, 0, 0, 0),),
    ('suite200/008', 'solve'): ((121, 0, 0, 0),),
    ('suite200/008', 'xpaths'): ((147, 0, 0, 0),),
    ('suite200/009', 'solve'): (),
    ('suite200/009', 'xpaths'): (),
    ('5-8-12', 'solve-st'): ((25, 0, 3, 7),),
    ('6-14-15', 'solve-st'): ((38, 0, 2, 5),),
    ('7-15-36', 'solve-st'): ((59, 0, 2, 15),),
}
RANDOM_LPS_TOTAL = (427, 263, 259, 33)


def test_pivot_path_is_pinned(monkeypatch, tmp_path):
    measured = {key: pivot_path(monkeypatch, run) for key, run in _runs(tmp_path)}
    assert measured == EXPECTED


def test_pivot_path_of_random_integral_searches_is_pinned(monkeypatch):
    # summed over the 300 solves, one per column
    assert tuple(map(sum, zip(*pivot_path(monkeypatch, _random_lps)))) == RANDOM_LPS_TOTAL


def test_every_pivot_row_is_left_in_lowest_terms(monkeypatch, tmp_path):
    # a nonzero integral entry of the pivot row is an int, even after a
    # unit pivot
    exchange = ratlp._Tableau._exchange
    pivots, loose = [0], []

    def checked_exchange(tab, r, *args):
        exchange(tab, r, *args)
        pivots[0] += 1
        if any(v and isinstance(v, Fraction) and v.denominator == 1 for v in tab.T[r]):
            loose.append(pivots[0])

    with monkeypatch.context() as m:
        m.setattr(ratlp._Tableau, "_exchange", checked_exchange)
        for _, run in _runs(tmp_path):
            run()
        _random_lps()
    assert pivots[0] > 0
    assert loose == []
