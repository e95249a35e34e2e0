import itertools
import math
import random
from fractions import Fraction

import pytest

from bimenger import (
    BudgetExceeded,
    DimensionMismatch,
    LpProblem,
    build_dual,
    build_primal,
    build_graph,
    check_k_regular,
    incidence_matrix,
    is_integral,
    oracle_max_links,
    ratio_str,
    ratlp,
    simplex_max,
    solve_integral_max,
)
from bimenger.bigraph import MINUS, PLUS
from bimenger.ratlp import _scaled_int_row, dual_vectors
from bimenger.reduce import attach_terminals, split_and_close

from .conftest import random_graph, random_sets
from .helpers import doubled_split, primal_vectors, shipped, suite200_instances


def lp(c, a, b, bounds, names=None):
    names = names or tuple(f"c{i}" for i in range(len(c)))
    return LpProblem(tuple(c), tuple(map(tuple, a)), tuple(b), tuple(bounds), tuple(names))


def search(p, integral_cols=None):
    """The integral search from a fresh cold root of ``p``."""
    return solve_integral_max(p, simplex_max(p), integral_cols)


def test_box_maximum():
    sol = simplex_max(lp([1], [], [], [(0, 1)]))
    assert sol.status == "optimal"
    assert sol.values == (1,)
    assert sol.objective_value == 1


def test_unbounded():
    assert simplex_max(lp([1], [], [], [(0, None)])).status == "unbounded"


def test_infeasible():
    sol = simplex_max(lp([0], [[1]], [-1], [(0, None)]))
    assert sol.status == "infeasible"


def test_equality_system():
    sol = simplex_max(lp([3, 2], [[1, 1]], [1], [(0, 1), (0, 1)]))
    assert sol.objective_value == 3
    assert sol.values == (1, 0)


def test_fractional_data_expressed_exactly():
    sol = simplex_max(lp([1], [[Fraction(1, 2)]], [Fraction(1, 4)], [(0, 1)]))
    assert sol.values == (Fraction(1, 2),)


def test_degenerate_pivoting_terminates():
    # heavily degenerate equality system; Bland must still terminate
    a = [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 1, -1]]
    sol = simplex_max(
        lp([1, 0, 0, 0], a, [1, 1, 1, 1], [(0, None)] * 4)
    )
    assert sol.status == "optimal"
    assert sol.objective_value == Fraction(1, 2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp([1, 2], [[1]], [0], [(0, 1)])
    with pytest.raises(DimensionMismatch, match="row names"):
        LpProblem((1,), ((1,),), (0,), ((0, 1),), ("x",), ("a", "b"))


def test_exactness_randomized(rng):
    for _ in range(15):
        g = random_graph(rng, rng.randrange(2, 6), rng.randrange(1, 8))
        X, Y = random_sets(rng, g, max_size=2)
        if not X or not Y:
            continue
        g_hat, s, t, _ = attach_terminals(g, X, Y)
        g_prime, f, _ = split_and_close(g_hat, s, t)
        P = build_primal(g_prime, f)
        sol = simplex_max(P)
        assert sol.status == "optimal"
        for row, rhs in zip(P.a_eq, P.b_eq):
            lhs = sum(Fraction(a) * Fraction(v) for a, v in zip(row, sol.values) if a)
            assert lhs == rhs
        for (lo, up), v in zip(P.bounds, sol.values):
            assert Fraction(v) >= Fraction(lo)
            assert up is None or Fraction(v) <= Fraction(up)


def test_primal_shape():
    g, X, Y = shipped("fig1a")
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    g_prime, f, _ = split_and_close(g_hat, s, t)
    P = build_primal(g_prime, f)
    assert len(P.a_eq) == g_prime.n
    assert P.ncols == g_prime.m  # x per non-f edge plus x_f
    assert all(b == 0 for b in P.b_eq)
    assert P.names[-1] == "xf"
    assert P.bounds[-1] == (0, g_prime.m)
    assert P.row_names == tuple(g_prime.vertices)


def test_dual_shape_and_variable_count():
    g, X, Y = shipped("fig1a")
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    g_prime, f, _ = split_and_close(g_hat, s, t)
    P = build_primal(g_prime, f)
    D = build_dual(P)
    assert D.names[:g_prime.n] == tuple(f"zp:{v}" for v in P.row_names)
    n_z = sum(1 for nm in D.names if nm.startswith("zp:"))
    n_y = sum(1 for nm in D.names if nm.startswith("y:"))
    assert n_z + n_y == g_prime.n + g_prime.m - 1
    assert len(D.a_eq) == g_prime.m  # one row per non-f edge plus the f row


def _pipeline_programs():
    """(split graph, f, side) of every program that the pipelines build on
    fig1a and the first 20 suite200 instances: the full programs of the
    set version and the folded s-side programs of the X-path version."""
    g, X, Y = shipped("fig1a")
    instances = [(g, X, Y)] + [
        (inst.graph, inst.X, inst.Y)
        for inst in suite200_instances()[:20]
    ]
    out = []
    for g, X, Y in instances:
        if X and Y:
            g_hat, s, t, _ = attach_terminals(g, X, Y)
            g_prime, f, _ = split_and_close(g_hat, s, t)
            out.append((g_prime, f, None))
        if X:
            g_prime, f, side, *_ = doubled_split(g, X)
            out.append((g_prime, f, side))
    return out


def _halved_programs(g_prime, f, side):
    """The rows and right-hand sides of (P) and (D) with the
    half-coefficient balance rows, from the signed incidence of
    ``g_prime``, in the builders' row and column order."""
    inc = incidence_matrix(g_prime)
    vertices = [v for v in g_prime.vertices if side is None or v in side]
    others = [e.eid for e in g_prime.edges
              if e.eid != f and (side is None or {e.u, e.v} <= side)]
    half = {(v, eid): Fraction(inc.entry(v, eid), 2) for v in vertices for eid in others + [f]}
    primal = [([half[v, eid] for eid in others + [f]], 0) for v in vertices]
    ne = len(others)
    dual = []
    for k, eid in enumerate(others + [f]):
        z = [half[v, eid] for v in vertices]
        y = [int(j == k) for j in range(ne)]
        sl = [-int(j == k) for j in range(ne + 1)]
        dual.append((z + [-a for a in z] + y + sl, int(eid == f)))
    return primal, dual


def test_builders_write_the_halved_programs_doubled_as_int_rows():
    programs = _pipeline_programs()
    assert sum(side is None for *_, side in programs) >= 10
    assert sum(side is not None for *_, side in programs) >= 10
    for g_prime, f, side in programs:
        halved = _halved_programs(g_prime, f, side)
        P = build_primal(g_prime, f, side)
        for built, reference in zip((P, build_dual(P)), halved):
            assert len(built.a_eq) == len(reference)
            for row, rhs, (ref_row, ref_rhs) in zip(built.a_eq, built.b_eq, reference):
                assert all(type(a) is int for a in row) and type(rhs) is int
                assert list(row) == [2 * a for a in ref_row] and rhs == 2 * ref_rhs
                # the integers the cold solve used to scale the halved row to
                assert _scaled_int_row(ref_row, ref_rhs) == (list(row), rhs)


def test_scaled_int_row_copies_an_int_row_and_scales_any_fraction():
    row = [1, -2, 0]
    out, rhs = _scaled_int_row(row, 3)
    assert (out, rhs) == ([1, -2, 0], 3) and out is not row
    assert _scaled_int_row((2, 0, -1), 0) == ([2, 0, -1], 0)
    assert _scaled_int_row([Fraction(1, 3), 1, Fraction(-1, 2)], Fraction(1, 2)) == ([2, 6, -3], 3)
    # an integral Fraction is scaled too, by 1, and comes back as an int
    for row, rhs, expected in (([Fraction(2, 1), 3], 4, ([2, 3], 4)),
                               ([1, 0], Fraction(2, 1), ([1, 0], 2))):
        out = _scaled_int_row(row, rhs)
        assert out == expected
        assert all(type(v) is int for v in out[0]) and type(out[1]) is int


def test_solving_one_problem_twice_gives_equal_solutions():
    # the tableau never writes into the problem's rows, even list rows
    rows = ([1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, -1])
    p = LpProblem((1, 0, 1, 0), rows, (1, 1, 1), ((0, None),) * 4, ("a", "b", "c", "d"))
    first = simplex_max(p)
    assert first.status == "optimal"
    assert simplex_max(p) == first
    assert rows == ([1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, -1])
    g, X, Y = shipped("fig1a")
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    g_prime, f, _ = split_and_close(g_hat, s, t)
    P = build_primal(g_prime, f)
    D = build_dual(P)
    assert search(P) == search(P)
    assert simplex_max(D) == simplex_max(D)


def test_strong_duality_on_figures_and_randoms(rng):
    cases = []
    g, X, Y = shipped("fig1a")
    cases.append((g, X, Y))
    for _ in range(8):
        g = random_graph(rng, rng.randrange(2, 6), rng.randrange(0, 8))
        X, Y = random_sets(rng, g, max_size=2)
        if X and Y:
            cases.append((g, X, Y))
    for g, X, Y in cases:
        g_hat, s, t, _ = attach_terminals(g, X, Y)
        g_prime, f, _ = split_and_close(g_hat, s, t)
        P = build_primal(g_prime, f)
        psol, dsol = simplex_max(P), simplex_max(build_dual(P))
        assert psol.status == dsol.status == "optimal"
        assert psol.objective_value == -dsol.objective_value


def test_is_feasible_checks_every_row_and_bound_exactly():
    p = lp([1, 1, 0], [[1, 1, 1]], [Fraction(3, 2)], [(0, 1), (0, 1), (0, None)])
    assert ratlp.is_feasible(p, (1, Fraction(1, 2), 0))
    assert ratlp.is_feasible(p, (0, 0, Fraction(3, 2)))  # no upper bound on the last
    assert not ratlp.is_feasible(p, (1, 1, 0))  # the row
    assert not ratlp.is_feasible(p, (2, 0, Fraction(-1, 2)))  # an upper and a lower bound
    assert not ratlp.is_feasible(p, (Fraction(3, 2), 0, 0))  # an upper bound
    assert not ratlp.is_feasible(p, (1, Fraction(1, 2)))  # a column short


def test_integral_search_beats_fractional_relaxation():
    sol = simplex_max(
        lp([1, 1, 0], [[1, 1, 1]], [Fraction(3, 2)], [(0, 1), (0, 1), (0, None)],
           names=("x", "y", "sl"))
    )
    assert sol.objective_value == Fraction(3, 2)
    isol = search(
        lp([1, 1, 0], [[1, 1, 1]], [Fraction(3, 2)], [(0, 1), (0, 1), (0, Fraction(3, 2))],
           names=("x", "y", "sl")),
        integral_cols=(0, 1),
    )
    assert isol.objective_value == 1


def test_relaxation_gap_witness():
    """The plain relaxation overshoots the packing on a linkless instance.

    This pins the reason the solver refines the root with an integral
    search: a half-unit of flow can enter a same-signed gadget pair and
    cancel through a split edge, which no 0/1 point can imitate.
    """
    g = build_graph(["x", "y"], [])
    g_hat, s, t, _ = attach_terminals(g, {"x"}, {"y"})
    g_prime, f, _ = split_and_close(g_hat, s, t)
    P = build_primal(g_prime, f)
    relaxed = simplex_max(P)
    assert relaxed.objective_value == 1
    assert not is_integral(relaxed.values)
    exact = solve_integral_max(P, relaxed)
    assert exact.objective_value == 0
    assert oracle_max_links(g, {"x"}, {"y"}).value == 0


def test_integral_primal_matches_oracle_randomized(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randrange(2, 6), rng.randrange(0, 8))
        X, Y = random_sets(rng, g, max_size=2)
        if not X or not Y:
            continue
        g_hat, s, t, _ = attach_terminals(g, X, Y)
        g_prime, f, _ = split_and_close(g_hat, s, t)
        P = build_primal(g_prime, f)
        sol = search(P)
        assert is_integral(sol.values)
        x, xf = primal_vectors(P, sol)
        assert xf == oracle_max_links(g, X, Y).value


def _enumerate_vertex_optimum(problem):
    """Brute-force LP oracle: evaluate every basic point of a small
    problem with finite bounds and return the best feasible objective."""
    import itertools

    from bimenger.ratlp import _invert_exact

    n, m = problem.ncols, len(problem.a_eq)
    best = None
    for basis in itertools.combinations(range(n), m):
        nonbasic = [j for j in range(n) if j not in basis]
        B = [[Fraction(problem.a_eq[i][j]) for j in basis] for i in range(m)]
        Binv = _invert_exact(B) if m else []
        if m and Binv is None:
            continue
        for choices in itertools.product((0, 1), repeat=len(nonbasic)):
            x = [None] * n
            for j, pick in zip(nonbasic, choices):
                lo, up = problem.bounds[j]
                x[j] = Fraction(up if pick else lo)
            rhs = [
                Fraction(problem.b_eq[i])
                - sum(Fraction(problem.a_eq[i][j]) * x[j] for j in nonbasic)
                for i in range(m)
            ]
            for pos, j in enumerate(basis):
                x[j] = sum(Binv[pos][k] * rhs[k] for k in range(m)) if m else None
            ok = all(
                Fraction(problem.bounds[j][0]) <= x[j] <= Fraction(problem.bounds[j][1])
                for j in range(n)
            )
            if not ok:
                continue
            val = sum(Fraction(problem.c[j]) * x[j] for j in range(n))
            if best is None or val > best:
                best = val
    return best


def test_simplex_against_vertex_enumeration(rng):
    for _ in range(25):
        n = rng.randrange(2, 5)
        m = rng.randrange(0, min(3, n))
        c = [rng.randrange(-3, 4) for _ in range(n)]
        a = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randrange(-2, 3) for _ in range(m)]
        bounds = [(0, rng.randrange(1, 4)) for _ in range(n)]
        problem = lp(c, a, b, bounds)
        sol = simplex_max(problem)
        expected = _enumerate_vertex_optimum(problem)
        if expected is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective_value == expected


def _record_primal_starts(monkeypatch):
    """The tableau at the start of each primal simplex run: its basis and
    the width of its rows."""
    starts = []
    primal = ratlp._Tableau.primal

    def recorded(tab, d):
        starts.append((list(tab.basis), {len(row) for row in tab.T}))
        return primal(tab, d)

    monkeypatch.setattr(ratlp._Tableau, "primal", recorded)
    return starts


def test_phase_1_carries_the_artificial_of_each_nonzero_row(rng, monkeypatch):
    starts = _record_primal_starts(monkeypatch)
    several = 0
    for _ in range(40):
        n = rng.randrange(3, 5)
        m = rng.randrange(2, 4)
        c = [rng.randrange(-3, 4) for _ in range(n)]
        a = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.choice((-2, -1, 0, 1, 2, 3)) for _ in range(m)]
        problem = lp(c, a, b, [(0, rng.randrange(1, 4)) for _ in range(n)])
        starts.clear()
        sol = simplex_max(problem)
        tab = sol._tableau
        live = sum(v != 0 for v in b)
        if live:
            # phase 1 pivots n structural columns and one artificial per
            # nonzero row; phase 2 pivots the structural columns alone
            assert starts[0][1] == {n + live}
            several += live > 1
        if tab is not None:
            assert starts[-1][1] == {n}
            assert tab.cols == tuple(range(n))
        expected = _enumerate_vertex_optimum(problem)
        if expected is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective_value == expected
    assert several >= 10


def test_rank_deficient_lp_pivots_a_zero_artificial_out_in_phase_2(monkeypatch):
    # the third row is the sum of the first two, so one artificial stays
    # basic at zero for good; another ends phase 1 basic at zero, has no
    # column in phase 2, and leaves the basis there on a degenerate pivot
    starts = _record_primal_starts(monkeypatch)
    c, a, b = [2, 1, 2], [[-1, 1, 2], [0, 1, 1], [-1, 2, 3]], [3, 2, 5]
    bounds = [(0, 1), (0, 2), (0, 1)]
    sol = simplex_max(lp(c, a, b, bounds))
    tab = sol._tableau
    (phase_1, width_1), (phase_2, width_2) = starts
    assert (phase_1, width_1) == ([3, 4, 5], {6})
    assert ([j for j in phase_2 if j >= 3], width_2) == ([3, 5], {3})
    assert [j for j in tab.basis if j >= 3] == [5]
    assert tab.values()[3:] == [0, 0, 0]
    # the redundant row dropped, the same polytope has full row rank
    assert sol.objective_value == _enumerate_vertex_optimum(lp(c, a[:2], b[:2], bounds)) == 3


def test_no_tableau_row_holds_a_frozen_artificial(monkeypatch):
    # after a cold solve, and at every re-solve of the cut rounds, T holds
    # the structural columns and the cut slacks only: position j is column
    # j up to n, and the slacks follow the ids of the frozen artificials
    dual = ratlp._Tableau.dual
    cut = [0]

    def checked(tab):
        slacks = tuple(range(tab.n + m, len(tab.lo)))
        assert tab.cols == (*range(tab.n), *slacks) and len(tab.T) == m + len(slacks)
        assert all(len(row) == len(tab.cols) for row in tab.T) and len(tab.d) == len(tab.cols)
        assert all(tab.lo[j] == tab.up[j] == 0 for j in range(tab.n, tab.n + m))
        cut[0] += bool(slacks)
        return dual(tab)

    monkeypatch.setattr(ratlp._Tableau, "dual", checked)
    g, X, Y = shipped("fig1a")
    g_hat, s, t, _ = attach_terminals(g, X, Y)
    g_prime, f, _ = split_and_close(g_hat, s, t)
    P = build_primal(g_prime, f)
    problems = [P, build_dual(P)]
    rng = random.Random(4242)
    problems += [_random_bounded_lp(rng) for _ in range(300)]
    for problem in problems:
        m = len(problem.a_eq)
        root = simplex_max(problem)
        tab = root._tableau
        if tab is not None:
            assert tab.cols == tuple(range(tab.n))
            assert all(len(row) == tab.n for row in tab.T) and len(tab.d) == tab.n
            solve_integral_max(problem, root)
    assert cut[0] >= 10  # some searches cut


def test_kregular_two_by_two():
    assert check_k_regular([[1, 1], [1, -1]], 2)


def test_kregular_scalar():
    assert check_k_regular([[2]], 2)
    assert not check_k_regular([[2]], 1)


def test_kregular_incidence_matrices_randomized(rng):
    for _ in range(6):
        g = random_graph(rng, rng.randrange(2, 6), rng.randrange(1, 7))
        M = incidence_matrix(g).as_lists()
        assert check_k_regular(M, 2, max_order=4)
        half = [[Fraction(v, 2) for v in row] for row in M]
        assert check_k_regular(half, 1, max_order=4)


def test_kregular_rejects_bad_matrix():
    # determinant 3, so twice the inverse carries thirds
    assert not check_k_regular([[1, 1, 1], [1, -1, 0], [0, 1, -1]], 2, max_order=3)


def test_is_integral():
    assert is_integral([0, 1, 2])
    assert is_integral([Fraction(4, 2)])
    assert not is_integral([Fraction(1, 2)])


def test_ratio_str():
    assert ratio_str(Fraction(1, 2)) == "1/2"
    assert ratio_str(Fraction(4, 2)) == "2"
    assert ratio_str(3) == "3"


# ---------------------------------------------------------------------------
# integral search: cold root, warm cut rounds


def _integral_box_optimum(problem, cap=None):
    """Brute-force maximum over the integer points of the box (missing
    upper bounds replaced by cap): (value or None, optimal points)."""
    ranges = [range(lo, (cap if up is None else math.floor(up)) + 1) for lo, up in problem.bounds]
    best, points = None, []
    for x in itertools.product(*ranges):
        if any(sum(a * v for a, v in zip(row, x)) != b for row, b in zip(problem.a_eq, problem.b_eq)):
            continue
        val = sum(c * v for c, v in zip(problem.c, x))
        if best is None or val > best:
            best, points = val, [x]
        elif val == best:
            points.append(x)
    return best, points


def _random_bounded_lp(rng, unbounded=False):
    n = rng.randrange(2, 7)
    m = rng.randrange(1, 4)
    coef = (0, 0, Fraction(1, 2), Fraction(-1, 2), 1, -1)
    a = [[rng.choice(coef) for _ in range(n)] for _ in range(m)]
    c = [rng.randrange(-2, 4) for _ in range(n)]
    bounds = []
    for _ in range(n):
        lo = rng.randrange(-1, 1)
        up = None if unbounded and rng.randrange(2) else lo + rng.randrange(0, 3)
        if up is not None and not rng.randrange(4):
            up += Fraction(1, 2)  # a fractional bound can leave a branched column nonbasic
        bounds.append((lo, up))
    if rng.randrange(3):
        # right-hand side of an integral point of the box: feasible
        x = [rng.randrange(lo, (lo + 2 if up is None else math.floor(up)) + 1) for lo, up in bounds]
        b = [sum(aij * v for aij, v in zip(row, x)) for row in a]
    else:
        b = [Fraction(rng.randrange(-2, 5), 2) for _ in range(m)]
    return lp(c, a, b, bounds)


def _check_integral_solution(problem, sol, expected):
    assert sol.status == "optimal"
    assert sol.objective_value == expected
    assert is_integral(sol.values)
    for row, rhs in zip(problem.a_eq, problem.b_eq):
        assert sum(a * v for a, v in zip(row, sol.values)) == rhs
    assert sol.objective_value == sum(c * v for c, v in zip(problem.c, sol.values))


def test_integral_search_matches_box_enumeration():
    rng = random.Random(4242)
    outcomes = {"optimal": 0, "infeasible": 0, "branched": 0}
    for _ in range(300):
        problem = _random_bounded_lp(rng)
        expected, _ = _integral_box_optimum(problem)
        root = simplex_max(problem)
        sol = solve_integral_max(problem, root)
        # the search refines the root's tableau, not the root's values
        assert root == simplex_max(problem)
        if expected is None:
            assert sol.status == "infeasible"
        else:
            _check_integral_solution(problem, sol, expected)
            assert all(lo <= v <= up for (lo, up), v in zip(problem.bounds, sol.values))
        outcomes[sol.status] += 1
        outcomes["branched"] += root.status == "optimal" and not is_integral(root.values)
    assert min(outcomes.values()) >= 10, outcomes


def test_capped_integral_search_matches_box_enumeration():
    # columns without an upper bound: the search runs on them as they are,
    # and box enumeration with a cap on them checks every answer whose
    # point lies below the cap; no integral point lies in an infeasible
    # search's box, and none beats an optimum found
    rng = random.Random(777)
    cap = 3
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0, "below_cap": 0}
    for _ in range(150):
        problem = _random_bounded_lp(rng, unbounded=True)
        expected, _ = _integral_box_optimum(problem, cap)
        capped = [j for j, (_, up) in enumerate(problem.bounds) if up is None]
        root = simplex_max(problem)
        sol = solve_integral_max(problem, root)
        outcomes[sol.status] += 1
        if sol.status == "unbounded":
            assert sol is root
        elif sol.status == "infeasible":
            assert expected is None
        elif all(sol.values[j] < cap for j in capped):
            _check_integral_solution(problem, sol, expected)
            outcomes["below_cap"] += 1
        else:
            assert expected is None or expected <= sol.objective_value
    assert min(outcomes.values()) >= 5, outcomes


def test_branch_that_empties_a_child_is_infeasible():
    # x + y = 3/2 with x, y in [0, 1]: the relaxation takes x = 1, y = 1/2;
    # y <= 0 forces x = 3/2 > 1, which the dual simplex must detect
    problem = lp([1, 0], [[1, 1]], [Fraction(3, 2)], [(0, 1), (0, 1)])
    root = simplex_max(problem)
    tab = root._tableau
    assert root.values == (1, Fraction(1, 2))
    assert tab.tighten(1, 0, 0)
    assert not tab.dual()
    assert simplex_max(lp([1, 0], [[1, 1]], [Fraction(3, 2)], [(0, 1), (0, 0)])).status == "infeasible"
    # the other bound y >= 1 leaves x = 1/2, and no integral point exists
    tab = simplex_max(problem)._tableau
    assert tab.tighten(1, 1, 1) and tab.dual()
    assert tab.solution(problem.c).values == (Fraction(1, 2), 1)
    root = simplex_max(problem)
    assert solve_integral_max(problem, root).status == "infeasible"
    assert root.values == (1, Fraction(1, 2))


def test_round_limit_raises(monkeypatch):
    # x - y = 1/2 has no integral point; one round of cuts proves it
    problem = lp([1, 0], [[1, -1]], [Fraction(1, 2)], [(0, 3), (0, 3)])
    monkeypatch.setattr(ratlp, "_MAX_CUT_ROUNDS", 1)
    assert search(problem).status == "infeasible"
    monkeypatch.setattr(ratlp, "_MAX_CUT_ROUNDS", 0)
    with pytest.raises(BudgetExceeded, match="round limit"):
        search(problem)
    # an integral root needs no round
    assert search(lp([1, 1], [[1, 1]], [1], [(0, 1), (0, 1)])).values == (1, 0)
