"""Exact rational linear programming and matrix regularity checks.

Everything is computed over arbitrary-precision rationals (the
standard-library Fraction, and int where a value is integral); there is
no floating point anywhere.

Every solve runs on one bounded-variable simplex tableau.  A cold solve
(``simplex_max``) scales each equality row to integers once and runs the
two-phase primal simplex with Bland's rule from an all-artificial basis:
slow, deterministic, and guaranteed to terminate on a basic (vertex)
optimum, which is what the integrality arguments need.  The tableau
holds only the columns that can still enter the basis: the structural
ones, and during phase 1 the artificials of rows whose right-hand side
starts nonzero.  The other artificials are fixed at zero, and leaving
them out keeps every pivot: a pivot updates each column from that column
and the entering one alone, and no pivoting rule picks a column whose
bounds are equal.  Each program is solved cold once.  The integral
search (``solve_integral_max``) refines that root: it adds rounds of
Gomory mixed-integer cuts to the root's own tableau, each as a new row
with its own slack column, and re-optimises with an exact dual simplex
after each round, until the vertex is integral.  Which integral optimum
it stops at (not its value) depends on the cuts and the pivots.  A
certificate runs it on a fractional root of the dual (D) alone: its
packing, the integral optimum of (P), is a perfect matching
(``bimenger.matching``).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .bigraph import BidirectedGraph, EdgeId, incidence_matrix


class DimensionMismatch(Exception):
    """Objective, constraint matrix and bounds disagree on sizes."""


class LpFailure(RuntimeError):
    """An exact solve did not reach a proven answer: it ended in a status
    its theory rules out, or a limit stopped it."""


class BudgetExceeded(LpFailure):
    """A pivot or cut round limit stopped an exact solve."""


def is_integral(values: Iterable) -> bool:
    """True iff every entry is an integer (denominator 1)."""
    for v in values:
        if isinstance(v, int):
            continue
        if Fraction(v).denominator != 1:
            return False
    return True


def ratio_str(v) -> str:
    """Exact "p/q" form; integers print without a denominator."""
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@dataclasses.dataclass(frozen=True)
class LpProblem:
    """max c.x  subject to  A_eq x = b_eq  and  lo <= x <= up (up may be None)."""

    c: tuple
    a_eq: tuple
    b_eq: tuple
    bounds: tuple  # per column: (lo, up or None)
    names: tuple
    row_names: tuple = ()  # per row, when the rows are labelled

    def __post_init__(self):
        n = len(self.c)
        if len(self.bounds) != n or len(self.names) != n:
            raise DimensionMismatch("bounds/names do not match objective length")
        if len(self.a_eq) != len(self.b_eq):
            raise DimensionMismatch("constraint matrix and rhs disagree")
        if self.row_names and len(self.row_names) != len(self.a_eq):
            raise DimensionMismatch("row names do not match the constraint rows")
        for row in self.a_eq:
            if len(row) != n:
                raise DimensionMismatch("constraint row has wrong length")

    @property
    def ncols(self) -> int:
        return len(self.c)


@dataclasses.dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple
    objective_value: Optional[Fraction]
    # an optimal solve's final tableau, which solve_integral_max refines
    _tableau: Optional[_Tableau] = dataclasses.field(default=None, compare=False, repr=False)


def _div(a, b):
    """Exact a/b, returned as int when it divides evenly."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    f = Fraction(a) / Fraction(b)
    return f.numerator if f.denominator == 1 else f


def _exact(v):
    """v as an int when it is integral, as a Fraction otherwise."""
    if isinstance(v, int):
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


def _scaled_int_row(row, rhs):
    """Clear denominators of one equality row (same solution set).  A row
    whose entries and right-hand side are all ints comes back as a fresh
    list, unscaled and without arithmetic; any Fraction, even an integral
    one, takes the path that scales by the lcm of the denominators."""
    if isinstance(rhs, int) and all(isinstance(v, int) for v in row):
        return list(row), rhs
    den = math.lcm(*(v.denominator for v in (*row, rhs) if not isinstance(v, int)))
    return [int(v * den) for v in row], int(rhs * den)


_MAX_PIVOTS = 200_000


class _Tableau:
    """Bounded-variable simplex tableau over exact rationals.

    Column ids are the problem's n structural columns followed by one
    artificial column per row, then one slack column per cut.  ``T`` is
    B^-1 A for the current basis, restricted to the columns that can
    still enter it; ``cols`` is the id of each position of a row.  These
    are the structural columns, at positions 0 to n-1, then during
    phase 1 only the artificials of the rows whose right-hand side starts
    nonzero, in id order, or once cuts are added their slacks.  Every other
    artificial is frozen at lo = up = 0 and has no column in ``T``, but
    its id stays in ``basis`` and in the per-id lists, because Bland's
    rule compares basic column ids.  Leaving those columns out changes no
    pivot: a pivot updates each column of B^-1 A from that column and the
    entering column alone, and no entering scan, ratio test or bound
    change picks a column with lo = up.

    ``xB[i]`` is the value of the basic column ``basis[i]``, and every
    nonbasic column sits at its lower bound, or at its upper bound when
    ``at_upper`` says so.  Bounds ``lo``/``up`` (``up`` may be None) are
    those of the problem; the integral search tightens them in place.
    ``d`` holds the phase-2 reduced costs, one per position, once the
    cold solve has reached them.  ``price`` computes the reduced costs of
    either phase, and ``_shift`` moves the basic values along whenever a
    nonbasic column moves: in a pivot, a bound flip or a tightened bound.
    """

    __slots__ = ("n", "cols", "T", "xB", "basis", "in_basis", "at_upper", "lo", "up", "d")

    def __init__(self, n, cols, T, xB, basis, in_basis, at_upper, lo, up, d):
        self.n, self.cols, self.T, self.xB = n, cols, T, xB
        self.basis, self.in_basis, self.at_upper = basis, in_basis, at_upper
        self.lo, self.up, self.d = lo, up, d

    @classmethod
    def all_artificial(cls, p: LpProblem) -> "_Tableau":
        """Rows scaled to integers and signed so that the artificial basis,
        with every structural column at its lower bound, is feasible; an
        artificial whose row starts balanced is fixed at zero and gets no
        column."""
        n, m = p.ncols, len(p.a_eq)
        lo = [_exact(lo) for lo, _ in p.bounds] + [0] * m
        up = [None if up is None else _exact(up) for _, up in p.bounds]
        rows, xB = [], []
        for i in range(m):
            row, b = _scaled_int_row(p.a_eq[i], p.b_eq[i])
            b = _exact(b - sum(a * lo[j] for j, a in enumerate(row) if a and lo[j]))
            if b < 0:
                row, b = [-a for a in row], -b
            rows.append(row)
            xB.append(b)
            up.append(0 if b == 0 else None)
        live = [i for i in range(m) if xB[i]]
        T = [row + [0] * len(live) for row in rows]
        for q, i in enumerate(live, n):
            T[i][q] = 1
        cols = (*range(n), *(n + i for i in live))
        basis = list(range(n, n + m))
        in_basis = [False] * n + [True] * m
        return cls(n, cols, T, xB, basis, in_basis, [False] * (n + m), lo, up, None)

    def values(self) -> list:
        """Current value of every column, basic or not."""
        vals = [u if at else lo for lo, u, at in zip(self.lo, self.up, self.at_upper)]
        for i, j in enumerate(self.basis):
            vals[j] = self.xB[i]
        return vals

    def solution(self, c) -> LpSolution:
        values = tuple(_exact(v) for v in self.values()[: self.n])
        objective = Fraction(sum(cj * v for cj, v in zip(c, values) if cj))
        return LpSolution("optimal", values, objective, self)

    def price(self, cost) -> list:
        """The reduced costs c - c_B B^-1 A, one per position, of the
        costs ``cost`` given per column id."""
        d = [cost[j] for j in self.cols]
        for row, j in zip(self.T, self.basis):
            cb = cost[j]
            if cb:
                for q, v in enumerate(row):
                    if v:
                        d[q] -= cb * v
        return d

    def _shift(self, q, t) -> None:
        """Move the basic values along as the nonbasic column at position
        q moves by t: each moves by -T[i][q] * t."""
        xB = self.xB
        for i, row in enumerate(self.T):
            if row[q]:
                xB[i] -= row[q] * t

    def _exchange(self, r, q, t, d, leave_at_upper) -> None:
        """Move the nonbasic column at position q by t and pivot it into
        row r, whose basic column leaves at its upper bound or its lower
        bound; the reduced costs d are pivoted along."""
        T = self.T
        if t:
            self._shift(q, t)
        j = self.cols[q]
        self.xB[r] = (self.up[j] if self.at_upper[j] else self.lo[j]) + t
        leaving = self.basis[r]
        self.in_basis[leaving] = False
        self.at_upper[leaving] = leave_at_upper
        self.in_basis[j] = True
        self.at_upper[j] = False
        self.basis[r] = j

        prow = T[r]
        piv = prow[q]
        if piv != 1:
            for jj, v in enumerate(prow):
                if v:
                    prow[jj] = _div(v, piv)
        nz = [jj for jj, v in enumerate(prow) if v]
        for i, row in enumerate(T):
            k = row[q]
            if k and i != r:
                for jj in nz:
                    row[jj] -= k * prow[jj]
        k = d[q]
        if k:
            for jj in nz:
                d[jj] -= k * prow[jj]

    def _flip(self, q, t) -> None:
        """Move the nonbasic column at position q by t, from one of its
        bounds to the other; no basis change."""
        self._shift(q, t)
        j = self.cols[q]
        self.at_upper[j] = not self.at_upper[j]

    def primal(self, d) -> bool:
        """Primal simplex on reduced costs d with Bland's rule, from a
        primal-feasible basis: True at an optimum, False when unbounded."""
        T, xB, basis, in_basis = self.T, self.xB, self.basis, self.in_basis
        at_upper, lo, up, cols = self.at_upper, self.lo, self.up, self.cols
        for _ in range(_MAX_PIVOTS):
            enter = next(
                (q for q, j in enumerate(cols)
                 if not in_basis[j] and up[j] != lo[j]
                 and (d[q] < 0 if at_upper[j] else d[q] > 0)),
                -1,
            )
            if enter < 0:
                return True
            j = cols[enter]
            direction = -1 if at_upper[j] else 1

            best_t = None  # tightest row ratio
            leave_row = -1
            leave_to_upper = False
            for i, row in enumerate(T):
                ci = row[enter]
                if not ci:
                    continue
                b = basis[i]
                if (ci > 0) == (direction == 1):  # the basic column moves down
                    gap, hits_upper = xB[i] - lo[b], False
                elif up[b] is None:
                    continue
                else:
                    gap, hits_upper = up[b] - xB[i], True
                if not gap:
                    ti = 0
                elif best_t == 0 and gap > 0:  # can neither beat nor tie a zero step
                    continue
                else:
                    ti = _div(gap, abs(ci))
                if best_t is None or ti < best_t:
                    best_t, leave_row, leave_to_upper = ti, i, hits_upper
                elif ti == best_t and b < basis[leave_row]:
                    leave_row, leave_to_upper = i, hits_upper
            flip_t = None if up[j] is None else up[j] - lo[j]
            if best_t is None and flip_t is None:
                return False
            if flip_t is not None and (
                best_t is None or flip_t < best_t
                or (flip_t == best_t and j < basis[leave_row])
            ):
                self._flip(enter, direction * flip_t)
                continue
            self._exchange(leave_row, enter, direction * best_t, d, leave_to_upper)
        raise BudgetExceeded("pivot limit exceeded; Bland's rule should terminate")

    def dual(self) -> bool:
        """Dual simplex from a basis whose reduced costs ``d`` are optimal
        but whose basic values may break their bounds: True at an optimum,
        False when the bounds admit no feasible point.

        The leaving row is the out-of-bounds row with the smallest basic
        column; the entering column minimises |d_q / T[r][q]| among the
        columns that move the leaving value towards its bound, ties to
        the smallest index.  A row without such a column proves the
        bounds infeasible.
        """
        T, xB, basis, in_basis = self.T, self.xB, self.basis, self.in_basis
        at_upper, lo, up, d, cols = self.at_upper, self.lo, self.up, self.d, self.cols
        for _ in range(_MAX_PIVOTS):
            r = -1
            for i, b in enumerate(basis):
                v = xB[i]
                if (v < lo[b] or (up[b] is not None and v > up[b])) and (r < 0 or b < basis[r]):
                    r = i
            if r < 0:
                return True
            b = basis[r]
            below = xB[r] < lo[b]
            row = T[r]
            q, best = -1, None
            for qq, a in enumerate(row):
                j = cols[qq]
                # the basic value moves by -a per unit of column j, which
                # may rise from its lower bound or fall from its upper one
                if not a or in_basis[j] or up[j] == lo[j] or (a > 0) != (at_upper[j] == below):
                    continue
                ratio = _div(abs(d[qq]), abs(a))
                if best is None or ratio < best:
                    q, best = qq, ratio
            if q < 0:
                return False
            target = lo[b] if below else up[b]
            self._exchange(r, q, _div(xB[r] - target, row[q]), d, not below)
        raise BudgetExceeded("pivot limit exceeded; the dual Bland rule should terminate")

    def tighten(self, j, lo, up) -> bool:
        """Narrow the bounds of structural column j, at position j, to
        [lo, up], moving it along when it is nonbasic; False when the new
        box is empty."""
        if up is not None and up < lo:
            return False
        if not self.in_basis[j]:
            old = self.up[j] if self.at_upper[j] else self.lo[j]
            t = (up if self.at_upper[j] else lo) - old
            if t:
                self._shift(j, t)
        self.lo[j], self.up[j] = lo, up
        return True

    def cut(self, r, integral) -> None:
        """Append the Gomory mixed-integer cut of row r, whose basic
        column is in ``integral`` and has a fractional value f0.

        Each nonbasic column moved off its bound by x' >= 0 (up from its
        lower bound, down from its upper one) has the coefficient a of
        row r in x'.  The cut is sum(pi * x') >= 1, with pi = fa / f0 or
        (1 - fa) / (1 - f0) for an integral column, by whether the
        fraction fa of a reaches f0, and a / f0 or -a / (1 - f0) for a
        continuous one, by the sign of a.  It holds at every feasible
        point that is integral on ``integral``, whose bounds must be
        integers.  Its slack sum(pi * x') - 1 is a new continuous column
        with lower bound 0, basic in the new row at -1."""
        cols, in_basis, at_upper, lo, up = self.cols, self.in_basis, self.at_upper, self.lo, self.up
        f0 = self.xB[r] - math.floor(self.xB[r])
        row = []
        for q, a in enumerate(self.T[r]):
            j = cols[q]
            if not a or in_basis[j] or lo[j] == up[j]:
                row.append(0)
                continue
            if at_upper[j]:
                a = -a
            if j in integral:
                fa = a - math.floor(a)
                pi = _div(fa, f0) if fa <= f0 else _div(1 - fa, 1 - f0)
            else:
                pi = _div(a, f0) if a > 0 else _div(-a, 1 - f0)
            # the slack is sum(pi * x') - 1, and x' = +-(x_j - bound)
            row.append(pi if at_upper[j] else -pi)
        k = len(lo)
        lo.append(0)
        up.append(None)
        at_upper.append(False)
        in_basis.append(True)
        self.cols = (*cols, k)
        for tr in self.T:
            tr.append(0)
        row.append(1)
        self.T.append(row)
        self.xB.append(-1)
        self.basis.append(k)
        self.d.append(0)


_INFEASIBLE = LpSolution("infeasible", (), None)


def simplex_max(p: LpProblem) -> LpSolution:
    """Exact bounded-variable simplex, Bland's rule, basic optimum: two
    phases from the all-artificial basis.  Lower bounds must be finite;
    upper bounds may be None.  The returned solution satisfies every
    constraint exactly and, when optimal, holds its final tableau.
    """
    for lo, up in p.bounds:
        if lo is None:
            raise DimensionMismatch("lower bounds must be finite")
        if up is not None and Fraction(up) < Fraction(lo):
            return _INFEASIBLE
    tab = _Tableau.all_artificial(p)
    n, m, T = tab.n, len(p.a_eq), tab.T

    # phase 1: drive the artificials of the nonzero rows to zero
    live = tab.cols[n:]
    if live:
        c1 = [0] * (n + m)
        for j in live:
            c1[j] = -1
        if not tab.primal(tab.price(c1)):
            raise LpFailure("phase 1 is bounded by zero yet ended unbounded")
        if any(v != 0 for v in tab.values()[n:]):
            return _INFEASIBLE
        # they may stay basic at zero (a redundant row, or degeneracy);
        # freeze them and drop their columns
        for j in live:
            tab.up[j] = 0
        for row in T:
            del row[n:]
        tab.cols = tab.cols[:n]

    # phase 2
    tab.d = tab.price([_exact(v) for v in p.c] + [0] * m)
    if not tab.primal(tab.d):
        return LpSolution("unbounded", (), None)
    return tab.solution(p.c)


_MAX_CUT_ROUNDS = 100


def solve_integral_max(p: LpProblem, root: LpSolution,
                       integral_cols: Optional[Sequence[int]] = None) -> LpSolution:
    """Exact maximum over the points of an LpProblem that are integral on
    ``integral_cols`` (all columns by default), by rounds of Gomory
    mixed-integer cuts on the tableau of ``root``, ``simplex_max(p)``.

    A root that is not optimal comes back as it is.  Otherwise the search
    refines the root's tableau in place, so a root serves one search.
    The bounds of the integral columns are rounded inwards.  Then each
    round re-optimises with the dual simplex and, for every row whose
    basic column is integral but whose value is fractional, appends the
    row's Gomory mixed-integer cut with a new continuous slack column,
    basic and at -1.  Each cut holds at every feasible point that is
    integral on ``integral_cols``, so the search ends at the integral
    optimum once a round leaves no such row, and reports "infeasible"
    when the cuts leave no point at all.

    Gomory rounds are finite under a lexicographic dual simplex rule,
    which ``_Tableau.dual`` does not follow, so termination is not
    proven: the round limit raises BudgetExceeded, as the pivot limit
    does.
    """
    if root.status != "optimal":
        return root
    integral = set(range(p.ncols) if integral_cols is None else integral_cols)
    tab = root._tableau
    for j in integral:
        up = tab.up[j]
        if not tab.tighten(j, math.ceil(tab.lo[j]), None if up is None else math.floor(up)):
            return _INFEASIBLE
    for rounds in itertools.count():
        if not tab.dual():
            return _INFEASIBLE
        rows = [i for i, j in enumerate(tab.basis)
                if j in integral and tab.xB[i] != math.floor(tab.xB[i])]
        if not rows:
            return tab.solution(p.c)
        if rounds == _MAX_CUT_ROUNDS:
            raise BudgetExceeded("cut round limit exceeded")
        for i in rows:
            tab.cut(i, integral)


# ---------------------------------------------------------------------------
# the two programs of the pipeline


def build_primal(g_prime: BidirectedGraph, f: EdgeId, side: Optional[frozenset] = None) -> LpProblem:
    """max x_f  s.t.  M x + a x_f = 0,  0 <= x <= 1,  0 <= x_f <= |E|.

    Cut from the signed incidence matrix of the split graph
    (``incidence_matrix``): M is its part without the column of f, and a
    that column.  These are the balance rows (M x + a x_f)/2 = 0, doubled
    so that every entry is an int.  Doubling keeps the solution set and
    gives exactly the rows that ``_scaled_int_row`` makes of the halved
    ones, so the tableau and every pivot are those of the halved program.
    The explicit cap on x_f keeps the feasible region a polytope; the
    balance row at s caps x_f at deg(s) anyway, so it is slack-safe.
    Each row is labelled with its vertex (``row_names``).

    ``side``, a vertex set holding s but not t, keeps only the rows of
    its vertices and the columns of the edges between them, then x_f, in
    the same order: the folded program of the X-path pipeline (README,
    "The fold").
    """
    inc = incidence_matrix(g_prime)
    rows = [i for i, v in enumerate(inc.row_ids) if side is None or v in side]
    cols = [j for j, e in enumerate(g_prime.edges)
            if e.eid != f and (side is None or side.issuperset(e.endpoints))]
    ne = len(cols)
    cols.append(inc.col_ids.index(f))
    return LpProblem(
        c=(0,) * ne + (1,),
        a_eq=tuple(tuple(inc.rows[i][j] for j in cols) for i in rows),
        b_eq=(0,) * len(rows),
        bounds=((0, 1),) * ne + ((0, g_prime.m),),
        names=tuple(f"x:{inc.col_ids[j]}" for j in cols[:ne]) + ("xf",),
        row_names=tuple(inc.row_ids[i] for i in rows),
    )


def build_dual(primal: LpProblem) -> LpProblem:
    """min 1.y  s.t.  M^T z + 2y >= 0,  a^T z >= 2,  y >= 0.

    The dual of ``primal``, a (P) of ``build_primal``, whole or folded,
    read off its matrix alone: row k of (D) is column k of (P), an edge
    and then x_f, written as the z+ block and its negation, followed by
    the edge's y and surplus entries (2 and -2), or by sl_f (-2).  These
    are the rows (M^T z)/2 + y >= 0 and (a^T z)/2 >= 1 doubled to ints,
    as in ``build_primal``, which leaves the tableau and every pivot
    unchanged.  Implemented as maximization of -1.y with the free z split
    as z = z+ - z- and surplus columns turning the inequalities into
    equalities, so a basic optimum is a vertex of the dual polyhedron.
    The columns are z+ and z- per row label of (P), y and sl per edge
    column of (P), then sl_f.
    """
    vertices = primal.row_names
    edges = [name[2:] for name in primal.names[:-1]]
    nv, ne = len(vertices), len(edges)
    names = tuple(
        [f"zp:{v}" for v in vertices] + [f"zn:{v}" for v in vertices]
        + [f"y:{e}" for e in edges] + [f"sl:{e}" for e in edges] + ["sl:f"]
    )
    rows = []
    for k, column in enumerate(zip(*primal.a_eq)):
        row = list(column) + [-a for a in column] + [0] * (2 * ne + 1)
        if k < ne:
            row[2 * nv + k], row[2 * nv + ne + k] = 2, -2
        else:
            row[-1] = -2
        rows.append(tuple(row))
    return LpProblem(
        c=(0,) * (2 * nv) + (-1,) * ne + (0,) * (ne + 1),
        a_eq=tuple(rows),
        b_eq=(0,) * ne + (2,),
        bounds=((0, None),) * len(names),
        names=names,
    )


def dual_integral_columns(dual: LpProblem) -> range:
    """The z and y columns of a (D) of ``build_dual``: every column before
    its surplus columns, which close the layout, one per row.  Those stay
    continuous: at an integral (z, y) a surplus (sigma z)/2 + y_e can be
    half-integral."""
    return range(dual.ncols - len(dual.a_eq))


def dual_vectors(problem: LpProblem, sol: LpSolution, g_prime: BidirectedGraph) -> tuple[dict, dict]:
    """(z per vertex, y per edge id) from a solved dual; z = z+ - z-.  A
    vertex or edge without columns in ``problem`` (a folded dual,
    or f, which has no y) reads 0."""
    vals = dict(zip(problem.names, sol.values))
    z = {v: vals.get(f"zp:{v}", 0) - vals.get(f"zn:{v}", 0) for v in g_prime.vertices}
    y = {e.eid: vals.get(f"y:{e.eid}", 0) for e in g_prime.edges}
    return z, y


# ---------------------------------------------------------------------------
# regularity checks


def _invert_exact(R: Sequence[Sequence]) -> Optional[list[list[Fraction]]]:
    """Exact inverse by Gauss-Jordan, or None when singular."""
    o = len(R)
    aug = [[Fraction(R[i][j]) for j in range(o)] + [Fraction(int(i == j)) for j in range(o)]
           for i in range(o)]
    for cpos in range(o):
        prow = next((r for r in range(cpos, o) if aug[r][cpos] != 0), None)
        if prow is None:
            return None
        aug[cpos], aug[prow] = aug[prow], aug[cpos]
        piv = aug[cpos][cpos]
        if piv != 1:
            aug[cpos] = [v / piv for v in aug[cpos]]
        for r in range(o):
            if r != cpos and aug[r][cpos]:
                k = aug[r][cpos]
                aug[r] = [a - k * b for a, b in zip(aug[r], aug[cpos])]
    return [row[o:] for row in aug]


def check_k_regular(A: Sequence[Sequence], k: int, max_order: int = 5) -> bool:
    """True iff k R^{-1} is integral for every non-singular square
    submatrix R of order at most max_order (exhaustive scan)."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    for order in range(1, min(max_order, nrows, ncols) + 1):
        for ri in itertools.combinations(range(nrows), order):
            sub_rows = [A[i] for i in ri]
            for ci in itertools.combinations(range(ncols), order):
                R = [[row[j] for j in ci] for row in sub_rows]
                inv = _invert_exact(R)
                if inv is None:
                    continue
                for row in inv:
                    for v in row:
                        if (k * v).denominator != 1:
                            return False
    return True
