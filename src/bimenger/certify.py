"""End-to-end solving pipelines and verified certificates.

The pipeline follows the LP-duality route: attach terminals, split
vertices, find a maximum packing, an integral optimum of the primal,
decompose its support into explicit links, and derive a vertex separator
from a dual solution through the cut F.

One important caveat, discovered while validating this artifact against
the brute-force oracles: the primal relaxation is NOT integral on all
bidirected inputs.  Fractional vertices exist in which a half-unit of
flow enters a same-signed pair of parallel edges and cancels through a
split edge, so the plain LP optimum can strictly exceed the true packing
(the smallest witness: an edgeless graph with one source and one target
vertex, where the relaxation reaches 1 while no link exists).  The
solver therefore computes the packing as the exact integral optimum,
which is a perfect matching of the split graph's half vertices
(``matching``); the relaxation is still solved for the LP artifacts.
Dual solutions are still used to extract the cut F; whenever the
relaxation is tight, the classic chain |separator| <= |F| <= sum(y*) =
value goes through, and the certificate records where it did not
(falling back to the oracle's separator at checkable sizes).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .bigraph import BidirectedGraph, EdgeId, VerificationFailure, VertexId, delete_vertices
from .matching import max_packing
from .oracle import (
    SeparatorResult,
    _exists_path,
    min_st_separator,
    min_xpath_hitting_set,
    oracle_min_separator,
    within_limits,
)
from .ratlp import (
    LpFailure,
    LpSolution,
    build_dual,
    build_primal,
    dual_integral_columns,
    dual_vectors,
    is_integral,
    simplex_max,
    solve_integral_max,
)
from .reduce import (
    SplitMap,
    TerminalMap,
    attach_terminals,
    double_for_xpaths,
    map_cut_to_separator,
    map_links_back,
    split_and_close,
)
from .walks import Link, Walk, classify_link, path_link


class NotBalanced(VerificationFailure):
    """The selected subgraph is not balanced at some vertex."""


class NotIntegral(VerificationFailure):
    """The primal solution handed to the decomposer is not 0/1-integral."""


class DualInfeasible(VerificationFailure):
    """The (z, y) pair violates the dual constraints."""


@dataclasses.dataclass(frozen=True)
class MengerCertificate:
    """Packing, separator and LP artifacts for one solved instance.

    ``value`` is the exact packing value (paths once, turnarounds twice;
    for the X-path pipeline it is the number of packed paths).
    ``primal_value``/``dual_value`` are the plain LP optima, which can
    exceed ``value`` on instances where the relaxation is not tight; the
    ``checks`` record says which guarantees were verified.
    """

    value: int
    links: tuple[Link, ...]
    separator: frozenset
    primal_value: Fraction
    dual_value: Fraction
    checks: dict


@dataclasses.dataclass(frozen=True)
class DecomposeResult:
    links: tuple[Link, ...]
    slack_cycles: int


def _as_int(v) -> int:
    f = Fraction(v)
    if f.denominator != 1:
        raise NotIntegral(f"value {v} is not an integer")
    return f.numerator


def decompose_packing(
    g_prime: BidirectedGraph, f: EdgeId, x_star: dict, xf_star,
    side: Optional[frozenset] = None,
) -> DecomposeResult:
    """Split a balanced 0/1 edge selection into explicit s-t links.

    Removes the x_f copies of f and walks the remaining support with one
    trail walker, which follows the unused chosen edges from a start
    vertex, alternating signs, until it meets a stop vertex (split edge
    capacity makes the continuation at interior vertices unique; any
    other continuation raises NotBalanced).  Trails from s and t to
    either terminal are the segments; s-t segments become path links,
    and s-s segments pair with t-t segments (lexicographically by first
    edge id) into turnarounds.  The edges left over are alternating
    cycles that avoid both terminals, each walked from its least edge
    back to that edge's first end, and discarded.

    ``side``, the fold of ``solve_xpaths`` as in ``build_primal``, holds s
    but not t.  The selection must then lie on it, balance is checked on
    its rows, and the s-s segments, whose number x_f is twice, come back
    as path links in the same order: the X-paths of the first copy.
    """
    xf = _as_int(xf_star)
    if xf < 0:
        raise NotIntegral("x_f must be nonnegative")
    chosen = {}
    for eid, v in x_star.items():
        iv = _as_int(v)
        if iv not in (0, 1):
            raise NotIntegral(f"edge variable x[{eid}] = {v} is not 0/1")
        if iv:
            chosen[eid] = g_prime.edge(eid)
    if side is not None and any(not side.issuperset(e.endpoints) for e in chosen.values()):
        raise NotBalanced("a chosen edge leaves the side")

    fe = g_prime.edge(f)
    s, t = fe.u, fe.v

    # balance: at every vertex (of the side) the signed sum over chosen
    # ends plus the f contribution must vanish
    for v in g_prime.vertices if side is None else [v for v in g_prime.vertices if v in side]:
        total = 0
        for e in g_prime.incident(v):
            if e.eid == f:
                total += fe.sign_at(v).unit * xf
            elif e.eid in chosen:
                total += e.sign_at(v).unit
        if total != 0:
            raise NotBalanced(f"vertex {v!r} has signed degree {total}")

    unused = set(chosen)

    def trail(start: VertexId, e, stop) -> Walk:
        vertices, edges, cur = [start], [], start
        while True:
            unused.discard(e.eid)
            edges.append(e.eid)
            cur = e.other(cur)
            vertices.append(cur)
            if cur in stop:
                return Walk(tuple(vertices), tuple(edges))
            nxt = [e2 for e2 in g_prime.incident(cur) if e2.eid in unused]
            if len(nxt) != 1 or nxt[0].sign_at(cur) == e.sign_at(cur):
                raise NotBalanced(f"support does not alternate uniquely at {cur!r}")
            e = nxt[0]

    segments = [trail(term, e, (s, t))
                for term in (s, t) for e in g_prime.incident(term) if e.eid in unused]
    # what is left is a family of alternating cycles avoiding s and t
    slack_cycles = 0
    while unused:
        e = g_prime.edge(min(unused))
        trail(e.u, e, (e.u,))
        slack_cycles += 1

    # the trails from s use every chosen edge at s, so none from t ends there
    st, ss, tt = [], [], []
    for w in segments:
        ends = (w.start, w.end)
        if ends == (s, t):
            st.append(w)
        elif ends == (s, s):
            ss.append(w)
        else:
            tt.append(w)
    if side is None and len(ss) != len(tt):
        raise NotBalanced(
            f"segment parity violated: {len(ss)} s-s vs {len(tt)} t-t segments"
        )
    if len(st) + 2 * len(ss) != xf:
        raise NotBalanced(
            f"segment weight {len(st) + 2 * len(ss)} does not match x_f = {xf}"
        )

    ss.sort(key=lambda w: w.edges[0])
    tt.sort(key=lambda w: w.edges[0])
    if side is not None:
        return DecomposeResult(tuple(path_link(w) for w in ss), slack_cycles)
    links = [path_link(w) for w in st]
    links.extend(Link("turnaround", (a, b)) for a, b in zip(ss, tt))
    return DecomposeResult(tuple(links), slack_cycles)


def extract_cut(g_prime: BidirectedGraph, f: EdgeId, z_star: dict, y_star: dict) -> frozenset:
    """F = {e = uv : sigma(u,e) z*_u + sigma(v,e) z*_v < 0}.

    Requires (z*, y*) feasible for the dual with z*_s - z*_t >= 2, and
    checks that every cut edge carries y* >= 1, which bounds |F| by the
    dual objective.  f itself is never a cut edge.
    """
    fe = g_prime.edge(f)
    lhs_f = fe.sign_u.unit * z_star[fe.u] + fe.sign_v.unit * z_star[fe.v]
    if lhs_f < 2:
        raise DualInfeasible(f"z*_s - z*_t = {lhs_f} < 2")
    cut = set()
    for e in g_prime.edges:
        if e.eid == f:
            continue
        sigma_sum = e.sign_u.unit * z_star[e.u] + e.sign_v.unit * z_star[e.v]
        ye = y_star[e.eid]
        if ye < 0 or sigma_sum + 2 * ye < 0:
            raise DualInfeasible(f"edge {e.eid} violates the dual constraint")
        if sigma_sum < 0:
            if ye < 1:
                raise DualInfeasible(f"cut edge {e.eid} has y* = {ye} < 1")
            cut.add(e.eid)
    return frozenset(cut)


def _optimal(what: str, sol: LpSolution) -> LpSolution:
    if sol.status != "optimal":
        raise LpFailure(f"{what} ended {sol.status}")
    return sol


# The checks a certificate must pass before bmcli exits 0, per pipeline.
# The last one is the separator bound the pipeline proves: |S| <= value
# (the theorem), or |S| <= 2 value for X-paths (Cor. 15).  A check fails
# unless it is True.
_PACKING_CHECKS = ("duality", "links_classified", "links_disjoint", "separator_verified")
REQUIRED_CHECKS = {
    "menger": _PACKING_CHECKS + ("separator_within_value",),
    "st": _PACKING_CHECKS + ("separator_within_value",),
    "xpaths": _PACKING_CHECKS + ("cor15_bound",),
}


def failed_checks(cert: MengerCertificate, pipeline: str) -> list[str]:
    """The required checks of ``pipeline`` that ``cert`` fails."""
    return [key for key in REQUIRED_CHECKS[pipeline] if cert.checks.get(key) is not True]


def _trivial_certificate(pipeline: str) -> MengerCertificate:
    """Value 0, no links, empty separator: every check holds."""
    checks = dict.fromkeys(REQUIRED_CHECKS[pipeline], True)
    checks.update(primal_integral_raw=True, dual_integral_raw=True, lp_tight=True,
                  separator_within_value=True, slack_cycles=0, separator_from_oracle=False)
    return MengerCertificate(0, (), frozenset(), Fraction(0), Fraction(0), checks)


def _pairwise_disjoint(links: Iterable[Link], ignore: frozenset = frozenset()) -> bool:
    seen = set()
    for link in links:
        vs = link.vertex_set() - ignore
        if vs & seen:
            return False
        seen |= vs
    return True


def _certify(
    cert: MengerCertificate,
    g: BidirectedGraph,
    ends: tuple[set, set],
    separator: frozenset,
    separates: Optional[Callable[[frozenset], bool]],
    oracle_search: Optional[Callable[[], SeparatorResult]],
    bound: tuple[str, int],
    terminals: frozenset = frozenset(),
) -> MengerCertificate:
    """Verify the separator of ``cert`` and check its links.

    ``separates(S)`` tells whether no link of ``g`` between ``ends``
    avoids S.  It is None where the separator is proven: the mapped cut
    of ``solve_menger`` and ``solve_st`` separates, since ``extract_cut``
    checked z_s - z_t >= 2, so along any s-t link of the split graph
    (minus ends at s, plus ends at t) the signed z-sums telescope to
    (z_t - z_s) * weight < 0 and the link uses an F edge;
    ``map_cut_to_separator`` charges each F edge to a vertex on every
    link through it; and every link of ``g`` lifts to such a link (the
    round-trip lift tests).  A separator larger than ``cert.value`` gives
    way to the minimum that ``oracle_search`` finds, where it can run.
    ``bound`` is the check key and the limit of the separator bound the
    pipeline proves.  ``terminals`` (s and t of the two-terminal version)
    lie on every link, so the disjointness check ignores them.
    """
    checks = dict(cert.checks)
    verified = separates is None or separates(separator)
    if len(separator) > cert.value and oracle_search is not None:
        separator, verified = oracle_search().vertices, True
        checks["separator_from_oracle"] = True
    key, limit = bound
    checks.update(
        separator_verified=verified,
        separator_within_value=len(separator) <= cert.value,
        links_classified=all(classify_link(g, lk, *ends).kind == lk.kind for lk in cert.links),
        links_disjoint=_pairwise_disjoint(cert.links, terminals),
    )
    checks[key] = len(separator) <= limit
    return dataclasses.replace(cert, separator=separator, checks=checks)


def solve_menger(g: BidirectedGraph, X: Iterable, Y: Iterable) -> MengerCertificate:
    """Maximum vertex-disjoint X-Y link packing with a vertex separator.

    Pipeline: attach terminals, split and close, exact primal optimum,
    support decomposition, backward mapping, dual cut extraction.  The
    separator is the mapped cut whenever that respects the theorem bound
    |S| <= value, and the oracle minimum otherwise (at checkable sizes).
    """
    X, Y = set(X), set(Y)
    if not X or not Y:
        return _trivial_certificate("menger")
    g_hat, s, t, tmap = attach_terminals(g, X, Y)
    g_prime, f, smap = split_and_close(g_hat, s, t)
    cert = _finish_certificate([tmap, smap], g_prime, f)
    return _certify(
        cert, g, (X, Y), cert.separator, None,
        (lambda: oracle_min_separator(g, X, Y)) if within_limits(g) else None,
        ("separator_within_value", cert.value),
    )


def _finish_certificate(
    chain: list[TerminalMap | SplitMap], g_prime: BidirectedGraph, f: EdgeId,
    side: Optional[frozenset] = None,
) -> MengerCertificate:
    """Solve (P) and (D), find the packing, decompose it, extract the cut
    and map both back through ``chain``.  ``simplex_max`` solves
    (P) and (D), read off (P), cold once each: the plain relaxations.  The
    packing, an integral optimum of (P), is a perfect matching
    (``max_packing``) of the split graph, whose split edges the last map
    of ``chain`` names; the cut rounds of the integral search refine the
    root of (D), integral on z and y, only when it is fractional.  So the
    benchmark's traced ``ratlp.bnb.total_s`` holds the cut rounds on (D)
    alone, the primal root is ``ratlp.simplex_primal_root.self_s``, and
    the matching is part of ``certify.residual.self_s``.

    ``side``, the s side of the doubled split graph of ``solve_xpaths``,
    folds both programs onto it: the packing is read on it and the dual
    as 0 off it, which gives optima of the full programs (README, "The
    fold")."""
    P = build_primal(g_prime, f, side)
    D = build_dual(P)
    plp = _optimal("primal relaxation", simplex_max(P))
    x, xf = max_packing(g_prime, f, chain[-1].split_origin, side)

    dlp = _optimal("dual relaxation", simplex_max(D))
    z, y = dual_vectors(D, dlp, g_prime)
    dual_integral_raw = is_integral(z.values()) and is_integral(y.values())
    if not dual_integral_raw:
        dint = solve_integral_max(D, dlp, dual_integral_columns(D))
        z, y = dual_vectors(D, _optimal("integral dual", dint), g_prime)

    dec = decompose_packing(g_prime, f, x, xf, side)
    links = map_links_back(chain, dec.links)
    cut = extract_cut(g_prime, f, z, y)
    separator = map_cut_to_separator(chain, cut)
    primal_value = Fraction(plp.objective_value)
    dual_value = -Fraction(dlp.objective_value)
    checks = {
        "duality": primal_value == dual_value,
        "primal_integral_raw": is_integral(plp.values),
        "dual_integral_raw": dual_integral_raw,
        "lp_tight": primal_value == xf,
        "slack_cycles": dec.slack_cycles,
        "separator_from_oracle": False,
    }
    return MengerCertificate(
        value=xf,
        links=tuple(links),
        separator=separator,
        primal_value=primal_value,
        dual_value=dual_value,
        checks=checks,
    )


def solve_st(g: BidirectedGraph, s: VertexId, t: VertexId) -> MengerCertificate:
    """Maximum internally vertex-disjoint s-t link packing; the separator
    avoids both terminals.  A direct s-t edge is refused, since no
    internal vertex set can separate it."""
    g_prime, f, smap = split_and_close(g, s, t)
    cert = _finish_certificate([smap], g_prime, f)
    return _certify(
        cert, g, ({s}, {t}), cert.separator, None,
        (lambda: min_st_separator(g, s, t)) if within_limits(g) else None,
        ("separator_within_value", cert.value),
        terminals=frozenset({s, t}),
    )


def _s_side(g_prime: BidirectedGraph, f: EdgeId) -> frozenset:
    """The vertices that s reaches in ``g_prime`` without the closing edge f."""
    s = g_prime.edge(f).u
    side, todo = {s}, [s]
    while todo:
        v = todo.pop()
        for e in g_prime.incident(v):
            if e.eid != f and e.other(v) not in side:
                side.add(e.other(v))
                todo.append(e.other(v))
    return frozenset(side)


def solve_xpaths(g: BidirectedGraph, X: Iterable) -> MengerCertificate:
    """Maximum vertex-disjoint nontrivial X-X path packing.

    Doubles the graph and solves the LP part of the set version between
    the two copies of X, folded onto the s side, what s reaches without f
    (see ``_finish_certificate``): each packed turnaround of the doubled
    graph pairs an X-path from each copy, and the folded packing holds
    the first copy's, whose number ``decompose_packing`` checks to be
    half of x_f.  The first copy is ``g`` itself, with its vertex names
    and edge ids, and the chain maps the s side into it, so the packed
    paths are paths of ``g`` and the mapped folded cut is a vertex set
    of ``g``, with no map back.  The separator is that cut, or the empty
    set when no path was packed (the value is the exact optimum, so then
    no X-path exists); one path search on ``g`` confirms it.  When it is
    not within the packing value, the separator is a minimum X-path
    hitting set of ``g``.  That search is exhaustive, so above the oracle
    limits it runs only when the doubled cut exceeds the doubled value;
    otherwise the cut is within 2 * value already.  The guarantee here
    is |separator| <= 2 * value (checks key cor15_bound).
    """
    X = set(X)
    if not X:
        return _trivial_certificate("xpaths")
    g2, X2 = double_for_xpaths(g, X)
    g_hat, s, t, tmap = attach_terminals(g2, X, X2)
    g_prime, f, smap = split_and_close(g_hat, s, t)
    cert2 = _finish_certificate([tmap, smap], g_prime, f, _s_side(g_prime, f))
    searchable = within_limits(g) or len(cert2.separator) > cert2.value
    return _certify(
        dataclasses.replace(cert2, value=len(cert2.links)), g, (X, X),
        cert2.separator if cert2.links else frozenset(),
        lambda S: not _exists_path(delete_vertices(g, S), X, X, nontrivial_only=True),
        (lambda: min_xpath_hitting_set(g, X)) if searchable else None,
        ("cor15_bound", 2 * len(cert2.links)),
    )

