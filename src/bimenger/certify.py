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
(falling back to the oracle's separator at checkable sizes).  At value
0 the exact packing proves the empty separator, so no cut is mapped.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .bigraph import BidirectedGraph, EdgeId, VerificationFailure, VertexId, delete_vertices
from .matching import max_packing
from .oracle import (
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
    is_feasible,
    is_integral,
    primal_point,
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
    s_side,
    split_and_close,
)
from .walks import Link, Walk, classify_link, path_link


class NotBalanced(VerificationFailure):
    """The selected subgraph is not balanced at some vertex."""


class DualInfeasible(VerificationFailure):
    """The (z, y) pair violates the dual constraints."""


# The checks every certificate must pass, besides its separator bound.
_PACKING_CHECKS = ("duality", "links_classified", "links_disjoint", "separator_verified")


@dataclasses.dataclass(frozen=True)
class MengerCertificate:
    """Packing, separator and LP artifacts for one solved instance.

    ``value`` is the exact packing value (paths once, turnarounds twice;
    for the X-path pipeline it is the number of packed paths).
    ``primal_value``/``dual_value`` are the plain LP optima, which can
    exceed ``value`` on instances where the relaxation is not tight; the
    ``checks`` record says which guarantees were verified; ``required``
    (not printed) names those it must pass, with the separator bound of
    its pipeline once ``_certify`` has seen it.
    """

    value: int
    links: tuple[Link, ...]
    separator: frozenset
    primal_value: Fraction
    dual_value: Fraction
    checks: dict
    required: tuple[str, ...] = _PACKING_CHECKS


@dataclasses.dataclass(frozen=True)
class DecomposeResult:
    links: tuple[Link, ...]
    slack_cycles: int


def decompose_packing(g_prime: BidirectedGraph, f: EdgeId, chosen: frozenset, xf: int) -> DecomposeResult:
    """Split a balanced edge selection into explicit s-t links.

    ``chosen`` holds the ids of the selected edges other than f, which
    is taken x_f times: an integral point of (P) as ``max_packing``
    gives it.  The balance rows are checked first.  Then one trail
    walker follows the unused chosen edges from a start vertex,
    alternating signs, until it meets a stop vertex (split edge capacity
    makes the continuation at interior vertices unique; any other
    continuation raises NotBalanced).  Trails from s and t to
    either terminal are the segments; s-t segments become path links,
    and s-s segments pair with t-t segments (lexicographically by first
    edge id) into turnarounds.  The edges left over are alternating
    cycles that avoid both terminals, each walked from its least edge
    back to that edge's first end, and discarded.
    """
    fe = g_prime.edge(f)
    s, t = fe.u, fe.v

    # balance: at every vertex the signed sum over chosen ends plus the f
    # contribution must vanish
    for v in g_prime.vertices:
        total = 0
        for e in g_prime.incident(v):
            if e.eid == f:
                total += fe.sign_at(v) * xf
            elif e.eid in chosen:
                total += e.sign_at(v)
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
    if len(ss) != len(tt):
        raise NotBalanced(
            f"segment parity violated: {len(ss)} s-s vs {len(tt)} t-t segments"
        )
    if len(st) + 2 * len(ss) != xf:
        raise NotBalanced(
            f"segment weight {len(st) + 2 * len(ss)} does not match x_f = {xf}"
        )

    ss.sort(key=lambda w: w.edges[0])
    tt.sort(key=lambda w: w.edges[0])
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
    lhs_f = fe.sign_u * z_star[fe.u] + fe.sign_v * z_star[fe.v]
    if lhs_f < 2:
        raise DualInfeasible(f"z*_s - z*_t = {lhs_f} < 2")
    cut = set()
    for e in g_prime.edges:
        if e.eid == f:
            continue
        sigma_sum = e.sign_u * z_star[e.u] + e.sign_v * z_star[e.v]
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


def failed_checks(cert: MengerCertificate) -> list[str]:
    """The checks in ``cert.required`` that ``cert`` fails; bmcli exits 0
    only when there are none.  A check fails unless it is True."""
    return [key for key in cert.required if cert.checks.get(key) is not True]


def _trivial_certificate() -> MengerCertificate:
    """Value 0, no links and an empty separator, with the LP keys that
    ``_finish_certificate`` sets: an empty X or Y leaves nothing to pack."""
    checks = dict(duality=True, primal_integral_raw=True, dual_integral_raw=True,
                  lp_tight=True, slack_cycles=0)
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
    separates: Optional[Callable[[frozenset], bool]],
    oracle_search: Optional[Callable[[], frozenset]],
    bound: tuple[str, int],
    terminals: frozenset = frozenset(),
) -> MengerCertificate:
    """Verify the separator of ``cert``, or replace it, and check its links.

    ``separates(S)`` tells whether no link of ``g`` between ``ends``
    avoids S.  It is None where the separator is proven: the empty set
    of a packing of value 0 separates, since the value is exact; and the
    mapped cut of ``solve_menger`` and ``solve_st`` separates, since
    ``extract_cut`` checked z_s - z_t >= 2, so along any s-t link of the
    split graph (minus ends at s, plus ends at t) the signed z-sums
    telescope to (z_t - z_s) * weight < 0 and the link uses an F edge;
    ``map_cut_to_separator`` charges each F edge to a vertex on every
    link through it; and every link of ``g`` lifts to such a link (the
    round-trip lift tests).  A separator larger than ``cert.value`` gives
    way to the minimum that ``oracle_search`` finds, where it can run,
    and only a separator the certificate keeps is tested.  ``bound`` is
    the check key and the limit of the separator bound the pipeline
    proves, |S| <= value or |S| <= 2 value (Cor. 15), which the
    certificate requires with the packing checks.  ``terminals`` (s and
    t of the two-terminal version) lie on every link, so the
    disjointness check ignores them.
    """
    separator = cert.separator
    from_oracle = len(separator) > cert.value and oracle_search is not None
    if from_oracle:
        separator = oracle_search()
    key, limit = bound
    checks = dict(cert.checks)
    checks.update(
        separator_from_oracle=from_oracle,
        separator_verified=from_oracle or separates is None or separates(separator),
        separator_within_value=len(separator) <= cert.value,
        links_classified=all(classify_link(g, lk, *ends).kind == lk.kind for lk in cert.links),
        links_disjoint=_pairwise_disjoint(cert.links, terminals),
    )
    checks[key] = len(separator) <= limit
    return dataclasses.replace(cert, separator=separator, checks=checks,
                               required=_PACKING_CHECKS + (key,))


def solve_menger(g: BidirectedGraph, X: Iterable, Y: Iterable) -> MengerCertificate:
    """Maximum vertex-disjoint X-Y link packing with a vertex separator.

    Pipeline: attach terminals, split and close, exact primal optimum,
    support decomposition, backward mapping, dual cut extraction.  The
    separator, the empty set at value 0 and the mapped cut otherwise,
    stands whenever it respects the theorem bound |S| <= value; the
    oracle minimum replaces it otherwise (at checkable sizes).
    """
    X, Y = set(X), set(Y)
    cert = _trivial_certificate()
    if X and Y:
        g_hat, s, t, tmap = attach_terminals(g, X, Y)
        *_, smap = split_and_close(g_hat, s, t)
        cert = _finish_certificate([tmap, smap])
    return _certify(
        cert, g, (X, Y), None,
        (lambda: oracle_min_separator(g, X, Y)) if within_limits(g) else None,
        ("separator_within_value", cert.value),
    )


def _finish_certificate(
    chain: list[TerminalMap | SplitMap], side: Optional[frozenset] = None,
) -> MengerCertificate:
    """The LP facts of a certificate: solve (D), find the packing,
    decompose it, extract the cut and map both back through ``chain``,
    whose last map holds the split graph, f and the split edges.  The
    separator is the mapped cut, or the empty set when the packing has
    value 0: the value is exact, so then no link exists.  The cut is
    extracted at value 0 all the same, which checks (z, y).
    ``simplex_max`` solves (D), read off (P), cold once; (P)'s optimum x
    is read off its final tableau, and ``duality`` checks the pair
    exactly.  The packing, an integral optimum of (P), is a perfect
    matching (``max_packing``) of the split graph; the cut rounds of the
    integral search refine the root of (D) only when it is fractional.

    ``side``, the s side of the doubled split graph of ``solve_xpaths``,
    folds both programs onto it, and the dual is read as 0 off it; this
    gives optima of the full programs (README, "The fold").  The packing
    is matched and decomposed on the whole graph all the same."""
    smap = chain[-1]
    g_prime, f = smap.derived, smap.f
    P = build_primal(g_prime, f, side)
    D = build_dual(P)
    chosen, xf = max_packing(g_prime, f, smap.split_origin)

    dlp = _optimal("dual relaxation", simplex_max(D))
    x = primal_point(D, dlp)  # before the integral search refines the tableau
    z, y = dual_vectors(D, dlp, g_prime)
    dual_integral_raw = is_integral(z.values()) and is_integral(y.values())
    if not dual_integral_raw:
        dint = solve_integral_max(D, dlp, dual_integral_columns(D))
        z, y = dual_vectors(D, _optimal("integral dual", dint), g_prime)

    dec = decompose_packing(g_prime, f, chosen, xf)
    links = map_links_back(chain, dec.links)
    cut = extract_cut(g_prime, f, z, y)
    separator = map_cut_to_separator(chain, cut) if xf else frozenset()
    primal_value = Fraction(x[-1])
    dual_value = -Fraction(dlp.objective_value)
    checks = {
        "duality": primal_value == dual_value and is_feasible(P, x) and is_feasible(D, dlp.values),
        "primal_integral_raw": is_integral(x),
        "dual_integral_raw": dual_integral_raw,
        "lp_tight": primal_value == xf,
        "slack_cycles": dec.slack_cycles,
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
    *_, smap = split_and_close(g, s, t)
    cert = _finish_certificate([smap])
    return _certify(
        cert, g, ({s}, {t}), None,
        (lambda: min_st_separator(g, s, t)) if within_limits(g) else None,
        ("separator_within_value", cert.value),
        terminals=frozenset({s, t}),
    )


def solve_xpaths(g: BidirectedGraph, X: Iterable) -> MengerCertificate:
    """Maximum vertex-disjoint nontrivial X-X path packing.

    Doubles the graph and packs turnarounds between the two copies of X
    as ``solve_menger`` does, with (P) and (D) folded onto the s side,
    what s reaches without f (see ``_finish_certificate``).  Each packed
    turnaround pairs an X-path from each copy, and its s-s part, the
    first copy's, is kept.  The first copy is ``g`` itself, with its
    vertex names and edge ids, and the chain maps the s side into it, so
    the kept paths are paths of ``g`` and the mapped folded cut is a
    vertex set of ``g``, with no map back.  The separator is that cut,
    or the empty set when no path was packed, as in every pipeline
    (``_finish_certificate``); one path search on ``g`` confirms it.
    When it is not within the packing value, the separator is a minimum
    X-path hitting set of ``g`` instead.  That search is exhaustive, so
    above the oracle limits it runs only when the doubled cut exceeds
    the doubled value; otherwise the cut is within 2 * value already.  The guarantee here is |separator| <= 2 *
    value (checks key cor15_bound).
    """
    X = set(X)
    cert = _trivial_certificate()
    if X:
        g2, X2 = double_for_xpaths(g, X)
        g_hat, s, t, tmap = attach_terminals(g2, X, X2)
        g_prime, f, smap = split_and_close(g_hat, s, t)
        doubled = _finish_certificate([tmap, smap], s_side(g_prime, f))
        paths = tuple(path_link(link.ss_part) for link in doubled.links)
        cert = dataclasses.replace(doubled, value=len(paths), links=paths)
    searchable = within_limits(g) or len(cert.separator) > 2 * cert.value
    return _certify(
        cert, g, (X, X),
        lambda S: not _exists_path(delete_vertices(g, S), X, X, nontrivial_only=True),
        (lambda: min_xpath_hitting_set(g, X)) if searchable else None,
        ("cor15_bound", 2 * cert.value),
    )
