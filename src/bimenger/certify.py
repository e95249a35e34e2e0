"""End-to-end solving pipelines and verified certificates.

The pipeline follows the LP-duality route: attach terminals, split
vertices, solve the primal for a maximum packing, decompose its support
into explicit links, and derive a vertex separator from a dual solution
through the cut F.

One important caveat, discovered while validating this artifact against
the brute-force oracles: the primal relaxation is NOT integral on all
bidirected inputs.  Fractional vertices exist in which a half-unit of
flow enters a same-signed pair of parallel edges and cancels through a
split edge, so the plain LP optimum can strictly exceed the true packing
(the smallest witness: an edgeless graph with one source and one target
vertex, where the relaxation reaches 1 while no link exists).  The
solver therefore computes the packing as the exact integral optimum by
branch and bound over the same exact simplex.  Dual solutions are still
used to extract the cut F; whenever the relaxation is tight, the classic
chain |separator| <= |F| <= sum(y*) = value goes through, and the
certificate records where it did not (falling back to the oracle's
separator at checkable sizes).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .bigraph import BidirectedGraph, EdgeId, VertexId, delete_vertices
from .oracle import (
    DEFAULT_MAX_EDGES,
    DEFAULT_MAX_VERTICES,
    _exists_path,
    has_st_link,
    has_xy_link,
    min_xpath_hitting_set,
    oracle_max_links,
    oracle_min_separator,
    oracle_st,
)
from .ratlp import (
    LpFailure,
    LpProblem,
    LpSolution,
    build_dual,
    build_primal,
    dual_vectors,
    is_integral,
    primal_vectors,
    simplex_max,
    solve_integral_max,
)
from .reduce import (
    ReductionMap,
    attach_terminals,
    double_for_xpaths,
    map_cut_to_separator,
    map_links_back,
    normalize_terminals,
    split_and_close,
)
from .walks import Link, Walk, classify_link, enumerate_xy_links, path_link


class NotBalanced(Exception):
    """The selected subgraph is not balanced at some vertex."""


class NotIntegral(Exception):
    """The primal solution handed to the decomposer is not 0/1-integral."""


class DualInfeasible(Exception):
    """The (z, y) pair violates the dual constraints."""


@dataclasses.dataclass(frozen=True)
class EdgeCut:
    """The dual cut F: edges whose signed z-sum is negative."""

    edges: frozenset


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
    internals: Optional[dict] = None  # split graph, f, duals, cut (on request)


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
    g_prime: BidirectedGraph, f: EdgeId, x_star: dict, xf_star
) -> DecomposeResult:
    """Split a balanced 0/1 edge selection into explicit s-t links.

    Removes the x_f copies of f, walks the remaining support into
    maximal sign-alternating segments with endpoints in {s, t} (split
    edge capacity makes the continuation at interior vertices unique),
    turns s-t segments into path links, pairs s-s with t-t segments
    (lexicographically by first edge id) into turnarounds, and discards
    alternating cycles that avoid both terminals.
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

    fe = g_prime.edge(f)
    s, t = fe.u, fe.v

    # balance: at every vertex the signed sum over chosen ends plus the
    # f contribution must vanish
    for v in g_prime.vertices:
        total = 0
        for e in g_prime.incident(v):
            if e.eid == f:
                total += fe.sign_at(v).unit * xf
            elif e.eid in chosen:
                total += e.sign_at(v).unit
        if total != 0:
            raise NotBalanced(f"vertex {v!r} has signed degree {total}")

    used = set()

    def walk_from(term: VertexId, first) -> Walk:
        vertices = [term]
        edges = []
        cur, e = term, first
        while True:
            used.add(e.eid)
            edges.append(e.eid)
            cur = e.other(cur)
            vertices.append(cur)
            if cur == s or cur == t:
                return Walk(tuple(vertices), tuple(edges))
            arrived = e.sign_at(cur)
            nxt = [
                e2
                for e2 in g_prime.incident(cur)
                if e2.eid in chosen and e2.eid not in used and e2.eid != e.eid
            ]
            if len(nxt) != 1 or nxt[0].sign_at(cur) == arrived:
                raise NotBalanced(f"support does not alternate uniquely at {cur!r}")
            e = nxt[0]

    segments = []
    for term in (s, t):
        for e in g_prime.incident(term):
            if e.eid == f or e.eid not in chosen or e.eid in used:
                continue
            segments.append(walk_from(term, e))

    # anything left over is a family of alternating cycles avoiding s,t
    leftovers = {eid for eid in chosen if eid not in used}
    slack_cycles = 0
    while leftovers:
        slack_cycles += 1
        start_eid = min(leftovers)
        e = g_prime.edge(start_eid)
        origin, cur = e.u, e.u
        while True:
            leftovers.discard(e.eid)
            used.add(e.eid)
            cur = e.other(cur)
            if cur == origin:
                break
            arrived = e.sign_at(cur)
            nxt = [
                e2
                for e2 in g_prime.incident(cur)
                if e2.eid in leftovers and e2.sign_at(cur) != arrived
            ]
            if len(nxt) != 1:
                raise NotBalanced(f"slack support does not close a cycle at {cur!r}")
            e = nxt[0]

    st, ss, tt = [], [], []
    for w in segments:
        ends = (w.start, w.end)
        if ends == (s, t):
            st.append(w)
        elif ends == (t, s):
            st.append(w.reversed())
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

    links = [path_link(w) for w in st]
    ss.sort(key=lambda w: w.edges[0])
    tt.sort(key=lambda w: w.edges[0])
    links.extend(Link("turnaround", (a, b)) for a, b in zip(ss, tt))
    return DecomposeResult(tuple(links), slack_cycles)


def extract_cut(g_prime: BidirectedGraph, f: EdgeId, z_star: dict, y_star: dict) -> EdgeCut:
    """F = {e = uv : sigma(u,e) z*_u + sigma(v,e) z*_v < 0}.

    Requires (z*, y*) feasible for the dual; asserts that f stays out of
    the cut and that every cut edge carries y* >= 1, which bounds |F| by
    the dual objective.
    """
    fe = g_prime.edge(f)
    lhs_f = fe.sign_u.unit * z_star[fe.u] + fe.sign_v.unit * z_star[fe.v]
    if lhs_f < 2:
        raise DualInfeasible(f"z*_s - z*_t = {lhs_f} < 2")
    cut = set()
    total_y = 0
    for e in g_prime.edges:
        if e.eid == f:
            continue
        sigma_sum = e.sign_u.unit * z_star[e.u] + e.sign_v.unit * z_star[e.v]
        ye = y_star[e.eid]
        if ye < 0 or sigma_sum + 2 * ye < 0:
            raise DualInfeasible(f"edge {e.eid} violates the dual constraint")
        total_y += ye
        if sigma_sum < 0:
            if ye < 1:
                raise DualInfeasible(f"cut edge {e.eid} has y* = {ye} < 1")
            cut.add(e.eid)
    assert f not in cut
    assert len(cut) <= total_y
    return EdgeCut(frozenset(cut))


def link_sigma_sum(g: BidirectedGraph, z: dict, link: Link):
    """Sum of sigma(u,e) z_u + sigma(v,e) z_v over the link's edges."""
    total = 0
    for w in link.walks:
        for eid in w.edges:
            e = g.edge(eid)
            total += e.sign_u.unit * z[e.u] + e.sign_v.unit * z[e.v]
    return total


def _dual_branch_columns(problem: LpProblem) -> list[int]:
    return [
        j
        for j, nm in enumerate(problem.names)
        if nm.startswith(("zp:", "zn:", "y:"))
    ]


class _LpBundle(NamedTuple):
    primal_lp: LpSolution
    dual_lp: LpSolution
    x: dict
    xf: int
    z: dict
    y: dict
    primal_integral_raw: bool
    dual_integral_raw: bool


def _optimal(what: str, sol: LpSolution) -> LpSolution:
    if sol.status != "optimal":
        raise LpFailure(f"{what} ended {sol.status}")
    return sol


def _solve_lps(g_prime: BidirectedGraph, f: EdgeId) -> _LpBundle:
    """Solve (P) and (D).  The packing is the integral optimum of (P),
    whose branch and bound also returns the plain relaxation; (D) falls
    back to exact integral search when its basic optimum comes back
    fractional."""
    P = build_primal(g_prime, f)
    psol = solve_integral_max(P)
    plp = _optimal("primal relaxation", psol.relaxation)
    primal_integral_raw = is_integral(plp.values)
    x, xf = primal_vectors(P, _optimal("integral primal", psol))
    xf = _as_int(xf)

    D = build_dual(g_prime, f)
    dlp = _optimal("dual relaxation", simplex_max(D))
    z, y = dual_vectors(D, dlp, g_prime)
    dual_integral_raw = is_integral(z.values()) and is_integral(y.values())
    if not dual_integral_raw:
        cap = 2 * (len(D.a_eq) + len(D.names)) + 8
        dint = solve_integral_max(D, integral_cols=_dual_branch_columns(D), unbounded_cap=cap)
        z, y = dual_vectors(D, _optimal("integral dual", dint), g_prime)
    return _LpBundle(plp, dlp, x, xf, z, y, primal_integral_raw, dual_integral_raw)


def _trivial_certificate() -> MengerCertificate:
    return MengerCertificate(
        value=0,
        links=(),
        separator=frozenset(),
        primal_value=Fraction(0),
        dual_value=Fraction(0),
        checks={
            "duality": True,
            "primal_integral_raw": True,
            "dual_integral_raw": True,
            "lp_tight": True,
            "balance": True,
            "links_classified": True,
            "links_disjoint": True,
            "cut_f_excluded": True,
            "cut_bound": True,
            "slack_cycles": 0,
            "separator_from_oracle": False,
            "separator_within_value": True,
            "separator_verified": True,
        },
    )


def _pairwise_disjoint(links: Iterable[Link], ignore: frozenset = frozenset()) -> bool:
    seen = set()
    for link in links:
        vs = link.vertex_set() - ignore
        if vs & seen:
            return False
        seen |= vs
    return True


def solve_menger(
    g: BidirectedGraph,
    X: Iterable,
    Y: Iterable,
    max_oracle_vertices: int = DEFAULT_MAX_VERTICES,
    max_oracle_edges: int = DEFAULT_MAX_EDGES,
    keep_internals: bool = False,
) -> MengerCertificate:
    """Maximum vertex-disjoint X-Y link packing with a vertex separator.

    Pipeline: attach terminals, split and close, exact primal optimum,
    support decomposition, backward mapping, dual cut extraction.  The
    separator is the mapped cut whenever that respects the theorem bound
    |S| <= value, and the oracle minimum otherwise (at checkable sizes).
    """
    X, Y = set(X), set(Y)
    if not X or not Y:
        return _trivial_certificate()
    g_hat, s, t, tmap = attach_terminals(g, X, Y)
    g_prime, f, smap = split_and_close(g_hat, s, t)
    chain = [tmap, smap]
    cert = _finish_certificate(g, chain, g_prime, f, keep_internals)

    in_bounds = g.n <= max_oracle_vertices and g.m <= max_oracle_edges
    checks = cert.checks
    separator = cert.separator
    if len(separator) > cert.value and in_bounds:
        separator = oracle_min_separator(
            g, X, Y, max_vertices=max_oracle_vertices, max_edges=max_oracle_edges
        ).vertices
        checks["separator_from_oracle"] = True
    checks["separator_within_value"] = len(separator) <= cert.value
    if in_bounds:
        checks["separator_verified"] = not has_xy_link(delete_vertices(g, separator), X, Y)
    else:
        checks["separator_verified"] = None
    checks["links_classified"] = all(
        classify_link(g, link, X, Y).kind == link.kind for link in cert.links
    )
    checks["links_disjoint"] = _pairwise_disjoint(cert.links)
    return dataclasses.replace(cert, separator=separator, checks=checks)


def _finish_certificate(
    original: BidirectedGraph,
    chain: list[ReductionMap],
    g_prime: BidirectedGraph,
    f: EdgeId,
    keep_internals: bool = False,
) -> MengerCertificate:
    bundle = _solve_lps(g_prime, f)
    dec = decompose_packing(g_prime, f, bundle.x, bundle.xf)
    links = map_links_back(chain, dec.links)
    cut = extract_cut(g_prime, f, bundle.z, bundle.y)
    separator = map_cut_to_separator(chain, cut.edges)
    primal_value = Fraction(bundle.primal_lp.objective_value)
    dual_value = -Fraction(bundle.dual_lp.objective_value)
    checks = {
        "duality": primal_value == dual_value,
        "primal_integral_raw": bundle.primal_integral_raw,
        "dual_integral_raw": bundle.dual_integral_raw,
        "lp_tight": primal_value == bundle.xf,
        "balance": True,  # enforced by decompose_packing
        "cut_f_excluded": f not in cut.edges,
        "cut_bound": len(cut.edges) <= sum(bundle.y.values()),
        "slack_cycles": dec.slack_cycles,
        "separator_from_oracle": False,
    }
    internals = None
    if keep_internals:
        internals = {
            "g_prime": g_prime,
            "f": f,
            "chain": tuple(chain),
            "x": bundle.x,
            "xf": bundle.xf,
            "z": bundle.z,
            "y": bundle.y,
            "cut": cut,
        }
    return MengerCertificate(
        value=bundle.xf,
        links=tuple(links),
        separator=separator,
        primal_value=primal_value,
        dual_value=dual_value,
        checks=checks,
        internals=internals,
    )


def solve_st(
    g: BidirectedGraph,
    s: VertexId,
    t: VertexId,
    max_oracle_vertices: int = DEFAULT_MAX_VERTICES,
    max_oracle_edges: int = DEFAULT_MAX_EDGES,
    keep_internals: bool = False,
) -> MengerCertificate:
    """Maximum internally vertex-disjoint s-t link packing; the separator
    avoids both terminals.  A direct s-t edge is refused, since no
    internal vertex set can separate it."""
    gn = normalize_terminals(g, s, t)
    g_prime, f, smap = split_and_close(gn, s, t)
    chain = [smap]
    cert = _finish_certificate(g, chain, g_prime, f, keep_internals)

    in_bounds = g.n <= max_oracle_vertices and g.m <= max_oracle_edges
    checks = cert.checks
    separator = cert.separator
    if len(separator) > cert.value and in_bounds:
        _, osep = oracle_st(
            g, s, t, max_vertices=max_oracle_vertices, max_edges=max_oracle_edges
        )
        assert not osep.is_infinite  # a direct edge was refused above
        separator = osep.vertices
        checks["separator_from_oracle"] = True
    checks["separator_within_value"] = len(separator) <= cert.value
    if in_bounds:
        checks["separator_verified"] = not has_st_link(delete_vertices(g, separator), s, t)
    else:
        checks["separator_verified"] = None
    checks["links_classified"] = all(
        classify_link(g, link, {s}, {t}).kind == link.kind for link in cert.links
    )
    checks["links_disjoint"] = _pairwise_disjoint(cert.links, ignore=frozenset({s, t}))
    assert s not in separator and t not in separator
    return dataclasses.replace(cert, separator=separator, checks=checks)


def solve_xpaths(
    g: BidirectedGraph,
    X: Iterable,
    max_oracle_vertices: int = DEFAULT_MAX_VERTICES,
    max_oracle_edges: int = DEFAULT_MAX_EDGES,
) -> MengerCertificate:
    """Maximum vertex-disjoint nontrivial X-X path packing.

    Doubles the graph, packs turnarounds between the two copies (each
    one pairs an X-path from each copy), reports one copy's paths, and
    projects the doubled separator into whichever copy it kills.  The
    guarantee here is |separator| <= 2 * value (checks key cor15_bound).
    """
    X = set(X)
    if not X:
        return _trivial_certificate()
    g2, X1, X2, dmap = double_for_xpaths(g, X)
    cert2 = solve_menger(
        g2,
        X1,
        X2,
        max_oracle_vertices=max(2 * g.n, max_oracle_vertices),
        max_oracle_edges=max(2 * g.m, max_oracle_edges),
    )
    assert cert2.value % 2 == 0
    assert all(link.kind == "turnaround" for link in cert2.links)

    back_v = dmap.special["back_vertex"]
    back_e = dmap.special["back_edge"]

    def back_walk(w: Walk) -> Walk:
        return Walk(
            tuple(back_v[v] for v in w.vertices),
            tuple(back_e[eid] for eid in w.edges),
        )

    links = tuple(path_link(back_walk(link.ss_part)) for link in cert2.links)
    value = len(links)

    copy1 = set(dmap.special["copy1"].values())
    s1 = frozenset(back_v[v] for v in cert2.separator if v in copy1)
    s2 = frozenset(back_v[v] for v in cert2.separator if v not in copy1)
    separator = None
    for cand in sorted((s1, s2), key=len):
        if not _exists_path(delete_vertices(g, cand), X, X, nontrivial_only=True):
            separator = cand
            break
    checks = dict(cert2.checks)
    in_bounds = g.n <= max_oracle_vertices and g.m <= max_oracle_edges
    if separator is None:
        # the doubled separator failed to kill either copy (possible only
        # when it was itself unverifiable); keep the smaller projection
        separator = min((s1, s2), key=len)
        checks["separator_verified"] = False
    else:
        checks["separator_verified"] = True
    if len(separator) > value and in_bounds:
        separator = min_xpath_hitting_set(g, X).vertices
        checks["separator_from_oracle"] = True
        checks["separator_verified"] = True
    checks["cor15_bound"] = len(separator) <= 2 * value
    checks["separator_within_value"] = len(separator) <= value
    checks["links_disjoint"] = _pairwise_disjoint(links)
    checks["links_classified"] = all(
        classify_link(g, link, X, X).kind == "path" for link in links
    )
    return MengerCertificate(
        value=value,
        links=links,
        separator=separator,
        primal_value=cert2.primal_value,
        dual_value=cert2.dual_value,
        checks=checks,
    )


class EqualityVerdict(NamedTuple):
    applicable: bool
    holds: Optional[bool]
    max_paths: Optional[int]
    min_separator: Optional[int]


def check_no_turnaround_equality(
    g: BidirectedGraph,
    X: Iterable,
    Y: Iterable,
    max_oracle_vertices: int = DEFAULT_MAX_VERTICES,
    max_oracle_edges: int = DEFAULT_MAX_EDGES,
) -> EqualityVerdict:
    """When no X-Y turnaround exists, max paths must equal min separator.

    The precondition is verified by enumeration; on instances with a
    turnaround the verdict is not_applicable (holds=None).
    """
    X, Y = set(X), set(Y)
    links = enumerate_xy_links(g, X, Y)
    if any(link.kind == "turnaround" for link in links):
        return EqualityVerdict(False, None, None, None)
    pack = oracle_max_links(g, X, Y, max_vertices=max_oracle_vertices, max_edges=max_oracle_edges)
    sep = oracle_min_separator(g, X, Y, max_vertices=max_oracle_vertices, max_edges=max_oracle_edges)
    cert = (
        solve_menger(g, X, Y, max_oracle_vertices, max_oracle_edges)
        if X and Y
        else _trivial_certificate()
    )
    holds = pack.value == sep.size == cert.value
    return EqualityVerdict(True, holds, pack.value, int(sep.size))
