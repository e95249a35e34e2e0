"""Exact solver, certifier and brute-force verifier for a Menger-type
min-max theorem on bidirected graphs.

The packing side counts vertex-disjoint source-target links, with
turnarounds weighted twice; the covering side is a vertex separator.
Solving goes through the split graph: the packing is a perfect matching
of its half vertices, an integral optimum of the packing LP, whose plain
relaxation is not integral on all bidirected inputs (see certify for the
analysis); exact rational linear programming gives the LP artifacts and
the separator, with rounds of Gomory cuts on a fractional dual root.
Every certificate is cross-checked against exhaustive oracles at small
scale.
"""

from .bigraph import (
    MINUS,
    PLUS,
    BidirectedGraph,
    DuplicateVertexId,
    Edge,
    GraphError,
    LoopRejected,
    SignRejected,
    UnknownVertex,
    VerificationFailure,
    build_graph,
    delete_vertices,
    incidence_matrix,
    switch_vertex,
)
from .walks import (
    Link,
    Walk,
    check_walk,
    classify_link,
    enumerate_almost_paths,
    enumerate_paths,
    enumerate_st_links,
    enumerate_xy_links,
)
from .oracle import (
    PackingResult,
    SizeBoundExceeded,
    oracle_max_links,
    oracle_min_separator,
    oracle_st,
    oracle_xpaths,
)
from .reduce import (
    DirectTerminalEdge,
    EqualTerminals,
    InvalidDerivedLink,
    SplitMap,
    TerminalMap,
    UnmappableEdge,
    attach_terminals,
    double_for_xpaths,
    map_cut_to_separator,
    map_links_back,
    split_and_close,
)
from .ratlp import (
    BudgetExceeded,
    DimensionMismatch,
    LpFailure,
    LpProblem,
    LpSolution,
    build_dual,
    build_primal,
    check_k_regular,
    is_integral,
    ratio_str,
    simplex_max,
    solve_integral_max,
)
from .certify import (
    DualInfeasible,
    MengerCertificate,
    NotBalanced,
    decompose_packing,
    extract_cut,
    failed_checks,
    solve_menger,
    solve_st,
    solve_xpaths,
)

__all__ = [name for name in dir() if not name.startswith("_")]
