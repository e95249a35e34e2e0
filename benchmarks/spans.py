"""Span tracing from outside the program.

The tracer wraps module attributes of `bimenger` (the names that `bmcli`,
`certify` and `ratlp` look up at call time), records one span per call
and restores the originals afterwards.  Nothing in the program changes.

A span is `[name, start, end, parent]`, with `parent` the index of the
enclosing span or -1.  Spans stay in memory until the run ends.  A
layer's self time is its spans' durations minus the durations of their
direct children; the benchmark is single-threaded, so children never
overlap and the self times of one op add up to the op's root span.
"""

from __future__ import annotations

import collections
import time
from typing import Callable, Iterable, Optional

ROOT = "bmcli.residual"  # the span around each run_cli call


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._open.pop()


def self_times(spans: Iterable[list]) -> dict[str, float]:
    """Total self time per span name."""
    spans = list(spans)
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = collections.defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def span_counts(spans: Iterable[list]) -> collections.Counter:
    return collections.Counter(s[0] for s in spans)


# ---------------------------------------------------------------------------
# boundaries: (module, attribute) -> span name, or a function of the call's
# first argument for boundaries that serve several layers


def lp_kind(problem) -> str:
    """'dual' for the program of build_dual (z split into zp/zn columns),
    'primal' otherwise."""
    return "dual" if any(str(n).startswith("zp:") for n in problem.names) else "primal"


def _root_simplex(problem) -> str:
    return f"ratlp.simplex_{lp_kind(problem)}_root"


def _count_lp(tracer: Tracer, problem) -> None:
    kind = lp_kind(problem)
    tracer.counts[f"ratlp.{kind}.rows"] += len(problem.a_eq)
    tracer.counts[f"ratlp.{kind}.cols"] += len(problem.c)


SPAN_BOUNDARIES = {
    ("bmcli", "parse_instance"): "bmcli.parse_instance",
    ("bmcli", "certificate_json"): "bmcli.certificate_json",
    ("bmcli", "solve_menger"): "certify.residual",
    ("bmcli", "solve_st"): "certify.residual",
    ("bmcli", "solve_xpaths"): "certify.residual",
    ("certify", "solve_menger"): "certify.residual",
    ("certify", "attach_terminals"): "reduce.attach_terminals",
    ("certify", "split_and_close"): "reduce.split_and_close",
    ("certify", "double_for_xpaths"): "reduce.double_for_xpaths",
    ("certify", "map_links_back"): "reduce.map_back",
    ("certify", "map_cut_to_separator"): "reduce.map_back",
    ("certify", "decompose_packing"): "certify.decompose_packing",
    ("certify", "extract_cut"): "certify.extract_cut",
    ("certify", "build_primal"): "ratlp.build_primal",
    ("certify", "build_dual"): "ratlp.build_dual",
    ("certify", "simplex_max"): _root_simplex,
    ("certify", "solve_integral_max"): "ratlp.bnb",
    ("certify", "oracle_min_separator"): "oracle.separator_fallback",
    ("certify", "oracle_st"): "oracle.separator_fallback",
    ("certify", "min_xpath_hitting_set"): "oracle.separator_fallback",
    ("certify", "has_xy_link"): "oracle.verify",
    ("certify", "has_st_link"): "oracle.verify",
    ("certify", "_exists_path"): "oracle.verify",
    ("certify", "classify_link"): "walks.classify_link",
    ("certify", "delete_vertices"): "bigraph.delete_vertices",
}


def _span_wrapper(tracer: Tracer, fn: Callable, name) -> Callable:
    root_lp = name is _root_simplex

    def wrapper(*args, **kwargs):
        if root_lp:
            _count_lp(tracer, args[0])
        label = name(args[0]) if callable(name) else name
        if label == "ratlp.bnb" and lp_kind(args[0]) == "dual":
            tracer.counts["ratlp.dual_bnb.calls"] += 1
        return tracer.call(label, fn, *args, **kwargs)

    return wrapper


def _node_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """ratlp.simplex_max as called from solve_integral_max: counted, no span
    (the node time is the bnb span's own time)."""

    def wrapper(problem, *args, **kwargs):
        _count_lp(tracer, problem)
        sol = fn(problem, *args, **kwargs)
        tracer.counts["ratlp.bnb.nodes"] += 1
        if sol.status == "infeasible":
            tracer.counts["ratlp.bnb.infeasible_nodes"] += 1
        return sol

    return wrapper


class Installed:
    """Wrappers placed on the modules of one `bimenger` import; `restore()`
    puts the originals back.  `found` lists the "module.attr" boundaries
    that existed."""

    def __init__(self, tracer: Tracer, modules: dict):
        self._saved: list[tuple[object, str, object]] = []
        self.found: set[str] = set()
        for (mod, attr), name in SPAN_BOUNDARIES.items():
            self._patch(modules, mod, attr, lambda fn, n=name: _span_wrapper(tracer, fn, n))
        self._patch(modules, "ratlp", "simplex_max", lambda fn: _node_wrapper(tracer, fn))

    def _patch(self, modules: dict, mod: str, attr: str, make: Callable) -> None:
        module = modules.get(mod)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            return
        self._saved.append((module, attr, original))
        self.found.add(f"{mod}.{attr}")
        setattr(module, attr, make(original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
#
# (metric, unit, source, needs).  source is ("self", span) for self seconds
# per op, ("spans", span) for the pass total of calls, ("count", key) for a
# tracer counter and ("route", checks_key, flagged_value) for the number of
# certificates whose checks carry that value.  needs lists the boundaries
# the metric rests on ("a|b" = either); a metric whose needs are not met is
# missing, never zero.

_SIMPLEX = "certify.simplex_max"
_DUAL = ("certify.simplex_max", "certify.build_dual")
_FALLBACK = "certify.oracle_min_separator|certify.oracle_st|certify.min_xpath_hitting_set"
_VERIFY = "certify.has_xy_link|certify.has_st_link|certify._exists_path"
_MAP_BACK = "certify.map_links_back|certify.map_cut_to_separator"
_SOLVE = "bmcli.solve_menger|bmcli.solve_st|bmcli.solve_xpaths"

PER_LAYER = [
    ("ratlp.simplex_primal_root.self_s", "s", ("self", "ratlp.simplex_primal_root"), (_SIMPLEX,)),
    ("ratlp.simplex_primal_root.calls", "count", ("spans", "ratlp.simplex_primal_root"), (_SIMPLEX,)),
    ("ratlp.simplex_dual_root.self_s", "s", ("self", "ratlp.simplex_dual_root"), _DUAL),
    ("ratlp.simplex_dual_root.calls", "count", ("spans", "ratlp.simplex_dual_root"), _DUAL),
    ("ratlp.bnb.total_s", "s", ("self", "ratlp.bnb"), ("certify.solve_integral_max",)),
    ("ratlp.bnb.calls", "count", ("spans", "ratlp.bnb"), ("certify.solve_integral_max",)),
    ("ratlp.bnb.nodes", "count", ("count", "ratlp.bnb.nodes"), ("ratlp.simplex_max",)),
    ("ratlp.bnb.infeasible_nodes", "count", ("count", "ratlp.bnb.infeasible_nodes"), ("ratlp.simplex_max",)),
    ("ratlp.dual_bnb.calls", "count", ("count", "ratlp.dual_bnb.calls"), ("certify.solve_integral_max", "certify.build_dual")),
    ("ratlp.build_primal.self_s", "s", ("self", "ratlp.build_primal"), ("certify.build_primal",)),
    ("ratlp.build_dual.self_s", "s", ("self", "ratlp.build_dual"), ("certify.build_dual",)),
    ("ratlp.primal.rows", "count", ("count", "ratlp.primal.rows"), (_SIMPLEX,)),
    ("ratlp.primal.cols", "count", ("count", "ratlp.primal.cols"), (_SIMPLEX,)),
    ("ratlp.dual.rows", "count", ("count", "ratlp.dual.rows"), _DUAL),
    ("ratlp.dual.cols", "count", ("count", "ratlp.dual.cols"), _DUAL),
    ("reduce.attach_terminals.self_s", "s", ("self", "reduce.attach_terminals"), ("certify.attach_terminals",)),
    ("reduce.split_and_close.self_s", "s", ("self", "reduce.split_and_close"), ("certify.split_and_close",)),
    ("reduce.double_for_xpaths.self_s", "s", ("self", "reduce.double_for_xpaths"), ("certify.double_for_xpaths",)),
    ("reduce.map_back.self_s", "s", ("self", "reduce.map_back"), (_MAP_BACK,)),
    ("certify.decompose_packing.self_s", "s", ("self", "certify.decompose_packing"), ("certify.decompose_packing",)),
    ("certify.extract_cut.self_s", "s", ("self", "certify.extract_cut"), ("certify.extract_cut",)),
    ("certify.residual.self_s", "s", ("self", "certify.residual"), (_SOLVE,)),
    ("oracle.separator_fallback.self_s", "s", ("self", "oracle.separator_fallback"), (_FALLBACK,)),
    ("oracle.separator_fallback.calls", "count", ("spans", "oracle.separator_fallback"), (_FALLBACK,)),
    ("oracle.verify.self_s", "s", ("self", "oracle.verify"), (_VERIFY,)),
    ("oracle.verify.calls", "count", ("spans", "oracle.verify"), (_VERIFY,)),
    ("walks.classify_link.self_s", "s", ("self", "walks.classify_link"), ("certify.classify_link",)),
    ("walks.classify_link.calls", "count", ("spans", "walks.classify_link"), ("certify.classify_link",)),
    ("bigraph.delete_vertices.self_s", "s", ("self", "bigraph.delete_vertices"), ("certify.delete_vertices",)),
    ("bmcli.parse_instance.self_s", "s", ("self", "bmcli.parse_instance"), ("bmcli.parse_instance",)),
    ("bmcli.certificate_json.self_s", "s", ("self", "bmcli.certificate_json"), ("bmcli.certificate_json",)),
    ("bmcli.residual.self_s", "s", ("self", ROOT), ()),
    ("route.primal_fractional_root", "count", ("route", "primal_integral_raw", False), ()),
    ("route.dual_fractional_root", "count", ("route", "dual_integral_raw", False), ()),
    ("route.lp_gap", "count", ("route", "lp_tight", False), ()),
    ("route.separator_from_oracle", "count", ("route", "separator_from_oracle", True), ()),
    ("route.separator_unverified", "count", ("route", "separator_verified", None), ()),
    ("route.separator_over_value", "count", ("route", "separator_within_value", False), ()),
]


def _needs_met(needs: tuple, found: set) -> bool:
    return all(any(alt in found for alt in group.split("|")) for group in needs)


def layer_metrics(
    spans: list, counts: collections.Counter, found: set, checks: list[dict], ops: int
) -> tuple[dict, list[str]]:
    """({metric: (value, unit)}, [missing metric names]) for one traced pass.

    `checks` holds the `checks` object of every certificate printed in
    the pass; a route metric is missing when no certificate has its key.
    """
    selfs = self_times(spans)
    calls = span_counts(spans)
    out, missing = {}, []
    for name, unit, source, needs in PER_LAYER:
        value: Optional[float] = None
        if _needs_met(needs, found):
            kind, key = source[0], source[1]
            if kind == "self":
                value = selfs.get(key, 0.0) / ops
            elif kind == "spans":
                value = calls.get(key, 0)
            elif kind == "count":
                value = counts.get(key, 0)
            elif any(key in c for c in checks):
                value = sum(1 for c in checks if key in c and c[key] is source[2])
        if value is None:
            missing.append(name)
        else:
            out[name] = (value, unit)
    return out, missing
