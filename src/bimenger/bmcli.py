"""Command line front end: instance files, JSON certificates, generation,
and the self-check suite.

Instance grammar (line oriented, '#' starts a comment):

    vertex <id>
    edge <u> <v> <sign_u><sign_v> [<label>]
    set X <id> ...
    set Y <id> ...
    terminal s <id>
    terminal t <id>

Ids are whitespace-free tokens; repeated edge lines build parallel
edges; optional edge labels are accepted and ignored.  Rationals are
printed as exact "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import random
import sys
from typing import Iterable, Optional, Sequence, TextIO

from .bigraph import (
    BidirectedGraph,
    GraphError,
    Sign,
    UnknownVertex,
    VerificationFailure,
    build_graph,
    delete_vertices,
    vertex_sort_key,
)
from .certify import MengerCertificate, failed_checks, solve_menger, solve_st, solve_xpaths
from .oracle import (
    DEFAULT_MAX_VERTICES,
    SizeBoundExceeded,
    has_xy_link,
    oracle_max_links,
    oracle_min_separator,
    oracle_st,
    oracle_xpaths,
)
from .ratlp import BudgetExceeded, LpFailure, ratio_str
from .reduce import DirectTerminalEdge, EqualTerminals
from .walks import Link

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_SEPARATOR_INFINITE = 3
EXIT_BUDGET = 4


class InstanceSyntaxError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidParams(Exception):
    """Generator parameters are unsatisfiable."""


@dataclasses.dataclass(frozen=True)
class InstanceFile:
    graph: BidirectedGraph
    X: frozenset
    Y: frozenset
    s: Optional[str] = None
    t: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class GenParams:
    n: int
    m: int
    seed: int
    x_size: int = 1
    y_size: int = 1
    overlap_allowed: bool = False


def parse_instance(text: str) -> InstanceFile:
    vertices: list[str] = []
    edge_specs = []
    X: set[str] = set()
    Y: set[str] = set()
    terminals: dict[str, str] = {}
    declared: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "vertex":
            if len(parts) != 2:
                raise InstanceSyntaxError(line_no, "vertex takes exactly one id")
            vertices.append(parts[1])
            declared.add(parts[1])
        elif kind == "edge":
            if len(parts) not in (4, 5):
                raise InstanceSyntaxError(line_no, "edge takes: u v signs [label]")
            u, v, signs = parts[1], parts[2], parts[3]
            if len(signs) != 2 or any(c not in "+-" for c in signs):
                raise InstanceSyntaxError(line_no, f"bad sign pair {signs!r}")
            if u not in declared or v not in declared:
                raise UnknownVertex(f"line {line_no}: edge endpoint not declared")
            edge_specs.append((u, v, Sign.from_char(signs[0]), Sign.from_char(signs[1])))
        elif kind == "set":
            if len(parts) < 2 or parts[1] not in ("X", "Y"):
                raise InstanceSyntaxError(line_no, "set takes X or Y then ids")
            ids = parts[2:]
            missing = [w for w in ids if w not in declared]
            if missing:
                raise UnknownVertex(f"line {line_no}: set references {missing}")
            (X if parts[1] == "X" else Y).update(ids)
        elif kind == "terminal":
            if len(parts) != 3 or parts[1] not in ("s", "t"):
                raise InstanceSyntaxError(line_no, "terminal takes s or t then an id")
            if parts[2] not in declared:
                raise UnknownVertex(f"line {line_no}: terminal not declared")
            if parts[1] in terminals:
                raise InstanceSyntaxError(line_no, f"terminal {parts[1]} given twice")
            terminals[parts[1]] = parts[2]
        else:
            raise InstanceSyntaxError(line_no, f"unknown directive {kind!r}")

    graph = build_graph(vertices, edge_specs)  # raises LoopRejected / DuplicateVertexId
    return InstanceFile(graph, frozenset(X), frozenset(Y), terminals.get("s"), terminals.get("t"))


def serialize_instance(inst: InstanceFile) -> str:
    lines = [f"vertex {v}" for v in inst.graph.vertices]
    for e in inst.graph.edges:
        lines.append(f"edge {e.u} {e.v} {e.sign_u}{e.sign_v}")
    if inst.X:
        lines.append("set X " + " ".join(sorted(inst.X, key=vertex_sort_key)))
    if inst.Y:
        lines.append("set Y " + " ".join(sorted(inst.Y, key=vertex_sort_key)))
    if inst.s is not None:
        lines.append(f"terminal s {inst.s}")
    if inst.t is not None:
        lines.append(f"terminal t {inst.t}")
    return "\n".join(lines) + "\n"


def derive_seed(seed: int, index: int) -> int:
    """Per-trial seed, order independent across the batch."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _sample_distinct(rng: random.Random, pool: Sequence[str], k: int) -> list[str]:
    pool = list(pool)
    out = []
    for _ in range(k):
        j = rng.randrange(len(pool))
        out.append(pool.pop(j))
    return out


def random_instance(p: GenParams) -> InstanceFile:
    if p.n < 0 or p.m < 0 or p.x_size < 0 or p.y_size < 0:
        raise InvalidParams("sizes must be nonnegative")
    if p.m > 0 and p.n < 2:
        raise InvalidParams("edges need at least two vertices")
    if p.x_size > p.n or p.y_size > p.n:
        raise InvalidParams("terminal sets larger than the vertex set")
    if not p.overlap_allowed and p.x_size + p.y_size > p.n:
        raise InvalidParams("disjoint terminal sets do not fit")
    rng = random.Random(p.seed)
    vertices = [f"v{i}" for i in range(p.n)]
    edge_specs = []
    for _ in range(p.m):
        u = rng.randrange(p.n)
        v = rng.randrange(p.n)
        while v == u:  # loops rejected and redrawn
            v = rng.randrange(p.n)
        su = Sign.PLUS if rng.randrange(2) else Sign.MINUS
        sv = Sign.PLUS if rng.randrange(2) else Sign.MINUS
        edge_specs.append((vertices[u], vertices[v], su, sv))
    X = _sample_distinct(rng, vertices, p.x_size)
    pool = vertices if p.overlap_allowed else [v for v in vertices if v not in X]
    Y = _sample_distinct(rng, pool, p.y_size)
    graph = build_graph(vertices, edge_specs)
    return InstanceFile(graph, frozenset(X), frozenset(Y))


# ---------------------------------------------------------------------------
# self-check suite


def _set_size(rng: random.Random) -> int:
    # mostly 1..3; empty sets stay in the mix to cover the short circuit
    r = rng.randrange(7)
    return 0 if r == 0 else 1 + (r - 1) % 3


def _trial_params(seed: int, index: int, max_vertices: int) -> GenParams:
    rng = random.Random(derive_seed(seed, index))
    n = 2 + rng.randrange(max(1, max_vertices - 1))
    m = rng.randrange(15)
    x_size = _set_size(rng)
    y_size = _set_size(rng)
    overlap = bool(rng.randrange(2))
    x_size = min(x_size, n)
    if overlap:
        y_size = min(y_size, n)
    else:
        y_size = min(y_size, n - x_size)
    return GenParams(n, m, derive_seed(seed, index ^ 0x5EED), x_size, y_size, overlap)


def check_instance(inst: InstanceFile) -> list[str]:
    """Oracle-equivalence bundle for one instance; returns failure strings."""
    g, X, Y = inst.graph, inst.X, inst.Y
    failures = []
    pk = oracle_max_links(g, X, Y)
    sep = oracle_min_separator(g, X, Y)
    if not pk.value >= sep.size:
        failures.append(f"min-max violated: packing {pk.value} < separator {sep.size}")
    cert = solve_menger(g, X, Y)
    if cert.value != pk.value:
        failures.append(f"certificate value {cert.value} != oracle {pk.value}")
    failures.extend(f"check {key} failed" for key in failed_checks(cert))
    if has_xy_link(delete_vertices(g, cert.separator), X, Y):
        failures.append(f"separator {sorted(map(str, cert.separator))} leaves an X-Y link")
    return failures


def run_selfcheck(trials: int, seed: int, max_vertices: int, out: TextIO) -> bool:
    """Run the seeded oracle-equivalence property suite; fully reproducible.

    Every trial runs the oracles, so ``max_vertices`` may not exceed their
    vertex limit; trial graphs have fewer than 15 edges, within the edge
    limit."""
    if trials < 0:
        raise InvalidParams("the trial count must be nonnegative")
    if max_vertices < 2:
        raise InvalidParams("trial graphs have at least two vertices")
    if max_vertices > DEFAULT_MAX_VERTICES:
        raise InvalidParams(f"trial graphs have at most {DEFAULT_MAX_VERTICES} vertices, the oracle limit")
    bad = 0
    for i in range(trials):
        inst = random_instance(_trial_params(seed, i, max_vertices))
        failures = check_instance(inst)
        if failures:
            bad += 1
            for msg in failures:
                out.write(f"trial {i}: FAIL {msg}\n")
    out.write(
        f"selfcheck: {trials} trials, "
        + ("all passed\n" if bad == 0 else f"{bad} failing\n")
    )
    return bad == 0


# ---------------------------------------------------------------------------
# output formatting


def _link_json(link: Link) -> dict:
    return {
        "type": link.kind,
        "vertices": [str(v) for w in link.walks for v in w.vertices],
        "edges": [eid for w in link.walks for eid in w.edges],
    }


def certificate_json(cert: MengerCertificate) -> dict:
    separator = sorted(map(str, cert.separator))
    return {
        "value": cert.value,
        "links": [_link_json(l) for l in cert.links],
        "separator": separator,
        "separator_size": len(separator),
        "lp": {"primal": ratio_str(cert.primal_value), "dual": ratio_str(cert.dual_value)},
        "checks": dict(sorted(cert.checks.items())),
    }


def _print_certificate(cert: MengerCertificate, as_json: bool, out: TextIO) -> None:
    if as_json:
        json.dump(certificate_json(cert), out, indent=2)
        out.write("\n")
        return
    out.write(f"value {cert.value}\n")
    for link in cert.links:
        walks = "; ".join(
            "-".join(str(v) for v in w.vertices) for w in link.walks
        )
        out.write(f"link {link.kind} weight {link.weight}: {walks}\n")
    out.write(
        "separator {%s} size %d\n"
        % (", ".join(sorted(map(str, cert.separator))), len(cert.separator))
    )
    out.write(f"lp primal {ratio_str(cert.primal_value)} dual {ratio_str(cert.dual_value)}\n")
    for key, val in sorted(cert.checks.items()):
        out.write(f"check {key}: {val}\n")


# ---------------------------------------------------------------------------
# subcommands


def _report(cert: MengerCertificate, as_json: bool, out: TextIO) -> int:
    _print_certificate(cert, as_json, out)
    return EXIT_VERIFY if failed_checks(cert) else EXIT_OK


def _load(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_instance(text)


def _cmd_solve(args, out: TextIO, err: TextIO) -> int:
    inst = _load(args.input)
    cert = solve_menger(inst.graph, inst.X, inst.Y)
    if args.oracle_verify:
        pk = oracle_max_links(inst.graph, inst.X, inst.Y)
        if pk.value != cert.value:
            err.write(f"oracle disagrees: {pk.value} != {cert.value}\n")
            return EXIT_VERIFY
    return _report(cert, args.json, out)


def _cmd_solve_st(args, out: TextIO, err: TextIO) -> int:
    inst = _load(args.input)
    s = args.s if args.s is not None else inst.s
    t = args.t if args.t is not None else inst.t
    if s is None or t is None:
        err.write("solve-st needs terminals (flags --s/--t or terminal lines)\n")
        return EXIT_INPUT
    return _report(solve_st(inst.graph, s, t), args.json, out)


def _cmd_xpaths(args, out: TextIO, err: TextIO) -> int:
    inst = _load(args.input)
    return _report(solve_xpaths(inst.graph, inst.X), args.json, out)


def _cmd_oracle(args, out: TextIO, err: TextIO) -> int:
    inst = _load(args.input)
    g = inst.graph
    pk = oracle_max_links(g, inst.X, inst.Y)
    sep = oracle_min_separator(g, inst.X, inst.Y)
    payload = {
        "max_links": pk.value,
        "links": [_link_json(l) for l in pk.links],
        "min_separator": len(sep.vertices),
        "separator": sorted(map(str, sep.vertices)),
    }
    xp = oracle_xpaths(g, inst.X)
    payload["xpaths"] = {"max_packing": xp[0], "min_hitting": xp[1]}
    exit_code = EXIT_OK
    if inst.s is not None and inst.t is not None:
        st_pack, st_sep = oracle_st(g, inst.s, inst.t)
        payload["st"] = {
            "max_links": st_pack.value,
            "min_separator": "infinite" if st_sep.is_infinite else len(st_sep.vertices),
            "separator": sorted(map(str, st_sep.vertices)),
        }
        if st_sep.is_infinite:
            exit_code = EXIT_SEPARATOR_INFINITE
    if args.json:
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        out.write(f"max links {payload['max_links']}\n")
        out.write(
            "min separator %d {%s}\n"
            % (payload["min_separator"], ", ".join(payload["separator"]))
        )
        out.write(
            f"xpaths packing {xp[0]} hitting {xp[1]}\n"
        )
        if "st" in payload:
            out.write(
                f"st packing {payload['st']['max_links']} separator {payload['st']['min_separator']}\n"
            )
    return exit_code


def _cmd_gen(args, out: TextIO, err: TextIO) -> int:
    params = GenParams(
        n=args.vertices,
        m=args.edges,
        seed=args.seed,
        x_size=args.x,
        y_size=args.y,
        overlap_allowed=args.overlap,
    )
    inst = random_instance(params)
    out.write(serialize_instance(inst))
    return EXIT_OK


def _cmd_selfcheck(args, out: TextIO, err: TextIO) -> int:
    ok = run_selfcheck(args.trials, args.seed, args.max_vertices, out)
    return EXIT_OK if ok else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bmcli", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the set version and print a certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle-verify", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("solve-st", help="solve the two-terminal version")
    p.add_argument("--input", required=True)
    p.add_argument("--s", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve_st)

    p = sub.add_parser("xpaths", help="solve the X-path packing version")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_xpaths)

    p = sub.add_parser("oracle", help="brute-force values and witnesses")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="emit a seeded random instance file")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x", type=int, default=1)
    p.add_argument("--y", type=int, default=1)
    p.add_argument("--overlap", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("selfcheck", help="run the acceptance property suite")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=7)
    p.set_defaults(func=_cmd_selfcheck)

    return ap


# Built once: parsing never changes the parser.  Each subcommand's
# ``func`` looks its solvers up as module globals when it runs, so a
# wrapper placed on ``solve_menger`` or ``parse_instance`` still applies.
_PARSER = _build_parser()


def run_cli(argv: Sequence[str], out: TextIO = None, err: TextIO = None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # argparse writes usage errors to sys.stderr and --help to sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args, out, err)
    except (InstanceSyntaxError, GraphError, InvalidParams, OSError, SizeBoundExceeded,
            EqualTerminals) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT
    except DirectTerminalEdge as exc:
        err.write(f"error: {exc} (separator is infinite)\n")
        return EXIT_SEPARATOR_INFINITE
    except (LpFailure, VerificationFailure) as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_VERIFY


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
