"""k copies of one small instance, disjoint or chained, with known answers.

Each union is built from one copy, drawn by `bmcli`'s generator or
taken from the paper's Figure 1:

- `solve`: `GenParams(6, 8, 0, 2, 2)`, packing value 1 and minimum
  separator 1, whose LP relaxation reaches 2;
- `xpaths`: `GenParams(6, 10, 0, 3, 0)`, X-path packing 1 and minimum
  X-path hitting set 2;
- `fig1a` and `fig1b`: the two triangle pairs `fixtures/fig1a.bg` and
  `fixtures/fig1b.bg`, for `solve`, packing value 2 and minimum
  separator 2 and 1.

Copy i renames vertex v to `c<i>.v` and keeps every edge, sign and
terminal-set membership.  No link crosses copies of a disjoint union, so
its packing value and its minimum separator are k times the copy's, at
any k and with no search.  A chained union adds one edge between
consecutive copies, from the last vertex of copy i to the first of copy
i + 1 with signs `+-`; it has no such ground truth, but it breaks the
component structure.

    python3 tools/unions.py solve 4             # the disjoint union, k = 4
    python3 tools/unions.py xpaths 3 --chained
    python3 tools/unions.py fig1b 2

writes the instance file to standard output; a disjoint union starts with
a comment line that gives its expected packing value and minimum
separator.

Standard library only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bimenger.bigraph import MINUS, PLUS, build_graph  # noqa: E402
from bimenger.bmcli import (  # noqa: E402
    GenParams,
    InstanceFile,
    parse_instance,
    random_instance,
    serialize_instance,
)

# per copy: how to build it, its packing value and its minimum separator
COPIES = {
    "solve": (lambda: random_instance(GenParams(6, 8, 0, 2, 2)), 1, 1),
    "xpaths": (lambda: random_instance(GenParams(6, 10, 0, 3, 0)), 1, 2),
    "fig1a": (lambda: parse_instance((ROOT / "fixtures" / "fig1a.bg").read_text()), 2, 2),
    "fig1b": (lambda: parse_instance((ROOT / "fixtures" / "fig1b.bg").read_text()), 2, 1),
}


def union(copy_name: str, k: int, chained: bool = False) -> InstanceFile:
    """k copies of the copy ``copy_name``, disjoint or chained."""
    copy = COPIES[copy_name][0]()
    g = copy.graph

    def name(i, v):
        return f"c{i}.{v}"

    vertices = [name(i, v) for i in range(k) for v in g.vertices]
    edges = [(name(i, e.u), name(i, e.v), e.sign_u, e.sign_v) for i in range(k) for e in g.edges]
    if chained:
        edges += [(name(i, g.vertices[-1]), name(i + 1, g.vertices[0]), PLUS, MINUS)
                  for i in range(k - 1)]
    return InstanceFile(
        build_graph(vertices, edges),
        frozenset(name(i, v) for i in range(k) for v in copy.X),
        frozenset(name(i, v) for i in range(k) for v in copy.Y),
    )


def expected(copy_name: str, k: int) -> tuple[int, int]:
    """(packing value, minimum separator) of the disjoint union of k copies."""
    _, value, separator = COPIES[copy_name]
    return k * value, k * separator


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Write a union of k copies of a small instance.")
    parser.add_argument("copy", choices=sorted(COPIES))
    parser.add_argument("k", type=int)
    parser.add_argument("--chained", action="store_true", help="join consecutive copies by one edge")
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("k must be positive")
    if not args.chained:
        value, separator = expected(args.copy, args.k)
        print(f"# expected packing value {value}, minimum separator {separator}")
    sys.stdout.write(serialize_instance(union(args.copy, args.k, args.chained)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
