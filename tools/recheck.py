"""Re-check certificates of `tools/certdump.py` runs against the oracle.

    python3 tools/certdump.py --compare before.jsonl > differing.txt
    python3 tools/recheck.py differing.txt

solves each run that a `--compare` report names again, in process, and
checks its certificate with tests that use no LP: every link classifies
as its kind in the input graph, the links are disjoint (but for s and t
of `solve-st`), their weights add up to the value (their number, for
`xpaths`), and no link of the input survives the deletion of the
separator.  Within the oracle limits the value must also equal the
oracle's optimum.  Whether the separator is within the value (twice the
value for `xpaths`) is tallied but not required, since exit 2 reports a
separator above it.

Prints one line per run that fails a check, then a tally per command
and bound, and exits 1 when any run fails.

Standard library only.
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path
from typing import Iterable, Optional, TextIO

sys.path.insert(0, str(Path(__file__).resolve().parent))

import certdump  # noqa: E402  (puts the checkout's package on the path)
from bimenger import certify, oracle  # noqa: E402
from bimenger.bigraph import delete_vertices  # noqa: E402
from bimenger.bmcli import parse_instance  # noqa: E402
from bimenger.walks import classify_link  # noqa: E402


def recheck(command: list[str], text: str, cert=None) -> tuple[list[str], bool]:
    """(the failed checks, whether the separator is within its bound) of
    the certificate of one run; ``cert`` replaces the solver's."""
    inst = parse_instance(text)
    g = inst.graph
    if command[0] == "solve-st":
        s, t = command[command.index("--s") + 1], command[command.index("--t") + 1]
        cert = cert or certify.solve_st(g, s, t)
        ends, terminals, limit = ({s}, {t}), frozenset({s, t}), cert.value
        has_link = lambda h: oracle.has_st_link(h, s, t)  # noqa: E731
        optimum = lambda: oracle.oracle_st(g, s, t)[0].value  # noqa: E731
    elif command[0] == "solve":
        cert = cert or certify.solve_menger(g, inst.X, inst.Y)
        ends, terminals, limit = (inst.X, inst.Y), frozenset(), cert.value
        has_link = lambda h: oracle.has_xy_link(h, inst.X, inst.Y)  # noqa: E731
        optimum = lambda: oracle.oracle_max_links(g, inst.X, inst.Y).value  # noqa: E731
    else:
        cert = cert or certify.solve_xpaths(g, inst.X)
        ends, terminals, limit = (inst.X, inst.X), frozenset(), 2 * cert.value
        has_link = lambda h: oracle._exists_path(h, inst.X, inst.X, nontrivial_only=True)  # noqa: E731
        optimum = lambda: oracle.oracle_xpaths(g, inst.X)[0]  # noqa: E731
    weight = len if command[0] == "xpaths" else lambda links: sum(lk.weight for lk in links)
    failed = [name for name, ok in (
        ("links_classified", all(classify_link(g, lk, *ends).kind == lk.kind for lk in cert.links)),
        ("links_disjoint", certify._pairwise_disjoint(cert.links, terminals)),
        ("value_is_the_link_weight", weight(cert.links) == cert.value),
        ("separator_separates", not has_link(delete_vertices(g, cert.separator))),
        ("value_is_the_oracle_optimum", not oracle.within_limits(g) or optimum() == cert.value),
    ) if not ok]
    return failed, len(cert.separator) <= limit


def report_keys(lines: Iterable[str]) -> set[tuple[str, str]]:
    """(instance, command) of each run a `--compare` report names."""
    return {tuple(line.split(": ")[0].split(" ", 1)) for line in lines if line.strip()}


def main(argv: Optional[list[str]] = None, out: TextIO = sys.stdout) -> int:
    """Re-check the runs that the report names; 1 when any fails."""
    parser = argparse.ArgumentParser(description="Re-check the certificates of certdump runs.")
    parser.add_argument("report", help="the output of tools/certdump.py --compare")
    args = parser.parse_args(argv)
    with open(args.report, encoding="utf-8") as report:
        keys = report_keys(report)
    tally, failures = collections.Counter(), 0
    for name, command, text in certdump.runs():
        if (name, " ".join(command)) not in keys:
            continue
        failed, within = recheck(command, text)
        if failed:
            failures += 1
            out.write(f"{name} {' '.join(command)}: {', '.join(failed)}\n")
        tally[(command[0], within)] += 1
    for (command, within), count in sorted(tally.items()):
        out.write(f"{command} separator within bound {within}: {count} runs\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
