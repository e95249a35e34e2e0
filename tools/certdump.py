"""Dump the output of a fixed set of `bmcli` runs, one JSON line per run.

The runs are in-process `bimenger.bmcli.run_cli` calls with `--json`:

- suite200, the acceptance suite's 200 instances (`_trial_params(301, i, 7)`):
  `solve` and `xpaths` on every instance, `solve-st` on each instance
  whose smallest X vertex and smallest Y vertex differ (they become s and
  t), and `oracle` on every instance, whose file carries `terminal s` and
  `terminal t` lines for those s and t, so the s-t oracle runs too;
- the benchmark's `small` and `xpaths` instance sets of seeds 101-103, read
  from `benchmarks/families.py`;
- 30 `solve` runs above the oracle limits of 10 vertices and 16 edges, on
  `GenParams(n, int(1.8 * n), seed, 2, 2)` with n = 11-16 and seeds 0-4;
- 10 `xpaths` runs above those limits, on `GenParams(n, int(1.8 * n),
  seed, 3, 0)` with n = 11-12 and seeds 0-4;
- 37 `solve-st` runs whose dual root is fractional, so that they take
  the integral dual search: the draws `GenParams(n, m, seed, 2, 2)` with
  n = 5-10, m = n-16 and seeds 0-59 on which it is, with s and t the
  smallest X and the smallest Y vertex, listed in `FRACTIONAL_DUAL_ST`;
- 10 `unions` runs, `solve` and `xpaths` on the unions of
  `tools/unions.py` for k = 1-3, disjoint and, from k = 2, chained
  (`UNIONS`, smallest k first).

Each line holds the command (argv without the input path), the instance
name, the exit code, stdout and stderr.  The package and the families are
imported from the checkout this file sits in, so two checkouts can be
compared run by run:

    python3 tools/certdump.py > before.jsonl        # in the first checkout
    python3 tools/certdump.py --compare before.jsonl  # in the second

`--compare` dumps this checkout and prints one line for each run whose
record differs from BEFORE's: the instance, the command and the fields
that differ, among `exit`, `stderr` and the top-level fields of the JSON
on stdout (`value`, `links`, `separator`, `separator_size`, `lp` and
`checks` of a certificate; `max_links`, `links`, `min_separator`,
`separator`, `xpaths` and `st` of an oracle run; `stdout` when it is not
a JSON object).  A field that holds a JSON object in both records is
compared key by key, and each differing key is named under it, as in
`checks.primal_integral_raw`.  A run that only one
dump holds is reported as missing from the other.  It exits 1 when any
run differs, and 0 otherwise.

Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tools")]

from bimenger.bigraph import vertex_sort_key  # noqa: E402
from bimenger.bmcli import (  # noqa: E402
    GenParams,
    _trial_params,
    random_instance,
    run_cli,
    serialize_instance,
)
from families import FAMILIES, SUITE_SEED  # noqa: E402
from unions import union  # noqa: E402

SUITE_SIZE = 200
BENCH_SEEDS = (101, 102, 103)
ABOVE_LIMITS = [(n, seed) for n in range(11, 17) for seed in range(5)]
XPATHS_ABOVE_LIMITS = [(n, seed) for n in range(11, 13) for seed in range(5)]
FRACTIONAL_DUAL_ST = [
    (5, 6, 11), (5, 6, 33), (5, 7, 11), (5, 8, 12), (5, 8, 57), (5, 9, 12),
    (5, 12, 47), (6, 9, 37), (6, 9, 56), (6, 11, 56), (6, 14, 15), (6, 15, 24),
    (7, 8, 6), (7, 8, 45), (7, 13, 8), (7, 15, 36), (7, 15, 39), (8, 9, 52),
    (8, 10, 21), (8, 11, 26), (8, 11, 52), (8, 13, 47), (8, 14, 0), (8, 14, 26),
    (8, 14, 58), (8, 15, 26), (8, 15, 39), (8, 16, 53), (9, 11, 16), (9, 11, 47),
    (9, 13, 49), (9, 14, 58), (9, 15, 28), (9, 15, 58), (10, 12, 3), (10, 13, 12),
    (10, 13, 15),
]
UNIONS = [(command, k, chained) for k in (1, 2, 3) for command in ("solve", "xpaths")
          for chained in (False, True)[: 1 + (k > 1)]]


def _terminals(inst) -> Optional[tuple[str, str]]:
    """(s, t): the smallest X and the smallest Y vertex, when both exist
    and differ."""
    if inst.X and inst.Y:
        s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
        if s != t:
            return s, t
    return None


def runs(limit: Optional[int] = None) -> Iterator[tuple[str, list[str], str]]:
    """(instance name, argv without the input, instance text) of every
    run; ``limit`` keeps the first instances of each set."""
    suite = [random_instance(_trial_params(SUITE_SEED, i, 7)) for i in range(SUITE_SIZE)[:limit]]
    for command in ("solve", "xpaths"):
        for i, inst in enumerate(suite):
            yield f"suite200/{i:03d}", [command], serialize_instance(inst)
    for i, inst in enumerate(suite):
        st = _terminals(inst)
        if st:
            yield f"suite200/{i:03d}", ["solve-st", "--s", st[0], "--t", st[1]], serialize_instance(inst)
    for i, inst in enumerate(suite):
        s, t = _terminals(inst) or (None, None)
        yield f"suite200/{i:03d}", ["oracle"], serialize_instance(dataclasses.replace(inst, s=s, t=t))
    for family in (FAMILIES["small"], FAMILIES["xpaths"]):
        for seed in BENCH_SEEDS:
            for i, text in enumerate(family.instances(seed)[:limit]):
                yield f"{family.name}/{seed}/{i:04d}", [family.command], text
    for n, seed in ABOVE_LIMITS[:limit]:
        inst = random_instance(GenParams(n, int(1.8 * n), seed, 2, 2))
        yield f"above-limits/{n}-{seed}", ["solve"], serialize_instance(inst)
    for n, seed in XPATHS_ABOVE_LIMITS[:limit]:
        inst = random_instance(GenParams(n, int(1.8 * n), seed, 3, 0))
        yield f"above-limits/{n}-{seed}", ["xpaths"], serialize_instance(inst)
    for n, m, seed in FRACTIONAL_DUAL_ST[:limit]:
        inst = random_instance(GenParams(n, m, seed, 2, 2))
        s, t = _terminals(inst)
        command = ["solve-st", "--s", s, "--t", t]
        yield f"fractional-dual/{n}-{m}-{seed}", command, serialize_instance(inst)
    for command, k, chained in UNIONS[:limit]:
        name = f"unions/{k}-{'chained' if chained else 'disjoint'}"
        yield name, [command], serialize_instance(union(command, k, chained))


def dump(run_list: Iterable[tuple[str, list[str], str]], out: TextIO) -> None:
    """Run each of ``run_list`` and write its JSON line to ``out``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.bg"
        for name, command, text in run_list:
            path.write_text(text, encoding="utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            cli_argv = [command[0], "--input", str(path), *command[1:], "--json"]
            code = run_cli(cli_argv, stdout, stderr)
            record = {"command": command, "instance": name, "exit": code,
                      "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
            out.write(json.dumps(record) + "\n")


def _fields(record: dict) -> dict:
    """`exit`, `stderr` and the top-level fields of the JSON on stdout."""
    try:
        doc = json.loads(record["stdout"])
    except ValueError:
        doc = None
    fields = doc if isinstance(doc, dict) else {"stdout": record["stdout"]}
    return {"exit": record["exit"], "stderr": record["stderr"], **fields}


def _differing(a: dict, b: dict, prefix: str = "") -> list[str]:
    """The names of the fields of ``a`` and ``b`` that differ, with the
    keys of a field that is an object on both sides named one by one."""
    names = []
    for name in {**a, **b}:
        x, y = a.get(name), b.get(name)
        if isinstance(x, dict) and isinstance(y, dict):
            names.extend(_differing(x, y, f"{prefix}{name}."))
        elif x != y:
            names.append(prefix + name)
    return names


def compare(before: Iterable[str], after: Iterable[str], out: TextIO) -> int:
    """Write a line to ``out`` for each run whose record differs between
    the dump lines ``before`` and ``after``; return how many differ."""
    old, new = ({(r["instance"], " ".join(r["command"])): r for r in map(json.loads, lines)}
                for lines in (before, after))
    differing = 0
    for key in {**old, **new}:
        if key not in old or key not in new:
            diff = ["missing from " + ("after" if key in old else "before")]
        else:
            diff = _differing(_fields(old[key]), _fields(new[key]))
        if diff:
            differing += 1
            out.write(f"{key[0]} {key[1]}: {', '.join(diff)}\n")
    return differing


def main(argv: Optional[list[str]] = None, run_list=None, out: TextIO = sys.stdout) -> int:
    """Dump ``run_list`` (every run by default) to ``out``, or with
    ``--compare BEFORE`` report the runs that differ from BEFORE's dump."""
    parser = argparse.ArgumentParser(description="Dump or compare the output of fixed bmcli runs.")
    parser.add_argument("--compare", metavar="BEFORE", help="a dump to compare this checkout with")
    args = parser.parse_args(argv)
    run_list = runs() if run_list is None else run_list
    if args.compare is None:
        dump(run_list, out)
        return 0
    after = io.StringIO()
    dump(run_list, after)
    with open(args.compare, encoding="utf-8") as before:
        return 1 if compare(before, after.getvalue().splitlines(), out) else 0


if __name__ == "__main__":
    sys.exit(main())
