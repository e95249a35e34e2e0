"""Dump the output of a fixed set of `bmcli` runs, one JSON line per run.

The runs are in-process `bimenger.bmcli.run_cli` calls with `--json`:

- suite200, the acceptance suite's 200 instances (`_trial_params(301, i, 7)`):
  `solve` and `xpaths` on every instance, and `solve-st` on each instance
  whose smallest X vertex and smallest Y vertex differ (they become s and t);
- the benchmark's `small` and `xpaths` instance sets of seeds 101-103, read
  from `benchmarks/families.py`;
- 30 `solve` runs above the oracle limits of 10 vertices and 16 edges, on
  `GenParams(n, int(1.8 * n), seed, 2, 2)` with n = 11-16 and seeds 0-4;
- 10 `xpaths` runs above those limits, on `GenParams(n, int(1.8 * n),
  seed, 3, 0)` with n = 11-12 and seeds 0-4.

Each line holds the command (argv without the input path), the instance
name, the exit code, stdout and stderr.  The package and the families are
imported from the checkout this file sits in, so two checkouts can be
compared line by line:

    python3 tools/certdump.py > after.jsonl
    diff before.jsonl after.jsonl

Standard library only.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from bimenger.bigraph import vertex_sort_key  # noqa: E402
from bimenger.bmcli import (  # noqa: E402
    GenParams,
    _trial_params,
    random_instance,
    run_cli,
    serialize_instance,
)
from families import FAMILIES, SUITE_SEED  # noqa: E402

SUITE_SIZE = 200
BENCH_SEEDS = (101, 102, 103)
ABOVE_LIMITS = [(n, seed) for n in range(11, 17) for seed in range(5)]
XPATHS_ABOVE_LIMITS = [(n, seed) for n in range(11, 13) for seed in range(5)]


def runs(limit: Optional[int] = None) -> Iterator[tuple[str, list[str], str]]:
    """(instance name, argv without the input, instance text) of every
    run; ``limit`` keeps the first instances of each set."""
    suite = [random_instance(_trial_params(SUITE_SEED, i, 7)) for i in range(SUITE_SIZE)[:limit]]
    for command in ("solve", "xpaths"):
        for i, inst in enumerate(suite):
            yield f"suite200/{i:03d}", [command], serialize_instance(inst)
    for i, inst in enumerate(suite):
        if inst.X and inst.Y:
            s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
            if s != t:
                command = ["solve-st", "--s", s, "--t", t]
                yield f"suite200/{i:03d}", command, serialize_instance(inst)
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


if __name__ == "__main__":
    dump(runs(), sys.stdout)
