"""Run alternating pairs of benchmark runs on two checkouts and compare them.

    python3 tools/benchpairs.py BASE CHANGE --workload xpaths --seed 101 \\
        --pairs 10 --seconds 50

BASE and CHANGE are source checkouts, each with its own `benchmarks/run.py`.
One run is `python3 benchmarks/run.py --workload W --seed N --seconds S
--trace 0` in a checkout, whose last line of standard output is the JSON
result.  Pair i runs BASE first when i is even and CHANGE first when it is
odd.  Each pair's values go to standard error as they come in.

For each end-to-end metric that BASE's `BENCHMARK.json` lists, the summary
gives each side's median and quartiles, the pairs the change won (ties
count for neither), the median gain (positive when the change is better)
and BASE's interquartile range.  `claim` is yes when the change won at
least nine tenths of the pairs and its median gain exceeds that range;
`bound` is no when the change's median is worse than BASE's by more than
the metric's bound.  A line gives each side's median attempted ops per
run, against which a move in `peak_rss_mb` can be read, since the harness
keeps each op's output until it ends.  A last line gives each side's
failed share, its failed ops over its attempted ops in all runs, and flags
a larger share on the change.

Standard library only.  Exits 1 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple


class MetricSummary(NamedTuple):
    name: str
    base: tuple  # (first quartile, median, third quartile)
    change: tuple
    won: int
    pairs: int
    gain: float  # change median minus base median, positive when better
    base_iqr: float
    claim: bool  # won >= 9/10 of the pairs and gain > base_iqr
    within_bound: bool


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics) -> list[MetricSummary]:
    """Compare the runs of ``pairs``, a list of (base, change) dicts of
    metric values, on each of ``metrics``, a list of (name, "higher" or
    "lower", relative bound)."""
    out = []
    for name, better, bound in metrics:
        sign = 1 if better == "higher" else -1
        base = [b[name] for b, _ in pairs]
        change = [c[name] for _, c in pairs]
        won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        qb, qc = quartiles(base), quartiles(change)
        gain = sign * (qc[1] - qb[1])
        iqr = qb[2] - qb[0]
        out.append(MetricSummary(
            name, qb, qc, won, len(pairs), gain, iqr,
            claim=10 * won >= 9 * len(pairs) and gain > iqr,
            within_bound=-gain <= bound * abs(qb[1]),
        ))
    return out


def format_summary(rows: list[MetricSummary]) -> str:
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"

    lines = [f"{'metric':16s} {'base median [q1, q3]':30s} {'change median [q1, q3]':30s}"
             f" {'won':>7s} {'gain':>10s} {'base IQR':>10s} claim bound"]
    for r in rows:
        lines.append(f"{r.name:16s} {q(r.base):30s} {q(r.change):30s} {r.won:>3d}/{r.pairs:<3d}"
                     f" {r.gain:>10.4g} {r.base_iqr:>10.4g} {'yes' if r.claim else 'no':5s}"
                     f" {'ok' if r.within_bound else 'no'}")
    return "\n".join(lines)


def median_attempted(pairs) -> tuple[float, float]:
    """(base, change): each side's median attempted ops per run."""
    return (statistics.median(b["attempted"] for b, _ in pairs),
            statistics.median(c["attempted"] for _, c in pairs))


def format_attempted(pairs) -> str:
    base, change = median_attempted(pairs)
    return f"{'ops per run':16s} base {base:g}, change {change:g} (medians)"


def failed_shares(pairs) -> tuple[float, float]:
    """(base, change): each side's failed ops over its attempted ops,
    summed over the runs of ``pairs``."""
    def share(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    return share([b for b, _ in pairs]), share([c for _, c in pairs])


def format_failed(pairs) -> str:
    base, change = failed_shares(pairs)
    verdict = "no (larger on the change)" if change > base else "ok"
    return f"{'failed share':16s} base {base:.4g}, change {change:.4g}: {verdict}"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values, attempted ops and failed ops of one untraced
    benchmark run in ``checkout``."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {**values, "attempted": result["attempted"], "failed": result["failed"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50)
    args = ap.parse_args(argv)
    spec = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]

    pairs = []
    try:
        for i in range(args.pairs):
            order = (args.base, args.change) if i % 2 == 0 else (args.change, args.base)
            first, second = (run_once(side, args.workload, args.seed, args.seconds)
                             for side in order)
            pairs.append((first, second) if i % 2 == 0 else (second, first))
            print(json.dumps({"pair": i, "base": pairs[-1][0], "change": pairs[-1][1]}),
                  file=sys.stderr, flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}, {len(pairs)} pairs of {args.seconds:g} s runs")
    print(format_summary(summarize(pairs, metrics)))
    print(format_attempted(pairs))
    print(format_failed(pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
