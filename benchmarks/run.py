"""bimenger benchmark: certificates per second and per-layer self time.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload small|xpaths --seed N \\
        --seconds S --trace 0|1

One op is one in-process `bimenger.bmcli.run_cli` call (`solve --json`
or `xpaths --json`) on one instance file written during set-up.  Every
printed `value` is checked against the brute-force oracle.  With
`--trace 0` the run times ops for S seconds and reports the end-to-end
metrics, scaled to a reference machine speed (see KERNEL_PERIOD_S); with
`--trace 1` it runs each op of a fixed prefix of the instances once
untraced and twice traced and reports the per-layer metrics.  The last
line of standard output is the JSON result; the lines before it give
each metric with its unit and the run context.

Single process, single thread.  Exits 1 if any value disagrees with the
oracle or a traced count differs between the two traced runs, 2 if the
program cannot be imported from `src/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from families import FAMILIES, Family, reference_value  # noqa: E402
from spans import ROOT, Installed, Tracer, layer_metrics, self_times  # noqa: E402

CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
SETUP_REPEATS = 5
SETUP_KERNEL_PROBES = 3  # kernel runs before and after each set-up
MIN_TIMED_OPS = 20
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# With hundreds of ops (small) the 10th-slowest op depends on which slow
# instances a seed draws and on how many ops the pass fits; the 90th
# percentile rests on dozens of samples and does not move with the op count.
TAIL_PERCENTILE = 90.0
END_TO_END = ("certs_per_s", "cpu_s_per_cert", "latency_p50_s", "latency_tail_s",
              "setup_s", "peak_rss_mb")
# The speed of a shared machine drifts by a quarter and more within minutes.
# The timed pass times a fixed kernel every KERNEL_PERIOD_S, each set-up is
# bracketed by kernel runs, and the end-to-end times are scaled to the speed
# at which the kernel takes REFERENCE_KERNEL_S (about its time on the
# machine the benchmark was tuned on).
KERNEL_PERIOD_S = 0.25
REFERENCE_KERNEL_S = 0.003


class ProgramMissing(Exception):
    """`src/bimenger` cannot be imported from this checkout."""


def import_program():
    """A fresh import of `bimenger` from this checkout's `src/`.

    Earlier imports are dropped first, so every set-up pays the import.
    """
    if not (SRC / "bimenger" / "__init__.py").is_file():
        raise ProgramMissing(f"no bimenger package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bimenger" or m.startswith("bimenger.")]:
        del sys.modules[name]
    bm = importlib.import_module("bimenger")
    for sub in ("bmcli", "certify", "ratlp", "oracle"):
        importlib.import_module(f"bimenger.{sub}")
    if Path(bm.__file__).resolve().parent != (SRC / "bimenger").resolve():
        raise ProgramMissing(f"bimenger was imported from {bm.__file__}")
    return bm


class Op(NamedTuple):
    index: int  # instance index
    seconds: float  # wall time of the run_cli call
    code: int | None  # exit code, None if it raised
    output: str  # what run_cli printed
    error: str | None  # traceback if it raised


def run_op(run_cli, argv: list[str], index: int, tracer: Tracer | None = None) -> Op:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = run_cli(argv, out, err)
        else:
            code = tracer.call(ROOT, run_cli, argv, out, err)
    except Exception:  # an op that raises is a failed op, not a crash
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    return Op(index, seconds, code, out.getvalue(), error)


def setup(family: Family, seed: int, workdir: Path):
    """Import, generate, write and warm up once; returns
    (seconds, bimenger module, instance texts, argv per instance).

    The warm-up op runs on the family's fixed warm-up instance, the same
    for every seed, so set-up does the same work whatever the seed.
    """
    t0 = time.perf_counter()
    bm = import_program()
    texts = family.instances(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, text in enumerate(texts):
        path = workdir / f"{family.name}-{i:04d}.bg"
        path.write_text(text, encoding="utf-8")
        argvs.append([family.command, "--input", str(path), "--json"])
    warmup = workdir / f"{family.name}-warmup.bg"
    warmup.write_text(family.warmup_instance(), encoding="utf-8")
    run_op(bm.bmcli.run_cli, [family.command, "--input", str(warmup), "--json"], 0)
    return time.perf_counter() - t0, bm, texts, argvs


def judge(ops: list[Op], refs: list[int]) -> tuple[int, int, list[dict], list[str]]:
    """(failed, disagreements, checks per certificate, problems).

    A disagreement is an op that raised, printed no certificate (so no
    value: a failed assert or an input error) or printed a value other
    than the oracle's.  An op fails if it disagrees or exits nonzero; an
    op that exits nonzero after printing a certificate with the oracle's
    value (a separator that does not verify) fails without disagreeing.
    """
    failed = disagree = 0
    checks, problems = [], []
    for op in ops:
        value = None
        try:
            cert = json.loads(op.output)
            value = cert["value"]
            checks.append(cert.get("checks", {}))
        except (ValueError, KeyError, TypeError):
            pass
        wrong = op.error is not None or value != refs[op.index]
        if wrong:
            disagree += 1
            if len(problems) < 5:
                why = op.error.strip().splitlines()[-1] if op.error else ""
                problems.append(
                    f"instance {op.index}: value {value} oracle {refs[op.index]} "
                    f"exit {op.code} {why}".rstrip()
                )
        if wrong or op.code != 0:
            failed += 1
    return failed, disagree, checks, problems


def per_instance(ops: list[Op]) -> list[float]:
    """Median wall time of each instance's ops.  The timed pass stops
    mid-cycle, so some instances run once more than others; one value per
    instance keeps the op count from changing their weights."""
    by_index: dict[int, list[float]] = {}
    for op in ops:
        by_index.setdefault(op.index, []).append(op.seconds)
    return [statistics.median(v) for v in by_index.values()]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the TAIL_PERCENTILE-th percentile, or of the
    highest percentile below it that still has TAIL_BEYOND samples beyond
    it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    k = min(n - TAIL_BEYOND, math.ceil(n * TAIL_PERCENTILE / 100))
    return ordered[k - 1], 100.0 * k / n


def kernel() -> None:
    """Fixed exact-rational Gauss-Jordan elimination: the same kind of work
    as the solver's pivots, but no code of the program."""
    n = 7
    a = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(n)]
         + [int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                k = a[r][c]
                a[r] = [x - k * y for x, y in zip(a[r], a[c])]


def kernel_times(k: int) -> list[float]:
    """Wall seconds of k kernel runs in a row."""
    out = []
    for _ in range(k):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def timed_setups(family: Family, seed: int, workdir: Path):
    """SETUP_REPEATS set-ups, each bracketed by SETUP_KERNEL_PROBES kernel
    runs before and after it; returns (raw seconds, speed-adjusted seconds,
    the last set-up's results).  Each starts from an empty work directory
    and a collected heap, so that it does the same work as the first."""
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        last = None  # drop the previous import before collecting
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        probes = kernel_times(SETUP_KERNEL_PROBES)
        seconds, *last = setup(family, seed, workdir)
        probes += kernel_times(SETUP_KERNEL_PROBES)
        raw.append(seconds)
        adjusted.append(seconds * REFERENCE_KERNEL_S / statistics.median(probes))
    return raw, adjusted, last


def timed_pass(run_cli, argvs: list[list[str]], seconds: float):
    """Cycle over the instances until `seconds` have passed, every instance
    ran and at least MIN_TIMED_OPS ops ran; returns (ops, wall seconds,
    cpu seconds, kernel seconds per sample).  The kernel runs between ops once every
    KERNEL_PERIOD_S; its time is left out of the pass."""
    gc.collect()
    ops, kernel_s = [], []
    w0, c0 = time.perf_counter(), time.process_time()
    skip_wall = skip_cpu = 0.0
    next_kernel = w0
    while True:
        i = len(ops) % len(argvs)
        ops.append(run_op(run_cli, argvs[i], i))
        now = time.perf_counter()
        if now >= next_kernel:
            cpu = time.process_time()
            kernel()
            done = time.perf_counter()
            kernel_s.append(done - now)
            skip_wall += done - now
            skip_cpu += time.process_time() - cpu
            next_kernel = done + KERNEL_PERIOD_S
        wall = time.perf_counter() - w0 - skip_wall
        if len(ops) >= max(MIN_TIMED_OPS, len(argvs)) and wall >= seconds:
            break
    return ops, wall, time.process_time() - c0 - skip_cpu, kernel_s


def git_commit() -> str | None:
    head = CHECKOUT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = CHECKOUT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (CHECKOUT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def measure_end_to_end(family, bm, argvs, refs, seconds, setup_raw, setup_adjusted):
    ops, wall, cpu, kernel_s = timed_pass(bm.bmcli.run_cli, argvs, seconds)
    slowdown = statistics.mean(kernel_s) / REFERENCE_KERNEL_S
    latencies = per_instance(ops)
    tail_s, tail_pct = tail(latencies)
    failed, disagree, _, problems = judge(ops, refs)
    wall_metrics = {
        "certs_per_s": (len(ops) / wall, "1/s"),
        "cpu_s_per_cert": (cpu / len(ops), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup_raw), "s"),
    }
    metrics = {
        name: (value * slowdown if unit == "1/s" else value / slowdown, unit)
        for name, (value, unit) in wall_metrics.items()
    }
    metrics["setup_s"] = (statistics.median(setup_adjusted), "s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    extra = {
        "fail_share": failed / len(ops),
        "latency_tail_percentile": round(tail_pct, 2),
        "latency_samples": len(latencies),
        "timed_wall_s": wall,
        "kernel_samples": len(kernel_s),
        "kernel_mean_s": statistics.mean(kernel_s),
        "slowdown": slowdown,
        **{f"wall_{name}": value for name, (value, _) in wall_metrics.items()},
    }
    return metrics, extra, len(ops), failed, disagree, problems


def count_differences(first: dict, second: dict) -> list[str]:
    """One message per count metric that does not repeat exactly between
    two traced passes (a metric missing from one pass counts as differing)."""
    out = []
    for name in sorted(set(first) | set(second)):
        (a, unit_a), (b, unit_b) = first.get(name, (None, None)), second.get(name, (None, None))
        if "count" in (unit_a, unit_b) and a != b:
            out.append(f"count {name} {a} then {b}")
    return out


def measure_layers(family, bm, argvs, refs, out_dir: Path, label: str):
    """One pass over the first `family.traced` instances.  Each op runs
    untraced, then traced, then traced again with a second tracer, so that
    drifts in machine speed hit all three alike.  The metrics come from
    the first traced run; every count of the second must equal the first's
    (the counts are exact, so a difference means the program or the
    tracer is not deterministic)."""
    run_cli = bm.bmcli.run_cli
    modules = {m: getattr(bm, m) for m in ("bmcli", "certify", "ratlp")}
    tracers = (Tracer(), Tracer())
    plain, traced, again = [], [], []
    gc.collect()
    for i, argv in enumerate(argvs[: family.traced]):
        plain.append(run_op(run_cli, argv, i))
        for tracer, into in zip(tracers, (traced, again)):
            installed = Installed(tracer, modules)
            try:
                into.append(run_op(run_cli, argv, i, tracer))
            finally:
                installed.restore()
    ops = len(traced)
    failed = disagree = 0
    problems, checks = [], []
    for batch in (plain, traced, again):
        f, d, c, p = judge(batch, refs)
        failed, disagree, problems = failed + f, disagree + d, problems + p
        checks.append(c)
    tracer = tracers[0]
    metrics, missing = layer_metrics(tracer.spans, tracer.counts, installed.found, checks[1], ops)
    repeat, missing_again = layer_metrics(
        tracers[1].spans, tracers[1].counts, installed.found, checks[2], ops
    )
    unsteady = count_differences(metrics, repeat)
    plain_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    metrics["trace.op_s"] = (traced_s / ops, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    root_s = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    extra = {
        "traced_ops": ops,
        "untraced_certs_per_s": ops / plain_s,
        "traced_certs_per_s": ops / traced_s,
        "self_time_sum_s_per_op": sum(self_times(tracer.spans).values()) / ops,
        "root_span_s_per_op": root_s / ops,
        "spans": len(tracer.spans),
        "counts_repeat": "identical" if not unsteady else "differ",
        "missing": missing,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"spans-{label}.json", "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return (metrics, extra, 3 * ops, failed, disagree + len(unsteady),
            problems + unsteady)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(FAMILIES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    family = FAMILIES[args.workload]
    label = f"{family.name}-{args.seed}-{os.getpid()}"
    workdir = CHECKOUT / ".bench_work" / label

    try:
        setup_raw, setup_adjusted, (bm, texts, argvs) = timed_setups(family, args.seed, workdir)
        refs = [reference_value(family, text, bm) for text in texts]
        if args.trace:
            measured = measure_layers(family, bm, argvs, refs, CHECKOUT / ".bench_out", label)
        else:
            measured = measure_end_to_end(
                family, bm, argvs, refs, args.seconds, setup_raw, setup_adjusted
            )
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    metrics, extra, attempted, failed, check_failures, problems = measured
    if not args.trace:
        metrics = {name: metrics[name] for name in END_TO_END}

    for name, (value, unit) in metrics.items():
        print(f"{family.name:7s} {name:36s} {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"{family.name:7s} {name:36s} {value}")
    for msg in problems:
        print(f"{family.name:7s} CHECK FAILED {msg}")
    context = {
        "workload": family.name,
        "why": family.why,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "instances": len(texts),
        "ops_per_pass": attempted if not args.trace else attempted // 3,
        "setup_s_samples": setup_raw,
        "setup_s_adjusted_samples": setup_adjusted,
        **extra,
    }
    print(json.dumps({"context": context}))
    result = {
        "correct": check_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if check_failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
