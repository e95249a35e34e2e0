"""Every per-layer metric that `BENCHMARK.json` declares is still traced.

`benchmarks/spans.py` wraps the names that `bmcli`, `certify` and `ratlp`
look up at call time.  A metric whose boundary is gone from the program
reads as missing, and the benchmark run that reports it is malformed; a
change that removes a traced name must move its tracing or retire its
metric in the same step.
"""

import importlib.util
import io
import json
from pathlib import Path

from bimenger import bmcli, certify, ratlp

ROOT = Path(__file__).resolve().parent.parent
FIG1A = ROOT / "fixtures" / "fig1a.bg"
# added by benchmarks/run.py itself, not by layer_metrics
RUN_METRICS = {"trace.op_s", "trace.overhead_ratio"}


def _spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "benchmarks" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_declared_per_layer_metric_is_traced():
    spans = _spans()
    tracer = spans.Tracer()
    installed = spans.Installed(tracer, {"bmcli": bmcli, "certify": certify, "ratlp": ratlp})
    checks = []
    try:
        for command in ("solve", "xpaths"):
            out, err = io.StringIO(), io.StringIO()
            argv = [command, "--input", str(FIG1A), "--json"]
            assert tracer.call(spans.ROOT, bmcli.run_cli, argv, out, err) == 0, err.getvalue()
            checks.append(json.loads(out.getvalue())["checks"])
    finally:
        installed.restore()
    metrics, missing = spans.layer_metrics(
        tracer.spans, tracer.counts, installed.found, checks, len(checks)
    )
    assert missing == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]} - RUN_METRICS
    assert sorted(declared - set(metrics)) == []
