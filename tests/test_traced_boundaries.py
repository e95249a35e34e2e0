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
from bimenger.bigraph import vertex_sort_key
from bimenger.bmcli import GenParams, random_instance, serialize_instance

ROOT = Path(__file__).resolve().parent.parent
FIG1A = ROOT / "fixtures" / "fig1a.bg"
# added by benchmarks/run.py itself, not by layer_metrics
RUN_METRICS = {"trace.op_s", "trace.overhead_ratio"}


def _spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "benchmarks" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(command, path=FIG1A):
    """The per-layer metrics and the missing ones of one traced run of
    ``command`` (a subcommand and its flags) on the instance file ``path``."""
    spans = _spans()
    tracer = spans.Tracer()
    installed = spans.Installed(tracer, {"bmcli": bmcli, "certify": certify, "ratlp": ratlp})
    try:
        out, err = io.StringIO(), io.StringIO()
        argv = [*command, "--input", str(path), "--json"]
        assert tracer.call(spans.ROOT, bmcli.run_cli, argv, out, err) == 0, err.getvalue()
    finally:
        installed.restore()
    checks = [json.loads(out.getvalue())["checks"]]
    return spans.layer_metrics(tracer.spans, tracer.counts, installed.found, checks, 1)


def test_every_declared_per_layer_metric_is_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in spec["per_layer"]} - RUN_METRICS
    for command in ("solve", "xpaths"):
        metrics, missing = _traced([command])
        assert missing == []
        assert sorted(declared - set(metrics)) == []
        # certify calls simplex_max on (D) alone, once per program: the
        # point of (P) is read off the final tableau of (D)
        assert metrics["ratlp.simplex_dual_root.calls"][0] > 0
        assert metrics["ratlp.simplex_primal_root.calls"][0] == 0
        assert metrics["ratlp.primal.rows"][0] == metrics["ratlp.primal.cols"][0] == 0
        assert metrics["ratlp.dual.rows"][0] > 0


def test_the_integral_dual_search_is_traced_when_it_runs(tmp_path):
    # neither benchmark workload meets a fractional dual root, so their
    # runs read 0 here; this s-t draw has one (tools/certdump.py's
    # fractional-dual runs)
    inst = random_instance(GenParams(5, 8, 12, 2, 2))
    s, t = min(inst.X, key=vertex_sort_key), min(inst.Y, key=vertex_sort_key)
    path = tmp_path / "fractional-dual.bg"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    metrics, missing = _traced(["solve-st", "--s", s, "--t", t], path)
    assert missing == []
    assert metrics["ratlp.bnb.calls"][0] == metrics["ratlp.dual_bnb.calls"][0] == 1
    assert metrics["route.dual_fractional_root"][0] == 1
