"""Tests of the benchmark's own logic.

Run from the root of a checkout:  python3 -m pytest -q benchmarks
"""

import collections
import hashlib
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from families import FAMILIES, SUITE_SEED, small_draw  # noqa: E402
from run import END_TO_END, Op, count_differences, judge, per_instance, tail  # noqa: E402
from spans import (  # noqa: E402
    PER_LAYER,
    Installed,
    Tracer,
    layer_metrics,
    self_times,
)


def test_self_times_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
        ["b", 6.0, 8.5, 3],
        ["root", 20.0, 21.0, -1],
    ]
    st = self_times(spans)
    assert st == pytest.approx({"root": 3.0 + 1.0, "a": 2.0, "b": 3.5, "c": 1.5})
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert sum(st.values()) == pytest.approx(roots)


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return "x"

    def mid():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    assert tracer.call("root", lambda: tracer.call("mid", mid)) == "xx"
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("root", -1), ("mid", 0), ("leaf", 1), ("leaf", 1)]
    # clock ticks: root 0..7, mid 1..6, leaves 2..3 and 4..5
    assert [s[1:3] for s in tracer.spans] == [[0.0, 7.0], [1.0, 6.0], [2.0, 3.0], [4.0, 5.0]]
    assert self_times(tracer.spans) == {"root": 2.0, "mid": 3.0, "leaf": 2.0}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("root", boom)
    tracer.call("next", lambda: None)
    assert tracer.spans[1][3] == -1  # the failed span is no longer open


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_seed_gives_identical_instance_set(name):
    fam = FAMILIES[name]
    assert fam.instances(11) == fam.instances(11)
    assert fam.instances(11) != fam.instances(12)
    assert len(fam.instances(11)) == fam.pool >= fam.traced


# sha256 of the concatenated instance files of seed 7; they equal what
# `bmcli gen` (and, for `small`, `bmcli selfcheck --seed 301`) drew when
# the benchmark was defined.  A change here changes the inputs.
INSTANCE_SET_SHA256 = {
    "small": "62a4ee4316a82530e7feb7487d5cca467f34497d8538d93c326df65c9f32e450",
    "xpaths": "10092579aa5f2c45bd4707b14fb24162ca1c8332dd540bf68a1187995b8c67ed",
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_instance_sets_are_frozen(name):
    text = "".join(FAMILIES[name].instances(7))
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_SET_SHA256[name]


def test_small_keeps_the_suite_shapes():
    for i in range(40):
        a, b = small_draw(SUITE_SEED, i), small_draw(5, i)
        assert (a.n, a.m, a.x_size, a.y_size, a.overlap) == (b.n, b.m, b.x_size, b.y_size, b.overlap)
        assert a.seed != b.seed


def test_count_differences_compares_counts_only():
    first = {"a.calls": (3, "count"), "a.self_s": (0.1, "s"), "b.nodes": (0, "count")}
    second = {"a.calls": (4, "count"), "a.self_s": (0.2, "s"), "c.rows": (1, "count")}
    assert count_differences(first, second) == [
        "count a.calls 3 then 4",
        "count b.nodes 0 then None",
        "count c.rows None then 1",
    ]
    assert count_differences(first, dict(first)) == []


def test_per_instance_gives_one_value_per_instance():
    ops = [Op(0, 1.0, 0, "", None), Op(1, 5.0, 0, "", None), Op(0, 3.0, 0, "", None)]
    assert sorted(per_instance(ops)) == [2.0, 5.0]


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(40)]
    value, pct = tail(lat)
    assert sum(1 for x in lat if x > value) == 10
    assert pct == 75.0
    lat = [float(i) for i in range(200)]  # enough samples: the 90th percentile
    assert tail(lat) == (179.0, 90.0)
    with pytest.raises(ValueError):
        tail(lat[:10])


def test_judge_counts_exit_codes_and_mismatches():
    ok = '{"value": 2, "checks": {"lp_tight": true}}'
    ops = [
        Op(0, 0.1, 0, ok, None),
        Op(1, 0.1, 2, ok, None),  # separator does not verify: failed, value agrees
        Op(0, 0.1, 0, '{"value": 1, "checks": {}}', None),  # wrong value
        Op(1, 0.1, None, "", "Traceback ...\nRuntimeError: x\n"),  # raised
        Op(0, 0.1, 0, "value 2\n", None),  # not a certificate
        Op(1, 0.1, 2, "", None),  # failed assert, nothing printed
        Op(0, 0.1, 1, "", None),  # input error, nothing printed
    ]
    failed, disagree, checks, problems = judge(ops, [2, 2])
    assert (failed, disagree, len(checks)) == (6, 5, 3)
    assert problems[1].endswith("RuntimeError: x")
    assert problems[3].startswith("instance 1: value None oracle 2 exit 2")


def _fake_program(with_dual: bool):
    """Module namespaces shaped like bimenger's, with recording stubs."""

    def solve(*a, **k):
        return None

    certify = types.SimpleNamespace(simplex_max=solve, build_primal=solve)
    if with_dual:
        certify.build_dual = solve
    return {"bmcli": types.SimpleNamespace(), "certify": certify,
            "ratlp": types.SimpleNamespace(simplex_max=solve)}


def test_missing_boundary_is_missing_not_zero():
    tracer = Tracer()
    modules = _fake_program(with_dual=False)
    installed = Installed(tracer, modules)
    metrics, missing = layer_metrics(tracer.spans, collections.Counter(), installed.found, [], 1)
    installed.restore()
    assert "ratlp.simplex_dual_root.self_s" in missing
    assert "ratlp.dual.rows" in missing
    assert "ratlp.simplex_primal_root.calls" in metrics
    assert "route.lp_gap" in missing  # no certificate carried the key
    assert set(metrics) | set(missing) == {m[0] for m in PER_LAYER}

    with_dual = Installed(Tracer(), _fake_program(with_dual=True))
    assert "certify.build_dual" in with_dual.found


def test_restore_puts_originals_back():
    modules = _fake_program(with_dual=True)
    before = dict(vars(modules["certify"]))
    installed = Installed(Tracer(), modules)
    assert vars(modules["certify"]) != before
    installed.restore()
    assert vars(modules["certify"]) == before


def test_root_simplex_is_split_by_program():
    tracer = Tracer()
    modules = _fake_program(with_dual=True)
    installed = Installed(tracer, modules)
    primal = types.SimpleNamespace(names=("x:0", "xf"), a_eq=((1, 1),), c=(0, 1))
    dual = types.SimpleNamespace(names=("zp:s", "zn:s", "y:0"), a_eq=((1, 1, 1),) * 2, c=(0, 0, -1))
    modules["certify"].simplex_max(primal)
    modules["certify"].simplex_max(dual)
    installed.restore()
    assert [s[0] for s in tracer.spans] == ["ratlp.simplex_primal_root", "ratlp.simplex_dual_root"]
    assert tracer.counts["ratlp.primal.cols"] == 2
    assert tracer.counts["ratlp.dual.rows"] == 2


def test_benchmark_json_matches_the_code():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        f.name: f.why for f in FAMILIES.values()
    }
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [m[0] for m in PER_LAYER] + ["trace.op_s", "trace.overhead_ratio"]
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END)
