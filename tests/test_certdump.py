"""Smoke test of `tools/certdump.py` on the first instances of each set."""

import dataclasses
import io
import json

import pytest

from bimenger import solve_menger
from bimenger.bmcli import parse_instance

from .helpers import load_tool


def test_certdump_writes_one_line_per_run():
    certdump = load_tool("certdump")
    out = io.StringIO()
    certdump.dump(certdump.runs(3), out)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    expected = [(name, command) for name, command, _ in certdump.runs(3)]
    assert [(r["instance"], r["command"]) for r in records] == expected
    sets = {(r["instance"].rsplit("/", 1)[0], r["command"][0]) for r in records}
    assert sets == {("suite200", "solve"), ("suite200", "xpaths"), ("suite200", "solve-st"),
                    ("suite200", "oracle"), ("above-limits", "solve"), ("above-limits", "xpaths"),
                    ("sparse-above-limits", "solve"), ("fractional-dual", "solve-st"),
                    ("unions", "solve"), ("unions", "xpaths")} | {
        (f"{name}/{seed}", command)
        for name, command in (("small", "solve"), ("xpaths", "xpaths"))
        for seed in (101, 102, 103)
    }
    # the oracle runs on the suite200 instances of the solve-st runs carry s and t
    st = {r["instance"] for r in records
          if r["command"][0] == "solve-st" and r["instance"].startswith("suite200/")}
    assert st
    assert {r["instance"] for r in records
            if r["command"] == ["oracle"] and "st" in json.loads(r["stdout"])} == st
    for r in records:
        assert set(r) == {"command", "instance", "exit", "stdout", "stderr"}
        assert r["stderr"] == ""
        if r["command"] == ["oracle"]:
            doc = json.loads(r["stdout"])
            infinite = doc.get("st", {}).get("min_separator") == "infinite"
            assert r["exit"] == (3 if infinite else 0)
            assert isinstance(doc["max_links"], int)
            continue
        # n = 11, seed 1 and the union of two copies have an LP gap above
        # the oracle limits: the proven separator exceeds the value, and no
        # search may shrink it
        gap = r["command"] == ["solve"] and r["instance"] in ("above-limits/11-1", "unions/2-disjoint")
        assert r["exit"] == (2 if gap else 0)
        doc = json.loads(r["stdout"])
        assert isinstance(doc["value"], int)
        if r["instance"].startswith("fractional-dual/"):
            assert doc["checks"]["dual_integral_raw"] is False
    # a packing of value 0 proves the empty separator at every size
    assert next(r["exit"] for r in records if r["instance"] == "sparse-above-limits/11-0") == 0


def test_compare_reports_only_the_runs_that_differ(tmp_path):
    certdump = load_tool("certdump")
    before = io.StringIO()
    certdump.dump(certdump.runs(3), before)
    path = tmp_path / "before.jsonl"
    path.write_text(before.getvalue(), encoding="utf-8")
    out = io.StringIO()
    assert certdump.main(["--compare", str(path)], certdump.runs(3), out) == 0
    assert out.getvalue() == ""

    records = [json.loads(line) for line in before.getvalue().splitlines()]
    changed = next(r for r in records if json.loads(r["stdout"])["separator"])
    doc = json.loads(changed["stdout"])
    doc["separator"] = doc["separator"][1:]
    changed["stdout"] = json.dumps(doc)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = io.StringIO()
    assert certdump.main(["--compare", str(path)], certdump.runs(3), out) == 1
    command = " ".join(changed["command"])
    assert out.getvalue() == f"{changed['instance']} {command}: separator\n"


def test_compare_names_the_differing_keys_of_an_object_field():
    certdump = load_tool("certdump")
    checks = {"duality": True, "primal_integral_raw": False, "slack_cycles": 0}
    doc = {"value": 1, "lp": {"primal": "1", "dual": "1"}, "checks": checks}
    record = {"command": ["solve"], "instance": "a", "exit": 0, "stderr": ""}
    before = [json.dumps({**record, "stdout": json.dumps(doc)})]
    flipped = {**doc, "checks": {**checks, "primal_integral_raw": True, "slack_cycles": 1}}
    after = [json.dumps({**record, "stdout": json.dumps(flipped)})]
    out = io.StringIO()
    assert certdump.compare(before, after, out) == 1
    assert out.getvalue() == "a solve: checks.primal_integral_raw, checks.slack_cycles\n"
    # a key that only one side holds is named too
    out = io.StringIO()
    dropped = {**doc, "checks": {"duality": True, "slack_cycles": 0}}
    assert certdump.compare(before, [json.dumps({**record, "stdout": json.dumps(dropped)})], out) == 1
    assert out.getvalue() == "a solve: checks.primal_integral_raw\n"


@pytest.mark.parametrize("side", ["before", "after"])
def test_compare_reports_a_run_missing_from_one_dump(side):
    certdump = load_tool("certdump")
    record = {"command": ["solve"], "instance": "a", "exit": 0, "stdout": "{}", "stderr": ""}
    lines = [json.dumps(record)]
    before, after = (lines, []) if side == "after" else ([], lines)
    out = io.StringIO()
    assert certdump.compare(before, after, out) == 1
    assert out.getvalue() == f"a solve: missing from {side}\n"


def test_recheck_accepts_the_solver_and_rejects_a_smaller_separator(tmp_path):
    recheck = load_tool("recheck")
    run_list = list(load_tool("certdump").runs(2))
    report = tmp_path / "report.txt"
    report.write_text("".join(f"{name} {' '.join(command)}: links\n" for name, command, _ in run_list),
                      encoding="utf-8")
    out = io.StringIO()
    assert recheck.main([str(report)], out) == 0
    assert sum(int(line.rsplit(" ", 2)[1]) for line in out.getvalue().splitlines()) == len(run_list)

    name, command, text = next(r for r in run_list if r[1] == ["solve"] and r[0] == "suite200/000")
    inst = parse_instance(text)
    cert = solve_menger(inst.graph, inst.X, inst.Y)
    assert cert.separator and recheck.recheck(command, text, cert) == ([], True)
    smaller = dataclasses.replace(cert, separator=frozenset(sorted(cert.separator)[1:]))
    assert recheck.recheck(command, text, smaller) == (["separator_separates"], True)
