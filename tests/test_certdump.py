"""Smoke test of `tools/certdump.py` on the first instances of each set."""

import importlib.util
import io
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "certdump.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("certdump", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certdump_writes_one_line_per_run():
    certdump = _load_tool()
    out = io.StringIO()
    certdump.dump(certdump.runs(3), out)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    expected = [(name, command) for name, command, _ in certdump.runs(3)]
    assert [(r["instance"], r["command"]) for r in records] == expected
    sets = {(r["instance"].rsplit("/", 1)[0], r["command"][0]) for r in records}
    assert sets == {("suite200", "solve"), ("suite200", "xpaths"), ("suite200", "solve-st"),
                    ("above-limits", "solve"), ("above-limits", "xpaths")} | {
        (f"{name}/{seed}", command)
        for name, command in (("small", "solve"), ("xpaths", "xpaths"))
        for seed in (101, 102, 103)
    }
    for r in records:
        assert set(r) == {"command", "instance", "exit", "stdout", "stderr"}
        assert r["stderr"] == ""
        # n = 11, seed 1 has an LP gap above the oracle limits: its proven
        # separator of 2 exceeds the value 1, and no search may shrink it
        gap = r["instance"] == "above-limits/11-1" and r["command"] == ["solve"]
        assert r["exit"] == (2 if gap else 0)
        assert isinstance(json.loads(r["stdout"])["value"], int)
