"""Verification never rests on `assert`, so `python -O` keeps every check."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import bimenger

PACKAGE = Path(bimenger.__file__).resolve().parent

TRIANGLE = (
    "vertex x1\nvertex x2\nvertex x3\n"
    "edge x1 x2 ++\nedge x2 x3 ++\nedge x3 x1 ++\n"
    "set X x1 x2 x3\n"
)


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# the X-path certificate takes the matching's packing with x_f off by
# one, which leaves s unbalanced
FORCED_FAILURE = """
import sys
assert False, "stripped under -O"
from bimenger import bmcli, certify
packing = certify.max_packing
certify.max_packing = lambda *a: (lambda x, xf: (x, xf + 1))(*packing(*a))
sys.exit(bmcli.run_cli(sys.argv[1:]))
"""


def test_forced_verification_failure_under_python_O(tmp_path):
    p = tmp_path / "tri.bg"
    p.write_text(TRIANGLE)
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORCED_FAILURE, "xpaths", "--input", str(p), "--json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: NotBalanced: ")
