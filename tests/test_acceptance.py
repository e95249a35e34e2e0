"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py`; the per-criterion lines are
written straight through so they stay visible under output capture.

Criterion 4's raw-relaxation integrality clause is expected to fail and is
marked strict-xfail: the plain LP relaxation of the packing program is not
integral on bidirected inputs (a half-unit of flow can cancel through a
split edge), which is why the solver computes values as exact integral
optima, by perfect matchings of the split graph.  README and the
repository notes document the witness.
"""

import io
import json
import sys
import time
from pathlib import Path

import pytest

from bimenger import (
    build_graph,
    check_k_regular,
    delete_vertices,
    incidence_matrix,
    oracle_max_links,
    oracle_min_separator,
    oracle_st,
    oracle_xpaths,
    solve_menger,
    solve_xpaths,
)
from bimenger.bigraph import MINUS, PLUS
from bimenger.bmcli import GenParams, _trial_params, derive_seed, random_instance, run_cli
from bimenger.oracle import has_xy_link
from bimenger.walks import enumerate_st_links

from .conftest import recording_cuts
from .helpers import check_no_turnaround_equality, link_sigma_sum, shipped, suite200_instances

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"

_T0 = time.monotonic()
_LINES: list[str] = []


def report(line: str) -> None:
    # visible live under `pytest -s`; always lands in acceptance_report.txt
    print(line)
    _LINES.append(line)
    REPORT_PATH.write_text("\n".join(_LINES) + "\n")


def cli_json(*argv):
    out, err = io.StringIO(), io.StringIO()
    rc = run_cli(list(argv), out, err)
    assert rc == 0, err.getvalue()
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def suite200():
    """Criterion 3's instance family: 200 seeded random instances with
    n <= 7, m <= 14, |X|,|Y| <= 3.  Each record keeps the split graph, f,
    duals and cut of its solve (None where X or Y is empty)."""
    records = []
    t0 = time.monotonic()
    for inst in suite200_instances():
        g, X, Y = inst.graph, inst.X, inst.Y
        pk = oracle_max_links(g, X, Y)
        sep = oracle_min_separator(g, X, Y)
        with recording_cuts() as cuts:
            cert = solve_menger(g, X, Y)
        records.append((inst, pk, sep, cert, cuts[0] if cuts else None))
    return records, time.monotonic() - t0


def test_criterion_1_fig1a_exact_values():
    t0 = time.monotonic()
    doc = cli_json("solve", "--input", str(FIXTURES / "fig1a.bg"), "--json")
    assert doc["value"] == 2
    assert doc["separator_size"] == 2
    oracle = cli_json("oracle", "--input", str(FIXTURES / "fig1a.bg"), "--json")
    assert oracle["max_links"] == 2
    assert oracle["min_separator"] == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(f"criterion 1: PASS - fig1a value 2, separator 2, oracle agrees ({elapsed:.2f}s)")


def test_criterion_2_fig1b_strictness():
    t0 = time.monotonic()
    doc = cli_json("solve", "--input", str(FIXTURES / "fig1b.bg"), "--json")
    assert doc["value"] == 2
    assert doc["separator_size"] == 1
    from bimenger.bmcli import parse_instance

    inst = parse_instance((FIXTURES / "fig1b.bg").read_text())
    survivor = delete_vertices(inst.graph, set(doc["separator"]))
    assert not has_xy_link(survivor, inst.X, inst.Y)
    # weight-2 counting is necessary: one turnaround counted once would
    # undercut the packing value
    assert [l["type"] for l in doc["links"]] == ["turnaround"]
    assert len(doc["links"]) == 1 < 2 == doc["value"]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(f"criterion 2: PASS - fig1b value 2, separator of size 1 verified ({elapsed:.2f}s)")


def test_criterion_3_oracle_equivalence(suite200):
    records, gen_time = suite200
    assert len(records) >= 200
    for inst, pk, sep, cert, _ in records:
        assert cert.value == pk.value
        assert len(cert.separator) <= cert.value
        if inst.X and inst.Y:
            assert cert.checks["separator_verified"] is True
            assert not has_xy_link(delete_vertices(inst.graph, cert.separator), inst.X, inst.Y)
        assert pk.value >= len(sep)
    assert gen_time < 60.0
    report(
        f"criterion 3: PASS - 200 instances, certificate = oracle packing, "
        f"separators verified, min-max holds ({gen_time:.1f}s)"
    )


def test_criterion_4_strong_duality(suite200):
    records, _ = suite200
    for inst, _, _, cert, _ in records:
        assert cert.checks["duality"], "primal and dual LP optima differ"
        assert cert.primal_value == cert.dual_value
    report("criterion 4 (duality): PASS - primal LP optimum = dual LP optimum on all 200")


@pytest.mark.xfail(
    strict=True,
    reason="the plain LP relaxation is not integral on bidirected inputs; "
    "exact values come from perfect matchings (see README, relaxation gap)",
)
def test_criterion_4_raw_relaxation_integrality(suite200):
    records, _ = suite200
    bad = sum(
        1
        for _, _, _, cert, _ in records
        if not (cert.checks["primal_integral_raw"] and cert.checks["dual_integral_raw"])
    )
    report(
        f"criterion 4 (raw LP integrality): FAIL (expected) - fractional basic "
        f"optima on {bad}/200 instances; packing values found exactly by "
        f"perfect matchings of the split graph"
    )
    assert bad == 0, f"{bad}/200 raw relaxations came back fractional"


def test_criterion_5_two_regularity():
    t0 = time.monotonic()
    checked = 0
    i = 0
    while checked < 50:
        inst = random_instance(
            GenParams(
                n=2 + derive_seed(501, i) % 5,
                m=1 + derive_seed(502, i) % 7,
                seed=derive_seed(503, i),
            )
        )
        i += 1
        g = inst.graph
        if g.m == 0:
            continue
        assert check_k_regular(incidence_matrix(g), 2, max_order=5), "2-regularity violated"
        checked += 1
    elapsed = time.monotonic() - t0
    report(
        f"criterion 5: PASS - {checked} incidence matrices 2-regular to order 5 ({elapsed:.1f}s)"
    )


def test_criterion_6_cut_soundness(suite200):
    records, _ = suite200
    t0 = time.monotonic()
    instances = links_seen = 0
    for _, _, _, _, internals in records:
        if internals is None:
            continue
        instances += 1
        g_prime, f, z, y, cut = internals
        fe = g_prime.edge(f)
        s, t = fe.u, fe.v
        assert f not in cut
        assert len(cut) <= sum(y.values())
        for link in enumerate_st_links(g_prime, s, t):
            if f in link.edge_set():
                continue
            links_seen += 1
            total = link_sigma_sum(g_prime, z, link)
            factor = 1 if link.kind == "path" else 2
            assert total == factor * (z[t] - z[s])
            assert total < 0
            assert cut & link.edge_set(), "an s-t link avoids the cut"
    elapsed = time.monotonic() - t0
    report(
        f"criterion 6: PASS - cut sound on {instances} instances, "
        f"{links_seen} links checked against F and the dual-sum identity ({elapsed:.1f}s)"
    )


def test_criterion_7_no_turnaround_equality():
    t0 = time.monotonic()
    qualified = 0
    attempts = 0
    i = 0
    while qualified < 50 and attempts < 4000:
        params = _trial_params(701, i, 6)
        params = GenParams(
            params.n, min(params.m, 8), params.seed, params.x_size, params.y_size,
            params.overlap_allowed,
        )
        inst = random_instance(params)
        i += 1
        attempts += 1
        verdict = check_no_turnaround_equality(inst.graph, inst.X, inst.Y)
        if not verdict.applicable:
            continue
        qualified += 1
        assert verdict.holds, "equality failed on a turnaround-free instance"
    assert qualified >= 50, f"only {qualified} turnaround-free instances found"
    elapsed = time.monotonic() - t0
    report(
        f"criterion 7: PASS - max paths = min separator on {qualified} "
        f"turnaround-free instances ({elapsed:.1f}s)"
    )


def test_criterion_8_xpath_packing():
    t0 = time.monotonic()
    for i in range(100):
        params = _trial_params(801, i, 5)
        params = GenParams(
            params.n, min(params.m, 7), params.seed,
            max(1, params.x_size), 0, True,
        )
        inst = random_instance(params)
        g, X = inst.graph, inst.X
        cert = solve_xpaths(g, X)
        packing, hitting = oracle_xpaths(g, X)
        assert cert.value == packing
        assert 2 * cert.value >= hitting
        assert 2 * cert.value >= len(cert.separator)
    g, X, _ = shipped("x_triangle")
    cert = solve_xpaths(g, X)
    packing, hitting = oracle_xpaths(g, X)
    assert (cert.value, hitting) == (1, 2)
    assert 2 * cert.value == hitting  # the factor two is attained
    elapsed = time.monotonic() - t0
    report(
        f"criterion 8: PASS - 100 instances, packing = oracle and "
        f"2*packing >= hitting; triangle attains equality ({elapsed:.1f}s)"
    )


def test_criterion_9_gadget_correctness_witness():
    g = build_graph(["x", "y"], [])
    cert = solve_menger(g, {"x"}, {"y"})
    assert cert.value == 0
    assert cert.separator == frozenset()
    # the two-parallel-edge wiring this build deliberately avoids would
    # report packing 2 and separator 1 on the same linkless input
    verbatim = build_graph(
        ["x", "y", "s", "t"],
        [
            ("x", "s", PLUS, MINUS),
            ("x", "s", MINUS, MINUS),
            ("y", "t", PLUS, PLUS),
            ("y", "t", MINUS, PLUS),
        ],
    )
    pk, sep = oracle_st(verbatim, "s", "t")
    assert (pk.value, len(sep)) == (2, 1)
    report(
        "criterion 9: PASS - linkless one-source one-target instance solves "
        "to 0 with empty separator (parallel-edge wiring would give 2/1)"
    )


def test_total_runtime_summary():
    elapsed = time.monotonic() - _T0
    report(f"acceptance total: {elapsed:.1f}s (target: under 120s)")
    assert elapsed < 120.0
