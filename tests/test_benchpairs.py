"""The summary of `tools/benchpairs.py`, on made-up runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [("certs_per_s", "higher", 0.25), ("latency_p50_s", "lower", 0.25)]


def _pairs(base, change, key):
    return [({key: b}, {key: c}) for b, c in zip(base, change)]


def test_summary_claims_a_gain_won_in_nine_of_ten_pairs_beyond_the_base_spread():
    benchpairs = _load_tool()
    base = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    change = [b + 5 for b in base[:9]] + [18]  # the last pair is lost
    [row] = benchpairs.summarize(_pairs(base, change, "certs_per_s"), METRICS[:1])
    assert row.base == (12.25, 14.5, 16.75)
    assert row.change == (17.25, 18.5, 20.75)
    assert (row.won, row.pairs, row.gain, row.base_iqr) == (9, 10, 4.0, 4.5)
    assert row.claim is False  # the median gain must exceed the base IQR
    change[4] += 2  # the middle of the change moves up
    change[5] += 2
    [row] = benchpairs.summarize(_pairs(base, change, "certs_per_s"), METRICS[:1])
    assert row.gain == 5.0 and row.claim is True and row.within_bound is True


def test_summary_reads_lower_as_better_and_flags_a_regression_beyond_the_bound():
    benchpairs = _load_tool()
    base = [1.0, 1.0, 1.0, 1.0]
    [row] = benchpairs.summarize(_pairs(base, [1.2, 1.2, 1.0, 0.9], "latency_p50_s"),
                                 METRICS[1:])
    assert (row.won, row.claim, row.within_bound) == (1, False, True)
    assert abs(row.gain + 0.1) < 1e-12  # a slower median is a negative gain
    [row] = benchpairs.summarize(_pairs(base, [1.3] * 4, "latency_p50_s"), METRICS[1:])
    assert (row.won, row.within_bound) == (0, False)
    assert "latency_p50_s" in benchpairs.format_summary([row])


def test_summary_of_one_pair_uses_its_values_as_quartiles():
    benchpairs = _load_tool()
    [row] = benchpairs.summarize(_pairs([2.0], [3.0], "certs_per_s"), METRICS[:1])
    assert row.base == (2.0, 2.0, 2.0) and row.change == (3.0, 3.0, 3.0)
    assert (row.won, row.claim) == (1, True)


def test_failed_share_pools_each_side_and_flags_a_larger_share_on_the_change():
    benchpairs = _load_tool()

    def run(attempted, failed):
        return {"certs_per_s": 1.0, "attempted": attempted, "failed": failed}

    pairs = [(run(100, 0), run(120, 0)), (run(100, 2), run(80, 1))]
    assert benchpairs.failed_shares(pairs) == (0.01, 0.005)
    assert benchpairs.format_failed(pairs).endswith(": ok")
    pairs.append((run(100, 0), run(100, 2)))
    assert benchpairs.failed_shares(pairs) == (2 / 300, 3 / 300)
    assert "larger on the change" in benchpairs.format_failed(pairs)
    assert benchpairs.failed_shares([(run(0, 0), run(0, 0))]) == (0.0, 0.0)
    # the summary reads only the metrics it is given
    [row] = benchpairs.summarize(pairs, METRICS[:1])
    assert row.won == 0


def test_median_attempted_ops_are_reported_per_side():
    benchpairs = _load_tool()

    def run(attempted):
        return {"certs_per_s": 1.0, "attempted": attempted, "failed": 0}

    pairs = [(run(1300), run(1700)), (run(1310), run(1750)), (run(1290), run(1690))]
    assert benchpairs.median_attempted(pairs) == (1300, 1700)
    pairs.append((run(1320), run(1720)))
    assert benchpairs.median_attempted(pairs) == (1305, 1710)
    assert benchpairs.format_attempted(pairs) == (
        "ops per run      base 1305, change 1710 (medians)")
