"""Tests of the benchmark's own arithmetic; run with ``python3 -m pytest bench``.

They are kept out of the repository's tier-1 suite (pyproject's testpaths
names only tests/).
"""
import json
import re
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
from spans import LAYERS, BOUNDARIES, self_times  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- run_ms.tail percentile rule ---------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 50.0), (37, 50.0), (38, 75.0),
    (100, 90.0), (200, 95.0), (1010, 99.0), (11000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond_count(n, expected) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > expected]
        assert all(stats.beyond_count(n, p) < stats.MIN_BEYOND for p in higher)


def test_beyond_count_matches_sorted_positions():
    xs = list(range(44))
    p75 = stats.percentile(xs, 75)
    assert sum(1 for x in xs if x > p75) == stats.beyond_count(44, 75) == 11


def test_percentile_matches_numpy():
    rng = np.random.default_rng(3)
    xs = list(rng.uniform(size=37))
    for p in (0, 12.5, 50, 75, 99.9, 100):
        assert stats.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_quartiles_match_statistics_quantiles():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, med, q3 = stats.quartiles(xs)
    assert [q1, med, q3] == statistics.quantiles(xs, n=4)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert list(own) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert own.sum() == pytest.approx(10.0)


def test_self_time_of_leaf_is_its_duration():
    assert list(self_times([1.0], [1.5], [-1])) == [0.5]


# -- compare verdicts --------------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_verdict_improved_needs_nine_tenths_wins_and_gap_past_spread():
    faster = [x * 0.8 for x in BASE]
    assert stats.verdict(BASE, faster, "lower", 0.1) == "improved"
    # Same medians but 8 of 10 pairs won: not improved.
    mixed = [x * 0.8 for x in BASE[:8]] + [x * 1.2 for x in BASE[8:]]
    assert stats.verdict(BASE, mixed, "lower", 0.1) != "improved"


def test_verdict_no_worse_within_bound():
    slower = [x * 1.05 for x in BASE]
    assert stats.verdict(BASE, slower, "lower", 0.1) == "no-worse"
    assert stats.verdict(BASE, slower, "lower", 0.01) == "worse"


def test_verdict_respects_direction():
    lower = [x * 0.8 for x in BASE]
    assert stats.verdict(BASE, lower, "higher", 0.1) == "worse"
    assert stats.verdict(BASE, [x * 1.3 for x in BASE], "higher", 0.1) == "improved"


def test_verdict_unresolved_when_base_spread_exceeds_bound():
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    worse = [x * 1.02 for x in noisy]
    assert stats.verdict(noisy, worse, "lower", 0.1) == "unresolved"
    # ...unless every new run beats every base run.
    assert stats.verdict(noisy, [10.0] * 10, "lower", 0.1) in ("improved", "no-worse")


def test_ties_count_for_neither_side():
    assert stats.verdict(BASE, list(BASE), "lower", 0.1) == "no-worse"


# -- metric names ------------------------------------------------------------

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME_RE.match(n) for n in names), names
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    import run
    import workloads
    rows = [{"policy": p, "horizon": 10, "runtime_s": 0.1, "reward": 0.5}
            for p in ("lnucb-ta", "linucb")]
    produced = set(run.rep_metrics(1.0, 50.0, rows))
    produced |= {"setup_s", "run_ms.p50", "run_ms.tail", "success_rate"}
    assert produced == {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    layer_metrics = {m["name"] for m in SPEC["per_layer"]}
    assert {f"layer_share.{layer}" for layer in LAYERS} <= layer_metrics
    assert set(BOUNDARIES) == set(LAYERS) - {"policies"}
