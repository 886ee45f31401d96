"""The committed benchmark summaries (BENCH_<pr>.json at the repository root,
written by tools/bench_summary.py) follow one schema: per workload of
BENCHMARK.json that was run, the seeds, each side's git head, runs and
failures, the median and quartiles of every end-to-end metric, and the
number of pairs in which the change was better.  A summary written with
--claim also records whether the claim meets the rule for a claimed gain,
and every other metric's ratio against its bound; the tool's cases below
run it on made-up runs."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
SUMMARIES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_summary_is_committed():
    assert SUMMARIES


@pytest.mark.parametrize("path", SUMMARIES, ids=lambda p: p.name)
def test_summary_schema(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{data['pr']}.json"
    assert {"command", "order", "note", "workloads"} <= data.keys()
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert data["workloads"] and data["workloads"].keys() <= workloads
    for name, w in data["workloads"].items():
        seeds = w["seeds"]
        assert seeds == sorted(set(seeds)) and len(seeds) >= 5, name
        assert w["better_in"].keys() == METRICS, name
        assert all(0 <= k <= len(seeds) for k in w["better_in"].values()), name
        for side in ("parent", "change"):
            s = w[side]
            assert re.fullmatch("[0-9a-f]{40}", s["git_head"]), (name, side)
            assert s["attempted"] > 0 and s["failed"] == 0, (name, side)
            assert s["metrics"].keys() == METRICS, (name, side)
            for metric, q in s["metrics"].items():
                assert q["q1"] <= q["median"] <= q["q3"], (name, side, metric)
            assert s["metrics"]["ok_ratio"]["median"] == 1.0, (name, side)
        assert w["parent"]["git_head"] != w["change"]["git_head"], name


@pytest.mark.parametrize("path", SUMMARIES, ids=lambda p: p.name)
def test_a_recorded_claim_follows_the_rule(path):
    # a summary written with --claim says whether the claim meets the rule,
    # and checks every other workload and metric against its bound
    data = json.loads(path.read_text(encoding="utf-8"))
    if "claim" not in data:
        return
    c = data["claim"]
    w = data["workloads"][c["workload"]]
    assert c["pairs"] == len(w["seeds"]) and c["wins"] == w["better_in"][c["metric"]]
    assert c["met"] == (c["pairs"] >= 10 and 10 * c["wins"] >= 9 * c["pairs"]
                        and c["median_gap"] > c["parent_quartile_spread"])
    assert data["bounds"].keys() == data["workloads"].keys()
    for name, metrics in data["bounds"].items():
        want = METRICS - ({c["metric"]} if name == c["workload"] else set())
        assert metrics.keys() == want, name


# -- tools/bench_summary.py on made-up runs ----------------------------------------


sys.path.insert(0, str(ROOT / "tools"))
import bench_summary  # noqa: E402

BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def _write_runs(tmp_path, side: str, head: str, walls, workload="modules-duality"):
    "One run file per seed, each a # env line and the JSON last line of bench/run.py."
    d = tmp_path / side
    d.mkdir(exist_ok=True)
    for seed, wall in enumerate(walls, start=100):
        metrics = {m: {"value": 1.0} for m in METRICS}
        metrics["wall_s"] = {"value": wall}
        lines = ["# env " + json.dumps({"git_head": head * 40}),
                 json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})]
        (d / f"{workload}-{seed}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return d


def _claim(tmp_path, parent_walls, change_walls):
    parent = _write_runs(tmp_path, "parent", "a", parent_walls)
    change = _write_runs(tmp_path, "change", "b", change_walls)
    return bench_summary.summary(38, parent, change, "", "modules-duality/wall_s")


def test_a_claim_won_in_every_pair_by_more_than_the_spread_is_met(tmp_path):
    data = _claim(tmp_path, [0.100 + 0.001 * i for i in range(10)], [0.070] * 10)
    c = data["claim"]
    assert (c["workload"], c["metric"], c["pairs"], c["wins"]) == \
        ("modules-duality", "wall_s", 10, 10)
    assert c["median_gap"] == pytest.approx(0.0345) and c["met"]


@pytest.mark.parametrize("parent, change", [
    # 8 wins of 10
    ([0.1] * 10, [0.07] * 8 + [0.11] * 2),
    # 9 pairs only
    ([0.1] * 9, [0.07] * 9),
    # 10 wins, but the medians are closer than the parent's quartile spread
    ([0.08, 0.09, 0.1, 0.11, 0.12] * 2, [x - 0.001 for x in [0.08, 0.09, 0.1, 0.11, 0.12] * 2]),
])
def test_a_claim_short_of_the_rule_is_not_met(tmp_path, parent, change):
    c = _claim(tmp_path, parent, change)["claim"]
    assert not c["met"]


def test_nine_wins_of_ten_meet_the_rule(tmp_path):
    c = _claim(tmp_path, [0.1] * 10, [0.07] * 9 + [0.12])["claim"]
    assert c["wins"] == 9 and c["met"]


def test_every_other_metric_is_checked_against_its_bound(tmp_path):
    data = _claim(tmp_path, [0.1] * 10, [0.07] * 10)
    bounds = data["bounds"]["modules-duality"]
    assert "wall_s" not in bounds and bounds.keys() == METRICS - {"wall_s"}
    assert all(b == {"ratio": 1.0, "bound": BOUND[m], "within": True} for m, b in bounds.items())
    # a worse op_p90_ms and a lower ok_ratio, each beyond its bound, read outside
    w = data["workloads"]["modules-duality"]
    w["change"]["metrics"]["op_p90_ms"]["median"] = 1.0 + BOUND["op_p90_ms"] + 0.01
    w["change"]["metrics"]["ok_ratio"]["median"] = 1.0 - BOUND["ok_ratio"] - 0.01
    for m in ("op_p90_ms", "ok_ratio"):
        assert not bench_summary.bound_check(w, m, BETTER[m], BOUND[m])["within"], m
    # and a better one, however far, reads inside
    w["change"]["metrics"]["op_p90_ms"]["median"] = 0.5
    assert bench_summary.bound_check(w, "op_p90_ms", "lower", BOUND["op_p90_ms"])["within"]


def test_a_claim_on_a_workload_not_run_is_an_error(tmp_path):
    parent = _write_runs(tmp_path, "parent", "a", [0.1] * 10)
    change = _write_runs(tmp_path, "change", "b", [0.07] * 10)
    for claim in ("verify-scan/wall_s", "modules-duality/speed"):
        with pytest.raises(ValueError):
            bench_summary.summary(38, parent, change, "", claim)
