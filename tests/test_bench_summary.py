"""The committed benchmark summaries (BENCH_<pr>.json at the repository root,
written by tools/bench_summary.py) follow one schema: per workload of
BENCHMARK.json that was run, the seeds, each side's git head, runs and
failures, the median and quartiles of every end-to-end metric, and the
number of pairs in which the change was better."""

import json
import re
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
