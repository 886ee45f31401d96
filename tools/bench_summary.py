"""Summarise alternating benchmark runs of a parent and a change into BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 tools/bench_summary.py --pr 28 --parent RUNS/parent --change RUNS/change \\
        -o BENCH_28.json

Each directory holds the standard output of ``bench/run.py`` runs, one file
per run named ``<workload>-<seed>.txt``; the two sides ran the same seeds of
a workload in alternating pairs.  Per workload the summary records the seeds,
each side's git head (from the ``# env`` line of its runs), and the median
and quartiles of every end-to-end metric, read from the JSON object that each
run prints on its last line.  ``better_in`` counts the pairs in which the
change is better than the parent, in the direction ``BENCHMARK.json`` gives.
``--note`` adds free text (the machine, how the change was checked out).

``--claim WORKLOAD/METRIC`` names the one metric the change claims to
improve.  ``claim`` then records whether it meets the rule for a claimed
gain: at least 10 pairs, the change better in at least 9 of every 10, and
the medians apart by more than the parent's quartile spread (q3 - q1), in
the better direction.  ``bounds`` records, for every other pair of workload
and metric, the change's median over the parent's and whether that ratio
stays inside the metric's ``BENCHMARK.json`` bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a change better than the parent makes SIGN * (change - parent) negative
SIGN = {"lower": 1, "higher": -1}
ORDER = "alternating pairs, each side first in every other pair"
COMMAND = "PYTHONDONTWRITEBYTECODE=1 python3 bench/run.py --workload W --seed S --seconds 20 --trace 0"


def read_run(path: Path) -> tuple[str | None, dict]:
    "The git head of a run's # env line and the JSON object of its last line."
    lines = path.read_text(encoding="utf-8").splitlines()
    env = next((json.loads(x[len("# env "):]) for x in lines if x.startswith("# env ")), {})
    return env.get("git_head"), json.loads(lines[-1])


def value(run: dict, metric: str) -> float:
    return run["metrics"][metric]["value"]


def side_summary(runs: list[tuple[str | None, dict]], metrics) -> dict:
    heads = sorted({head or "unknown" for head, _ in runs})
    out = {"git_head": heads[0] if len(heads) == 1 else heads,
           "attempted": sum(r["attempted"] for _, r in runs),
           "failed": sum(r["failed"] for _, r in runs),
           "metrics": {}}
    for name in metrics:
        values = [value(r, name) for _, r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out["metrics"][name] = {"median": median, "q1": q1, "q3": q3}
    return out


def claim_check(w: dict, metric: str, how: str) -> dict:
    "Whether the change's gain in metric on workload summary w meets the rule for a claim."
    pairs, wins = len(w["seeds"]), w["better_in"][metric]
    p, c = w["parent"]["metrics"][metric], w["change"]["metrics"][metric]
    gap, spread = SIGN[how] * (p["median"] - c["median"]), p["q3"] - p["q1"]
    return {"pairs": pairs, "wins": wins, "median_gap": gap, "parent_quartile_spread": spread,
            "met": pairs >= 10 and 10 * wins >= 9 * pairs and gap > spread}


def bound_check(w: dict, metric: str, how: str, bound: float) -> dict:
    "The change's median over the parent's in metric, and whether it is inside bound."
    p, c = w["parent"]["metrics"][metric]["median"], w["change"]["metrics"][metric]["median"]
    ratio = c / p if p else None
    worse = SIGN[how] * (c - p) / abs(p) if p else SIGN[how] * (c - p)
    return {"ratio": ratio, "bound": bound, "within": worse <= bound}


def summary(pr: int, parent: Path, change: Path, note: str, claim: str | None = None) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = {}
    for w in (w["name"] for w in bench["workloads"]):
        seeds = sorted(int(p.stem[len(w) + 1:]) for p in parent.glob(f"{w}-*.txt"))
        if not seeds:
            continue
        sides = {name: [read_run(d / f"{w}-{s}.txt") for s in seeds]
                 for name, d in (("parent", parent), ("change", change))}
        workloads[w] = {
            "seeds": seeds,
            "parent": side_summary(sides["parent"], better),
            "change": side_summary(sides["change"], better),
            "better_in": {
                name: sum(SIGN[how] * (value(c, name) - value(p, name)) < 0
                          for (_, p), (_, c) in zip(sides["parent"], sides["change"]))
                for name, how in better.items()},
        }
    out = {"pr": pr, "command": COMMAND, "order": ORDER, "note": note, "workloads": workloads}
    if claim is not None:
        name, _, metric = claim.partition("/")
        if name not in workloads or metric not in better:
            raise ValueError(f"claim {claim!r} names no workload run and metric of BENCHMARK.json")
        out["claim"] = {"workload": name, "metric": metric,
                        **claim_check(workloads[name], metric, better[metric])}
        out["bounds"] = {w: {m: bound_check(workloads[w], m, how, bounds[m])
                             for m, how in better.items() if (w, m) != (name, metric)}
                         for w in workloads}
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--note", default="")
    p.add_argument("--claim", metavar="WORKLOAD/METRIC")
    p.add_argument("-o", "--out", type=Path, required=True)
    args = p.parse_args(argv)
    data = summary(args.pr, args.parent, args.change, args.note, args.claim)
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
