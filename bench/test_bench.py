"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q

They run the harness for one second per workload untraced (which still
makes at least one full pass) and ten seconds traced, and read its result
lines and files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mutants  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)

# layer metrics each workload must load, and metrics it must leave at zero
LOADED = {
    "verify-scan": ("exactla.kernel.calls", "report.compare_item.calls",
                    "report.compare_item.tuples", "hopfcore.check_hopf.calls",
                    "entwining.check_antipode_compat.self_s"),
    "dqg-e10b": ("entwining.conv2_inverse.calls", "entwining.conv2_inverse.self_s",
                 "exactla.solve.calls", "exactla.solve.rows", "exactla.solve.inconsistent",
                 "exactla.matrix.calls", "exactla.kernel.calls"),
    "modules-duality": ("exactla.matrix.calls", "exactla.matrix.entries",
                        "exactla.sparse_cols.calls", "exactla.product.calls",
                        "emodcat.tensor_modules.self_s", "emodcat.dual.self_s",
                        "emodcat.check_duality.self_s", "emodcat.module_morphism.self_s",
                        "emodcat.braiding.self_s"),
    "cli-corpus": ("fileformat.load.calls", "fileformat.load.bytes", "fileformat.save.calls",
                   "fileformat.save.bytes", "pivribbon.find_morphisms.calls",
                   "pivribbon.verifier.calls", "entwining.conv_inverse.calls",
                   "exactla.solve.calls", "smash.build.self_s", "report.render.self_s",
                   "cli.pool.busy_s", "cli.pool.efficiency"),
}
IDLE = {
    "verify-scan": ("exactla.solve.calls", "exactla.matrix.calls",
                    "entwining.conv2_inverse.calls", "pivribbon.find_morphisms.calls",
                    "fileformat.load.calls", "fileformat.save.calls", "cli.pool.busy_s"),
    "dqg-e10b": ("hopfcore.check_hopf.calls", "pivribbon.find_morphisms.calls",
                 "fileformat.load.calls", "fileformat.save.calls", "cli.pool.busy_s"),
    "modules-duality": ("exactla.solve.calls", "entwining.conv2_inverse.calls",
                        "hopfcore.check_hopf.calls", "fileformat.load.calls",
                        "fileformat.save.calls", "cli.pool.busy_s"),
    "cli-corpus": (),
}


def bench_run(workload, trace, seed=1, seconds=1, cwd=ROOT, runner=ROOT / "bench" / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


@pytest.fixture(scope="module")
def traced():
    """Result line and result file of one traced run per workload, long enough
    for a few paired passes: the accounting check takes their median."""
    out = {}
    for w in WORKLOADS:
        proc = bench_run(w, 1, seconds=10)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        doc = json.loads((run.OUT_DIR / f"{w}-seed1-trace1.json").read_text())
        out[w] = (line, doc)
    return out


def test_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_end_to_end_metrics_emitted_with_units():
    proc = bench_run("verify-scan", 0)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= run.MIN_SAMPLES
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in line["metrics"].values())
    doc = json.loads((run.OUT_DIR / "verify-scan-seed1-trace0.json").read_text())
    assert set(doc["environment"]) >= {"python", "nproc", "git_head", "seed", "entwine_threads",
                                       "loadavg_1m"}
    assert doc["ladder"]["antipode_compat_yd_kz8"]["samples"] == doc["passes"]
    assert doc["fail_ratio"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_emitted_with_units(traced, workload):
    line, doc = traced[workload]
    assert line["correct"] and line["failed"] == 0
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == \
        [(n, u) for n, u, _ in run.PER_LAYER]
    assert doc["trace"]["span_tree"]["name"] == workloads.WORKLOADS[workload][1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_loaded_layers_count_work(traced, workload):
    metrics = traced[workload][0]["metrics"]
    assert [m for m in LOADED[workload] if not metrics[m]["value"] > 0] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_idle_layers_read_zero(traced, workload):
    metrics = traced[workload][0]["metrics"]
    assert [m for m in IDLE[workload] if metrics[m]["value"] != 0] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_account_for_untraced_wall(traced, workload):
    "Traced op time minus the tracer's bookkeeping matches the untraced pass."
    acc = traced[workload][1]["trace"]["accounting"]
    assert abs(acc["net_ratio"] - 1) <= run.ACCOUNTING_TOLERANCE, acc
    assert acc["within_tolerance"]
    assert all(p["op_roots_s"] >= 0 and p["bookkeeping_s"] > 0 for p in acc["passes"])


def _mutations(seed):
    prepared = workloads.setup_verify_scan(seed, ROOT)
    return prepared.mutations


def test_same_seed_same_mutants_other_seed_other_mutants():
    assert _mutations(3) == _mutations(3)
    assert _mutations(3) != _mutations(4)


@pytest.mark.parametrize("seed", range(8))
def test_mutants_fail_the_predicted_axiom(seed):
    from entwine import corpus as C
    from entwine import check_entwining, check_hopf

    h4, kz3 = C.sweedler_h4(), C.cyclic_group_algebra(3)
    for name, h in (("h4", h4), ("kz3", kz3), ("dual_h4", C.dual_cyclic_group_algebra(2))):
        m = mutants.hopf_mutation(h, mutants.rng_for(seed, name))
        assert m.expect_fail in check_hopf(mutants.mutate_hopf(h, m)).failed_ids(), m
    for name, d in (("yd_h4", C.yd_datum(h4)), ("long_h4", C.long_datum(h4, h4)),
                    ("yd_kz3", C.yd_datum(kz3))):
        m = mutants.entwining_mutation(d.base, mutants.rng_for(seed, name))
        rep = check_entwining(mutants.mutate_entwining(d.base, m))
        assert m.expect_fail in rep.failed_ids(), m


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench_run("verify-scan", 0, cwd=tmp_path, runner=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
