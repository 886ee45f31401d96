"""The benchmark's workloads: inputs, fixed op lists and the correctness oracle.

Every workload builds its inputs from the seed in ``setup`` and returns a
fixed list of ops.  Each op has a timed ``call`` and an untimed ``judge``
that returns the op's canonical output (digested by the harness) and a
problem string when the verdict is not the expected one: all-pass for
corpus inputs, FAIL of the predicted axiom for mutants.

The length of an op list places the percentiles.  Sorted by latency, the
samples of k passes over n ops form n blocks of k samples, one per op.  The
nearest-rank p50 and p90 fall at ranks ceil(n k / 2) and ceil(0.9 n k); with
n = 25 (verify-scan, modules-duality, cli-corpus) that is the middle of the
13th and the 23rd block for every k, and with n = 15 (dqg-e10b) the middle of
the 8th and the 14th.  Where the rank falls on the edge between two blocks
(n = 24, say), the percentile is the slowest sample of one op or the fastest
of the next and flips between them from run to run.  verify-scan gets its
25th op from kz10, which extends its Hopf ladder; dqg-e10b repeats kz3.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from mutants import (
    entwining_mutation,
    hopf_mutation,
    mutate_entwining,
    mutate_hopf,
    rng_for,
)

BENCH_DIR = Path(__file__).resolve().parent

# Ops call the library through the ``entwine`` package namespace at call
# time (``E.check_hopf``), never through names bound at set-up, so that the
# tracer's rebinding reaches them.
LAUNCHER = BENCH_DIR / "cli_launcher.py"
TRACE_ENV = "ENTWINE_BENCH_TRACE"
COST_ENV = "ENTWINE_BENCH_TRACE_COST"
SPANS_ENV = "ENTWINE_BENCH_SPANS"


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    judge: Callable[[object], tuple[str, str | None]]


@dataclass
class Prepared:
    "One set-up's result: the op list plus what the set-up cost, by step."

    ops: list[Op]
    steps_s: dict[str, float]
    mutations: dict[str, str] = field(default_factory=dict)
    cli: "CliRunner | None" = None

    def close(self) -> None:
        if self.cli is not None:
            self.cli.close()


def report_text(rep) -> str:
    """Canonical JSON of an AxiomReport, built from its items so that the
    oracle does not call (and is not traced as) the report renderer."""
    doc = {"overall": rep.overall, "items": [it.to_dict() for it in rep.items]}
    return json.dumps(doc, sort_keys=True)


def expect(overall: bool = True, fails: tuple[str, ...] = (), only: bool = False):
    def judge(rep):
        text = report_text(rep)
        failed = rep.failed_ids()
        if rep.overall != overall:
            return text, f"overall {rep.overall}, expected {overall} (failed: {failed})"
        missing = [a for a in fails if a not in failed]
        if missing:
            return text, f"expected FAIL of {missing}, failed: {failed}"
        if only and failed != sorted(fails):
            return text, f"expected only {sorted(fails)} to fail, failed: {failed}"
        return text, None
    return judge


class _Timer:
    def __init__(self):
        self.steps: dict[str, float] = {}

    def step(self, name, fn):
        t0 = perf_counter()
        out = fn()
        self.steps[name] = self.steps.get(name, 0.0) + perf_counter() - t0
        return out


# ---------------------------------------------------------------------------
# verify-scan: full axiom suites over a dimension ladder, plus mutants
# ---------------------------------------------------------------------------


def setup_verify_scan(seed: int, workdir: Path) -> Prepared:
    import entwine as E
    from entwine import corpus as C

    timer = _Timer()

    def build_corpus():
        h4 = C.sweedler_h4()
        # kz10 is not among the named inputs: it makes the pass 25 ops long
        kz = {n: C.cyclic_group_algebra(n) for n in (4, 6, 8, 10)}
        hopfs = {f"kz{n}": h for n, h in kz.items()}
        hopfs["double_h4"] = C.drinfeld_double(h4)
        datums = {"yd_h4": C.yd_datum(h4), "long_h4": C.long_datum(h4, h4),
                  "yd_kz6": C.yd_datum(kz[6]), "yd_kz8": C.yd_datum(kz[8])}
        return hopfs, datums

    hopfs, datums = timer.step("corpus", build_corpus)

    def full_suite(d):
        rep = E.check_entwining(d.base).merged_with(E.check_monoidal_datum(d))
        return rep.merged_with(E.check_antipode_compat(d))

    def build_mutants():
        out = []
        for name in ("kz4", "kz6", "kz8", "double_h4"):
            m = hopf_mutation(hopfs[name], rng_for(seed, name))
            out.append((f"mutant_hopf_{name}", m, mutate_hopf(hopfs[name], m), True))
        for name, d in datums.items():
            m = entwining_mutation(d.base, rng_for(seed, name))
            mutant = E.MonoidalEntwiningDatum(mutate_entwining(d.base, m))
            out.append((f"mutant_datum_{name}", m, mutant, False))
        return out

    mutants = timer.step("mutants", build_mutants)

    ops = [Op(f"hopf_{name}", lambda h=h: E.check_hopf(h), expect()) for name, h in hopfs.items()]
    for name, d in datums.items():
        ops.append(Op(f"entwining_{name}", lambda d=d: E.check_entwining(d.base), expect()))
        ops.append(Op(f"monoidal_{name}", lambda d=d: E.check_monoidal_datum(d), expect()))
        ops.append(Op(f"antipode_compat_{name}", lambda d=d: E.check_antipode_compat(d),
                      expect()))
    for op_name, m, mutant, is_hopf in mutants:
        call = (lambda h=mutant: E.check_hopf(h)) if is_hopf else (lambda d=mutant: full_suite(d))
        ops.append(Op(op_name, call, expect(False, (m.expect_fail,))))
    return Prepared(ops, timer.steps, {n: m.describe() for n, m, _, _ in mutants})


# ---------------------------------------------------------------------------
# dqg-e10b: double structures, dominated by the E10b convolution inverse
# ---------------------------------------------------------------------------

# (op name, Hopf algebra, repeats per pass).  The five inputs named for this
# workload: the Yetter-Drinfeld double structures of kz3, kz4, kz5 and h4,
# and yd_h4 with R = 0.  The repeats are not a traffic model: kz3, the
# smallest input, is run 11 times so that a pass has 15 ops.  Seven passes
# (about 20 s) then give the 100 samples the p90 needs, where one op each
# would need 20 passes; and with 15 ops the nearest-rank p50 and p90 fall in
# the middle of the kz3 and h4 blocks of samples (see the module docstring).
DQG_MIX = (
    ("yd_dqg_kz3", "kz3", 11),
    ("yd_dqg_kz4", "kz4", 1),
    ("r0_yd_h4", "h4", 1),
    ("yd_dqg_h4", "h4", 1),
    ("yd_dqg_kz5", "kz5", 1),
)


def setup_dqg_e10b(seed: int, workdir: Path) -> Prepared:
    import entwine as E
    from entwine import corpus as C

    timer = _Timer()

    def build_corpus():
        hopfs = {"h4": C.sweedler_h4()}
        for n in (3, 4, 5):
            hopfs[f"kz{n}"] = C.cyclic_group_algebra(n)
        structures = {}
        for op_name, src, _ in DQG_MIX:
            if op_name.startswith("r0_"):
                # R = 0: E07-E10a hold on both sides trivially, E10b cannot
                d = C.yd_datum(hopfs[src])
                n = d.c_dim * d.c_dim
                structures[op_name] = E.DoubleQuantumGroup(d, E.Matrix.zero(d.a_dim * d.a_dim, n))
            else:
                structures[op_name] = C.yd_dqg(hopfs[src])
        return structures

    structures = timer.step("corpus", build_corpus)

    def op(name):
        q = structures[name]
        # a fresh DoubleQuantumGroup per call, so its cached E10b inverse is recomputed
        call = lambda: E.check_double_quantum_group(E.DoubleQuantumGroup(q.datum, q.rmap))
        judge = (expect(False, ("E10b_conv_invertible",), only=True)
                 if name.startswith("r0_") else expect())
        return Op(name, call, judge)

    ops = [op(name) for name, _, repeats in DQG_MIX for _ in range(repeats)]
    return Prepared(ops, timer.steps)


# ---------------------------------------------------------------------------
# modules-duality: standard modules, tensor products, duals, braiding
# ---------------------------------------------------------------------------


def setup_modules_duality(seed: int, workdir: Path) -> Prepared:
    import entwine as E
    from entwine import corpus as C

    timer = _Timer()

    def build_corpus():
        h4 = C.sweedler_h4()
        datums = {"yd_h4": C.yd_datum(h4), "long_h4": C.long_datum(h4, h4),
                  "yd_kz4": C.yd_datum(C.cyclic_group_algebra(4))}
        return datums, C.yd_dqg(h4)

    datums, q = timer.step("corpus", build_corpus)
    def duality(m, dualize):
        return E.check_duality(m, dualize(m))

    def braiding_op():
        m = E.std_module_CA(q.datum)
        return E.check_braiding_naturality(m, m, q)

    def check(m):
        return E.check_entwined_module(m)

    ops = []
    for name, d in datums.items():
        ops += [
            Op(f"std_CA_{name}", lambda d=d: check(E.std_module_CA(d)), expect()),
            Op(f"std_AC_{name}", lambda d=d: check(E.std_module_AC(d)), expect()),
            Op(f"tensor_CA_AC_{name}", lambda d=d: check(
                E.tensor_modules(E.std_module_CA(d), E.std_module_AC(d))), expect()),
            Op(f"tensor_unit_CA_{name}", lambda d=d: check(
                E.tensor_modules(E.tensor_unit(d), E.std_module_CA(d))), expect()),
            Op(f"left_dual_CA_{name}",
               lambda d=d: duality(E.std_module_CA(d), E.left_dual), expect()),
            Op(f"right_dual_AC_{name}",
               lambda d=d: duality(E.std_module_AC(d), E.right_dual), expect()),
            Op(f"double_right_dual_CA_{name}",
               lambda d=d: check(E.double_right_dual(E.std_module_CA(d))), expect()),
            Op(f"double_right_dual_AC_{name}",
               lambda d=d: check(E.double_right_dual(E.std_module_AC(d))), expect()),
        ]
    ops.append(Op("braiding_CA_yd_dqg_h4", braiding_op, expect()))
    return Prepared(ops, timer.steps)


# ---------------------------------------------------------------------------
# cli-corpus: one `entwine` process per command over exported corpus files
# ---------------------------------------------------------------------------

CORPUS_FILES = (
    "h4", "kz3", "dual_h4", "double_h4", "double_kz2", "long_h4", "long_kz2",
    "yd_h4", "yd_kz2", "hopfmod_h4", "yd_dqg_h4", "yd_dqg_kz2", "long_dqg_kz2",
    "g1_yd_h4", "g2_yd_h4", "g_long_h4", "g_ribbon_long_kz2",
)
DQG_FILES = ("yd_dqg_h4.json", "yd_dqg_kz2.json", "long_dqg_kz2.json", "yd_dqg_kz3.json")
BUILT = ("built_double.json", "built_smash.json", "built_cosmash.json", "built_dual_op.json")
FOUR_FILE_OP = "check_dqg_4files"


def child_threads() -> int:
    "Worker cap for the CLI's multi-file pool: the cores this process may use."
    return len(os.sched_getaffinity(0))


class CliRunner:
    """Runs one `entwine` command per op in a fresh interpreter.

    With ``tracer`` set, each child installs the same wrappers through the
    launcher and writes its counters to a file, which is merged into the
    op's frame here.  Writing and reading that file is tracer bookkeeping.
    """

    def __init__(self, workdir: Path, src_dir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src_dir)
        self.env["ENTWINE_THREADS"] = str(child_threads())
        for key in (TRACE_ENV, COST_ENV, SPANS_ENV):
            self.env.pop(key, None)
        self.tracer = None
        self.children: dict[str, list[dict]] = {}

    def run(self, name: str, args: list[str]):
        env = self.env
        trace_file = None
        tracer = self.tracer
        if tracer is not None:
            trace_file = self.workdir / f"trace-{os.getpid()}.json"
            env = dict(env, **{TRACE_ENV: str(trace_file),
                               COST_ENV: f"{tracer.cost_in!r},{tracer.cost_out!r}",
                               SPANS_ENV: "1" if tracer.record_spans else "0"})
        proc = subprocess.run(
            [sys.executable, str(LAUNCHER), *args],
            cwd=self.workdir, env=env, capture_output=True, timeout=120, check=False,
        )
        if trace_file is not None:
            t0 = perf_counter()
            doc_line, dump_s = trace_file.read_text(encoding="utf-8").splitlines()
            child = json.loads(doc_line)
            trace_file.unlink()
            self.children.setdefault(name, []).append(child)
            tracer.add_child(child["layers"], float(dump_s) + perf_counter() - t0)
        return proc

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _json_docs(text: str) -> list:
    dec = json.JSONDecoder()
    docs, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        doc, i = dec.raw_decode(text, i)
        docs.append(doc)
    return docs


def cli_judge(workdir: Path, code: int = 0, outputs: tuple[str, ...] = (),
              check=None):
    """Exit code, then an optional check of stdout; the canonical output is
    stdout plus every named output file."""

    def judge(proc):
        parts = [proc.stdout.decode("utf-8", "replace")]
        for name in outputs:
            parts.append(f"--- {name}\n" + (workdir / name).read_text(encoding="utf-8"))
        text = "\n".join(parts)
        if proc.returncode != code:
            err = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return text, f"exit {proc.returncode}, expected {code}: {err}"
        if check is not None:
            return text, check(parts[0])
        return text, None

    return judge


def all_pass(n_docs: int):
    def check(stdout):
        docs = _json_docs(stdout)
        if len(docs) != n_docs:
            return f"{len(docs)} reports, expected {n_docs}"
        bad = [d.get("subject") for d in docs if not d.get("overall")]
        return f"reports not passing: {bad}" if bad else None
    return check


def setup_cli_corpus(seed: int, workdir: Path) -> Prepared:
    import entwine.fileformat as ff
    from entwine import corpus as C
    from entwine import std_module_CA

    timer = _Timer()
    src_dir = BENCH_DIR.parent / "src"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    def build_corpus():
        objs = {name: C.corpus_build(name)[1] for name in CORPUS_FILES}
        objs["yd_dqg_kz3"] = C.yd_dqg(C.cyclic_group_algebra(3))
        objs["ca_yd_h4"] = std_module_CA(objs["yd_h4"])
        return objs

    objs = timer.step("corpus", build_corpus)
    mutation = timer.step("mutants", lambda: hopf_mutation(objs["h4"], rng_for(seed, "cli_h4")))
    mutant = timer.step("mutants", lambda: mutate_hopf(objs["h4"], mutation))

    def export():
        for name, obj in objs.items():
            ff.save(obj, workdir / f"{name}.json", name=name,
                    metadata={"construction": f"corpus:{name}"})
        ff.save(mutant, workdir / "mutant_h4.json", name="mutant_h4",
                metadata={"construction": f"mutant:{mutation.describe()}"})

    timer.step("export", export)
    g_rows = [[[str(x) for x in row] for row in objs[n].map.rows()] for n in ("g1_yd_h4", "g2_yd_h4")]

    def finder_has_known(stdout):
        doc = json.loads(stdout)
        if doc.get("status") not in ("complete", "parametric", "undecided"):
            return f"finder status {doc.get('status')!r}"
        missing = [i + 1 for i, g in enumerate(g_rows) if g not in doc.get("solutions", [])]
        return f"known pivotal morphism g{missing} not listed" if missing else None

    def finder_status(stdout):
        status = json.loads(stdout).get("status")
        ok = status in ("complete", "parametric", "undecided")
        return None if ok else f"finder status {status!r}"

    def mutant_fails(stdout):
        if f"FAIL  {mutation.expect_fail}" not in stdout or "overall: FAIL" not in stdout:
            return f"mutant ({mutation.describe()}) not reported as failing"
        return None

    def report_lines(stdout):
        n = stdout.count("overall: pass")
        return None if n == len(DQG_FILES) else f"{n} passing subjects, expected {len(DQG_FILES)}"

    runner = CliRunner(workdir, src_dir)
    js = ["--format", "json"]
    table = [
        ("check_hopf_h4", ["check", "hopf", "h4.json", *js], all_pass(1)),
        ("check_hopf_kz3", ["check", "hopf", "kz3.json", *js], all_pass(1)),
        ("check_hopf_dual_h4", ["check", "hopf", "dual_h4.json", *js], all_pass(1)),
        ("check_hopf_double_kz2", ["check", "hopf", "double_kz2.json", *js], all_pass(1)),
        ("check_hopf_double_h4", ["check", "hopf", "double_h4.json", *js], all_pass(1)),
        ("check_entwining_hopfmod_h4", ["check", "entwining", "hopfmod_h4.json", *js], all_pass(1)),
        ("check_entwining_long_h4", ["check", "entwining", "long_h4.json", *js], all_pass(1)),
        ("check_datum_yd_h4", ["check", "datum", "yd_h4.json", *js], all_pass(1)),
        ("check_datum_long_kz2", ["check", "datum", "long_kz2.json", *js], all_pass(1)),
        ("check_datum_yd_kz2", ["check", "datum", "yd_kz2.json", *js], all_pass(1)),
        (FOUR_FILE_OP, ["check", "dqg", *DQG_FILES, *js, "--report-out", "dqg_report.json"],
         all_pass(len(DQG_FILES)), ("dqg_report.json",)),
        ("check_module_ca_yd_h4", ["check", "module", "ca_yd_h4.json", *js], all_pass(1)),
        ("check_pivotal_g1_yd_h4", ["check", "pivotal", "--datum", "yd_h4.json",
                                    "--morphism", "g1_yd_h4.json", *js], all_pass(1)),
        ("check_pivotal_g2_yd_h4", ["check", "pivotal", "--datum", "yd_h4.json",
                                    "--morphism", "g2_yd_h4.json", *js], all_pass(1)),
        ("check_pivotal_g_long_h4", ["check", "pivotal", "--datum", "long_h4.json",
                                     "--morphism", "g_long_h4.json", *js], all_pass(1)),
        ("check_ribbon_long_dqg_kz2", ["check", "ribbon", "--dqg", "long_dqg_kz2.json",
                                       "--morphism", "g_ribbon_long_kz2.json", *js], all_pass(1)),
        ("check_hopf_mutant_h4", ["check", "hopf", "mutant_h4.json"], mutant_fails, (), 1),
        ("build_double_h4", ["build", "double", "--hopf", "h4.json", "-o", BUILT[0]],
         None, (BUILT[0],)),
        ("build_smash_yd_h4", ["build", "smash", "--datum", "yd_h4.json", "-o", BUILT[1]],
         None, (BUILT[1],)),
        ("build_cosmash_yd_h4", ["build", "cosmash", "--datum", "yd_h4.json", "-o", BUILT[2]],
         None, (BUILT[2],)),
        ("build_dual_op_h4", ["build", "dual", "--hopf", "h4.json", "--twist", "op",
                              "-o", BUILT[3]], None, (BUILT[3],)),
        ("check_hopf_built", ["check", "hopf", *BUILT, *js], all_pass(len(BUILT))),
        ("find_pivotal_yd_h4", ["find", "pivotal", "--datum", "yd_h4.json"], finder_has_known),
        ("find_ribbon_yd_dqg_kz2", ["find", "ribbon", "--dqg", "yd_dqg_kz2.json"],
         finder_status),
        ("report_dqg", ["report", "dqg_report.json", "--format", "text"], report_lines),
    ]
    ops = []
    for name, args, check, *rest in table:
        outputs = rest[0] if rest else ()
        code = rest[1] if len(rest) > 1 else 0
        ops.append(Op(name, lambda n=name, a=args: runner.run(n, a),
                      cli_judge(workdir, code, outputs, check)))
    return Prepared(ops, timer.steps, {"check_hopf_mutant_h4": mutation.describe()}, runner)


# name -> (setup, op whose span tree the traced run writes out)
WORKLOADS = {
    "verify-scan": (setup_verify_scan, "hopf_double_h4"),
    "dqg-e10b": (setup_dqg_e10b, "yd_dqg_h4"),
    "modules-duality": (setup_modules_duality, "left_dual_CA_yd_h4"),
    "cli-corpus": (setup_cli_corpus, "find_pivotal_yd_h4"),
}
