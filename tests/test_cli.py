"""Command-line contract: exit codes, report formats, determinism."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from click.testing import CliRunner

import entwine
from entwine import corpus
from entwine import fileformat as ff
from entwine.cli import main
from entwine.emodcat import std_module_CA
from entwine.hopfcore import trivial_hopf


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def h4_file(tmp_path, runner):
    path = tmp_path / "h4.json"
    res = runner.invoke(main, ["corpus", "h4", "-o", str(path)])
    assert res.exit_code == 0
    return str(path)


@pytest.fixture()
def yd_file(tmp_path, runner):
    path = tmp_path / "yd_h4.json"
    assert runner.invoke(main, ["corpus", "yd_h4", "-o", str(path)]).exit_code == 0
    return str(path)


def test_check_hopf_passes(runner, h4_file):
    res = runner.invoke(main, ["check", "hopf", h4_file])
    assert res.exit_code == 0
    assert "overall: pass" in res.output


def test_check_hopf_json_deterministic(runner, h4_file):
    res1 = runner.invoke(main, ["check", "hopf", h4_file, "--format", "json"])
    res2 = runner.invoke(main, ["check", "hopf", h4_file, "--format", "json"])
    assert res1.exit_code == 0
    assert res1.output == res2.output
    doc = json.loads(res1.output)
    assert doc["overall"] is True
    assert all(item["passed"] for item in doc["items"])


def test_check_multiple_files_in_order(runner, tmp_path):
    paths = []
    for name in ("h4", "kz2", "dual_kz2"):
        p = tmp_path / f"{name}.json"
        runner.invoke(main, ["corpus", name, "-o", str(p)])
        paths.append(str(p))
    res = runner.invoke(main, ["check", "hopf", *paths])
    assert res.exit_code == 0
    positions = [res.output.find(p) for p in paths]
    assert positions == sorted(positions) and -1 not in positions


def test_check_datum_and_dqg(runner, tmp_path, yd_file):
    res = runner.invoke(main, ["check", "entwining", yd_file])
    assert res.exit_code == 0
    res = runner.invoke(main, ["check", "datum", yd_file])
    assert res.exit_code == 0
    qp = tmp_path / "q.json"
    runner.invoke(main, ["corpus", "yd_dqg_h4", "-o", str(qp)])
    res = runner.invoke(main, ["check", "dqg", str(qp)])
    assert res.exit_code == 0


def test_check_module(runner, tmp_path, yd_file):
    from entwine import fileformat as ff
    from entwine.emodcat import std_module_CA
    from entwine.entwining import MonoidalEntwiningDatum

    datum = ff.load(yd_file)
    m = std_module_CA(MonoidalEntwiningDatum(datum))
    mp = tmp_path / "m.json"
    ff.save(m, mp)
    res = runner.invoke(main, ["check", "module", str(mp)])
    assert res.exit_code == 0


def test_check_pivotal_exit_codes(runner, tmp_path, yd_file):
    gp = tmp_path / "g2.json"
    up = tmp_path / "unit.json"
    runner.invoke(main, ["corpus", "g2_yd_h4", "-o", str(gp)])
    runner.invoke(main, ["corpus", "unit_morphism_yd_h4", "-o", str(up)])
    res = runner.invoke(main, ["check", "pivotal", "--datum", yd_file, "--morphism", str(gp)])
    assert res.exit_code == 0
    res = runner.invoke(
        main, ["check", "pivotal", "--datum", yd_file, "--morphism", str(up), "--format", "json"]
    )
    assert res.exit_code == 1
    doc = json.loads(res.output)
    failed = {it["axiom"]: it for it in doc["items"] if not it["passed"]}
    assert "P4_coaction_twist" in failed
    assert failed["P4_coaction_twist"]["witness"]["basis"] == [2]


def test_check_ribbon(runner, tmp_path):
    qp = tmp_path / "q.json"
    gp = tmp_path / "g.json"
    runner.invoke(main, ["corpus", "long_dqg_kz2", "-o", str(qp)])
    runner.invoke(main, ["corpus", "g_ribbon_long_kz2", "-o", str(gp)])
    res = runner.invoke(main, ["check", "ribbon", "--dqg", str(qp), "--morphism", str(gp)])
    assert res.exit_code == 0


def test_entwining_passes_but_datum_fails_for_hopf_module(runner, tmp_path):
    hp = tmp_path / "hm.json"
    runner.invoke(main, ["corpus", "hopfmod_h4", "-o", str(hp)])
    assert runner.invoke(main, ["check", "entwining", str(hp)]).exit_code == 0
    assert runner.invoke(main, ["check", "datum", str(hp)]).exit_code == 1


def test_parse_error_exit_2(runner, tmp_path, h4_file):
    trunc = tmp_path / "trunc.json"
    trunc.write_text(open(h4_file).read()[:60])
    res = runner.invoke(main, ["check", "hopf", str(trunc)])
    assert res.exit_code == 2
    res = runner.invoke(main, ["check", "hopf", str(tmp_path / "missing.json")])
    assert res.exit_code == 2


def _exported(runner, tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert runner.invoke(main, ["corpus", name, "-o", str(path)]).exit_code == 0
    return json.loads(path.read_text())


def _singular_antipode(runner, tmp_path):
    doc = _exported(runner, tmp_path, "h4")
    doc["antipode"] = [["0"] * 4 for _ in range(4)]
    return doc


def _zero_dim(runner, tmp_path):
    return {**ff.to_payload(trivial_hopf()), "dim": 0, "basis": [], "mult": [], "unit": [],
            "comult": [], "counit": [[]], "antipode": []}


def _bool_dim(runner, tmp_path):
    return {**ff.to_payload(trivial_hopf()), "dim": True}


def _h4_with(field, value):
    def build(runner, tmp_path):
        return {**_exported(runner, tmp_path, "h4"), field: value}
    return build


def _element_bad_dim(runner, tmp_path):
    return {**_exported(runner, tmp_path, "pivot_h4"), "dim": "x"}


def _morphism_map_not_rows(runner, tmp_path):
    return {**_exported(runner, tmp_path, "g1_yd_h4"), "map": [5]}


def _module_metadata_list(runner, tmp_path):
    module = std_module_CA(corpus.yd_datum(corpus.cyclic_group_algebra(2)))
    return {**ff.to_payload(module), "metadata": ["x"]}


@pytest.mark.parametrize(
    "build, field",
    [
        (_singular_antipode, "hopf.antipode"),
        (_zero_dim, "hopf.dim"),
        (_bool_dim, "hopf.dim"),
        (_h4_with("basis", 5), "hopf.basis"),
        (_h4_with("basis", "abcd"), "hopf.basis"),
        (_element_bad_dim, "element.dim"),
        (_morphism_map_not_rows, "morphism.map"),
        (_module_metadata_list, "metadata"),
    ],
    ids=["singular_antipode", "dim_0", "dim_true", "basis_5", "basis_string", "element_dim_x",
         "morphism_map_not_rows", "module_metadata_list"],
)
def test_bad_input_exits_2_with_field_path(runner, tmp_path, build, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(build(runner, tmp_path)))
    res = runner.invoke(main, ["check", "hopf", str(path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert field in res.output
    assert "Traceback" not in res.output


def test_usage_error_exit_2(runner):
    res = runner.invoke(main, ["check", "hopf"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["corpus", "not-a-name", "-o", "x.json"])
    assert res.exit_code == 2


def test_build_commands(runner, tmp_path, h4_file, yd_file):
    out = tmp_path / "out.json"
    res = runner.invoke(main, ["build", "double", "--hopf", h4_file, "-o", str(out)])
    assert res.exit_code == 0
    assert runner.invoke(main, ["check", "hopf", str(out)]).exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["construction"] == "drinfeld_double"
    assert "source_hash" in doc["metadata"]
    for sub, opts in (
        ("smash", ["--datum", yd_file]),
        ("cosmash", ["--datum", yd_file]),
        ("dual", ["--hopf", h4_file, "--twist", "op"]),
    ):
        res = runner.invoke(main, ["build", sub, *opts, "-o", str(out)])
        assert res.exit_code == 0, sub
        assert runner.invoke(main, ["check", "hopf", str(out)]).exit_code == 0, sub


def test_find_pivotal_machine_readable(runner, yd_file):
    res = runner.invoke(main, ["find", "pivotal", "--datum", yd_file])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["status"] == "complete"
    assert len(doc["solutions"]) == 2
    assert "family" in doc


def test_find_ribbon(runner, tmp_path):
    qp = tmp_path / "q.json"
    runner.invoke(main, ["corpus", "long_dqg_kz2", "-o", str(qp)])
    res = runner.invoke(main, ["find", "ribbon", "--dqg", str(qp), "--max-params", "2"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["status"] in ("complete", "parametric", "undecided")


def test_report_round_trip(runner, tmp_path, h4_file):
    rep = tmp_path / "rep.json"
    res = runner.invoke(main, ["check", "hopf", h4_file, "--report-out", str(rep)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["report", str(rep)])
    assert res.exit_code == 0
    assert res.output.strip().endswith("overall: pass")
    res = runner.invoke(main, ["report", str(rep), "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["overall"] is True


def test_multi_file_report_out_is_an_array(runner, tmp_path, h4_file):
    p2 = tmp_path / "kz2.json"
    runner.invoke(main, ["corpus", "kz2", "-o", str(p2)])
    rep = tmp_path / "reps.json"
    res = runner.invoke(main, ["check", "hopf", h4_file, str(p2), "--report-out", str(rep)])
    assert res.exit_code == 0
    doc = json.loads(rep.read_text())
    assert isinstance(doc, list) and len(doc) == 2
    assert {d["subject"] for d in doc} == {h4_file, str(p2)}
    res = runner.invoke(main, ["report", str(rep)])
    assert res.exit_code == 0
    assert res.output.count("overall: pass") == 2


def test_corpus_list(runner):
    res = runner.invoke(main, ["corpus-list"])
    assert res.exit_code == 0
    assert "h4" in res.output.split()


def test_bad_later_file_exits_2_before_any_report(runner, tmp_path, h4_file):
    # every file is checked before anything is printed, so a malformed second
    # file leaves no report of the first on stdout or in --report-out
    bad = tmp_path / "bad.json"
    bad.write_text(open(h4_file).read()[:60])
    rep = tmp_path / "reps.json"
    res = runner.invoke(main, ["check", "hopf", h4_file, str(bad), "--report-out", str(rep)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "bad.json" in res.output
    assert h4_file not in res.output and "overall" not in res.output
    assert not rep.exists()


def _run_in_subprocess(code, *args):
    src = str(Path(entwine.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True)


def test_multi_file_check_starts_no_thread(runner, tmp_path, h4_file):
    p2 = tmp_path / "kz2.json"
    runner.invoke(main, ["corpus", "kz2", "-o", str(p2)])
    code = textwrap.dedent("""
        import sys, threading
        started = []
        start = threading.Thread.start
        def counting_start(self):
            started.append(self.name)
            return start(self)
        threading.Thread.start = counting_start
        from entwine.cli import main
        try:
            main(["check", "hopf", sys.argv[1], sys.argv[2]])
        except SystemExit as exc:
            status = exc.code
        print(status, started, "concurrent.futures" in sys.modules, file=sys.stderr)
    """)
    out = _run_in_subprocess(code, h4_file, str(p2))
    assert out.stdout.count("overall: pass") == 2
    assert out.stderr.strip() == "0 [] False"


def test_cli_import_leaves_out_the_thread_pool():
    # no command runs a thread pool, so concurrent.futures stays out of start-up
    code = "import sys, entwine.cli; print('concurrent.futures' in sys.modules)"
    out = _run_in_subprocess(code)
    assert out.stdout.strip() == "False"


def test_report_text_renders_saved_failures_like_check(runner, tmp_path):
    # g.g = 2 in Z/2: several Hopf axioms fail with witnesses
    kp = tmp_path / "kz2.json"
    runner.invoke(main, ["corpus", "kz2", "-o", str(kp)])
    doc = json.loads(kp.read_text())
    doc["mult"][0][3] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rep = tmp_path / "r.json"
    checked = runner.invoke(main, ["check", "hopf", str(bad), "--report-out", str(rep)])
    assert checked.exit_code == 1
    assert " lhs=(" in checked.output and " rhs=(" in checked.output
    rendered = runner.invoke(main, ["report", str(rep), "--format", "text"])
    assert rendered.exit_code == 1
    # the saved report names its file; the item lines are the check's own
    assert rendered.output.splitlines()[1:] == checked.output.splitlines()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "doc, field",
    [
        ([5], "report[0]: expected an object"),
        ({"overall": False, "items": [{"axiom": "H01", "passed": False, "witness": {"basis": 5}}]},
         "report.items[0].witness.basis: expected a list"),
    ],
    ids=["list_of_non_objects", "witness_basis_5"],
)
def test_report_bad_document_exits_2_with_field_path(runner, tmp_path, doc, field, fmt):
    path = tmp_path / "bad_report.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["report", str(path), "--format", fmt])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert field in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args, bad, what", [
    (["check", "hopf", "{yd}"], "{yd}", "hopf"),
    (["check", "dqg", "{h4}"], "{h4}", "dqg"),
    (["check", "module", "{h4}"], "{h4}", "module"),
    (["check", "pivotal", "--datum", "{yd}", "--morphism", "{h4}"], "{h4}", "morphism"),
    (["check", "ribbon", "--dqg", "{yd}", "--morphism", "{h4}"], "{yd}", "dqg"),
    (["build", "double", "--hopf", "{yd}", "-o", "{out}"], "{yd}", "hopf"),
    (["build", "dual", "--hopf", "{yd}", "-o", "{out}"], "{yd}", "hopf"),
    (["find", "ribbon", "--dqg", "{h4}"], "{h4}", "dqg"),
    (["check", "entwining", "{h4}"], "{h4}", "entwining or dqg"),
])
def test_wrong_kind_of_file_exits_2(runner, tmp_path, h4_file, yd_file, args, bad, what):
    paths = {"h4": h4_file, "yd": yd_file, "out": str(tmp_path / "out.json")}
    res = runner.invoke(main, [a.format(**paths) for a in args])
    assert res.exit_code == 2
    article = "an" if what[0] in "aeiou" else "a"
    assert f"{bad.format(**paths)}: expected {article} {what} file" in res.output
    assert not (tmp_path / "out.json").exists()


_GROUP_HELP = {
    "check": (
        "Run axiom checks against structure files.",
        [
            ("datum", "Entwining + monoidal + antipode-compat axioms."),
            ("dqg", "Full double-structure axiom chain on dqg files."),
            ("entwining", "Basic entwining axioms on entwining/dqg files."),
            ("hopf", "Full Hopf axiom suite on hopf files."),
            ("module", "Entwined-module axioms on module files."),
            ("pivotal", "Verify an entwined pivotal morphism."),
            ("ribbon", "Verify an entwined ribbon morphism."),
        ],
    ),
    "build": (
        "Construct derived objects and save them to structure files.",
        [
            ("cosmash", "Smash coproduct Hopf algebra of a datum."),
            ("double", "Drinfeld double of a Hopf algebra file."),
            ("dual", "Dual Hopf algebra, optionally op/cop twisted."),
            ("smash", "Smash product Hopf algebra of a datum."),
        ],
    ),
    "find": ("Search for pivotal/ribbon morphism candidates.", [("pivotal", ""), ("ribbon", "")]),
}


@pytest.mark.parametrize("group", sorted(_GROUP_HELP))
def test_group_help_lists_every_command(runner, group):
    about, commands = _GROUP_HELP[group]
    width = max(len(name) for name, _ in commands)
    listing = "".join(
        f"  {name.ljust(width)}  {text}".rstrip() + "\n" for name, text in commands
    )
    res = runner.invoke(main, [group, "--help"], prog_name="entwine")
    assert res.exit_code == 0
    assert res.output == (
        f"Usage: entwine {group} [OPTIONS] COMMAND [ARGS]...\n\n  {about}\n\n"
        "Options:\n  --help  Show this message and exit.\n\nCommands:\n" + listing
    )


@pytest.mark.parametrize("name", ["hopf", "entwining", "datum", "dqg", "module"])
def test_file_checks_share_one_signature(runner, name):
    res = runner.invoke(main, ["check", name, "--help"], prog_name="entwine")
    assert res.exit_code == 0
    assert res.output.startswith(f"Usage: entwine check {name} [OPTIONS] FILES...\n")
    for option in ("--format [text|json]", "--report-out PATH"):
        assert option in res.output
