"""Command-line front end: checks, constructions, search, corpus export.

Exit codes follow the verification contract: 0 when every requested
check passes, 1 when a check fails, 2 on usage or parse errors.  Reports
render as text or machine-readable JSON mirroring the AxiomReport
structure, byte-for-byte deterministic for identical inputs.

The modules that every check and build reads (fileformat, exactla, report,
hopfcore, entwining) load with this module.  emodcat, pivribbon, smash and
corpus load only in the commands that run them: without a bytecode cache a
process compiles every module it imports, and start-up is most of a short
command's time.
"""

from __future__ import annotations

import json
import sys

import click

from . import fileformat as ff
from .entwining import (
    DoubleQuantumGroup,
    EntwiningMap,
    HomCA,
    MonoidalEntwiningDatum,
    check_antipode_compat,
    check_double_quantum_group,
    check_entwining,
    check_monoidal_datum,
)
from .hopfcore import HopfAlgebraData, check_hopf, dual_hopf
from .report import AxiomReport, render_text
from .exactla import NotInvertibleError, rat_to_str


def _max_workers() -> int:
    # files are checked one after another; kept for bench/tracer.py, which reads it
    return 1


def _load(path):
    try:
        return ff.load(path)
    except FileNotFoundError:
        raise click.UsageError(f"{path}: no such file")
    except ff.FileFormatError as exc:
        raise click.UsageError(f"{path}: {exc}")


def _write_report_file(report_out, docs) -> None:
    payload = docs[0] if len(docs) == 1 else docs
    with open(report_out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_report(label: str, report: AxiomReport, fmt: str, report_out=None) -> None:
    doc = {"subject": label, **report.to_dict()}
    if fmt == "json":
        click.echo(json.dumps(doc, sort_keys=True, indent=2))
    else:
        if label:
            click.echo(f"== {label}")
        click.echo(report.render_text())
    if report_out:
        _write_report_file(report_out, [doc])


def _run_file_checks(paths, runner, fmt, report_out) -> bool:
    """Check every file in input order, then print and save the reports.

    Nothing is output until every file is checked, so a bad later file
    exits 2 with no report printed.
    """
    reports = [runner(path) for path in paths]
    ok = True
    docs = []
    for path, report in zip(paths, reports):
        label = path if len(paths) > 1 else ""
        _emit_report(label, report, fmt, None)
        docs.append({"subject": label or path, **report.to_dict()})
        ok &= report.overall
    if report_out:
        _write_report_file(report_out, docs)
    return ok


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    help="report rendering",
)
_report_out_option = click.option(
    "--report-out", type=click.Path(), default=None,
    help="also write the JSON report to this path",
)


@click.group()
def main():
    "Exact verification of Hopf/entwining structure data."


@main.group()
def check():
    "Run axiom checks against structure files."


def _load_as(path, cls, what):
    "Load a structure file that must hold a cls; any other kind exits 2."
    obj = _load(path)
    if not isinstance(obj, cls):
        raise click.UsageError(f"{path}: expected a {what} file")
    return obj


def _load_datum(path) -> MonoidalEntwiningDatum:
    obj = _load(path)
    if isinstance(obj, DoubleQuantumGroup):
        return obj.datum
    if isinstance(obj, EntwiningMap):
        return MonoidalEntwiningDatum(obj)
    raise click.UsageError(f"{path}: expected an entwining or dqg file")


def _full_datum_report(d: MonoidalEntwiningDatum) -> AxiomReport:
    rep = check_entwining(d).merged_with(check_monoidal_datum(d))
    return rep.merged_with(check_antipode_compat(d))


def _full_dqg_report(q: DoubleQuantumGroup) -> AxiomReport:
    return _full_datum_report(q.datum).merged_with(check_double_quantum_group(q))


def _module_report(path) -> AxiomReport:
    from .emodcat import EntwinedModule, check_entwined_module
    return check_entwined_module(_load_as(path, EntwinedModule, "module"))


def _file_check(name: str, help: str, runner) -> None:
    "Register `check <name> FILES...`, which reports runner(path) for each file."

    @check.command(name=name, help=help)
    @click.argument("files", nargs=-1, required=True, type=click.Path())
    @_format_option
    @_report_out_option
    def cmd(files, fmt, report_out):
        sys.exit(0 if _run_file_checks(list(files), runner, fmt, report_out) else 1)


_file_check("hopf", "Full Hopf axiom suite on hopf files.",
            lambda path: check_hopf(_load_as(path, HopfAlgebraData, "hopf")))
_file_check("entwining", "Basic entwining axioms on entwining/dqg files.",
            lambda path: check_entwining(_load_datum(path)))
_file_check("datum", "Entwining + monoidal + antipode-compat axioms.",
            lambda path: _full_datum_report(_load_datum(path)))
_file_check("dqg", "Full double-structure axiom chain on dqg files.",
            lambda path: _full_dqg_report(_load_as(path, DoubleQuantumGroup, "dqg")))
_file_check("module", "Entwined-module axioms on module files.", _module_report)


def _attach_morphism(d: MonoidalEntwiningDatum, morph_path) -> HomCA:
    m = _load_as(morph_path, ff.LoadedMorphism, "morphism")
    if m.map.nrows != d.a_dim or m.map.ncols != d.c_dim:
        raise click.UsageError(
            f"{morph_path}: map is {m.map.nrows}x{m.map.ncols}, expected "
            f"{d.a_dim}x{d.c_dim} for this datum"
        )
    return HomCA(d, m.map)


@check.command(name="pivotal", help="Verify an entwined pivotal morphism.")
@click.option("--datum", "datum_path", required=True, type=click.Path())
@click.option("--morphism", "morph_path", required=True, type=click.Path())
@_format_option
@_report_out_option
def check_pivotal_cmd(datum_path, morph_path, fmt, report_out):
    from .pivribbon import verify_pivotal
    g = _attach_morphism(_load_datum(datum_path), morph_path)
    rep = verify_pivotal(g.datum, g)
    _emit_report("", rep, fmt, report_out)
    sys.exit(0 if rep.overall else 1)


@check.command(name="ribbon", help="Verify an entwined ribbon morphism.")
@click.option("--dqg", "dqg_path", required=True, type=click.Path())
@click.option("--morphism", "morph_path", required=True, type=click.Path())
@_format_option
@_report_out_option
def check_ribbon_cmd(dqg_path, morph_path, fmt, report_out):
    from .pivribbon import verify_ribbon
    q = _load_as(dqg_path, DoubleQuantumGroup, "dqg")
    rep = verify_ribbon(q, _attach_morphism(q.datum, morph_path))
    _emit_report("", rep, fmt, report_out)
    sys.exit(0 if rep.overall else 1)


@main.group()
def build():
    "Construct derived objects and save them to structure files."


def _save_built(path, src, build, output, construction: str) -> None:
    """Save build(src), with its construction and the hash of its source.
    A built antipode that is singular exits 2, and nothing is written."""
    try:
        obj = build(src)
    except NotInvertibleError:
        raise click.UsageError(f"{path}: the antipode of its {construction} is singular")
    src_hash = ff.content_hash(ff.to_payload(src))
    ff.save(obj, output, metadata={"construction": construction, "source_hash": src_hash})


@build.command(name="smash", help="Smash product Hopf algebra of a datum.")
@click.option("--datum", "datum_path", required=True, type=click.Path())
@click.option("-o", "--output", required=True, type=click.Path())
def build_smash_cmd(datum_path, output):
    from .smash import smash_product
    _save_built(datum_path, _load_datum(datum_path), smash_product, output, "smash_product")


@build.command(name="cosmash", help="Smash coproduct Hopf algebra of a datum.")
@click.option("--datum", "datum_path", required=True, type=click.Path())
@click.option("-o", "--output", required=True, type=click.Path())
def build_cosmash_cmd(datum_path, output):
    from .smash import smash_coproduct
    _save_built(datum_path, _load_datum(datum_path), smash_coproduct, output, "smash_coproduct")


@build.command(name="double", help="Drinfeld double of a Hopf algebra file.")
@click.option("--hopf", "hopf_path", required=True, type=click.Path())
@click.option("-o", "--output", required=True, type=click.Path())
def build_double_cmd(hopf_path, output):
    from .corpus import drinfeld_double
    h = _load_as(hopf_path, HopfAlgebraData, "hopf")
    _save_built(hopf_path, h, drinfeld_double, output, "drinfeld_double")


@build.command(name="dual", help="Dual Hopf algebra, optionally op/cop twisted.")
@click.option("--hopf", "hopf_path", required=True, type=click.Path())
@click.option("--twist", type=click.Choice(["plain", "op", "cop"]), default="plain")
@click.option("-o", "--output", required=True, type=click.Path())
def build_dual_cmd(hopf_path, twist, output):
    h = _load_as(hopf_path, HopfAlgebraData, "hopf")
    _save_built(hopf_path, h, lambda x: dual_hopf(x, twist), output, f"dual_{twist}")


@main.group(name="find")
def find_grp():
    "Search for pivotal/ribbon morphism candidates."


def _emit_finder(res) -> None:
    doc = {
        "status": res.status,
        "notes": res.notes,
        "solutions": [
            [[rat_to_str(x) for x in row] for row in c.map.map.rows()]
            for c in res.solutions
        ],
    }
    if res.family is not None:
        doc["family"] = {
            "particular": [rat_to_str(x) for x in res.family.particular],
            "nullspace_basis": [
                [rat_to_str(x) for x in v] for v in res.family.nullspace_basis
            ],
        }
    click.echo(json.dumps(doc, sort_keys=True, indent=2))


@find_grp.command(name="pivotal")
@click.option("--datum", "datum_path", required=True, type=click.Path())
@click.option("--max-params", type=int, default=4, show_default=True)
def find_pivotal_cmd(datum_path, max_params):
    from .pivribbon import find_morphisms
    d = _load_datum(datum_path)
    _emit_finder(find_morphisms(d, "pivotal", max_params))


@find_grp.command(name="ribbon")
@click.option("--dqg", "--datum", "dqg_path", required=True, type=click.Path())
@click.option("--max-params", type=int, default=4, show_default=True)
def find_ribbon_cmd(dqg_path, max_params):
    from .pivribbon import find_morphisms
    q = _load_as(dqg_path, DoubleQuantumGroup, "dqg")
    _emit_finder(find_morphisms(q, "ribbon", max_params))


@main.command(name="corpus", help="Export a built-in example structure.")
@click.argument("name")
@click.option("-o", "--output", required=True, type=click.Path())
def corpus_cmd(name, output):
    from .corpus import corpus_build
    try:
        _kind, obj = corpus_build(name)
    except KeyError as exc:
        raise click.UsageError(str(exc.args[0]))
    ff.save(obj, output, name=name, metadata={"construction": f"corpus:{name}"})


@main.command(name="corpus-list", help="List the built-in corpus names.")
def corpus_list_cmd():
    from .corpus import corpus_names
    for name in corpus_names():
        click.echo(name)


def _saved_reports(doc, file) -> list[dict]:
    """The report objects of a saved report (one object or a list of them),
    checked for the shape render_text reads; a misshapen one exits 2."""

    def expect(value, kind, path):
        if not isinstance(value, kind):
            what = "an object" if kind is dict else "a list"
            raise click.UsageError(f"{file}: {path}: expected {what}")
        return value

    docs = doc if isinstance(doc, list) else [doc]
    for n, one in enumerate(docs):
        path = f"report[{n}]" if isinstance(doc, list) else "report"
        items = expect(expect(one, dict, path).get("items", []), list, f"{path}.items")
        for i, it in enumerate(items):
            w = expect(it, dict, f"{path}.items[{i}]").get("witness")
            if w is not None:
                expect(w, dict, f"{path}.items[{i}].witness")
                for key in ("basis", "lhs", "rhs"):
                    expect(w.get(key, []), list, f"{path}.items[{i}].witness.{key}")
    return docs


@main.command(name="report", help="Re-render a saved JSON report.")
@click.argument("file", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def report_cmd(file, fmt):
    try:
        with open(file, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise click.UsageError(f"{file}: no such file")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{file}: not valid JSON: {exc}")
    docs = _saved_reports(doc, file)
    if fmt == "json":
        click.echo(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for one in docs:
            subject = one.get("subject")
            if subject:
                click.echo(f"== {subject}")
            click.echo(render_text(one))
    sys.exit(0 if all(one.get("overall") for one in docs) else 1)


if __name__ == "__main__":
    main()
