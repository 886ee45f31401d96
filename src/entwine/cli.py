"""Command-line front end: checks, constructions, search, corpus export.

Exit codes follow the verification contract: 0 when every requested
check passes, 1 when a check fails, 2 on usage or parse errors, and 141
when the reader of stdout closes it before the output is written.  Reports
render as text or machine-readable JSON mirroring the AxiomReport
structure, byte-for-byte deterministic for identical inputs.  A bad input
found while a command runs prints ``Error: <message>`` on stderr, and
nothing on stdout.

The parser is the standard library's argparse, built from the one table
_COMMANDS.  The modules that every check and build reads (fileformat,
exactla, report, hopfcore, entwining) load with this module.  emodcat,
pivribbon, smash and corpus load only in the commands that run them:
without a bytecode cache a process compiles every module it imports, and
start-up is most of a short command's time.  For the same reason the CLI
uses no third-party package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

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


class UsageError(Exception):
    "Bad input found by a command: main prints `Error: <message>` and exits 2."


def _max_workers() -> int:
    # files are checked one after another; kept for bench/tracer.py, which reads it
    return 1


@contextmanager
def _opening(path):
    """A block that reads or writes path: an OSError there (a directory, no
    permission) or bytes that are not UTF-8 are bad input, not a verdict.
    A closed stdout stays a BrokenPipeError (exit 141)."""
    try:
        yield
    except FileNotFoundError:
        raise UsageError(f"{path}: no such file")
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def _load(path):
    try:
        with _opening(path):
            return ff.load(path)
    except ff.FileFormatError as exc:
        raise UsageError(f"{path}: {exc}")


def _write_report_file(report_out, docs) -> None:
    payload = docs[0] if len(docs) == 1 else docs
    with _opening(report_out), open(report_out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _print_doc(label: str, doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        if label:
            print(f"== {label}")
        print(render_text(doc))


def _emit_report(label: str, report: AxiomReport, fmt: str, report_out=None) -> dict:
    """Save the report to report_out, then print it; returns its to_dict(),
    made once.  An unwritable report_out exits 2 with nothing printed."""
    body = report.to_dict()
    doc = {"subject": label, **body}
    if report_out:
        _write_report_file(report_out, [doc])
    _print_doc(label, doc, fmt)
    return body


def _run_file_checks(paths, runner, fmt, report_out) -> bool:
    """Check every file in input order, then save and print the reports.

    Nothing is output until every file is checked and report_out is
    written, so a bad later file or an unwritable report_out exits 2 with
    no report printed.
    """
    reports = [runner(path) for path in paths]
    labels = [path if len(paths) > 1 else "" for path in paths]
    bodies = [report.to_dict() for report in reports]
    if report_out:
        _write_report_file(report_out, [{"subject": label or path, **body}
                                        for path, label, body in zip(paths, labels, bodies)])
    for label, body in zip(labels, bodies):
        _print_doc(label, {"subject": label, **body}, fmt)
    return all(report.overall for report in reports)


def _load_as(path, cls, what):
    "Load a structure file that must hold a cls; any other kind exits 2."
    obj = _load(path)
    if not isinstance(obj, cls):
        raise UsageError(f"{path}: expected a {what} file")
    return obj


def _load_datum(path) -> MonoidalEntwiningDatum:
    obj = _load(path)
    if isinstance(obj, DoubleQuantumGroup):
        return obj.datum
    if isinstance(obj, EntwiningMap):
        return MonoidalEntwiningDatum(obj)
    raise UsageError(f"{path}: expected an entwining or dqg file")


def _full_datum_report(d: MonoidalEntwiningDatum) -> AxiomReport:
    rep = check_entwining(d).merged_with(check_monoidal_datum(d))
    return rep.merged_with(check_antipode_compat(d))


def _full_dqg_report(q: DoubleQuantumGroup) -> AxiomReport:
    return _full_datum_report(q.datum).merged_with(check_double_quantum_group(q))


def _module_report(path) -> AxiomReport:
    from .emodcat import EntwinedModule, check_entwined_module
    return check_entwined_module(_load_as(path, EntwinedModule, "module"))


def _file_check(runner):
    "The command `check <name> FILES...`, which reports runner(path) for each file."
    # _run_file_checks is looked up when the command runs, so a rebinding of it counts
    return lambda a: _run_file_checks(a.files, runner, a.fmt, a.report_out)


def _attach_morphism(d: MonoidalEntwiningDatum, morph_path) -> HomCA:
    m = _load_as(morph_path, ff.LoadedMorphism, "morphism")
    if m.map.nrows != d.a_dim or m.map.ncols != d.c_dim:
        raise UsageError(
            f"{morph_path}: map is {m.map.nrows}x{m.map.ncols}, expected "
            f"{d.a_dim}x{d.c_dim} for this datum"
        )
    return HomCA(d, m.map)


def _pivotal_cmd(a) -> bool:
    from .pivribbon import verify_pivotal
    g = _attach_morphism(_load_datum(a.datum), a.morphism)
    rep = verify_pivotal(g.datum, g)
    _emit_report("", rep, a.fmt, a.report_out)
    return rep.overall


def _ribbon_cmd(a) -> bool:
    from .pivribbon import verify_ribbon
    q = _load_as(a.dqg, DoubleQuantumGroup, "dqg")
    rep = verify_ribbon(q, _attach_morphism(q.datum, a.morphism))
    _emit_report("", rep, a.fmt, a.report_out)
    return rep.overall


def _save_built(path, src, build, output, construction: str) -> None:
    """Save build(src), with its construction and the hash of its source.
    A built antipode that is singular exits 2, and nothing is written."""
    try:
        obj = build(src)
    except NotInvertibleError:
        raise UsageError(f"{path}: the antipode of its {construction} is singular")
    src_hash = ff.content_hash(ff.to_payload(src))
    with _opening(output):
        ff.save(obj, output, metadata={"construction": construction, "source_hash": src_hash})


def _smash_cmd(a) -> None:
    from .smash import smash_product
    _save_built(a.datum, _load_datum(a.datum), smash_product, a.output, "smash_product")


def _cosmash_cmd(a) -> None:
    from .smash import smash_coproduct
    _save_built(a.datum, _load_datum(a.datum), smash_coproduct, a.output, "smash_coproduct")


def _double_cmd(a) -> None:
    from .corpus import drinfeld_double
    h = _load_as(a.hopf, HopfAlgebraData, "hopf")
    _save_built(a.hopf, h, drinfeld_double, a.output, "drinfeld_double")


def _dual_cmd(a) -> None:
    h = _load_as(a.hopf, HopfAlgebraData, "hopf")
    _save_built(a.hopf, h, lambda x: dual_hopf(x, a.twist), a.output, f"dual_{a.twist}")


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
    print(json.dumps(doc, sort_keys=True, indent=2))


def _find_pivotal_cmd(a) -> None:
    from .pivribbon import find_morphisms
    _emit_finder(find_morphisms(_load_datum(a.datum), "pivotal", a.max_params))


def _find_ribbon_cmd(a) -> None:
    from .pivribbon import find_morphisms
    q = _load_as(a.dqg, DoubleQuantumGroup, "dqg")
    _emit_finder(find_morphisms(q, "ribbon", a.max_params))


def _corpus_cmd(a) -> None:
    from .corpus import corpus_build
    try:
        _kind, obj = corpus_build(a.name)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    with _opening(a.output):
        ff.save(obj, a.output, name=a.name, metadata={"construction": f"corpus:{a.name}"})


def _corpus_list_cmd(a) -> None:
    from .corpus import corpus_names
    for name in corpus_names():
        print(name)


def _saved_reports(doc, file) -> list[dict]:
    """The report objects of a saved report (one object or a nonempty list
    of them), checked for the shape render_text reads and for a verdict:
    overall and each item's passed are booleans, overall their
    conjunction.  A misshapen one exits 2."""

    def expect(value, kind, path):
        if not isinstance(value, kind):
            what = {dict: "an object", list: "a list", bool: "a boolean"}[kind]
            raise UsageError(f"{file}: {path}: expected {what}")
        return value

    docs = doc if isinstance(doc, list) else [doc]
    if not docs:
        raise UsageError(f"{file}: report: expected at least one report")
    for n, one in enumerate(docs):
        path = f"report[{n}]" if isinstance(doc, list) else "report"
        overall = expect(expect(one, dict, path).get("overall"), bool, f"{path}.overall")
        items = expect(one.get("items", []), list, f"{path}.items")
        for i, it in enumerate(items):
            expect(expect(it, dict, f"{path}.items[{i}]").get("passed"), bool,
                   f"{path}.items[{i}].passed")
            w = it.get("witness")
            if w is not None:
                expect(w, dict, f"{path}.items[{i}].witness")
                for key in ("basis", "lhs", "rhs"):
                    expect(w.get(key, []), list, f"{path}.items[{i}].witness.{key}")
        if overall != all(it["passed"] for it in items):
            raise UsageError(f"{file}: {path}.overall: is not the conjunction of its items' passed")
    return docs


def _report_cmd(a) -> bool:
    try:
        with _opening(a.file), open(a.file, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{a.file}: not valid JSON: {exc}")
    docs = _saved_reports(doc, a.file)
    if a.fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for one in docs:
            _print_doc(one.get("subject"), one, "text")
    return all(one["overall"] for one in docs)


# arguments: (flags, add_argument keywords); a path option's dest is its first long flag
def _path(*flags):
    return flags, {"required": True, "metavar": "PATH"}


_FORMAT = ("--format",), {"dest": "fmt", "choices": ("text", "json"), "default": "text",
                          "help": "report rendering"}
_REPORT = (_FORMAT, (("--report-out",), {"metavar": "PATH",
                                         "help": "also write the JSON report to this path"}))
_FILES = ((("files",), {"nargs": "+", "metavar": "FILES"}),) + _REPORT


def _count(text: str) -> int:
    "An argument that counts something: an int of at least 0."
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a count of at least 0, got {n}")
    return n


_MAX_PARAMS = ("--max-params",), {"type": _count, "default": 4,
                                  "help": "most free parameters to search (default 4)"}
_OUTPUT = _path("-o", "--output")

# (command words, one-line help, arguments, run); a group has no run.  run(args)
# returns False for a failing verdict (exit 1) and raises UsageError on bad input.
_COMMANDS = (
    ("check", "Run axiom checks against structure files.", (), None),
    ("check hopf", "Full Hopf axiom suite on hopf files.", _FILES,
     _file_check(lambda path: check_hopf(_load_as(path, HopfAlgebraData, "hopf")))),
    ("check entwining", "Basic entwining axioms on entwining/dqg files.", _FILES,
     _file_check(lambda path: check_entwining(_load_datum(path)))),
    ("check datum", "Entwining + monoidal + antipode-compat axioms.", _FILES,
     _file_check(lambda path: _full_datum_report(_load_datum(path)))),
    ("check dqg", "Full double-structure axiom chain on dqg files.", _FILES,
     _file_check(lambda path: _full_dqg_report(_load_as(path, DoubleQuantumGroup, "dqg")))),
    ("check module", "Entwined-module axioms on module files.", _FILES,
     _file_check(_module_report)),
    ("check pivotal", "Verify an entwined pivotal morphism.",
     (_path("--datum"), _path("--morphism")) + _REPORT, _pivotal_cmd),
    ("check ribbon", "Verify an entwined ribbon morphism.",
     (_path("--dqg"), _path("--morphism")) + _REPORT, _ribbon_cmd),
    ("build", "Construct derived objects and save them to structure files.", (), None),
    ("build smash", "Smash product Hopf algebra of a datum.",
     (_path("--datum"), _OUTPUT), _smash_cmd),
    ("build cosmash", "Smash coproduct Hopf algebra of a datum.",
     (_path("--datum"), _OUTPUT), _cosmash_cmd),
    ("build double", "Drinfeld double of a Hopf algebra file.",
     (_path("--hopf"), _OUTPUT), _double_cmd),
    ("build dual", "Dual Hopf algebra, optionally op/cop twisted.",
     (_path("--hopf"), (("--twist",), {"choices": ("plain", "op", "cop"), "default": "plain"}),
      _OUTPUT), _dual_cmd),
    ("find", "Search for pivotal/ribbon morphism candidates.", (), None),
    ("find pivotal", "Pivotal morphisms of an entwining or dqg file.",
     (_path("--datum"), _MAX_PARAMS), _find_pivotal_cmd),
    ("find ribbon", "Ribbon morphisms of a dqg file.",
     (_path("--dqg", "--datum"), _MAX_PARAMS), _find_ribbon_cmd),
    ("corpus", "Export a built-in example structure.",
     ((("name",), {"metavar": "NAME"}), _OUTPUT), _corpus_cmd),
    ("corpus-list", "List the built-in corpus names.", (), _corpus_list_cmd),
    ("report", "Re-render a saved JSON report.", ((("file",), {"metavar": "FILE"}), _FORMAT),
     _report_cmd),
)


def _parser(prog) -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog=prog, description=main.__doc__, allow_abbrev=False)
    groups = {"": root.add_subparsers(metavar="COMMAND", required=True)}
    for words, about, arguments, run in _COMMANDS:
        group, _, name = words.rpartition(" ")
        p = groups[group].add_parser(name, help=about, description=about, allow_abbrev=False)
        if run is None:
            groups[words] = p.add_subparsers(metavar="COMMAND", required=True)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run=run)
    return root


def main(args=None, prog_name=None):
    "Exact verification of Hopf/entwining structure data."
    parser = _parser(prog_name)
    ns, extra = parser.parse_known_args(args)
    # files may follow an option, as in `check hopf a.json --format json b.json`
    if extra and (not hasattr(ns, "files") or any(w.startswith("-") for w in extra)):
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if extra:
        ns.files += extra
    try:
        ok = ns.run(ns)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:
        # stdout's reader closed early (`| head`), which is no verdict: devnull
        # keeps the exit flush from failing again; 141 = 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(1 if ok is False else 0)


if __name__ == "__main__":
    main()
