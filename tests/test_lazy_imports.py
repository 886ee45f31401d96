"""Start-up guards: the CLI loads emodcat, pivribbon, smash and corpus only in
the commands that run them, no command loads click, dataclasses or inspect,
and the ``entwine`` namespace resolves every public name through its
submodule.  A last guard keeps helpers that only tests call out of src/."""

import ast
import importlib
import io
import json
import os
import subprocess
import sys
import textwrap
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import entwine
from entwine import corpus, fileformat
from entwine.cli import main
from entwine.emodcat import std_module_CA

# what `import entwine.cli` loads: the modules every check and build reads
CORE = {"cli", "fileformat", "exactla", "report", "hopfcore", "entwining"}
# each of emodcat, pivribbon and smash loads alone, in the commands that run it
MODULE = CORE | {"emodcat"}
PIVRIBBON = CORE | {"pivribbon"}
SMASH = CORE | {"smash"}
CORPUS = SMASH | {"corpus"}

# command -> the entwine.* modules loaded once it has run
CASES = {
    "help": (["--help"], CORE),
    "check-hopf": (["check", "hopf", "kz2.json"], CORE),
    "check-hopf-option-between-files": (["check", "hopf", "kz2.json", "--format", "json",
                                         "kz2.json"], CORE),
    "build-dual": (["build", "dual", "--hopf", "kz2.json", "-o", "dual.json"], CORE),
    "check-entwining": (["check", "entwining", "yd_kz2.json"], CORE),
    "check-datum": (["check", "datum", "yd_kz2.json"], CORE),
    "check-dqg": (["check", "dqg", "yd_dqg_kz2.json"], CORE),
    "report": (["report", "saved_report.json"], CORE),
    "check-module": (["check", "module", "mod.json"], MODULE),
    "check-pivotal": (["check", "pivotal", "--datum", "yd_h4.json",
                       "--morphism", "g1_yd_h4.json"], PIVRIBBON),
    "check-ribbon": (["check", "ribbon", "--dqg", "long_dqg_kz2.json",
                      "--morphism", "g_ribbon_long_kz2.json"], PIVRIBBON),
    "find-pivotal": (["find", "pivotal", "--datum", "yd_kz2.json"], PIVRIBBON),
    "find-ribbon": (["find", "ribbon", "--dqg", "yd_dqg_kz2.json"], PIVRIBBON),
    "build-smash": (["build", "smash", "--datum", "yd_kz2.json", "-o", "s.json"], SMASH),
    "build-cosmash": (["build", "cosmash", "--datum", "yd_kz2.json", "-o", "cs.json"], SMASH),
    "build-double": (["build", "double", "--hopf", "kz2.json", "-o", "d.json"], CORPUS),
    "corpus-list": (["corpus-list"], CORPUS),
}

# modules no command may load: the CLI's start-up pays for none of them
HEAVY = ("click", "dataclasses", "inspect")

PROBE = textwrap.dedent("""
    import json, sys
    from entwine.cli import main
    try:
        main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    loaded = sorted(m[len("entwine."):] for m in sys.modules if m.startswith("entwine."))
    heavy = sorted(m for m in %r if m in sys.modules)
    print(json.dumps([code, loaded, heavy]), file=sys.stderr)
""" % (HEAVY,))


@pytest.fixture(scope="module")
def loaded(tmp_path_factory, runner):
    """Case -> (exit code, entwine modules loaded, HEAVY modules loaded), each
    from its own fresh interpreter."""
    work = tmp_path_factory.mktemp("lazy")
    for name in ("kz2", "yd_kz2", "yd_dqg_kz2", "yd_h4", "g1_yd_h4",
                 "long_dqg_kz2", "g_ribbon_long_kz2"):
        fileformat.save(corpus.corpus_build(name)[1], work / f"{name}.json")
    fileformat.save(std_module_CA(corpus.corpus_build("yd_kz2")[1]), work / "mod.json")
    runner.invoke(main, ["check", "hopf", str(work / "kz2.json"),
                         "--report-out", str(work / "saved_report.json")])
    src = str(Path(entwine.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def run(case):
        args, _ = CASES[case]
        proc = subprocess.run([sys.executable, "-c", PROBE, *args], cwd=work, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        code, modules, heavy = json.loads(proc.stderr.strip().splitlines()[-1])
        return code, set(modules), set(heavy)

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(CASES, pool.map(run, CASES)))


@pytest.fixture(scope="module")
def bare_heavy():
    "The HEAVY modules that a bare interpreter already loads, in this environment."
    code = f"import json, sys; print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("case", CASES)
def test_command_loads_only_the_modules_it_runs(case, loaded, bare_heavy):
    code, modules, heavy = loaded[case]
    assert code == 0
    assert modules == CASES[case][1]
    assert heavy <= bare_heavy


# -- the lazy namespace ---------------------------------------------------------

PUBLIC = [
    "AffineSolution", "AlgebraData", "AxiomItem", "AxiomReport", "BilinearForm",
    "CoalgebraData", "DistributiveLaw", "DoubleQuantumGroup", "DualityData", "Element",
    "EntwinedModule", "EntwiningMap", "FinderResult", "Functional", "HomCA",
    "HopfAlgebraData", "Matrix", "ModuleMorphism", "MonoidalEntwiningDatum",
    "MorphismCandidate", "NotInvertibleError", "Rat", "Vector", "Witness", "braiding",
    "check_antipode_compat", "check_braiding_naturality", "check_distributive_law",
    "check_double_quantum_group", "check_duality", "check_entwined_module",
    "check_entwining", "check_hopf", "check_monoidal_datum", "codistlaw_to_entwining",
    "conv2_inverse", "conv2_product", "conv_inverse", "conv_product", "conv_unit",
    "coquasitri_check", "corpus", "distlaw_to_entwining", "double_right_dual", "dual_hopf",
    "emodcat", "entwining", "entwining_to_codistlaw", "entwining_to_distlaw", "exactla",
    "extend_MC", "extract_copivot", "extract_coribbon", "extract_pivot", "extract_ribbon",
    "find_morphisms", "hopfcore", "invert", "kron", "left_dual", "module_transport_from_smash",
    "module_transport_to_smash", "nat_to_hom", "pivotal_structure", "pivribbon",
    "quasitri_check", "rat_from_str", "rat_to_str", "report", "right_dual",
    "separable_candidate", "smash", "smash_coproduct", "smash_product", "solve_affine",
    "std_module_AC", "std_module_CA", "tensor_modules", "tensor_unit", "transport_copivot",
    "transport_coribbon", "transport_pivot", "transport_ribbon", "transport_rmatrix",
    "transpose", "trivial_hopf", "twist", "verify_copivot", "verify_coribbon_form",
    "verify_pivot", "verify_pivotal", "verify_ribbon", "verify_ribbon_element",
]
SUBMODULES = ("corpus", "emodcat", "entwining", "exactla", "hopfcore", "pivribbon",
              "report", "smash")


def test_public_names_are_unchanged():
    assert entwine.__all__ == PUBLIC
    assert set(dir(entwine)) >= set(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_submodule_object(name):
    if name in SUBMODULES:
        assert getattr(entwine, name) is importlib.import_module(f"entwine.{name}")
        return
    value = getattr(entwine, name)
    home = value.__module__
    if not home.startswith("entwine."):
        assert name == "Rat"  # exactla's name for Fraction
        home = "entwine.exactla"
    assert value is getattr(importlib.import_module(home), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        entwine.nope  # noqa: B018


def test_submodule_outside_all_still_imports(monkeypatch):
    # as in a fresh process: the submodule is neither loaded nor bound yet
    monkeypatch.delitem(sys.modules, "entwine.fileformat")
    monkeypatch.delattr(entwine, "fileformat")
    from entwine import fileformat as ff

    assert ff is sys.modules["entwine.fileformat"]
    assert "fileformat" not in entwine.__all__


def test_namespace_follows_a_rebinding_and_its_undo(monkeypatch):
    original = entwine.hopfcore.check_hopf

    def f(h):
        return None

    monkeypatch.setattr(entwine.hopfcore, "check_hopf", f)
    assert entwine.check_hopf is f
    monkeypatch.undo()
    assert entwine.check_hopf is original
    assert "check_hopf" not in vars(entwine)


# -- src/ holds what the product runs ---------------------------------------------


def test_every_public_src_name_is_exported_or_used():
    """Every module-level def or class of src/entwine without a leading
    underscore is exported by the package or named by src/ code outside its
    own definition; a helper that only tests call lives under tests/.

    Uses are read from tokens, so a comment or a docstring that names a
    helper does not keep it.  Methods are out of scope: names such as row,
    col or flat are common words, and a token scan cannot tell one class's
    method from another's."""
    src = Path(entwine.__file__).resolve().parent
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        spans = {}
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((path.stem, node.name))
                spans[node.name] = (node.lineno, node.end_lineno)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                first, last = spans.get(tok.string, (0, -1))
                if not first <= tok.start[0] <= last:
                    used.add(tok.string)
    unused = [f"{mod}.{name}" for mod, name in defined
              if name not in entwine.__all__ and name not in used]
    assert unused == []
