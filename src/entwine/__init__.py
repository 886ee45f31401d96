"""Exact-arithmetic verification of Hopf algebras, entwining structures,
double structures and their pivotal/ribbon data over the rationals.

Every public name loads its submodule on first use (PEP 562), so
``import entwine`` loads no library module, and ``import entwine.cli``
loads only the modules the CLI reads for every command.  Without a
bytecode cache a process compiles every module it imports, and a short
command spends most of its time starting up.  A name is looked up in its
submodule on every access and never cached here, so a rebinding of that
submodule's name is what ``entwine.<name>`` returns.
"""

from importlib import import_module

_EXPORTS = {
    "exactla": "AffineSolution Matrix NotInvertibleError Rat Vector invert kron "
               "rat_from_str rat_to_str solve_affine",
    "report": "AxiomItem AxiomReport Witness",
    "hopfcore": "AlgebraData BilinearForm CoalgebraData Element Functional HopfAlgebraData "
                "check_hopf coquasitri_check dual_hopf quasitri_check trivial_hopf",
    "entwining": "DoubleQuantumGroup EntwiningMap HomCA MonoidalEntwiningDatum "
                 "check_antipode_compat check_double_quantum_group check_entwining "
                 "check_monoidal_datum conv2_inverse conv2_product conv_inverse "
                 "conv_product conv_unit",
    "emodcat": "DualityData EntwinedModule ModuleMorphism braiding check_braiding_naturality "
               "check_duality check_entwined_module double_right_dual extend_MC left_dual "
               "right_dual std_module_AC std_module_CA tensor_modules tensor_unit transpose",
    "pivribbon": "FinderResult MorphismCandidate find_morphisms nat_to_hom pivotal_structure "
                 "separable_candidate twist verify_copivot verify_coribbon_form verify_pivot "
                 "verify_pivotal verify_ribbon verify_ribbon_element",
    "smash": "DistributiveLaw check_distributive_law codistlaw_to_entwining "
             "distlaw_to_entwining entwining_to_codistlaw entwining_to_distlaw "
             "extract_copivot extract_coribbon extract_pivot extract_ribbon "
             "module_transport_from_smash module_transport_to_smash "
             "smash_coproduct smash_product transport_copivot transport_coribbon "
             "transport_pivot transport_rmatrix transport_ribbon",
    "corpus": "",
}
# name -> the submodule that defines it; a submodule's name maps to itself
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in [mod, *names.split()]}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
