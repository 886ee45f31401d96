"""No float and no bare int leaves the kernel.

Kernel coefficients may be ints (the corpus data is integral), but every
entry stored in a Matrix, Vector or Witness must be a Fraction: ``int / int``
is a float, so one int that escapes turns an exact solve inexact.  The same
holds for the coefficients of the finder's polynomials in its parameters
(``pivribbon._Poly``), which are kernel coefficients themselves in the
finder's quadratic stage and are divided to find roots; every term they
store goes through ``_Poly.add_term``.  A guard wraps the four
constructors and records every entry that breaks the rule while the
checkers, finders and module checks run over the corpus and over seeded
one-entry mutants; it also asserts that the finders stored polynomial
terms, so its _Poly check is not vacuous.  The dense entry points
(``Matrix(rows)`` and ``Vector(coords)``) may take ints, which they
convert; a float is refused there too.
"""

import random
from fractions import Fraction

import pytest

from entwine import corpus
from entwine.emodcat import (
    EntwinedModule,
    check_braiding_naturality,
    check_duality,
    check_entwined_module,
    left_dual,
    right_dual,
    std_module_AC,
    std_module_CA,
    tensor_modules,
)
from entwine.entwining import (
    DoubleQuantumGroup,
    EntwiningMap,
    HomCA,
    MonoidalEntwiningDatum,
    check_antipode_compat,
    check_double_quantum_group,
    check_entwining,
    check_monoidal_datum,
    conv_inverse,
)
from entwine.exactla import Matrix, Vector
from entwine.hopfcore import AlgebraData, CoalgebraData, HopfAlgebraData, check_hopf
from entwine.pivribbon import _Poly, find_morphisms, verify_pivotal, verify_ribbon
from entwine.report import Witness

from oracles import corpus_dqgs, corpus_monoidal_datums

DENSE_OK = (int, Fraction)


@pytest.fixture
def leaks(monkeypatch):
    """Every non-Fraction entry stored (or float entry passed) while the test
    runs, and a list of every term that _Poly.add_term stored."""
    found, poly_terms = [], []
    matrix_init, vector_init, witness_new = Matrix.__init__, Vector.__init__, Witness.__new__
    poly_add_term = _Poly.add_term

    def guarded_matrix(self, rows=None, *, shape=None, cols=None):
        if cols is None:
            rows = [list(r) for r in rows]
            found.extend(("Matrix(rows)", x) for r in rows for x in r if type(x) not in DENSE_OK)
        matrix_init(self, rows, shape=shape, cols=cols)
        found.extend(("Matrix", x) for col in self._colcache for _, x in col
                     if type(x) is not Fraction)

    def guarded_vector(self, coords):
        coords = list(coords)
        found.extend(("Vector(coords)", x) for x in coords if type(x) not in DENSE_OK)
        vector_init(self, coords)
        found.extend(("Vector", x) for x in self.coords if type(x) is not Fraction)

    # Witness is a namedtuple, so its fields are set in __new__
    def guarded_witness(cls, basis, lhs, rhs):
        witness = witness_new(cls, basis, lhs, rhs)
        for side in (lhs, rhs):
            if type(side) is not Vector:
                found.append(("Witness", side))
            else:
                found.extend(("Witness", x) for x in side.coords if type(x) is not Fraction)
        return witness

    def guarded_add_term(self, mono, coeff):
        poly_add_term(self, mono, coeff)
        x = self.terms.get(tuple(sorted(mono)))
        if x is not None:
            poly_terms.append(x)
            if type(x) is not Fraction:
                found.append(("_Poly", x))

    monkeypatch.setattr(Matrix, "__init__", guarded_matrix)
    monkeypatch.setattr(_Poly, "add_term", guarded_add_term)
    monkeypatch.setattr(Vector, "__init__", guarded_vector)
    monkeypatch.setattr(Witness, "__new__", guarded_witness)
    return found, poly_terms


def _bump(mat: Matrix, i: int, j: int, delta) -> Matrix:
    rows = [list(r) for r in mat.rows()]
    rows[i][j] += delta
    return Matrix(rows)


def _hopf_mutants(h: HopfAlgebraData, rng):
    "A unit entry and a counit entry, each moved by a seeded nonzero amount."
    k = rng.randrange(h.dim)
    unit = list(h.unit)
    unit[k] += rng.choice((1, -2, Fraction(1, 2)))
    counit = _bump(h.counit, 0, rng.randrange(h.dim), rng.choice((1, -1, Fraction(3, 2))))
    for u, e in ((Vector(unit), h.counit), (h.unit, counit)):
        yield HopfAlgebraData(AlgebraData(h.dim, h.basis_names, h.mult, u),
                              CoalgebraData(h.dim, h.basis_names, h.comult, e), h.antipode)


def _datum_checks(d: MonoidalEntwiningDatum):
    check_entwining(d.base)
    check_monoidal_datum(d)
    check_antipode_compat(d)


def test_no_float_or_int_leaves_the_kernel(leaks):
    found, poly_terms = leaks
    rng = random.Random(2016)
    built = {name: corpus.corpus_build(name) for name in corpus.corpus_names()}
    for kind, obj in built.values():
        if kind == "hopf":
            check_hopf(obj)
            for mutant in _hopf_mutants(obj, rng):
                check_hopf(mutant)
    datums = corpus_monoidal_datums()
    dqgs = corpus_dqgs()
    for d in [*datums.values(), *(q.datum for q in dqgs.values())]:
        _datum_checks(d)
        find_morphisms(d, "pivotal")
        e = d.base
        mutant = EntwiningMap(e.c, e.a, _bump(e.phi, rng.randrange(e.phi.nrows),
                                              rng.randrange(e.phi.ncols), rng.choice((1, -1))))
        _datum_checks(MonoidalEntwiningDatum(mutant))
        # a one-entry map and its convolution inverse (most are singular)
        g = HomCA(d, _bump(Matrix.zero(d.a_dim, d.c_dim), 0, 0, 1))
        conv_inverse(g)
    for q in dqgs.values():
        check_double_quantum_group(q)
        find_morphisms(q, "ribbon")
        check_double_quantum_group(DoubleQuantumGroup(q.datum, _bump(q.rmap, 0, 0, 2)))
    # the finder's polynomials went through the guard: it is not vacuous there
    assert poly_terms
    for kind, obj in built.values():
        if kind == "morphism":
            verify_pivotal(obj.datum, obj)
    verify_ribbon(dqgs["long_dqg_kz2"], built["g_ribbon_long_kz2"][1])
    verify_ribbon(dqgs["yd_dqg_h4"], built["unit_morphism_yd_h4"][1])
    yd = datums["yd_h4"]
    for m in (std_module_CA(yd), std_module_AC(yd)):
        for bumped in (m, EntwinedModule(yd, m.dim, _bump(m.action, 0, 1, 1), m.coaction),
                       EntwinedModule(yd, m.dim, m.action, _bump(m.coaction, 6, 0, 1))):
            check_entwined_module(bumped)
        check_duality(m, left_dual(m))
        check_duality(m, right_dual(m))
    kz2 = datums["yd_kz2"]
    check_entwined_module(tensor_modules(std_module_CA(kz2), std_module_AC(kz2)))
    q = dqgs["yd_dqg_kz2"]
    check_braiding_naturality(std_module_CA(q.datum), std_module_AC(q.datum), q)
    assert found == []
