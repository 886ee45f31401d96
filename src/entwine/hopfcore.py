"""Structure-constant Hopf algebras and their axiom checkers.

Algebras, coalgebras, bialgebras and Hopf algebras are stored as exact
matrices over a finite basis: multiplication is a ``dim x dim^2`` matrix,
comultiplication ``dim^2 x dim``, and so on, all under the global
left-factor-major tensor index convention.  Checkers return AxiomReports
with deterministic witnesses; axiom evaluation is exhaustive over basis
tuples, never sampled.

The quasitriangular / coquasitriangular checks are not hand-coded here:
they specialize the double-structure axioms of :mod:`entwine.entwining`
to the degenerate case where one side is the ground field, so the
hardest axiom block has a single source of truth.  Pivots, copivots,
ribbon elements and ribbon characters specialize the same way, to the
pivotal and ribbon laws of :mod:`entwine.pivribbon`, which defines them.
"""

from __future__ import annotations

from functools import cached_property

from . import entwining as ent
from .exactla import (
    Matrix,
    TensorOp,
    Vector,
    invert,
    pipeline_matrix,
)
from .report import AxiomReport, compare_item, _ap, _pm


def element_op(v: Vector, dims=None) -> TensorOp:
    """A fixed element as a 0-ary tensor op: it inserts legs over dims, by
    default one leg over the whole space."""
    return TensorOp(Matrix.from_flat(v, 1), (), (v.dim,) if dims is None else dims)


class AlgebraData:
    """Unital associative algebra by structure constants."""

    def __init__(self, dim: int, basis_names, mult: Matrix, unit: Vector):
        if mult.nrows != dim or mult.ncols != dim * dim:
            raise ValueError("mult must be dim x dim^2")
        if unit.dim != dim:
            raise ValueError("unit must have length dim")
        self.dim = dim
        self.basis_names = _names(basis_names, dim)
        self.mult = mult
        self.unit = unit

    @cached_property
    def mul_op(self) -> TensorOp:
        return TensorOp(self.mult, (self.dim, self.dim), (self.dim,))

    @cached_property
    def unit_op(self) -> TensorOp:
        return element_op(self.unit)


class CoalgebraData:
    """Coassociative counital coalgebra by structure constants."""

    def __init__(self, dim: int, basis_names, comult: Matrix, counit: Matrix):
        if comult.nrows != dim * dim or comult.ncols != dim:
            raise ValueError("comult must be dim^2 x dim")
        if counit.nrows != 1 or counit.ncols != dim:
            raise ValueError("counit must be 1 x dim")
        self.dim = dim
        self.basis_names = _names(basis_names, dim)
        self.comult = comult
        self.counit = counit

    @cached_property
    def comul_op(self) -> TensorOp:
        return TensorOp(self.comult, (self.dim,), (self.dim, self.dim))

    @cached_property
    def counit_op(self) -> TensorOp:
        return TensorOp(self.counit, (self.dim,), ())


def _names(basis_names, dim):
    names = tuple(basis_names) if basis_names else tuple(f"b{i}" for i in range(dim))
    if len(names) != dim:
        raise ValueError("need one name per basis vector")
    return names


class HopfAlgebraData(AlgebraData, CoalgebraData):
    """Hopf algebra: an algebra and a coalgebra on one basis plus a bijective
    antipode.

    It is its own algebra and coalgebra: ``dim``, ``basis_names``,
    ``mult``, ``unit``, ``comult`` and ``counit`` are set once here (the
    names from the algebra), so the kernel ops ``mul_op``, ``comul_op``
    and the rest are built on this object, once per structure map.  The
    parts passed in are kept as ``algebra`` and ``coalgebra`` for outside
    readers.  The antipode inverse is always computed by exact matrix
    inversion, never user-supplied; construction fails early when S is
    singular.
    """

    def __init__(self, algebra: AlgebraData, coalgebra: CoalgebraData, antipode: Matrix):
        if algebra.dim != coalgebra.dim:
            raise ValueError("algebra and coalgebra dimensions differ")
        if antipode.nrows != algebra.dim or antipode.ncols != algebra.dim:
            raise ValueError("antipode must be dim x dim")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.dim = algebra.dim
        self.basis_names = algebra.basis_names
        self.mult, self.unit = algebra.mult, algebra.unit
        self.comult, self.counit = coalgebra.comult, coalgebra.counit
        self.antipode = antipode
        self.antipode_inv = invert(antipode)

    @cached_property
    def antipode_op(self) -> TensorOp:
        return TensorOp(self.antipode, (self.dim,), (self.dim,))

    @cached_property
    def antipode_inv_op(self) -> TensorOp:
        return TensorOp(self.antipode_inv, (self.dim,), (self.dim,))

    @cached_property
    def antipode_sq_op(self) -> TensorOp:
        return TensorOp(self.antipode * self.antipode, (self.dim,), (self.dim,))

    @cached_property
    def antipode_inv_sq_op(self) -> TensorOp:
        return TensorOp(self.antipode_inv * self.antipode_inv, (self.dim,), (self.dim,))


class Element:
    "An element of a Hopf algebra, as coordinates over its basis."

    def __init__(self, host: HopfAlgebraData, coords: Vector):
        if coords.dim != host.dim:
            raise ValueError("coordinate length must match host dimension")
        self.host = host
        self.coords = coords


class Functional:
    "A linear functional on a Hopf algebra, as a 1 x dim matrix."

    def __init__(self, host: HopfAlgebraData, coords: Matrix):
        if coords.nrows != 1 or coords.ncols != host.dim:
            raise ValueError("functional must be 1 x dim")
        self.host = host
        self.coords = coords


class BilinearForm:
    "A bilinear form on a pair of Hopf algebras, as a 1 x (dimL*dimR) matrix."

    def __init__(self, host_left: HopfAlgebraData, host_right: HopfAlgebraData, coords: Matrix):
        if coords.nrows != 1 or coords.ncols != host_left.dim * host_right.dim:
            raise ValueError("form must be 1 x (dim_left*dim_right)")
        self.host_left = host_left
        self.host_right = host_right
        self.coords = coords

    def value(self, i: int, j: int):
        return self.coords.entry(0, i * self.host_right.dim + j)


def trivial_hopf() -> HopfAlgebraData:
    "The one-dimensional Hopf algebra on the ground field."
    one = Matrix([[1]])
    alg = AlgebraData(1, ("1",), one, Vector([1]))
    coa = CoalgebraData(1, ("1",), one, one)
    return HopfAlgebraData(alg, coa, one)


# ---------------------------------------------------------------------------
# Axiom checkers
# ---------------------------------------------------------------------------


def check_algebra(a: AlgebraData) -> AxiomReport:
    d = a.dim
    mul, unit = a.mul_op, a.unit_op
    items = [
        compare_item(
            "H01_assoc",
            (d, d, d),
            (d,),
            (_ap(0, mul), _ap(0, mul)),
            (_ap(1, mul), _ap(0, mul)),
        ),
        compare_item(
            "H02_left_unit",
            (d,),
            (d,),
            (_ap(0, unit), _ap(0, mul)),
            (),
        ),
        compare_item(
            "H03_right_unit",
            (d,),
            (d,),
            (_ap(1, unit), _ap(0, mul)),
            (),
        ),
    ]
    return AxiomReport(items)


def check_coalgebra(c: CoalgebraData) -> AxiomReport:
    d = c.dim
    comul, counit = c.comul_op, c.counit_op
    items = [
        compare_item(
            "H04_coassoc",
            (d,),
            (d, d, d),
            (_ap(0, comul), _ap(0, comul)),
            (_ap(0, comul), _ap(1, comul)),
        ),
        compare_item(
            "H05_left_counit",
            (d,),
            (d,),
            (_ap(0, comul), _ap(0, counit)),
            (),
        ),
        compare_item(
            "H06_right_counit",
            (d,),
            (d,),
            (_ap(0, comul), _ap(1, counit)),
            (),
        ),
    ]
    return AxiomReport(items)


def check_bialgebra(h: HopfAlgebraData) -> AxiomReport:
    d = h.dim
    mul, unit, comul, counit = h.mul_op, h.unit_op, h.comul_op, h.counit_op
    items = list(check_algebra(h).items) + list(check_coalgebra(h).items)
    items += [
        compare_item(
            "H07_comult_mult",
            (d, d),
            (d, d),
            (_ap(0, mul), _ap(0, comul)),
            (_ap(0, comul), _ap(2, comul), _pm((0, 2, 1, 3)), _ap(0, mul), _ap(1, mul)),
        ),
        compare_item(
            "H08_comult_unit",
            (),
            (d, d),
            (_ap(0, unit), _ap(0, comul)),
            (_ap(0, unit), _ap(1, unit)),
        ),
        compare_item(
            "H09_counit_mult",
            (d, d),
            (),
            (_ap(0, mul), _ap(0, counit)),
            (_ap(0, counit), _ap(0, counit)),
        ),
        compare_item(
            "H10_counit_unit",
            (),
            (),
            (_ap(0, unit), _ap(0, counit)),
            (),
        ),
    ]
    return AxiomReport(items)


def check_hopf(h: HopfAlgebraData) -> AxiomReport:
    """Full Hopf suite: bialgebra axioms and both antipode identities.

    S is bijective by construction: HopfAlgebraData inverts it exactly and
    rejects a singular S with NotInvertibleError.
    """
    d = h.dim
    mul, unit, comul, counit = h.mul_op, h.unit_op, h.comul_op, h.counit_op
    s_op = h.antipode_op

    eta_eps = (_ap(0, counit), _ap(0, unit))
    items = list(check_bialgebra(h).items)
    items += [
        compare_item(
            "H11_antipode_left",
            (d,),
            (d,),
            (_ap(0, comul), _ap(0, s_op), _ap(0, mul)),
            eta_eps,
        ),
        compare_item(
            "H12_antipode_right",
            (d,),
            (d,),
            (_ap(0, comul), _ap(1, s_op), _ap(0, mul)),
            eta_eps,
        ),
    ]
    return AxiomReport(items)


# ---------------------------------------------------------------------------
# Duals
# ---------------------------------------------------------------------------


def dual_hopf(h: HopfAlgebraData, twist: str = "plain") -> HopfAlgebraData:
    """The dual Hopf algebra on the dual basis, optionally op/cop-twisted.

    Multiplication is the transpose of comultiplication and vice versa;
    the antipode dualizes to the transpose.  ``op`` reverses the product,
    ``cop`` reverses the coproduct; in both cases the antipode of the
    twisted object is the transposed antipode inverse, which keeps the
    output a Hopf algebra whenever the input is one.
    """
    if twist not in ("plain", "op", "cop"):
        raise ValueError(f"unknown twist {twist!r}")
    d = h.dim
    names = tuple(f"{n}^" for n in h.basis_names)
    mult = h.comult.transpose()
    unit = h.counit.flat()
    comult = h.mult.transpose()
    counit = Matrix.from_flat(h.unit, d)
    antipode = h.antipode.transpose()
    if twist == "op":
        plain = TensorOp(mult, (d, d), (d,))
        mult = pipeline_matrix((d, d), (d,), (_pm((1, 0)), _ap(0, plain)))
        antipode = h.antipode_inv.transpose()
    elif twist == "cop":
        plain = TensorOp(comult, (d,), (d, d))
        comult = pipeline_matrix((d,), (d, d), (_ap(0, plain), _pm((1, 0))))
        antipode = h.antipode_inv.transpose()
    alg = AlgebraData(d, names, mult, unit)
    coa = CoalgebraData(d, names, comult, counit)
    return HopfAlgebraData(alg, coa, antipode)


# ---------------------------------------------------------------------------
# Quasitriangular / coquasitriangular checks by degenerate specialization
# ---------------------------------------------------------------------------


def _degenerate_datum(c: HopfAlgebraData, a: HopfAlgebraData) -> ent.MonoidalEntwiningDatum:
    "The datum of the identity entwining map; one of c, a is trivial_hopf()."
    return ent.MonoidalEntwiningDatum(ent.EntwiningMap(c, a, Matrix.identity(c.dim * a.dim)))


def _degenerate_double_check(d: ent.MonoidalEntwiningDatum, rmap: Matrix) -> AxiomReport:
    q = ent.DoubleQuantumGroup(d, rmap)
    rep = ent.check_entwining(d).merged_with(ent.check_monoidal_datum(d))
    return rep.merged_with(ent.check_double_quantum_group(q))


def quasitri_check(h: HopfAlgebraData, rmatrix: Vector) -> AxiomReport:
    """Quasitriangularity of (h, R) via the degenerate double structure.

    Builds the entwining datum with trivial coalgebra side and identity
    entwining map, then delegates to the full E-axiom chain.
    """
    if rmatrix.dim != h.dim * h.dim:
        raise ValueError("rmatrix must live in H (x) H")
    d = _degenerate_datum(trivial_hopf(), h)
    return _degenerate_double_check(d, Matrix.from_flat(rmatrix, 1))


def coquasitri_check(c: HopfAlgebraData, form: BilinearForm) -> AxiomReport:
    "Coquasitriangularity of (c, form), by the dual degenerate specialization."
    if form.host_left is not c or form.host_right is not c:
        raise ValueError("form must be hosted in c")
    return _degenerate_double_check(_degenerate_datum(c, trivial_hopf()), form.coords)
