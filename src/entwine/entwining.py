"""Entwining structures, monoidal datums, double structures, convolutions.

An entwining map phi: C (x) A -> A (x) C between a coalgebra side C and
an algebra side A is stored as a Matrix under the global tensor
index convention.  This module houses the axiom chain E1-E10 (E10 split
into E10a, the coproduct-splitting identity, and E10b, convolution
invertibility), the entwined convolution algebras on hom(C, A) and
hom(C (x) C, A (x) A), and the antipode compatibility identities that
make the dual-module formulas work downstream.

Convolution inverses (E10b here, P5/R5 in the pivotal layer, there also
on a datum with one trivial side) solve x*g = unit on the rows the unit
reaches through shared columns, building no other row, and check
g*x = unit on the solution; only when that check fails is the stacked
system g*x = unit = x*g solved, again on the rows its right-hand side
reaches.  The operators x -> x*g and x -> g*x are built
by the same pipeline that evaluates a product: with a SlotLeg standing
for x, one pass per batch of input basis tuples yields every column of
the operator at once, keyed by the slot leg.  One builder,
invertibility_item, turns each inverse into its axiom item.

The second decorated copy of the entwining map appearing in several
axioms is always another evaluation of the single stored phi, and the
braiding map r appearing twice in the splitting identities is the single
stored R.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .exactla import (
    Cap,
    Cup,
    KernelOp,
    Matrix,
    Rows,
    TensorOp,
    Vector,
    hom_operator,
    kron,
    pipeline_matrix,
    solve_affine,
)
from .report import AxiomItem, AxiomReport, Witness, compare_item, _ap, _pm, _slot


class EntwiningMap:
    """phi: C (x) A -> A (x) C over structure-constant data.

    ``c`` needs at least coalgebra structure and ``a`` at least algebra
    structure for the basic axioms; the monoidal and double layers
    require full bialgebra/Hopf data on both sides.
    """

    def __init__(self, c, a, phi: Matrix):
        if phi.nrows != a.dim * c.dim or phi.ncols != c.dim * a.dim:
            raise ValueError("phi must be (dimA*dimC) x (dimC*dimA)")
        self.c = c
        self.a = a
        self.phi = phi

    @property
    def c_dim(self) -> int:
        return self.c.dim

    @property
    def a_dim(self) -> int:
        return self.a.dim

    @cached_property
    def phi_op(self) -> TensorOp:
        return TensorOp(self.phi, (self.c.dim, self.a.dim), (self.a.dim, self.c.dim))


class MonoidalEntwiningDatum(EntwiningMap):
    """An entwining map between bialgebras, expected to satisfy E1-E6.

    It is its own entwining map: ``c``, ``a`` and ``phi`` are set once
    here, so ``phi_op`` is built on the datum, and every check takes the
    datum itself.  The map passed in is kept as ``base`` for outside
    readers (bench/workloads.py reads it).
    """

    def __init__(self, base: EntwiningMap):
        super().__init__(base.c, base.a, base.phi)
        self.base = base

    @cached_property
    def conv_unit_matrix(self) -> Matrix:
        "The matrix of conv_unit: unit_A after counit_C."
        return Matrix.from_flat(self.a.unit, 1) * self.c.counit

    @cached_property
    def conv2_unit_matrix(self) -> Matrix:
        "The matrix of conv2_unit: the convolution unit on each factor."
        return kron(self.conv_unit_matrix, self.conv_unit_matrix)


def _hopf_like_equal(x, y) -> bool:
    if x is y:
        return True
    if x.dim != y.dim:
        return False
    for attr in ("mult", "unit", "comult", "counit", "antipode"):
        if getattr(x, attr, None) != getattr(y, attr, None):
            return False
    return True


def datums_compatible(d1, d2) -> bool:
    "Structural equality of datums: same sides and the same entwining map."
    if d1 is d2:
        return True
    return (
        d1.phi == d2.phi
        and _hopf_like_equal(d1.c, d2.c)
        and _hopf_like_equal(d1.a, d2.a)
    )


class DoubleQuantumGroup:
    """A double structure: a monoidal entwining datum plus R: C (x) C -> A (x) A.

    The datum's sides and entwining map are read through ``datum``.  The
    convolution inverse of R (axiom E10b) is computed on demand and
    cached; it is None when R is not invertible.
    """

    def __init__(self, datum: MonoidalEntwiningDatum, rmap: Matrix):
        nc, na = datum.c_dim, datum.a_dim
        if rmap.nrows != na * na or rmap.ncols != nc * nc:
            raise ValueError("rmap must be dimA^2 x dimC^2")
        self.datum = datum
        self.rmap = rmap

    @cached_property
    def rmap_op(self) -> TensorOp:
        nc, na = self.datum.c_dim, self.datum.a_dim
        return TensorOp(self.rmap, (nc, nc), (na, na))

    @cached_property
    def rmap_conv_inverse(self) -> Matrix | None:
        return conv2_inverse(self.datum, self.rmap)


class HomCA:
    "A linear map C -> A over a datum, element of the entwined convolution algebra."

    def __init__(self, datum: MonoidalEntwiningDatum, map: Matrix):
        if map.nrows != datum.a_dim or map.ncols != datum.c_dim:
            raise ValueError("map must be dimA x dimC")
        self.datum = datum
        self.map = map

    @cached_property
    def op(self) -> TensorOp:
        return TensorOp(self.map, (self.datum.c_dim,), (self.datum.a_dim,))

    def __eq__(self, other):
        "The same map over equal datums (datums_compatible), built once or twice."
        return (
            isinstance(other, HomCA)
            and self.map == other.map
            and datums_compatible(self.datum, other.datum)
        )

    def __hash__(self):
        return hash(self.map)


# ---------------------------------------------------------------------------
# E1-E4: entwining axioms
# ---------------------------------------------------------------------------


def check_entwining(e: EntwiningMap) -> AxiomReport:
    "E1 on triples (a, b, c), E2 on pairs, E3 and E4 on single elements."
    nc, na = e.c_dim, e.a_dim
    phi = e.phi_op
    mul_a, unit_a = e.a.mul_op, e.a.unit_op
    comul_c, counit_c = e.c.comul_op, e.c.counit_op

    items = [
        # phi(c (x) ab) = a_phi b_psi (x) (c^phi)^psi, scanned over (a, b, c)
        compare_item(
            "E01_mult",
            (na, na, nc),
            (na, nc),
            (_pm((2, 0, 1)), _ap(1, mul_a), _ap(0, phi)),
            (_pm((2, 0, 1)), _ap(0, phi), _ap(1, phi), _ap(0, mul_a)),
        ),
        # (id (x) Delta) phi = (phi (x) id)(id (x) phi)(Delta (x) id)
        compare_item(
            "E02_comult",
            (nc, na),
            (na, nc, nc),
            (_ap(0, phi), _ap(1, comul_c)),
            (_ap(0, comul_c), _ap(1, phi), _ap(0, phi)),
        ),
        # phi(c (x) 1) = 1 (x) c
        compare_item(
            "E03_unit",
            (nc,),
            (na, nc),
            (_ap(1, unit_a), _ap(0, phi)),
            (_ap(0, unit_a),),
        ),
        # (id (x) eps) phi = eps (x) id
        compare_item(
            "E04_counit",
            (nc, na),
            (na,),
            (_ap(0, phi), _ap(1, counit_c)),
            (_ap(0, counit_c),),
        ),
    ]
    return AxiomReport(items)


# ---------------------------------------------------------------------------
# E5-E6: monoidal entwining datum
# ---------------------------------------------------------------------------


def check_monoidal_datum(d: MonoidalEntwiningDatum) -> AxiomReport:
    "E5 on triples (a, c, d) and E6 on single a; assumes E1-E4 separately."
    nc, na = d.c_dim, d.a_dim
    phi = d.phi_op
    mul_c = d.c.mul_op
    comul_a, counit_a = d.a.comul_op, d.a.counit_op
    unit_c = d.c.unit_op

    items = [
        # (Delta_A (x) id) phi (m_C (x) id) = twist of (phi (x) phi)(... Delta_A)
        compare_item(
            "E05_mult_c",
            (na, nc, nc),
            (na, na, nc),
            (_pm((1, 2, 0)), _ap(0, mul_c), _ap(0, phi), _ap(0, comul_a)),
            (
                _pm((1, 2, 0)),        # c d a
                _ap(2, comul_a),       # c d a1 a2
                _pm((0, 2, 1, 3)),     # c a1 d a2
                _ap(0, phi),           # a1f cf d a2
                _ap(2, phi),           # a1f cf a2p dp
                _pm((0, 2, 1, 3)),     # a1f a2p cf dp
                _ap(2, mul_c),
            ),
        ),
        # (eps_A (x) id) phi (1_C (x) id) = 1_C eps_A
        compare_item(
            "E06_unit_c",
            (na,),
            (nc,),
            (_ap(0, unit_c), _ap(0, phi), _ap(0, counit_a)),
            (_ap(0, counit_a), _ap(0, unit_c)),
        ),
    ]
    return AxiomReport(items)


# ---------------------------------------------------------------------------
# Entwined convolutions on hom(C, A) and hom(C (x) C, A (x) A)
#
# Each product formula is written once, as steps on legs that end in a slot
# leg.  With two concrete maps there is one slot and the steps evaluate the
# product; with a SlotLeg standing for one factor they yield the operator
# x -> g*x (or x -> x*g) in one pass per batch of input tuples.
# ---------------------------------------------------------------------------


def _operator(d, in_dims, out_dims, side, g_op, g_first: bool, rhs=None) -> Rows:
    """The rows of x -> g*x (g_first) or x -> x*g on hom(in_dims, out_dims);
    given rhs, only those hom_operator reaches from it."""
    def steps(f):
        return side(d, g_op, f) if g_first else side(d, f, g_op)

    return hom_operator(in_dims, out_dims, in_dims, out_dims, steps, rhs)


def _product(d, in_dims, out_dims, side, g_op, f_op) -> Matrix:
    "The matrix of g*f in hom(in_dims, out_dims)."
    return pipeline_matrix(in_dims, (*out_dims, 1), (_slot(len(in_dims)), *side(d, g_op, f_op)))


def _hom_cols(entries: dict, n_in: int, den: int | None = None) -> list[list]:
    """The columns of the map in hom(in, out) with the flat entries {out *
    n_in + in: value}: for each in, its (out, value) pairs in order.  Given
    den, each value times den, an int where integral, which den * v is
    exactly where v's denominator divides den."""
    cols = [[] for _ in range(n_in)]
    for k, v in sorted(entries.items()):
        if den is not None:
            q, r = divmod(den, v.denominator)
            v = v * den if r else v.numerator * q
        cols[k % n_in].append((k // n_in, v))
    return cols


def _hom_matrix(entries: dict, like: Matrix) -> Matrix:
    "The Matrix shaped like ``like`` with the flat entries {index: value}."
    return Matrix(shape=(like.nrows, like.ncols), cols=_hom_cols(entries, like.ncols))


def _solve(rows: Rows, rhs: dict) -> dict | None:
    """The particular solution of rows.x = rhs, solved on rows.component(rhs),
    by its nonzero entries on the old columns; None when inconsistent."""
    sub, sub_rhs, cols = rows.component(rhs)
    sol = solve_affine(sub, sub_rhs)
    return None if sol is None else {cols[k]: v for k, v in sol.particular.items()}


def _inverse(d, in_dims, out_dims, side, g_op, unit: Matrix) -> Matrix | None:
    """The x with g*x = unit = x*g, or None if there is none.

    x*g = unit is solved on the rows the unit reaches (Rows.component), and
    its solution x is returned when one scan finds g*x = unit.  That x is
    what the stacked system g*x = unit = x*g solves to.  Rows outside the
    component share no column with it, so the system is block-diagonal,
    and the other blocks have a zero right-hand side, so their part of the
    particular solution (free variables 0) is 0.  A pivot column is one
    outside the span of the earlier columns, decided within its block, so
    x extended by zeros is the whole system's particular solution.
    Stacking the rows of x -> g*x only turns free columns into pivot
    columns, and x is zero on every free column and solves both systems,
    so it is the stacked particular solution too.  An inconsistent
    component makes the whole system inconsistent, as every other block is
    homogeneous, and a two-sided inverse would solve it.

    x -> x*g is built only on the rows hom_operator reaches from the
    unit's (exactla._reach), and only they come back, each with its
    operator row: each row it builds is whole, and it builds every row
    that shares a column with a built one.  A candidate column comes from
    the supports of the two halves of the product, so a cancellation can
    only add a column, never drop one; each column found is built in every
    row, and every row it meets is taken on.  At the fixpoint each reached
    row holds all of its nonzero entries, so the reached rows contain the
    full operator's component, and Rows.component finds it among them, row
    for row and in the same order: the pivots, and x, are the same.  With
    g = 0 no column is reached, the unit's rows come back empty, and the
    system is inconsistent.

    g*x = unit is checked as g*(den x) = den unit, den the lcm of x's
    denominators: the same, as the product is linear in x and den != 0,
    but no Fraction enters the scan on integral data.  den x and den unit
    are kernel ops built from the solution's entries and the unit's, their
    integral values as ints (_hom_cols).

    When g*x = unit fails, the rows of x -> g*x stacked on those of the
    full x -> x*g are solved, the unit on both halves, on the component of
    that right-hand side (_solve, as for x*g = unit): the block argument
    above holds for any rows, so this is the stacked particular solution.
    Where x*g = unit has one solution, it is the x that failed, and the
    stacked system has none; several arise only on a datum failing
    E01-E06, as in an associative algebra a left inverse is two-sided and
    unique.
    """
    rhs = {o * unit.ncols + j: v for j, col in enumerate(unit.sparse_cols()) for o, v in col}
    right = _operator(d, in_dims, out_dims, side, g_op, False, rhs)
    entries = _solve(right, rhs)
    if entries is None:
        return None
    den = lcm(*(v.denominator for v in entries.values()))
    x_op, one_op = (KernelOp(in_dims, out_dims, dict(enumerate(_hom_cols(e, unit.ncols, den))))
                    for e in (entries, rhs))
    gx = (_slot(len(in_dims)), *side(d, g_op, x_op))
    one = (_slot(len(in_dims)), _ap(0, one_op))
    if compare_item("g*x = 1", in_dims, (*out_dims, 1), gx, one).passed:
        return _hom_matrix(entries, unit)
    right = _operator(d, in_dims, out_dims, side, g_op, False)
    left = _operator(d, in_dims, out_dims, side, g_op, True)
    entries = _solve(Rows(left + right, left.ncols),
                     {**rhs, **{i + left.nrows: v for i, v in rhs.items()}})
    return None if entries is None else _hom_matrix(entries, unit)


def conv_unit(d: MonoidalEntwiningDatum) -> HomCA:
    "The convolution unit: unit_A after counit_C, its matrix built once per datum."
    return HomCA(d, d.conv_unit_matrix)


def _conv_side(d: MonoidalEntwiningDatum, g_op, f_op):
    return (
        _ap(0, d.c.comul_op),  # c1 c2 s
        _ap(1, f_op),          # c1 f(c2) s
        _ap(0, d.phi_op),      # f(c2)_phi c1^phi s
        _ap(1, g_op),
        _ap(0, d.a.mul_op),
    )


def conv_product(g: HomCA, f: HomCA) -> HomCA:
    "(g * f)(c) = f(c2)_phi g(c1^phi), the entwined convolution product."
    if not datums_compatible(g.datum, f.datum):
        raise ValueError("operands live over different datums")
    d = g.datum
    return HomCA(d, _product(d, (d.c_dim,), (d.a_dim,), _conv_side, g.op, f.op))


def conv_inverse(g: HomCA) -> HomCA | None:
    """Two-sided inverse of g in the entwined convolution algebra, or None.

    Solves x*g = unit on the rows the unit reaches and checks g*x = unit
    on its solution (see _inverse): a two-sided inverse solves x*g = unit,
    so an inconsistent system means there is none.  When the check fails,
    the stacked system g*x = unit = x*g is solved on the rows the unit
    reaches in it.  Equal to the stacked system's solution in every case.
    """
    d = g.datum
    inv = _inverse(d, (d.c_dim,), (d.a_dim,), _conv_side, g.op, conv_unit(d).map)
    return None if inv is None else HomCA(d, inv)


def invertibility_item(axiom_id: str, map: Matrix, inverse) -> AxiomItem:
    """The item saying that map has a convolution inverse (E10b, P5, R5);
    a missing inverse fails with the map's row-major entries against zeros
    as the witness."""
    if inverse is not None:
        return AxiomItem(axiom_id, True)
    flat = map.flat()
    return AxiomItem(axiom_id, False, Witness((), flat, Vector.zero(flat.dim)))


def conv2_unit(d: MonoidalEntwiningDatum) -> Matrix:
    "The unit of hom(C (x) C, A (x) A): the convolution unit on each factor."
    return d.conv2_unit_matrix


def _conv2_side(d: MonoidalEntwiningDatum, g_op, f_op):
    # split legs, not _conv_side over the tensor-square datum (C (x) C,
    # A (x) A, phi (x) phi): that gave the same inverses and a faster
    # dqg-e10b (0.0455 -> 0.0410 s), but conv2_inverse on
    # yd_dqg(double_h4) went 13 -> 19 s and 161 -> 237 MB (2-vCPU VM)
    return (
        _ap(0, d.c.comul_op),   # c1 c2 d s
        _ap(2, d.c.comul_op),   # c1 c2 d1 d2 s
        _pm((0, 2, 1, 3, 4)),   # c1 d1 c2 d2 s
        _ap(2, f_op),           # c1 d1 F1 F2 s
        _pm((0, 2, 1, 3, 4)),   # c1 F1 d1 F2 s
        _ap(0, d.phi_op),       # F1f c1f d1 F2 s
        _ap(2, d.phi_op),       # F1f c1f F2p d1p s
        _pm((0, 2, 1, 3, 4)),   # F1f F2p c1f d1p s
        _ap(2, g_op),           # F1f F2p G1 G2 s
        _pm((0, 2, 1, 3, 4)),   # F1f G1 F2p G2 s
        _ap(0, d.a.mul_op),
        _ap(1, d.a.mul_op),
    )


def _conv2_op(d: MonoidalEntwiningDatum, g2: Matrix) -> TensorOp:
    return TensorOp(g2, (d.c_dim, d.c_dim), (d.a_dim, d.a_dim))


def conv2_product(d: MonoidalEntwiningDatum, g2: Matrix, f2: Matrix) -> Matrix:
    "Entwined convolution product on hom(C (x) C, A (x) A)."
    nc, na = d.c_dim, d.a_dim
    return _product(d, (nc, nc), (na, na), _conv2_side, _conv2_op(d, g2), _conv2_op(d, f2))


def conv2_inverse(d: MonoidalEntwiningDatum, g2: Matrix) -> Matrix | None:
    """Two-sided inverse in hom(C (x) C, A (x) A), or None: x*g2 = unit on
    the unit's component, checked by g2*x = unit, and the stacked system's
    component only when that check fails, as in conv_inverse."""
    nc, na = d.c_dim, d.a_dim
    return _inverse(d, (nc, nc), (na, na), _conv2_side, _conv2_op(d, g2), conv2_unit(d))


# ---------------------------------------------------------------------------
# E7-E10: double structure
# ---------------------------------------------------------------------------


def check_double_quantum_group(q: DoubleQuantumGroup) -> AxiomReport:
    """E7 on pairs (c, d); E8 on triples (a, c, d); E9 and E10a on triples
    (x, y, z); E10b is convolution invertibility of R.

    The braiding-map copy r in E9/E10a is the stored R evaluated twice.
    """
    d = q.datum
    nc, na = d.c_dim, d.a_dim
    phi, rr = d.phi_op, q.rmap_op
    mul_a, comul_a = d.a.mul_op, d.a.comul_op
    mul_c, comul_c = d.c.mul_op, d.c.comul_op

    items = [
        compare_item(
            "E07_coact",
            (nc, nc),
            (na, na, nc),
            (
                _ap(0, comul_c),     # c1 c2 d
                _ap(2, comul_c),     # c1 c2 d1 d2
                _pm((0, 2, 1, 3)),   # c1 d1 c2 d2
                _ap(0, rr),          # R1 R2 c2 d2
                _ap(2, mul_c),
            ),
            (
                _ap(0, comul_c),
                _ap(2, comul_c),     # c1 c2 d1 d2
                _pm((0, 2, 1, 3)),   # c1 d1 c2 d2
                _ap(2, rr),          # c1 d1 R1 R2
                _ap(1, phi),         # c1 R1f d1f R2
                _pm((0, 3, 1, 2)),   # c1 R2 R1f d1f
                _ap(0, phi),         # R2p c1p R1f d1f
                _pm((2, 0, 3, 1)),   # R1f R2p d1f c1p
                _ap(2, mul_c),
            ),
        ),
        compare_item(
            "E08_act",
            (na, nc, nc),
            (na, na),
            (
                _pm((1, 2, 0)),      # c d a
                _ap(2, comul_a),     # c d a1 a2
                _pm((0, 2, 1, 3)),   # c a1 d a2
                _ap(0, phi),         # a1f cf d a2
                _ap(2, phi),         # a1f cf a2p dp
                _pm((0, 2, 1, 3)),   # a1f a2p cf dp
                _ap(2, rr),          # a1f a2p R1 R2
                _pm((1, 2, 0, 3)),   # a2p R1 a1f R2
                _ap(0, mul_a),
                _ap(1, mul_a),
            ),
            (
                _pm((1, 2, 0)),      # c d a
                _ap(0, rr),          # R1 R2 a
                _ap(2, comul_a),     # R1 R2 a1 a2
                _pm((0, 2, 1, 3)),   # R1 a1 R2 a2
                _ap(0, mul_a),
                _ap(1, mul_a),
            ),
        ),
        compare_item(
            "E09_split_right",
            (nc, nc, nc),
            (na, na, na),
            (_ap(1, mul_c), _ap(0, rr), _ap(0, comul_a)),
            (
                _ap(0, comul_c),     # x1 x2 y z
                _ap(1, rr),          # x1 r1 r2 z
                _pm((0, 2, 1, 3)),   # x1 r2 r1 z
                _ap(0, phi),         # r2f x1f r1 z
                _pm((0, 1, 3, 2)),   # r2f x1f z r1
                _ap(1, rr),          # r2f R1 R2 r1
                _pm((3, 1, 0, 2)),   # r1 R1 r2f R2
                _ap(2, mul_a),
            ),
        ),
        compare_item(
            "E10a_split_left",
            (nc, nc, nc),
            (na, na, na),
            (_ap(0, mul_c), _ap(0, rr), _ap(1, comul_a)),
            (
                _ap(2, comul_c),     # x y z1 z2
                _pm((0, 1, 3, 2)),   # x y z2 z1
                _ap(1, rr),          # x r1 r2 z1
                _pm((0, 3, 1, 2)),   # x z1 r1 r2
                _ap(1, phi),         # x r1f z1f r2
                _pm((0, 2, 1, 3)),   # x z1f r1f r2
                _ap(0, rr),          # R1 R2 r1f r2
                _pm((2, 0, 1, 3)),   # r1f R1 R2 r2
                _ap(0, mul_a),
            ),
        ),
    ]
    items.append(invertibility_item("E10b_conv_invertible", q.rmap, q.rmap_conv_inverse))
    return AxiomReport(items)


# ---------------------------------------------------------------------------
# Antipode compatibility (needed for duals of entwined modules)
# ---------------------------------------------------------------------------


def check_antipode_compat(d: MonoidalEntwiningDatum) -> AxiomReport:
    """The two closed-loop identities tying phi to the antipodes, on pairs (c, a).

    AC1: S_A^{-1}(a) (x) S_C(c)   agrees with the double-entwined twist
         using (S_A^{-1}, S_C); AC2 is the mirror with (S_A, S_C^{-1}).
    Both identities route one output of each phi evaluation through the
    other's input, so they are partial traces rather than plain
    compositions: a Cup opens the loop on an algebra leg x, the first phi
    entwines c with x, and a Cap closes it against the antipode of the
    second phi's algebra output.  Both sides are kernel pipelines.
    """
    c, a = d.c, d.a
    nc, na = d.c_dim, d.a_dim
    phi, cup, cap = d.phi_op, Cup(na), Cap(na)

    def item(axiom_id, sa, sc):
        return compare_item(
            axiom_id,
            (nc, na),
            (na, nc),
            (_ap(0, sc), _ap(1, sa), _pm((1, 0))),
            (
                _ap(1, cup),         # c x x a
                _ap(0, phi),         # u w x a
                _ap(1, sc),          # u S(w) x a
                _pm((0, 2, 1, 3)),   # u x S(w) a
                _ap(2, phi),         # u x l j
                _ap(2, sa),          # u x S(l) j
                _ap(1, cap),         # u j
            ),
        )

    items = [
        item("AC1_inv_antipode", a.antipode_inv_op, c.antipode_op),
        item("AC2_antipode", a.antipode_op, c.antipode_inv_op),
    ]
    return AxiomReport(items)
