"""Entwining structures, monoidal datums, double structures, convolutions.

An entwining map phi: C (x) A -> A (x) C between a coalgebra side C and
an algebra side A is stored as a Matrix under the global tensor
index convention.  This module houses the axiom chain E1-E10 (E10 split
into E10a, the coproduct-splitting identity, and E10b, convolution
invertibility), the entwined convolution algebras on hom(C, A) and
hom(C (x) C, A (x) A), and the antipode compatibility identities that
make the dual-module formulas work downstream.

Convolution inverses (E10b here, P5/R5 in the pivotal layer, RE4/CB4 in
hopfcore on a datum with one trivial side) solve x*g = unit and check
g*x = unit on the solution; only a rank-deficient system falls back to
the stacked system g*x = unit = x*g.  The operators x -> x*g and
x -> g*x are built by the same pipeline that evaluates a product: with a
SlotLeg standing for x, one pass per batch of input basis tuples yields
every column of the operator at once, keyed by the slot leg.  One
builder, invertibility_item, turns each inverse into its axiom item.

The second decorated copy of the entwining map appearing in several
axioms is always another evaluation of the single stored phi, and the
braiding map r appearing twice in the splitting identities is the single
stored R.
"""

from __future__ import annotations

from functools import cached_property

from .exactla import (
    Cap,
    Cup,
    Matrix,
    TensorOp,
    Vector,
    hom_operator,
    pipeline_matrix,
    solve_affine,
    two_sided_solve,
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
        return (
            isinstance(other, HomCA)
            and self.datum is other.datum
            and self.map == other.map
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
# Each product formula is written once, as steps on keys that end in a slot
# leg.  With two concrete maps there is one slot and the steps evaluate the
# product; with a SlotLeg standing for one factor they yield the operator
# x -> g*x (or x -> x*g) in one pass per batch of input tuples.
# ---------------------------------------------------------------------------


def _operator(d, in_dims, out_dims, side, g_op, g_first: bool) -> Matrix:
    "The matrix of x -> g*x (g_first) or of x -> x*g on hom(in_dims, out_dims)."
    def steps(f):
        return side(d, g_op, f) if g_first else side(d, f, g_op)

    return hom_operator(in_dims, out_dims, in_dims, out_dims, steps)


def _product(d, in_dims, out_dims, side, g_op, f_op) -> Matrix:
    "The matrix of g*f in hom(in_dims, out_dims)."
    return pipeline_matrix(in_dims, (*out_dims, 1), (_slot(len(in_dims)), *side(d, g_op, f_op)))


def _inverse(d, in_dims, out_dims, side, g_op, unit: Matrix) -> Matrix | None:
    """The x with g*x = unit = x*g, or None if there is none.

    Only x -> x*g is built, and x*g = unit is solved alone.  A two-sided
    inverse solves it, so an inconsistent system means there is none, and
    a unique solution x is the inverse exactly when g*x = unit, which one
    product checks.  In an associative algebra a left inverse is two-sided
    and unique, so a consistent rank-deficient system arises only on a
    datum failing E01-E06; there x -> g*x is built as well and the stacked
    system g*x = unit = x*g is solved, as two_sided_solve does.  Every
    branch returns what the stacked solve returns.
    """
    right = _operator(d, in_dims, out_dims, side, g_op, False)
    rhs = [e for row in unit.rows() for e in row]
    sol = solve_affine(right, Vector(rhs))
    if sol is None:
        return None
    if sol.dimension:
        left = _operator(d, in_dims, out_dims, side, g_op, True)
        return _reshape(two_sided_solve(left, right, rhs), unit.ncols)
    x = _reshape(sol.particular, unit.ncols)
    gx = _product(d, in_dims, out_dims, side, g_op, TensorOp(x, in_dims, out_dims))
    return x if gx == unit else None


def _reshape(x: Vector | None, ncols: int) -> Matrix | None:
    "The row-major flattening x as a matrix with ncols columns; None stays None."
    if x is None:
        return None
    return Matrix([x.coords[i : i + ncols] for i in range(0, len(x), ncols)])


def conv_unit(d: MonoidalEntwiningDatum) -> HomCA:
    "The convolution unit: unit_A after counit_C."
    unit_col = Matrix([[x] for x in d.a.unit])
    return HomCA(d, unit_col * d.c.counit)


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

    Solves x*g = unit and checks g*x = unit on its solution (see _inverse):
    a two-sided inverse solves x*g = unit, so when that solution is unique
    it is the inverse or there is none.  Equal to the solution of the
    stacked system g*x = unit = x*g in every case.
    """
    d = g.datum
    inv = _inverse(d, (d.c_dim,), (d.a_dim,), _conv_side, g.op, conv_unit(d).map)
    return None if inv is None else HomCA(d, inv)


def invertibility_item(axiom_id: str, map: Matrix, inverse) -> AxiomItem:
    """The item saying that map has a convolution inverse (E10b, P5, R5,
    RE4, CB4); a missing inverse fails with the map's row-major entries
    against zeros as the witness."""
    if inverse is not None:
        return AxiomItem(axiom_id, True)
    flat = Vector([x for row in map.rows() for x in row])
    return AxiomItem(axiom_id, False, Witness((), flat, Vector.zero(flat.dim)))


def conv2_unit(d: MonoidalEntwiningDatum) -> Matrix:
    nc, na = d.c_dim, d.a_dim
    return pipeline_matrix((nc, nc), (na, na), (
        _ap(0, d.c.counit_op),
        _ap(0, d.c.counit_op),
        _ap(0, d.a.unit_op),
        _ap(1, d.a.unit_op),
    ))


def _conv2_side(d: MonoidalEntwiningDatum, g_op, f_op):
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
    "Two-sided inverse in hom(C (x) C, A (x) A), or None; solved as in conv_inverse."
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
    phi, cup, cap = d.phi_op, Cup(na), Cap()

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
