"""Oracles and shared inputs that only tests use.

``pipeline`` evaluates one basis tuple through kernel steps, the form most
hand-derived sides are written in.  ``check_module_over_algebra`` checks a
transported module against a plain algebra, and ``stage1_residual``
evaluates the finder's linear laws at a concrete map, over ``zero_r(d)``,
d as a double structure with R = 0.  ``two_sided_solve``
solves the stacked system left.x = rhs = right.x in full, the reference the
convolution inverses' component solves are compared against.
``duality_morphism_items`` reads D3/D4 of check_duality through the
morphism squares over built tensor modules.  ``verify_pivot``,
``verify_copivot``, ``verify_ribbon_element`` and ``verify_coribbon_form``
are the Hopf-level verifiers as hand-written axiom sides (PV1-3, CP1-3,
RE1-4, CB1-4), the reference for the P/R laws that entwine.pivribbon runs
on a datum with one trivial side; ``LAW_OF`` names the law each of their
items becomes.  ``h4_rmatrix`` and ``h4_form`` are the families R_alpha and
beta_gamma on H4, and the corpus maps name the datums the cross-cutting
property tests run over.
"""

from fractions import Fraction
from functools import lru_cache

from entwine import entwining as ent
from entwine.corpus import corpus_build
from entwine.emodcat import tensor_modules, tensor_unit
from entwine.exactla import (
    Matrix,
    Rows,
    TensorOp,
    Vector,
    flatten_index,
    run_batch,
    solve_affine,
    sv_apply,
    sv_permute,
    unflatten_index,
)
from entwine.hopfcore import (
    BilinearForm,
    Element,
    Functional,
    HopfAlgebraData,
    _degenerate_datum,
    element_op,
    trivial_hopf,
)
from entwine.pivribbon import _laws, _linear_system
from entwine.report import AxiomItem, AxiomReport, _ap, _pm, compare_item


def pipeline(dims, idx, *steps) -> dict:
    """Run the basis tuple idx over dims through a sequence of kernel steps
    (callables State -> State): a batch of one, its terms keyed by the
    tuple of their output legs."""
    state = run_batch(dims, (flatten_index(dims, idx),), steps)
    out_dims = state.dims[:-1]
    return {unflatten_index(out_dims, key): c for key, c in state.items()}


def two_sided_solve(left: Rows, right: Rows, rhs: dict) -> dict | None:
    """The x with left.x = rhs = right.x, or None when there is none.

    ``rhs`` and x are given by their nonzero entries {index: value}.  The
    rows are stacked, left first, and handed to solve_affine, whose
    particular solution is returned.  For the operators x -> g*x and
    x -> x*g of an associative algebra and rhs its unit, x is the two-sided
    inverse of g, which is unique when it exists.  Convolution inverses
    (entwining._inverse) solve only the rows their right-hand side
    reaches, and must return this particular solution.
    """
    if left.ncols != right.ncols:
        raise ValueError("stacked blocks must have the same number of columns")
    both = {**rhs, **{i + left.nrows: x for i, x in rhs.items()}}
    sol = solve_affine(Rows(left + right, left.ncols), both)
    return None if sol is None else sol.particular


def check_module_over_algebra(alg, dim: int, action) -> AxiomReport:
    "Right-module axioms over a plain algebra (used for transported modules)."
    act = TensorOp(action, (dim, alg.dim), (dim,))
    return AxiomReport([
        compare_item("RM1_assoc", (dim, alg.dim, alg.dim), (dim,),
                     (_ap(1, alg.mul_op), _ap(0, act)), (_ap(0, act), _ap(0, act))),
        compare_item("RM2_unit", (dim,), (dim,), (_ap(1, alg.unit_op), _ap(0, act)), ()),
    ])


def zero_r(d) -> ent.DoubleQuantumGroup:
    """d as a double structure with R = 0: a target for the law table of
    either kind, whose linear laws R does not enter (it enters only R3)."""
    return ent.DoubleQuantumGroup(d, Matrix.zero(d.a_dim ** 2, d.c_dim ** 2))


def stage1_residual(d, kind: str, g) -> Vector:
    "Residual of the finder's linear laws over datum d at a concrete map (zero iff satisfied)."
    a, b = _linear_system(_laws(zero_r(d), kind))
    x = g.map.flat()
    return Vector([sum(v * x[c] for c, v in row.items()) for row in a]) - b


# modules hash by identity, and the cache holds them, so no id is reused
_tensor_modules = lru_cache(maxsize=4)(tensor_modules)


def _morphism_witness(source, target, f_op):
    """The witness of the first failing square of f_op: source -> target,
    A_linear and then C_colinear, or None: ModuleMorphism's two squares as
    they were written before check_duality came to share them."""
    d = source.datum
    linear = compare_item(
        "A_linear",
        (source.dim, d.a_dim),
        (target.dim,),
        (_ap(0, source.action_op), _ap(0, f_op)),
        (_ap(0, f_op), _ap(0, target.action_op)),
    )
    if not linear.passed:
        return linear.witness
    colinear = compare_item(
        "C_colinear",
        (source.dim,),
        (target.dim, d.c_dim),
        (_ap(0, f_op), _ap(0, target.coaction_op)),
        (_ap(0, source.coaction_op), _ap(0, f_op)),
    )
    return colinear.witness


def duality_morphism_items(m, dd) -> list[AxiomItem]:
    """D3_ev_morphism and D4_coev_morphism of check_duality(m, dd), read the
    way check_duality once read them: the squares of a morphism from ev's
    source, the tensor_modules of the dual and m (dual first on the left),
    to the unit, and of one from the unit to coev's target (the other
    order), each failure's witness turned into an item.  The last few
    tensor modules built are kept, with the columns their scans filled, for
    the next call on the same modules (a sweep of changed ev and coev)."""
    unit, dual, dim = tensor_unit(m.datum), dd.dual_module, m.dim
    pair = (dual, m) if dd.side == "left" else (m, dual)
    ev = TensorOp(dd.ev, (dim * dim,), (1,))
    coev = TensorOp(dd.coev, (1,), (dim * dim,))
    items = []
    for axiom_id, source, target, f_op in (
            ("D3_ev_morphism", _tensor_modules(*pair), unit, ev),
            ("D4_coev_morphism", unit, _tensor_modules(*pair[::-1]), coev)):
        witness = _morphism_witness(source, target, f_op)
        items.append(AxiomItem(axiom_id, witness is None, witness))
    return items


def verify_pivot(h: HopfAlgebraData, g: Element) -> AxiomReport:
    "Pivot conditions: grouplike, counit one, and g*S(a) = S^{-1}(a)*g."
    if g.host is not h:
        raise ValueError("element must be hosted in h")
    d = h.dim
    g_op = element_op(g.coords)
    mul, comul, counit = h.mul_op, h.comul_op, h.counit_op
    items = [
        compare_item(
            "PV1_grouplike",
            (),
            (d, d),
            (_ap(0, g_op), _ap(0, comul)),
            (_ap(0, g_op), _ap(1, g_op)),
        ),
        compare_item(
            "PV2_counit_one",
            (),
            (),
            (_ap(0, g_op), _ap(0, counit)),
            (),
        ),
        compare_item(
            "PV3_antipode_twist",
            (d,),
            (d,),
            (_ap(0, h.antipode_op), _ap(0, g_op), _ap(0, mul)),
            (_ap(0, h.antipode_inv_op), _ap(1, g_op), _ap(0, mul)),
        ),
    ]
    return AxiomReport(items)


def verify_copivot(c: HopfAlgebraData, g: Functional) -> AxiomReport:
    "Copivot conditions: multiplicative, unit one, g(c1)S(c2) = S^{-1}(c1)g(c2)."
    if g.host is not c:
        raise ValueError("functional must be hosted in c")
    d = c.dim
    g_op = TensorOp(g.coords, (d,), ())
    mul, comul = c.mul_op, c.comul_op
    items = [
        compare_item(
            "CP1_multiplicative",
            (d, d),
            (),
            (_ap(0, mul), _ap(0, g_op)),
            (_ap(0, g_op), _ap(0, g_op)),
        ),
        compare_item(
            "CP2_unit_one",
            (),
            (),
            (_ap(0, c.unit_op), _ap(0, g_op)),
            (),
        ),
        compare_item(
            "CP3_antipode_twist",
            (d,),
            (d,),
            (_ap(0, comul), _ap(0, g_op), _ap(0, c.antipode_op)),
            (_ap(0, comul), _ap(1, g_op), _ap(0, c.antipode_inv_op)),
        ),
    ]
    return AxiomReport(items)


def _element_hom(h: HopfAlgebraData, v: Vector) -> ent.HomCA:
    "v as the map k -> H over the degenerate datum."
    return ent.HomCA(_degenerate_datum(trivial_hopf(), h), Matrix.from_flat(v, 1))


def verify_ribbon_element(h: HopfAlgebraData, rmatrix: Vector, v: Element) -> AxiomReport:
    """Ribbon-element conditions in a quasitriangular Hopf algebra.

    Checks centrality, Delta(v) = (v (x) v) * R21 R, S(v) = v, and
    invertibility; quasitriangularity of (h, rmatrix) is the caller's
    precondition (see quasitri_check).
    """
    if v.host is not h:
        raise ValueError("element must be hosted in h")
    if rmatrix.dim != h.dim * h.dim:
        raise ValueError("rmatrix must live in H (x) H")
    d = h.dim
    mul, comul = h.mul_op, h.comul_op
    v_op = element_op(v.coords)
    r_op = element_op(rmatrix, (d, d))

    def componentwise_mul(state):
        # (x1 (x) x2) * (y1 (x) y2) on a 4-leg state
        state = sv_permute(state, (0, 2, 1, 3))
        state = sv_apply(state, 0, mul)
        return sv_apply(state, 1, mul)

    items = [
        compare_item(
            "RE1_central",
            (d,),
            (d,),
            (_ap(0, v_op), _ap(0, mul)),
            (_ap(1, v_op), _ap(0, mul)),
        ),
        compare_item(
            "RE2_comult_r21r",
            (),
            (d, d),
            (_ap(0, v_op), _ap(0, comul)),
            (
                _ap(0, r_op),          # r1 r2
                _pm((1, 0)),           # r2 r1  (this is R21)
                _ap(2, r_op),          # r2 r1 R1 R2
                componentwise_mul,     # R21 * R
                _ap(0, v_op),
                _ap(1, v_op),          # v v (R21R)1 (R21R)2
                componentwise_mul,     # (v (x) v) * R21 R
            ),
        ),
        compare_item(
            "RE3_antipode_fixed",
            (),
            (d,),
            (_ap(0, v_op), _ap(0, h.antipode_op)),
            (_ap(0, v_op),),
        ),
    ]
    g = _element_hom(h, v.coords)
    items.append(ent.invertibility_item("RE4_invertible", g.map, ent.conv_inverse(g)))
    return AxiomReport(items)


def verify_coribbon_form(c: HopfAlgebraData, form: BilinearForm, g: Functional) -> AxiomReport:
    """Coribbon conditions in a coquasitriangular Hopf algebra.

    Checks cocentrality g(c1)c2 = c1 g(c2), the product rule through the
    form, invariance under the antipode, and convolution invertibility;
    coquasitriangularity of (c, form) is the caller's precondition.
    """
    if g.host is not c or form.host_left is not c or form.host_right is not c:
        raise ValueError("form and functional must be hosted in c")
    d = c.dim
    comul = c.comul_op
    g_op = TensorOp(g.coords, (d,), ())
    form_op = TensorOp(form.coords, (d, d), ())
    items = [
        compare_item(
            "CB1_cocentral",
            (d,),
            (d,),
            (_ap(0, comul), _ap(0, g_op)),
            (_ap(0, comul), _ap(1, g_op)),
        ),
        compare_item(
            "CB2_product_rule",
            (d, d),
            (),
            (_ap(0, c.mul_op), _ap(0, g_op)),
            (
                _ap(0, comul),
                _ap(1, comul),       # c1 c2 c3 d
                _ap(3, comul),
                _ap(4, comul),       # c1 c2 c3 d1 d2 d3
                _ap(0, g_op),        # g(c1):      c2 c3 d1 d2 d3
                _ap(2, g_op),        # g(d1):      c2 c3 d2 d3
                _pm((0, 2, 3, 1)),   # c2 d2 d3 c3
                _ap(0, form_op),     # R(c2 (x) d2):   d3 c3
                _ap(0, form_op),     # R(d3 (x) c3)
            ),
        ),
        compare_item(
            "CB3_antipode_fixed",
            (d,),
            (),
            (_ap(0, g_op),),
            (_ap(0, c.antipode_op), _ap(0, g_op)),
        ),
    ]
    # g as the map C -> k, inverted under the plain convolution of C*
    g_hom = ent.HomCA(_degenerate_datum(c, trivial_hopf()), g.coords)
    items.append(ent.invertibility_item("CB4_conv_invertible", g.coords, ent.conv_inverse(g_hom)))
    return AxiomReport(items)


# the law of entwine.pivribbon that each reference item above becomes, on
# the datum (k, H) for pivots and ribbon elements and (C, k) for copivots and
# ribbon characters
LAW_OF = {
    "PV1_grouplike": "P1_grouplike",
    "PV2_counit_one": "P2_counit_one",
    "PV3_antipode_twist": "P3_action_twist",
    "CP1_multiplicative": "P1_grouplike",
    "CP2_unit_one": "P2_counit_one",
    "CP3_antipode_twist": "P4_coaction_twist",
    "RE1_central": "R1_action",
    "RE2_comult_r21r": "R3_braided_square",
    "RE3_antipode_fixed": "R4_self_dual",
    "RE4_invertible": "R5_conv_invertible",
    "CB1_cocentral": "R2_coaction",
    "CB2_product_rule": "R3_braided_square",
    "CB3_antipode_fixed": "R4_self_dual",
    "CB4_conv_invertible": "R5_conv_invertible",
}


def h4_rmatrix(alpha) -> Vector:
    """R_alpha on H4 in the basis 1, e, x, y = ex (Panaite-Van Oystaeyen):
    (1/2)(1(x)1 + 1(x)e + e(x)1 - e(x)e) + (alpha/2)(x(x)x - x(x)y + y(x)x
    + y(x)y).  It is quasitriangular and, for alpha != 0, not symmetric."""
    half, a = Fraction(1, 2), Fraction(alpha) / 2
    r = [0] * 16
    for (u, v), c in {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half,
                      (2, 2): a, (2, 3): -a, (3, 2): a, (3, 3): a}.items():
        r[u * 4 + v] = c
    return Vector(r)


def h4_form(h4, gamma) -> BilinearForm:
    """beta_gamma on H4: 1 on (1,1), (1,e), (e,1), -1 on (e,e), gamma on (x,x),
    (x,y), (y,y) and -gamma on (y,x).  It is coquasitriangular."""
    f = [0] * 16
    for (u, v), c in {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1,
                      (2, 2): gamma, (2, 3): gamma, (3, 3): gamma, (3, 2): -gamma}.items():
        f[u * 4 + v] = c
    return BilinearForm(h4, h4, Matrix([f]))


def corpus_monoidal_datums() -> dict:
    "The monoidal datums the cross-cutting property tests run over."
    return {name: corpus_build(name)[1] for name in ("long_h4", "long_kz2", "yd_h4", "yd_kz2")}


def corpus_dqgs() -> dict:
    "The double quantum groups of the corpus."
    return {name: corpus_build(name)[1] for name in ("yd_dqg_h4", "yd_dqg_kz2", "long_dqg_kz2")}
