"""Built-in exactly-specified example structures.

Everything here is constructed from first principles: the 4-dimensional
Sweedler algebra from the sign rule of its basis words, cyclic group
algebras from group structure, flip and conjugation entwinings from their
closed forms.  These objects are the regression surface for the whole
package: every constructor's output passes its full checker suite.  Every
structure map that is not a closed-form table (the conjugation and
Hopf-module entwinings, the braiding maps) is a kernel pipeline over
those tables; the checks run through report.compare_item.
"""

from __future__ import annotations

from fractions import Fraction

from .exactla import ONE, Matrix, TensorOp, Vector, matrix_from_columns_fn, pipeline_matrix
from .entwining import DoubleQuantumGroup, EntwiningMap, HomCA, MonoidalEntwiningDatum, conv_unit
from .hopfcore import (
    AlgebraData,
    BilinearForm,
    CoalgebraData,
    Element,
    Functional,
    HopfAlgebraData,
    dual_hopf,
    element_op,
)
from .report import _ap, _pm
from .smash import smash_coproduct, smash_product


# ---------------------------------------------------------------------------
# Sweedler's 4-dimensional Hopf algebra
# ---------------------------------------------------------------------------

def sweedler_h4() -> HopfAlgebraData:
    """The smallest noncommutative noncocommutative Hopf algebra.

    Generators: a grouplike e with e^2 = 1 and a skew-primitive x with
    x^2 = 0, xe = -ex.  Basis vector i + 2j is the word e^i x^j: 1, e, x
    and y = ex.  Words multiply by the sign rule

        e^i x^j * e^k x^l = (-1)^(jk) e^(i+k) x^(j+l),  zero when j = l = 1,

    with e^2 = 1.  Delta(x) = x (x) 1 + e (x) x and S(x) = -y, and on
    y = ex Delta is multiplicative and S antimultiplicative:

        Delta(y) = Delta(e)Delta(x) = (e (x) e)(x (x) 1 + e (x) x) = y (x) e + 1 (x) y,
        S(y) = S(x)S(e) = -ye = -e(xe) = e^2 x = x.
    """
    one, e, x, y = range(4)

    def mult_col(t):
        (j, i), (l, k) = divmod(t[0], 2), divmod(t[1], 2)
        if j and l:
            return {}
        return {((i + k) % 2 + 2 * (j + l),): -ONE if j and k else ONE}

    delta = ({(one, one): ONE}, {(e, e): ONE}, {(x, one): ONE, (e, x): ONE},
             {(y, e): ONE, (one, y): ONE})
    s = ({(one,): ONE}, {(e,): ONE}, {(y,): -ONE}, {(x,): ONE})
    names = ("1", "e", "x", "y")
    mult = matrix_from_columns_fn((4, 4), (4,), mult_col)
    comult = matrix_from_columns_fn((4,), (4, 4), lambda t: delta[t[0]])
    antipode = matrix_from_columns_fn((4,), (4,), lambda t: s[t[0]])
    alg = AlgebraData(4, names, mult, Vector([1, 0, 0, 0]))
    coa = CoalgebraData(4, names, comult, Matrix([[1, 1, 0, 0]]))
    return HopfAlgebraData(alg, coa, antipode)


def h4_copivot(h4: HopfAlgebraData) -> Functional:
    "The character taking 1 to 1 and the grouplike generator to -1."
    return Functional(h4, Matrix([[1, -1, 0, 0]]))


# ---------------------------------------------------------------------------
# Cyclic group algebras
# ---------------------------------------------------------------------------


def cyclic_group_algebra(n: int) -> HopfAlgebraData:
    "The group algebra of Z/nZ: grouplike basis, inverse antipode."
    if n < 1:
        raise ValueError("n must be positive")
    names = tuple("1" if i == 0 else f"g{i}" if n > 2 else "g" for i in range(n))
    mult = matrix_from_columns_fn(
        (n, n), (n,), lambda t: {((t[0] + t[1]) % n,): ONE}
    )
    comult = matrix_from_columns_fn((n,), (n, n), lambda t: {(t[0], t[0]): ONE})
    counit = Matrix([[1] * n])
    antipode = matrix_from_columns_fn((n,), (n,), lambda t: {((-t[0]) % n,): ONE})
    alg = AlgebraData(n, names, mult, Vector([1] + [0] * (n - 1)))
    coa = CoalgebraData(n, names, comult, counit)
    return HopfAlgebraData(alg, coa, antipode)


def dual_cyclic_group_algebra(n: int) -> HopfAlgebraData:
    "Functions on Z/nZ: the dual of the cyclic group algebra."
    return dual_hopf(cyclic_group_algebra(n), "plain")


def z2_triangular_rmatrix(h: HopfAlgebraData) -> Vector:
    "(1/2)(1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g) on a 2-dim group algebra."
    if h.dim != 2:
        raise ValueError("expected the Z/2 group algebra")
    half = Fraction(1, 2)
    return Vector([half, half, half, -half])


def z2_dual_triangular_form(b: HopfAlgebraData, r: Vector) -> BilinearForm:
    "The coquasitriangular form on the dual obtained by evaluating at R."
    if b.dim != 2 or r.dim != 4:
        raise ValueError("expected the dual Z/2 algebra and a 2x2 R-matrix")
    return BilinearForm(b, b, Matrix.from_flat(r, r.dim))


# ---------------------------------------------------------------------------
# Entwining datums
# ---------------------------------------------------------------------------


def flip_entwining(c: HopfAlgebraData, a: HopfAlgebraData) -> EntwiningMap:
    "The flip map as an entwining: c (x) a -> a (x) c."
    phi = matrix_from_columns_fn(
        (c.dim, a.dim), (a.dim, c.dim), lambda t: {(t[1], t[0]): ONE}
    )
    return EntwiningMap(c, a, phi)


def long_datum(h: HopfAlgebraData, b: HopfAlgebraData) -> MonoidalEntwiningDatum:
    """The flip datum whose entwined modules are module/comodule pairs with
    trivial compatibility (coalgebra side b, algebra side h)."""
    return MonoidalEntwiningDatum(flip_entwining(b, h))


def yd_datum(h: HopfAlgebraData) -> MonoidalEntwiningDatum:
    """The conjugation entwining c (x) a -> a_2 (x) S(a_1) c a_3 whose
    entwined modules are the right-right Yetter-Drinfeld modules."""
    d = h.dim
    phi = pipeline_matrix(
        (d, d),
        (d, d),
        (
            _ap(1, h.comul_op),       # c a1 a2
            _ap(2, h.comul_op),       # c a1 a2 a3
            _ap(1, h.antipode_op),    # c S(a1) a2 a3
            _pm((2, 1, 0, 3)),        # a2 S(a1) c a3
            _ap(1, h.mul_op),
            _ap(1, h.mul_op),
        ),
    )
    return MonoidalEntwiningDatum(EntwiningMap(h, h, phi))


def yd_dqg(h: HopfAlgebraData) -> DoubleQuantumGroup:
    "The conjugation datum with the braiding map a (x) b -> 1 (x) eps(a) b."
    d = h.dim
    datum = yd_datum(h)
    rmap = pipeline_matrix((d, d), (d, d), (_ap(0, h.counit_op), _ap(0, h.unit_op)))
    return DoubleQuantumGroup(datum, rmap)


def hopf_module_datum(h: HopfAlgebraData) -> EntwiningMap:
    """The entwining x (x) y -> y_1 (x) x y_2 whose entwined modules are the
    Hopf modules; satisfies the basic axioms but is not monoidal."""
    d = h.dim
    phi = pipeline_matrix(
        (d, d),
        (d, d),
        (
            _ap(1, h.comul_op),  # x y1 y2
            _pm((1, 0, 2)),      # y1 x y2
            _ap(1, h.mul_op),
        ),
    )
    return EntwiningMap(h, h, phi)


def long_dqg(h: HopfAlgebraData, rmatrix: Vector, b: HopfAlgebraData,
             form: BilinearForm) -> DoubleQuantumGroup:
    """Braided structure on the flip datum for a quasitriangular (H, R) and
    a coquasitriangular (B, beta): the map B (x) B -> H (x) H sends a (x) b
    to beta(a, b) R1 (x) R2.  It passes E07-E10b whenever both premises
    hold; R2 (x) R1 would fail E09 and E10a for an R that is not symmetric."""
    if rmatrix.dim != h.dim * h.dim:
        raise ValueError("rmatrix must live in H (x) H")
    datum = long_datum(h, b)
    nb, nh = b.dim, h.dim
    form_op = TensorOp(form.coords, (nb, nb), ())
    r_op = element_op(rmatrix, (nh, nh))
    rmap = pipeline_matrix((nb, nb), (nh, nh), (_ap(0, form_op), _ap(0, r_op)))
    return DoubleQuantumGroup(datum, rmap)


def drinfeld_double(h: HopfAlgebraData) -> HopfAlgebraData:
    "The smash product of the conjugation datum: the double of h."
    return smash_product(yd_datum(h))


# ---------------------------------------------------------------------------
# Known pivotal / ribbon morphisms on the corpus
# ---------------------------------------------------------------------------


def h4_long_pivotal(d: MonoidalEntwiningDatum) -> HomCA:
    "On the flip datum over the Sweedler algebra: 1 -> e, e -> -e, x, y -> 0."
    return HomCA(d, Matrix([[0, 0, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))


def h4_yd_pivotal_pair(d: MonoidalEntwiningDatum) -> tuple[HomCA, HomCA]:
    """The two pivotal morphisms of the conjugation datum over the Sweedler
    algebra: one through the copivot (values in the unit), one through the
    pivot (values on the grouplike)."""
    g1 = HomCA(d, Matrix([[1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    g2 = HomCA(d, Matrix([[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    return g1, g2


# registry used by the command line `corpus` command: name -> (kind, builder)
def _corpus_registry():
    return {
        "h4": ("hopf", sweedler_h4),
        "kz2": ("hopf", lambda: cyclic_group_algebra(2)),
        "kz3": ("hopf", lambda: cyclic_group_algebra(3)),
        "dual_kz2": ("hopf", lambda: dual_cyclic_group_algebra(2)),
        "dual_h4": ("hopf", lambda: dual_hopf(sweedler_h4(), "plain")),
        "double_h4": ("hopf", lambda: drinfeld_double(sweedler_h4())),
        "double_kz2": ("hopf", lambda: drinfeld_double(cyclic_group_algebra(2))),
        "cosmash_yd_h4": ("hopf", lambda: smash_coproduct(yd_datum(sweedler_h4()))),
        "long_h4": ("entwining", lambda: long_datum(sweedler_h4(), sweedler_h4())),
        "long_kz2": (
            "entwining",
            lambda: long_datum(cyclic_group_algebra(2), cyclic_group_algebra(2)),
        ),
        "yd_h4": ("entwining", lambda: yd_datum(sweedler_h4())),
        "yd_kz2": ("entwining", lambda: yd_datum(cyclic_group_algebra(2))),
        "hopfmod_h4": ("entwining", lambda: hopf_module_datum(sweedler_h4())),
        "yd_dqg_h4": ("dqg", lambda: yd_dqg(sweedler_h4())),
        "yd_dqg_kz2": ("dqg", lambda: yd_dqg(cyclic_group_algebra(2))),
        "long_dqg_kz2": ("dqg", _long_dqg_kz2),
        "g1_yd_h4": ("morphism", lambda: h4_yd_pivotal_pair(yd_datum(sweedler_h4()))[0]),
        "g2_yd_h4": ("morphism", lambda: h4_yd_pivotal_pair(yd_datum(sweedler_h4()))[1]),
        "g_long_h4": ("morphism", lambda: h4_long_pivotal(long_datum(sweedler_h4(), sweedler_h4()))),
        "unit_morphism_yd_h4": ("morphism", lambda: conv_unit(yd_datum(sweedler_h4()))),
        "g_ribbon_long_kz2": ("morphism", long_kz2_ribbon),
        "pivot_h4": ("element", lambda: Element(sweedler_h4(), Vector([0, 1, 0, 0]))),
        "copivot_h4": ("functional", lambda: h4_copivot(sweedler_h4())),
        "form_dual_kz2": (
            "form",
            lambda: z2_dual_triangular_form(
                dual_cyclic_group_algebra(2),
                z2_triangular_rmatrix(cyclic_group_algebra(2)),
            ),
        ),
    }


def _long_dqg_kz2() -> DoubleQuantumGroup:
    h = cyclic_group_algebra(2)
    b = dual_cyclic_group_algebra(2)
    r = z2_triangular_rmatrix(h)
    form = z2_dual_triangular_form(b, r)
    return long_dqg(h, r, b, form)


def long_kz2_ribbon() -> HomCA:
    """The ribbon morphism b -> eps_B(b) 1_H on the braided flip datum over
    Z/2: the ribbon-element/ribbon-character pairing with both trivial."""
    from .pivribbon import separable_candidate

    q = _long_dqg_kz2()
    d = q.datum
    kappa = Element(d.a, d.a.unit)
    rho = Functional(d.c, d.c.counit)
    return separable_candidate(d, kappa, rho, "ribbon").map


def corpus_names() -> list[str]:
    return sorted(_corpus_registry())


def corpus_build(name: str):
    "Build a corpus object by registry name; returns (kind, object)."
    reg = _corpus_registry()
    if name not in reg:
        raise KeyError(f"unknown corpus name {name!r}; known: {', '.join(sorted(reg))}")
    kind, build = reg[name]
    return kind, build()
