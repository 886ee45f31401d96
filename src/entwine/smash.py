"""Distributive laws, smash products and coproducts, and structure transport.

A monoidal entwining datum on Hopf sides induces two Hopf algebras: the
smash product on (dual of C, op) (x) A, whose modules are exactly the
entwined modules, and the smash coproduct on (dual of A, cop) (x) C,
whose comodules are.  Both are assembled here from the dual Hopf data
plus dual-basis views of the entwining map, together with the module
transport equivalence and the transport of pivots, copivots, R-matrices,
ribbon elements and coribbon data in both directions.  Every product,
coproduct and antipode, view, (co)distributive-law conversion, module
transport and transported R-matrix or form is a kernel pipeline: Cup
brings in a pair of dual-basis legs and Cap pairs a dual leg with a
plain one.  Units, counits, pivots and copivots are coordinate lists
reshaped.  Every axiom scan goes through report.compare_item.

Basis convention for both constructions: dual-basis index first, then
the plain-side index, left major (so the flat index of e^i (x) a_k is
``i * dimA + k``).
"""

from __future__ import annotations

from .exactla import (
    Cap,
    Cup,
    Matrix,
    State,
    TensorOp,
    Vector,
    pipeline_matrix,
    state_to_vector,
)
from .emodcat import EntwinedModule
from .entwining import (
    DoubleQuantumGroup,
    EntwiningMap,
    HomCA,
    MonoidalEntwiningDatum,
    check_antipode_compat,
)
from .hopfcore import (
    AlgebraData,
    BilinearForm,
    CoalgebraData,
    Element,
    Functional,
    HopfAlgebraData,
    dual_hopf,
)
from .pivribbon import require_verified
from .report import AxiomItem, AxiomReport, compare_item, pipeline, _ap, _pm


class DistributiveLaw:
    """An algebra or coalgebra distributive law as a matrix.

    kind "algebra": map B (x) A -> A (x) B between two algebras;
    kind "coalgebra": map C (x) D -> D (x) C between two coalgebras.
    """

    def __init__(self, kind: str, left, right, map: Matrix):
        if kind not in ("algebra", "coalgebra"):
            raise ValueError("kind must be 'algebra' or 'coalgebra'")
        if map.nrows != left.dim * right.dim or map.ncols != left.dim * right.dim:
            raise ValueError("map shape inconsistent with factor dims")
        self.kind = kind
        self.left = left    # B (algebra case) or C (coalgebra case)
        self.right = right  # A (algebra case) or D (coalgebra case)
        self.map = map

    @property
    def op(self) -> TensorOp:
        return TensorOp(self.map, (self.left.dim, self.right.dim),
                        (self.right.dim, self.left.dim))


def check_distributive_law(law: DistributiveLaw) -> AxiomReport:
    "All four commuting squares of the respective definition."
    b, a = law.left, law.right
    nb, na = b.dim, a.dim
    op = law.op
    if law.kind == "algebra":
        mul_b, unit_b = b.mul_op, b.unit_op
        mul_a, unit_a = a.mul_op, a.unit_op
        items = [
            compare_item(
                "DL1_left_mult",
                (nb, nb, na),
                (na, nb),
                (_ap(0, mul_b), _ap(0, op)),
                (_ap(1, op), _ap(0, op), _ap(1, mul_b)),
            ),
            compare_item(
                "DL2_left_unit",
                (na,),
                (na, nb),
                (_ap(0, unit_b), _ap(0, op)),
                (_ap(1, unit_b),),
            ),
            compare_item(
                "DL3_right_mult",
                (nb, na, na),
                (na, nb),
                (_ap(1, mul_a), _ap(0, op)),
                (_ap(0, op), _ap(1, op), _ap(0, mul_a)),
            ),
            compare_item(
                "DL4_right_unit",
                (nb,),
                (na, nb),
                (_ap(1, unit_a), _ap(0, op)),
                (_ap(0, unit_a),),
            ),
        ]
    else:
        c, dd = law.left, law.right
        comul_c, counit_c = c.comul_op, c.counit_op
        comul_d, counit_d = dd.comul_op, dd.counit_op
        nc, nd = c.dim, dd.dim
        items = [
            compare_item(
                "DL1_right_comult",
                (nc, nd),
                (nd, nd, nc),
                (_ap(0, op), _ap(0, comul_d)),
                (_ap(1, comul_d), _ap(0, op), _ap(1, op)),
            ),
            compare_item(
                "DL2_right_counit",
                (nc, nd),
                (nc,),
                (_ap(0, op), _ap(0, counit_d)),
                (_ap(1, counit_d),),
            ),
            compare_item(
                "DL3_left_comult",
                (nc, nd),
                (nd, nc, nc),
                (_ap(0, op), _ap(1, comul_c)),
                (_ap(0, comul_c), _ap(1, op), _ap(0, op)),
            ),
            compare_item(
                "DL4_left_counit",
                (nc, nd),
                (nd,),
                (_ap(0, op), _ap(1, counit_c)),
                (_ap(0, counit_c),),
            ),
        ]
    return AxiomReport(items)


# ---------------------------------------------------------------------------
# Dual-basis views of the entwining map
#
# Dualizing one pair of phi's legs is a dual-basis transposition: a Cup
# brings in a pair of dual-basis legs, phi acts on one of them, and a Cap
# pairs phi's output on that side with the dual input.  Each view is one
# pipeline; its matrix is both the (co)distributive law the entwining map
# carries and the map the smash construction entwines with.
# ---------------------------------------------------------------------------


def _dual_c_view(e) -> Matrix:
    """phi with the coalgebra legs dualized, A (x) C* -> C* (x) A:
    f_k (x) e^j -> sum e^m (x) f_u, weighted by the coefficient of
    f_u (x) e_j in phi(e_m (x) f_k)."""
    nc, na = e.c_dim, e.a_dim
    cup, cap = Cup(nc), Cap()
    return pipeline_matrix(
        (na, nc),
        (nc, na),
        (_ap(0, cup), _ap(1, e.phi_op), _ap(2, cap)),  # m m k j -> m u j j
    )


def _dual_a_view(e) -> Matrix:
    """phi with the algebra legs dualized, A* (x) C -> C (x) A*:
    f^u (x) e_c -> sum e_v (x) f^i, weighted by the coefficient of
    f_u (x) e_v in phi(e_c (x) f_i)."""
    nc, na = e.c_dim, e.a_dim
    cup, cap = Cup(na), Cap()
    return pipeline_matrix(
        (na, nc),
        (nc, na),
        (_ap(2, cup), _ap(1, e.phi_op), _ap(0, cap)),  # u c i i -> u u v i
    )


# ---------------------------------------------------------------------------
# Entwining map <-> distributive law conversion
# ---------------------------------------------------------------------------


def entwining_to_distlaw(e: EntwiningMap) -> DistributiveLaw:
    """The algebra distributive law A (x) (dual C, op) -> (dual C, op) (x) A
    carried by an entwining map, by dual-basis transposition."""
    return DistributiveLaw("algebra", e.a, dual_hopf(e.c, "op"), _dual_c_view(e))


def distlaw_to_entwining(law: DistributiveLaw, c) -> EntwiningMap:
    """Back from an algebra distributive law on A (x) (dual C) to the
    entwining map on C (x) A; inverse of entwining_to_distlaw.

    phi(e_j (x) f_k) = sum (e^i)^Phi(e_j) f_Phi (x) e_i: a Cup brings in
    e_i (x) e^i, the law acts on f_k (x) e^i, and a Cap evaluates its dual
    output at e_j.
    """
    if law.kind != "algebra":
        raise ValueError("expected an algebra distributive law")
    a = law.left
    op, cup, cap = law.op, Cup(c.dim), Cap()
    phi = pipeline_matrix(
        (c.dim, a.dim),
        (a.dim, c.dim),
        (_ap(2, cup), _ap(1, op), _ap(0, cap)),  # j k i i -> j m l i
    )
    return EntwiningMap(c, a, phi)


def entwining_to_codistlaw(e: EntwiningMap) -> DistributiveLaw:
    """The coalgebra distributive law (dual A, cop) (x) C -> C (x) (dual A, cop)
    carried by an entwining map, by dual-basis transposition on the algebra
    legs (the entwining map's algebra output feeds the dual input)."""
    return DistributiveLaw("coalgebra", dual_hopf(e.a, "cop"), e.c, _dual_a_view(e))


def codistlaw_to_entwining(law: DistributiveLaw, a) -> EntwiningMap:
    "Back from a coalgebra distributive law on (dual A) (x) C; inverse of the above."
    if law.kind != "coalgebra":
        raise ValueError("expected a coalgebra distributive law")
    c = law.right
    op, cup, cap = law.op, Cup(a.dim), Cap()
    phi = pipeline_matrix(
        (c.dim, a.dim),
        (a.dim, c.dim),
        (_ap(0, cup), _ap(1, op), _ap(2, cap)),  # u u c i -> u j i i
    )
    return EntwiningMap(c, a, phi)


# ---------------------------------------------------------------------------
# Smash product (dual of C, op) (x) A
# ---------------------------------------------------------------------------


def smash_algebra(e) -> AlgebraData:
    """The smash product as an algebra; works for any entwining map.

    Product: (p (x) a)(q (x) b) = sum (e^i * p) (x) a_phi b q(e_i^phi),
    with * the plain dual convolution (e^i on the left).
    """
    phi_dc = TensorOp(_dual_c_view(e), (e.a_dim, e.c_dim), (e.c_dim, e.a_dim))
    return _smash_algebra(e, dual_hopf(e.c, "op"), phi_dc)


def _smash_algebra(e, dual_c: HopfAlgebraData, phi_dc: TensorOp) -> AlgebraData:
    "smash_algebra with (dual C, op) and the dual view of phi already built."
    nc, na = e.c_dim, e.a_dim
    mul_dc = dual_c.mul_op  # mult of (dual C, op): (p, q) -> q * p in plain dual
    mul_a = e.a.mul_op

    # input legs: (i, k, j, l) for (e^i (x) f_k)(e^j (x) f_l)
    mult = pipeline_matrix((nc, na, nc, na), (nc, na), (
        _pm((1, 2, 0, 3)),   # k j i l
        _ap(0, phi_dc),      # m u i l   (dual leg m, a_phi leg u)
        _pm((2, 0, 1, 3)),   # i m u l
        _ap(0, mul_dc),      # (p *op e^m) = e^m * p ; legs: w u l
        _ap(1, mul_a),       # w (a_phi b)
    ))
    unit = Vector(
        [e.c.counit.entry(0, i) * e.a.unit[k] for i in range(nc) for k in range(na)]
    )
    names = [f"{cn}^(x){an}" for cn in e.c.basis_names for an in e.a.basis_names]
    return AlgebraData(nc * na, names, mult, unit)


def smash_product(d: MonoidalEntwiningDatum) -> HopfAlgebraData:
    """The full smash product Hopf algebra on (dual of C, op) (x) A.

    Comultiplication is componentwise; the antipode routes the dual leg
    through the entwining map against the antipode of A, with the
    inverse dual antipode on the C side.
    """
    nc, na = d.c_dim, d.a_dim
    dual_c = dual_hopf(d.c, "op")
    phi_dc = TensorOp(_dual_c_view(d), (na, nc), (nc, na))
    alg = _smash_algebra(d, dual_c, phi_dc)

    comult = pipeline_matrix(
        (nc, na),
        (nc, na, nc, na),
        (_ap(0, dual_c.comul_op), _ap(2, d.a.comul_op), _pm((0, 2, 1, 3))),
    )
    counit = Matrix(
        [[d.c.unit[i] * d.a.counit.entry(0, k) for i in range(nc) for k in range(na)]]
    )

    # (j, k): apply the inverse dual antipode to the dual leg, the antipode
    # of A to the other, then entwine.
    antipode = pipeline_matrix((nc, na), (nc, na), (
        _ap(0, TensorOp(dual_c.antipode, (nc,), (nc,))),
        _ap(1, d.a.antipode_op),
        _pm((1, 0)),
        _ap(0, phi_dc),
    ))
    coa = CoalgebraData(alg.dim, alg.basis_names, comult, counit)
    return HopfAlgebraData(alg, coa, antipode)


# ---------------------------------------------------------------------------
# Smash coproduct (dual of A, cop) (x) C
# ---------------------------------------------------------------------------


def smash_coproduct(d: MonoidalEntwiningDatum) -> HopfAlgebraData:
    """The smash coproduct Hopf algebra on (dual of A, cop) (x) C.

    Multiplication is componentwise (dual convolution times the product
    of C); the displayed coproduct in the source material names its two
    right-hand factors with letters that never appear, and the only
    reading making the counit law hold is the product of the C-legs
    carried here.  Comultiplication entwines the first dual-A Sweedler
    leg with the C-leg.
    """
    nc, na = d.c_dim, d.a_dim
    dual_a = dual_hopf(d.a, "cop")
    # the displayed Sweedler legs on the dual factor are those of the plain
    # dual coproduct; the formula's own leg swap is what realizes the cop
    plain_dual_comul = TensorOp(d.a.mult.transpose(), (na,), (na, na))
    phi_da = TensorOp(_dual_a_view(d), (na, nc), (nc, na))

    mult = pipeline_matrix(
        (na, nc, na, nc),
        (na, nc),
        (_pm((0, 2, 1, 3)), _ap(0, dual_a.mul_op), _ap(1, d.c.mul_op)),
    )
    unit = Vector(
        [d.a.counit.entry(0, i) * d.c.unit[k] for i in range(na) for k in range(nc)]
    )
    names = [f"{an}^(x){cn}" for an in d.a.basis_names for cn in d.c.basis_names]
    alg = AlgebraData(na * nc, names, mult, unit)

    # (g, c): split both legs, entwine gamma_1 against c_1
    comult = pipeline_matrix((na, nc), (na, nc, na, nc), (
        _ap(0, plain_dual_comul),  # g1 g2 c
        _ap(2, d.c.comul_op),      # g1 g2 c1 c2
        _pm((0, 2, 1, 3)),         # g1 c1 g2 c2
        _ap(0, phi_da),            # c1f i_dual g2 c2
        _pm((2, 0, 1, 3)),         # g2 c1f i_dual c2
    ))
    counit = Matrix(
        [[d.a.unit[i] * d.c.counit.entry(0, k) for i in range(na) for k in range(nc)]]
    )

    antipode = pipeline_matrix((na, nc), (na, nc), (
        _ap(0, phi_da),  # c_out i_dual
        _pm((1, 0)),
        _ap(0, TensorOp(dual_a.antipode, (na,), (na,))),
        _ap(1, d.c.antipode_op),
    ))
    coa = CoalgebraData(alg.dim, names, comult, counit)
    return HopfAlgebraData(alg, coa, antipode)


# ---------------------------------------------------------------------------
# Module transport
# ---------------------------------------------------------------------------


def module_transport_to_smash(m: EntwinedModule) -> Matrix:
    """Action of the smash product on the module's own space:
    x <- (p (x) a) = p(x_coact) x_0 . a.  Returns dim x (dim*dimSmash)."""
    nc, na = m.datum.c_dim, m.datum.a_dim
    cap = Cap()
    return pipeline_matrix(
        (m.dim, nc, na),
        (m.dim,),
        # x i k -> x0 v i k -> x0 k where v = i -> x0 . f_k
        (_ap(0, m.coaction_op), _ap(1, cap), _ap(0, m.action_op)),
    )


def module_transport_from_smash(d: MonoidalEntwiningDatum, dim: int,
                                action: Matrix) -> EntwinedModule:
    """Back from a right module over the smash product to an entwined module.

    Action: u . a = u <- (counit (x) a); coaction: the dual-leg sweep
    u -> sum (u <- (e^i (x) 1)) (x) e_i.
    """
    nc, na = d.c_dim, d.a_dim
    act = TensorOp(action, (dim, nc, na), (dim,))
    cup = Cup(nc)
    new_action = pipeline_matrix(
        (dim, na),
        (dim,),
        # x k -> x i i k -> x i k weighted by eps_C(e_i) -> x <- (e^i (x) f_k)
        (_ap(1, cup), _ap(2, d.c.counit_op), _ap(0, act)),
    )
    new_coaction = pipeline_matrix(
        (dim,),
        (dim, nc),
        (
            _ap(1, cup),          # x i i
            _ap(3, d.a.unit_op),  # x i i 1_A
            _pm((0, 1, 3, 2)),    # x i 1_A i
            _ap(0, act),          # (x <- (e^i (x) 1_A)) i
        ),
    )
    return EntwinedModule(d, dim, new_action, new_coaction)


# ---------------------------------------------------------------------------
# Transport of pivots, R-matrices, ribbon and coribbon data
# ---------------------------------------------------------------------------


def _smash_coords(g: HomCA) -> Vector:
    "Coordinates of sum_i e^i (x) g(e_i) on the smash product basis."
    return Vector([x for row in g.map.transpose().rows() for x in row])


def _cosmash_row(g: HomCA) -> Matrix:
    "The functional f^u (x) e_c -> f^u(g(e_c)) on the smash coproduct basis."
    return Matrix([[x for row in g.map.rows() for x in row]])


def transport_pivot(d: MonoidalEntwiningDatum, g: HomCA,
                    smash: HopfAlgebraData | None = None) -> Element:
    "The candidate pivot sum_i e^i (x) g(e_i) of the smash product."
    require_verified("pivotal", d, g)
    if smash is None:
        smash = smash_product(d)
    return Element(smash, _smash_coords(g))


def extract_pivot(d: MonoidalEntwiningDatum, t: Element) -> HomCA:
    "Back from a pivot of the smash product: g(c) = sum T1(c) T2."
    nc, na = d.c_dim, d.a_dim
    rows = [[t.coords[j * na + k] for j in range(nc)] for k in range(na)]
    return HomCA(d, Matrix(rows))


def _rmap_legs(q: DoubleQuantumGroup, perm) -> State:
    """R(c_j (x) c_i) summed over dual bases, with both dual-basis legs kept:
    two Cups open e^j (x) c_j and c_i (x) e^i, R acts on the middle, which
    gives legs j u v i for R1 = e_u and R2 = e_v; perm then reorders them."""
    cup = Cup(q.datum.c_dim)
    return pipeline((), _ap(0, cup), _ap(2, cup), _ap(1, q.rmap_op), _pm(perm))


def transport_rmatrix(q: DoubleQuantumGroup) -> Vector:
    """The R-matrix of the smash product induced by the braiding map:
    sum over dual bases of (e^i (x) R1(c_j (x) e_i)) (x) (c^j (x) R2(...)).

    The displayed element has four tensor legs whose grouping into the
    two smash factors is not forced by the notation; this grouping is
    the unique one of the four candidates under which the quasitriangular
    axioms hold on the double of the Sweedler algebra, and the checks
    assert it on every corpus double structure.
    """
    d = q.datum
    # first smash leg (i, u) carries R1, second (j, v) carries R2
    return state_to_vector(_rmap_legs(q, (3, 1, 0, 2)), (d.c_dim, d.a_dim) * 2)


def transport_ribbon(q: DoubleQuantumGroup, g: HomCA,
                     smash: HopfAlgebraData | None = None):
    "The candidate (R-matrix, ribbon element) pair of the smash product."
    require_verified("ribbon", q, g)
    if smash is None:
        smash = smash_product(q.datum)
    return transport_rmatrix(q), Element(smash, _smash_coords(g))


def extract_ribbon(d: MonoidalEntwiningDatum, t: Element) -> HomCA:
    return extract_pivot(d, t)


def transport_copivot(d: MonoidalEntwiningDatum, g: HomCA,
                      cosmash: HopfAlgebraData | None = None) -> Functional:
    "The candidate copivot gamma (x) c -> gamma(g(c)) on the smash coproduct."
    require_verified("pivotal", d, g)
    if cosmash is None:
        cosmash = smash_coproduct(d)
    return Functional(cosmash, _cosmash_row(g))


def extract_copivot(d: MonoidalEntwiningDatum, gamma: Functional) -> HomCA:
    "Back from a copivot of the smash coproduct: g(c) = sum Gamma(e^i (x) c) e_i."
    nc, na = d.c_dim, d.a_dim
    rows = [[gamma.coords.entry(0, i * nc + k) for k in range(nc)] for i in range(na)]
    return HomCA(d, Matrix(rows))


def transport_coribbon(q: DoubleQuantumGroup, g: HomCA,
                       cosmash: HopfAlgebraData | None = None):
    "The candidate (coquasitriangular form, ribbon character) on the coproduct."
    require_verified("ribbon", q, g)
    d = q.datum
    if cosmash is None:
        cosmash = smash_coproduct(d)
    # zeta((e^u (x) c_j) (x) (e^v (x) c_i)) = (e^u (x) e^v)(R(c_j (x) c_i))
    row = state_to_vector(_rmap_legs(q, (1, 0, 2, 3)), (d.a_dim, d.c_dim) * 2)
    form = BilinearForm(cosmash, cosmash, Matrix([row]))
    return form, Functional(cosmash, _cosmash_row(g))


def extract_coribbon(d: MonoidalEntwiningDatum, theta: Functional) -> HomCA:
    return extract_copivot(d, theta)


# ---------------------------------------------------------------------------
# Antipode identity checks on the smash constructions
# ---------------------------------------------------------------------------


def smash_identity_checks(d: MonoidalEntwiningDatum) -> AxiomReport:
    """Anti-(co)multiplicativity of the smash antipodes, cross-checked
    against the direct antipode-compatibility identities.

    SI1: the smash product antipode reverses products;
    SI2: the smash coproduct antipode reverses coproducts;
    SI3: the conjunction agrees with check_antipode_compat's verdict.
    """
    sp = smash_product(d)
    dim = sp.dim
    s_op = sp.antipode_op
    si1 = compare_item(
        "SI1_product_antimult",
        (dim, dim),
        (dim,),
        (_ap(0, sp.mul_op), _ap(0, s_op)),
        (_ap(0, s_op), _ap(1, s_op), _pm((1, 0)), _ap(0, sp.mul_op)),
    )
    sc = smash_coproduct(d)
    dim2 = sc.dim
    s2_op = sc.antipode_op
    si2 = compare_item(
        "SI2_coproduct_anticomult",
        (dim2,),
        (dim2, dim2),
        (_ap(0, s2_op), _ap(0, sc.comul_op)),
        (_ap(0, sc.comul_op), _pm((1, 0)), _ap(0, s2_op), _ap(1, s2_op)),
    )
    direct = check_antipode_compat(d)
    agreed = (si1.passed and si2.passed) == direct.overall
    if agreed:
        si3 = AxiomItem("SI3_agrees_direct", True)
    else:
        bad = next(it for it in (si1, si2, *direct.items) if not it.passed)
        si3 = AxiomItem("SI3_agrees_direct", False, bad.witness)
    return AxiomReport([si1, si2, si3])
