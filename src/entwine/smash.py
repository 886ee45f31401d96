"""Distributive laws, smash products and coproducts, and structure transport.

A monoidal entwining datum on Hopf sides induces two Hopf algebras: the
smash product on (dual of C, op) (x) A, whose modules are exactly the
entwined modules, and the smash coproduct on (dual of A, cop) (x) C,
whose comodules are.  Both are assembled here from the dual Hopf data
plus reindexed views of the entwining map, together with the module
transport equivalence and the transport of pivots, copivots, R-matrices,
ribbon elements and coribbon data in both directions.

Basis convention for both constructions: dual-basis index first, then
the plain-side index, left major (so the flat index of e^i (x) a_k is
``i * dimA + k``).
"""

from __future__ import annotations

from .exactla import (
    ZERO,
    Matrix,
    TensorOp,
    Vector,
    matrix_from_columns_fn,
)
from .emodcat import EntwinedModule
from .entwining import DoubleQuantumGroup, EntwiningMap, HomCA, MonoidalEntwiningDatum
from .hopfcore import (
    AlgebraData,
    BilinearForm,
    CoalgebraData,
    Element,
    Functional,
    HopfAlgebraData,
    dual_hopf,
)
from .report import AxiomItem, AxiomReport, compare_item, pipeline, _ap, _pm


class DistributiveLaw:
    """An algebra or coalgebra distributive law as a dense matrix.

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
                lambda t: pipeline(t, _ap(0, mul_b), _ap(0, op)),
                lambda t: pipeline(t, _ap(1, op), _ap(0, op), _ap(1, mul_b)),
            ),
            compare_item(
                "DL2_left_unit",
                (na,),
                (na, nb),
                lambda t: pipeline(t, _ap(0, unit_b), _ap(0, op)),
                lambda t: pipeline(t, _ap(1, unit_b)),
            ),
            compare_item(
                "DL3_right_mult",
                (nb, na, na),
                (na, nb),
                lambda t: pipeline(t, _ap(1, mul_a), _ap(0, op)),
                lambda t: pipeline(t, _ap(0, op), _ap(1, op), _ap(0, mul_a)),
            ),
            compare_item(
                "DL4_right_unit",
                (nb,),
                (na, nb),
                lambda t: pipeline(t, _ap(1, unit_a), _ap(0, op)),
                lambda t: pipeline(t, _ap(0, unit_a)),
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
                lambda t: pipeline(t, _ap(0, op), _ap(0, comul_d)),
                lambda t: pipeline(t, _ap(1, comul_d), _ap(0, op), _ap(1, op)),
            ),
            compare_item(
                "DL2_right_counit",
                (nc, nd),
                (nc,),
                lambda t: pipeline(t, _ap(0, op), _ap(0, counit_d)),
                lambda t: pipeline(t, _ap(1, counit_d)),
            ),
            compare_item(
                "DL3_left_comult",
                (nc, nd),
                (nd, nc, nc),
                lambda t: pipeline(t, _ap(0, op), _ap(1, comul_c)),
                lambda t: pipeline(t, _ap(0, comul_c), _ap(1, op), _ap(0, op)),
            ),
            compare_item(
                "DL4_left_counit",
                (nc, nd),
                (nd,),
                lambda t: pipeline(t, _ap(0, op), _ap(1, counit_c)),
                lambda t: pipeline(t, _ap(0, counit_c)),
            ),
        ]
    return AxiomReport(items)


# ---------------------------------------------------------------------------
# Reindexed views of the entwining map
# ---------------------------------------------------------------------------


def _phi_tensor(e):
    "Dense view Phi[c_in][a_in][a_out][c_out] of the entwining matrix."
    nc, na = e.c_dim, e.a_dim
    phi = e.phi
    return [
        [
            [[phi.entry(l * nc + j, i * na + k) for j in range(nc)] for l in range(na)]
            for k in range(na)
        ]
        for i in range(nc)
    ]


def _phi_dual_c(e) -> Matrix:
    """The entwining map with the coalgebra legs dualized:
    (a_in, dual_c_in j) -> (a_out, dual_c_out m) with coefficient
    Phi[m][a_in][a_out][j]."""
    nc, na = e.c_dim, e.a_dim
    Phi = _phi_tensor(e)
    rows = [[ZERO] * (na * nc) for _ in range(na * nc)]
    for m in range(nc):
        for k in range(na):
            for u in range(na):
                for j in range(nc):
                    x = Phi[m][k][u][j]
                    if x != 0:
                        rows[u * nc + m][k * nc + j] = x
    return Matrix(rows)


def _phi_dual_a(e) -> Matrix:
    """The entwining map with the algebra legs dualized:
    (dual_a_in u, c_in) -> (dual_a_out i, c_out v) with coefficient
    Phi[c_in][i][u][v]."""
    nc, na = e.c_dim, e.a_dim
    Phi = _phi_tensor(e)
    rows = [[ZERO] * (na * nc) for _ in range(na * nc)]
    for c in range(nc):
        for i in range(na):
            for u in range(na):
                for v in range(nc):
                    x = Phi[c][i][u][v]
                    if x != 0:
                        rows[i * nc + v][u * nc + c] = x
    return Matrix(rows)


# ---------------------------------------------------------------------------
# Entwining map <-> distributive law conversion
# ---------------------------------------------------------------------------


def entwining_to_distlaw(e: EntwiningMap) -> DistributiveLaw:
    """The algebra distributive law A (x) (dual C, op) -> (dual C, op) (x) A
    carried by an entwining map, by dual-basis transposition."""
    nc, na = e.c_dim, e.a_dim
    Phi = _phi_tensor(e)
    dual_c = dual_hopf(e.c, "op")
    rows = [[ZERO] * (na * nc) for _ in range(nc * na)]
    # Phi(a (x) p) = sum p(e_i^phi) e^i (x) a_phi
    for k in range(na):  # a = f_k
        for j in range(nc):  # p = e^j
            for i in range(nc):
                for l in range(na):
                    x = Phi[i][k][l][j]
                    if x != 0:
                        rows[i * na + l][k * nc + j] = x
    return DistributiveLaw("algebra", e.a, dual_c, Matrix(rows))


def distlaw_to_entwining(law: DistributiveLaw, c) -> EntwiningMap:
    """Back from an algebra distributive law on A (x) (dual C) to the
    entwining map on C (x) A; inverse of entwining_to_distlaw."""
    if law.kind != "algebra":
        raise ValueError("expected an algebra distributive law")
    a = law.left
    na, nc = a.dim, c.dim
    rows = [[ZERO] * (nc * na) for _ in range(na * nc)]
    # phi(c (x) a) = sum (e^i)^Phi(c) a_Phi (x) e_i: the coefficient of
    # e^m (x) f_l in Phi(f_k (x) e^i) is map[(m,l),(k,i)]; evaluating the
    # dual output at c = e_j picks m = j.
    for j in range(nc):
        for k in range(na):
            for i in range(nc):
                for l in range(na):
                    x = law.map.entry(j * na + l, k * nc + i)
                    if x != 0:
                        rows[l * nc + i][j * na + k] = x
    return EntwiningMap(c, a, Matrix(rows))


def entwining_to_codistlaw(e: EntwiningMap) -> DistributiveLaw:
    """The coalgebra distributive law (dual A, cop) (x) C -> C (x) (dual A, cop)
    carried by an entwining map, by dual-basis transposition on the algebra
    legs (the entwining map's algebra output feeds the dual input)."""
    nc, na = e.c_dim, e.a_dim
    Phi = _phi_tensor(e)
    dual_a = dual_hopf(e.a, "cop")
    rows = [[ZERO] * (na * nc) for _ in range(nc * na)]
    for c in range(nc):
        for i in range(na):
            for u in range(na):
                for j in range(nc):
                    x = Phi[c][i][u][j]
                    if x != 0:
                        rows[j * na + i][u * nc + c] = x
    return DistributiveLaw("coalgebra", dual_a, e.c, Matrix(rows))


def codistlaw_to_entwining(law: DistributiveLaw, a) -> EntwiningMap:
    "Back from a coalgebra distributive law on (dual A) (x) C; inverse of the above."
    if law.kind != "coalgebra":
        raise ValueError("expected a coalgebra distributive law")
    c = law.right
    nc, na = c.dim, a.dim
    rows = [[ZERO] * (nc * na) for _ in range(na * nc)]
    for cc in range(nc):
        for i in range(na):
            for u in range(na):
                for j in range(nc):
                    x = law.map.entry(j * na + i, u * nc + cc)
                    if x != 0:
                        rows[u * nc + j][cc * na + i] = x
    return EntwiningMap(c, a, Matrix(rows))


# ---------------------------------------------------------------------------
# Smash product (dual of C, op) (x) A
# ---------------------------------------------------------------------------


def smash_algebra(e) -> AlgebraData:
    """The smash product as an algebra; works for any entwining map.

    Product: (p (x) a)(q (x) b) = sum (e^i * p) (x) a_phi b q(e_i^phi),
    with * the plain dual convolution (e^i on the left).
    """
    nc, na = e.c_dim, e.a_dim
    dual_c = dual_hopf(e.c, "op")
    phi_dc = TensorOp(_phi_dual_c(e), (na, nc), (na, nc))
    mul_dc = dual_c.mul_op  # mult of (dual C, op): (p, q) -> q * p in plain dual
    mul_a = e.a.mul_op

    def col(t):
        # input legs: (i, k, j, l) for (e^i (x) f_k)(e^j (x) f_l)
        return pipeline(
            t,
            _pm((1, 2, 0, 3)),   # k j i l
            _ap(0, phi_dc),      # u m i l   (a_phi leg u, dual leg m)
            _pm((2, 1, 0, 3)),   # i m u l
            _ap(0, mul_dc),      # (p *op e^m) = e^m * p ; legs: w u l
            _ap(1, mul_a),       # w (a_phi b)
        )

    mult = matrix_from_columns_fn((nc, na, nc, na), (nc, na), col)
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
    e = d.base
    nc, na = e.c_dim, e.a_dim
    dual_c = dual_hopf(e.c, "op")
    alg = smash_algebra(e)
    phi_dc = TensorOp(_phi_dual_c(e), (na, nc), (na, nc))

    comult = matrix_from_columns_fn(
        (nc, na),
        (nc, na, nc, na),
        lambda t: pipeline(t, _ap(0, dual_c.comul_op), _ap(2, e.a.comul_op),
                           _pm((0, 2, 1, 3))),
    )
    counit = Matrix(
        [[e.c.unit[i] * e.a.counit.entry(0, k) for i in range(nc) for k in range(na)]]
    )

    def antipode_col(t):
        # (j, k): apply the inverse dual antipode to the dual leg, the
        # antipode of A to the other, then entwine.
        return pipeline(
            t,
            _ap(0, TensorOp(dual_c.antipode, (nc,), (nc,))),
            _ap(1, e.a.antipode_op),
            _pm((1, 0)),
            _ap(0, phi_dc),
            _pm((1, 0)),
        )

    antipode = matrix_from_columns_fn((nc, na), (nc, na), antipode_col)
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
    e = d.base
    nc, na = e.c_dim, e.a_dim
    dual_a = dual_hopf(e.a, "cop")
    # the displayed Sweedler legs on the dual factor are those of the plain
    # dual coproduct; the formula's own leg swap is what realizes the cop
    plain_dual_comul = TensorOp(e.a.mult.transpose(), (na,), (na, na))
    phi_da = TensorOp(_phi_dual_a(e), (na, nc), (na, nc))

    mult = matrix_from_columns_fn(
        (na, nc, na, nc),
        (na, nc),
        lambda t: pipeline(t, _pm((0, 2, 1, 3)), _ap(0, dual_a.mul_op), _ap(1, e.c.mul_op)),
    )
    unit = Vector(
        [e.a.counit.entry(0, i) * e.c.unit[k] for i in range(na) for k in range(nc)]
    )
    names = [f"{an}^(x){cn}" for an in e.a.basis_names for cn in e.c.basis_names]
    alg = AlgebraData(na * nc, names, mult, unit)

    def comult_col(t):
        # (g, c): split both legs, entwine gamma_1 against c_1
        return pipeline(
            t,
            _ap(0, plain_dual_comul),  # g1 g2 c
            _ap(2, e.c.comul_op),      # g1 g2 c1 c2
            _pm((0, 2, 1, 3)),         # g1 c1 g2 c2
            _ap(0, phi_da),            # i_dual c1f g2 c2
            _pm((2, 1, 0, 3)),         # g2 c1f i_dual c2
        )

    comult = matrix_from_columns_fn((na, nc), (na, nc, na, nc), comult_col)
    counit = Matrix(
        [[e.a.unit[i] * e.c.counit.entry(0, k) for i in range(na) for k in range(nc)]]
    )

    def antipode_col(t):
        return pipeline(
            t,
            _ap(0, phi_da),  # i_dual c_out
            _ap(0, TensorOp(dual_a.antipode, (na,), (na,))),
            _ap(1, e.c.antipode_op),
        )

    antipode = matrix_from_columns_fn((na, nc), (na, nc), antipode_col)
    coa = CoalgebraData(alg.dim, names, comult, counit)
    return HopfAlgebraData(alg, coa, antipode)


# ---------------------------------------------------------------------------
# Module transport
# ---------------------------------------------------------------------------


def module_transport_to_smash(m: EntwinedModule) -> Matrix:
    """Action of the smash product on the module's own space:
    x <- (p (x) a) = p(x_coact) x_0 . a.  Returns dim x (dim*dimSmash)."""
    d = m.datum
    nc, na = d.c_dim, d.a_dim

    def col(t):
        # legs (x, i, k): pick the coaction leg equal to i, then act by f_k
        (x, i, k) = t
        out = {}
        for (x0, v), c in m.coaction_op.cols((x,)):
            if v != i:
                continue
            for (y,), w in m.action_op.cols((x0, k)):
                key = (y,)
                nv = out.get(key, ZERO) + c * w
                if nv == 0:
                    out.pop(key, None)
                else:
                    out[key] = nv
        return out

    return matrix_from_columns_fn((m.dim, nc, na), (m.dim,), col)


def module_transport_from_smash(d: MonoidalEntwiningDatum, dim: int,
                                action: Matrix) -> EntwinedModule:
    """Back from a right module over the smash product to an entwined module.

    Action: u . a = u <- (counit (x) a); coaction: the dual-leg sweep
    u -> sum (u <- (e^i (x) 1)) (x) e_i.
    """
    nc, na = d.c_dim, d.a_dim
    act = TensorOp(action, (dim, nc, na), (dim,))
    eps_c = d.c.counit
    unit_a = d.a.unit

    def action_col(t):
        (x, k) = t
        out = {}
        for i in range(nc):
            w = eps_c.entry(0, i)
            if w == 0:
                continue
            for (y,), c in act.cols((x, i, k)):
                key = (y,)
                nv = out.get(key, ZERO) + w * c
                if nv == 0:
                    out.pop(key, None)
                else:
                    out[key] = nv
        return out

    def coaction_col(t):
        (x,) = t
        out = {}
        for i in range(nc):
            for k in range(na):
                w = unit_a[k]
                if w == 0:
                    continue
                for (y,), c in act.cols((x, i, k)):
                    key = (y, i)
                    nv = out.get(key, ZERO) + w * c
                    if nv == 0:
                        out.pop(key, None)
                    else:
                        out[key] = nv
        return out

    new_action = matrix_from_columns_fn((dim, na), (dim,), action_col)
    new_coaction = matrix_from_columns_fn((dim,), (dim, nc), coaction_col)
    return EntwinedModule(d, dim, new_action, new_coaction)


# ---------------------------------------------------------------------------
# Transport of pivots, R-matrices, ribbon and coribbon data
# ---------------------------------------------------------------------------


def transport_pivot(d: MonoidalEntwiningDatum, g: HomCA,
                    smash: HopfAlgebraData | None = None) -> Element:
    "The candidate pivot sum_i e^i (x) g(e_i) of the smash product."
    from .pivribbon import verify_pivotal

    rep = verify_pivotal(d, g)
    if not rep.overall:
        raise ValueError(f"pivotal verification failed: {rep.failed_ids()}")
    if smash is None:
        smash = smash_product(d)
    nc, na = d.c_dim, d.a_dim
    coords = [g.map.entry(k, i) for i in range(nc) for k in range(na)]
    return Element(smash, Vector(coords))


def extract_pivot(d: MonoidalEntwiningDatum, t: Element) -> HomCA:
    "Back from a pivot of the smash product: g(c) = sum T1(c) T2."
    nc, na = d.c_dim, d.a_dim
    rows = [[t.coords[j * na + k] for j in range(nc)] for k in range(na)]
    return HomCA(d, Matrix(rows))


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
    nc, na = d.c_dim, d.a_dim
    dim = nc * na
    coords = [ZERO] * (dim * dim)
    for j in range(nc):
        for i in range(nc):
            for (u, v), x in q.rmap_op.cols((j, i)):
                # first smash leg (i, u) carries R1, second (j, v) carries R2
                coords[(i * na + u) * dim + (j * na + v)] += x
    return Vector(coords)


def transport_ribbon(q: DoubleQuantumGroup, g: HomCA,
                     smash: HopfAlgebraData | None = None):
    "The candidate (R-matrix, ribbon element) pair of the smash product."
    from .pivribbon import verify_ribbon

    rep = verify_ribbon(q, g)
    if not rep.overall:
        raise ValueError(f"ribbon verification failed: {rep.failed_ids()}")
    d = q.datum
    if smash is None:
        smash = smash_product(d)
    nc, na = d.c_dim, d.a_dim
    coords = [g.map.entry(k, i) for i in range(nc) for k in range(na)]
    return transport_rmatrix(q), Element(smash, Vector(coords))


def extract_ribbon(d: MonoidalEntwiningDatum, t: Element) -> HomCA:
    return extract_pivot(d, t)


def transport_copivot(d: MonoidalEntwiningDatum, g: HomCA,
                      cosmash: HopfAlgebraData | None = None) -> Functional:
    "The candidate copivot gamma (x) c -> gamma(g(c)) on the smash coproduct."
    from .pivribbon import verify_pivotal

    rep = verify_pivotal(d, g)
    if not rep.overall:
        raise ValueError(f"pivotal verification failed: {rep.failed_ids()}")
    if cosmash is None:
        cosmash = smash_coproduct(d)
    nc, na = d.c_dim, d.a_dim
    row = [g.map.entry(i, k) for i in range(na) for k in range(nc)]
    return Functional(cosmash, Matrix([row]))


def extract_copivot(d: MonoidalEntwiningDatum, gamma: Functional) -> HomCA:
    "Back from a copivot of the smash coproduct: g(c) = sum Gamma(e^i (x) c) e_i."
    nc, na = d.c_dim, d.a_dim
    rows = [[gamma.coords.entry(0, i * nc + k) for k in range(nc)] for i in range(na)]
    return HomCA(d, Matrix(rows))


def transport_coribbon(q: DoubleQuantumGroup, g: HomCA,
                       cosmash: HopfAlgebraData | None = None):
    "The candidate (coquasitriangular form, ribbon character) on the coproduct."
    from .pivribbon import verify_ribbon

    rep = verify_ribbon(q, g)
    if not rep.overall:
        raise ValueError(f"ribbon verification failed: {rep.failed_ids()}")
    d = q.datum
    if cosmash is None:
        cosmash = smash_coproduct(d)
    nc, na = d.c_dim, d.a_dim
    dim = na * nc
    row = [ZERO] * (dim * dim)
    for u in range(na):
        for j in range(nc):
            for v in range(na):
                for i in range(nc):
                    # zeta((e^u (x) c_j) (x) (e^v (x) c_i)) = (e^u (x) e^v)(R(c_j (x) c_i))
                    row[(u * nc + j) * dim + (v * nc + i)] = q.rmap.entry(
                        u * na + v, j * nc + i
                    )
    form = BilinearForm(cosmash, cosmash, Matrix([row]))
    char_row = [g.map.entry(i, k) for i in range(na) for k in range(nc)]
    return form, Functional(cosmash, Matrix([char_row]))


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
    from .entwining import check_antipode_compat

    sp = smash_product(d)
    dim = sp.dim
    s_op = sp.antipode_op
    si1 = compare_item(
        "SI1_product_antimult",
        (dim, dim),
        (dim,),
        lambda t: pipeline(t, _ap(0, sp.mul_op), _ap(0, s_op)),
        lambda t: pipeline(t, _ap(0, s_op), _ap(1, s_op), _pm((1, 0)), _ap(0, sp.mul_op)),
    )
    sc = smash_coproduct(d)
    dim2 = sc.dim
    s2_op = sc.antipode_op
    si2 = compare_item(
        "SI2_coproduct_anticomult",
        (dim2,),
        (dim2, dim2),
        lambda t: pipeline(t, _ap(0, s2_op), _ap(0, sc.comul_op)),
        lambda t: pipeline(t, _ap(0, sc.comul_op), _pm((1, 0)), _ap(0, s2_op), _ap(1, s2_op)),
    )
    direct = check_antipode_compat(d)
    agreed = (si1.passed and si2.passed) == direct.overall
    if agreed:
        si3 = AxiomItem("SI3_agrees_direct", True)
    else:
        bad = next(it for it in (si1, si2, *direct.items) if not it.passed)
        si3 = AxiomItem("SI3_agrees_direct", False, bad.witness)
    return AxiomReport([si1, si2, si3])
