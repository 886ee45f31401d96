"""Smash product/coproduct, distributive laws, structure transport."""

from fractions import Fraction

import pytest

from entwine import corpus
from entwine.emodcat import (
    check_module_over_algebra,
    std_module_AC,
    std_module_CA,
    tensor_modules,
)
from entwine.entwining import EntwiningMap, HomCA, MonoidalEntwiningDatum, conv_unit
from entwine.exactla import Matrix, TensorOp, Vector, kron, matrix_from_columns_fn
from entwine.hopfcore import (
    check_hopf,
    coquasitri_check,
    dual_hopf,
    quasitri_check,
    trivial_hopf,
    verify_copivot,
    verify_coribbon_form,
    verify_pivot,
    verify_ribbon_element,
)
from entwine.report import _ap, _pm, pipeline
from entwine.smash import (
    check_distributive_law,
    distlaw_to_entwining,
    entwining_to_codistlaw,
    entwining_to_distlaw,
    extract_copivot,
    extract_coribbon,
    extract_pivot,
    extract_ribbon,
    module_transport_from_smash,
    module_transport_to_smash,
    smash_algebra,
    smash_coproduct,
    smash_identity_checks,
    smash_product,
    transport_copivot,
    transport_coribbon,
    transport_pivot,
    transport_rmatrix,
    transport_ribbon,
)


# -- distributive laws ---------------------------------------------------------


def test_conversion_round_trip(h4, yd_h4, long_h4):
    for e in (yd_h4.base, long_h4.base, corpus.hopf_module_datum(h4)):
        law = entwining_to_distlaw(e)
        assert check_distributive_law(law).overall
        back = distlaw_to_entwining(law, e.c)
        assert back.phi == e.phi


def test_flip_entwining_gives_flip_law(long_h4):
    law = entwining_to_distlaw(long_h4.base)
    flip = matrix_from_columns_fn((4, 4), (4, 4), lambda t: {(t[1], t[0]): Fraction(1)})
    assert law.map == flip


def test_hopf_module_smash_algebra_formula(h4):
    # the displayed product: (p (x) a)(q (x) b) = (q((-) a_2) * p) (x) a_1 b
    e = corpus.hopf_module_datum(h4)
    alg = smash_algebra(e)
    from entwine.hopfcore import check_algebra

    assert check_algebra(alg).overall

    def displayed(t):
        i, k, j, l = t
        out = {}
        for (k1, k2), w in h4.comul_op.cols((k,)):
            r = [Fraction(0)] * 4
            for c in range(4):
                for (z,), m in h4.mul_op.cols((c, k2)):
                    if z == j:
                        r[c] += m
            rp = [
                sum(
                    (m * r[c1] for (c1, c2), m in h4.comul_op.cols((w2,)) if c2 == i),
                    Fraction(0),
                )
                for w2 in range(4)
            ]
            for (z,), m in h4.mul_op.cols((k1, l)):
                for w2 in range(4):
                    if rp[w2] != 0:
                        key = (w2, z)
                        out[key] = out.get(key, Fraction(0)) + w * m * rp[w2]
        return {key: v for key, v in out.items() if v != 0}

    assert alg.mult == matrix_from_columns_fn((4, 4, 4, 4), (4, 4), displayed)


def test_coalgebra_distributive_law_round_trip(h4, yd_h4, long_h4):
    from entwine.smash import codistlaw_to_entwining, entwining_to_codistlaw

    for e in (yd_h4.base, long_h4.base, corpus.hopf_module_datum(h4)):
        law = entwining_to_codistlaw(e)
        assert check_distributive_law(law).overall
        back = codistlaw_to_entwining(law, e.a)
        assert back.phi == e.phi


# One-entry perturbations of the flip entwining map of long_kz2 (C = A = kz2,
# basis 1 = g^0, g), seen through both dual-basis transpositions.  phi is
# 4 x 4, row a * 2 + c for the output a (x) c, column c * 2 + a for the input
# c (x) a; unperturbed, phi(c (x) a) = a (x) c and both laws are flips.
#
# Algebra law t: B (x) A' -> A' (x) B, with B = kz2 (A's side) and A' = the
# dual of C with op, basis e^0, e^1, e^i e^j = delta_ij e^i, 1 = e^0 + e^1;
# t(f_k (x) e^j) holds e^m (x) f_u with phi's coefficient of f_u (x) e_j in
# phi(e_m (x) f_k).  phi[2][0] += 1 (phi(1 (x) 1) gains g (x) 1) makes
# t(f_0 (x) e^0) = e^0 (x) f_0 + e^0 (x) f_1.  Outputs over (A', B) flatten as
# a * 2 + b.  The first scanned tuple fails each square:
#  - DL1 at (f_0, f_0, e^0): t(f_0 f_0 (x) e^0) = e^0 (f_0 + f_1) against
#    e^0 (x) (f_0 + f_1)(f_0 + f_1) = e^0 (x) (2 f_0 + 2 f_1).
#  - DL2 at e^0: t(1 (x) e^0) = e^0 (f_0 + f_1) against e^0 (x) f_0.
#  - DL3 at (f_0, e^0, e^0): t(f_0 (x) e^0) = e^0 (f_0 + f_1) against
#    e^0 e^0 (x) f_0 + 2 e^0 e^0 (x) f_1, as t(f_1 (x) e^0) = e^0 (x) f_1.
#  - DL4 at f_0: t(f_0 (x) (e^0 + e^1)) = e^0 (f_0 + f_1) + e^1 f_0 against
#    (e^0 + e^1) (x) f_0.
#
# Coalgebra law s: C' (x) D -> D (x) C', with C' = the dual of A with cop
# (f^k: Delta f^k = sum over i + j = k of f^i (x) f^j, eps(f^0) = 1,
# eps(f^1) = 0) and D = kz2 (C's side, grouplike, eps = 1); s(f^u (x) e_c)
# holds e_v (x) f^i with phi's coefficient of f_u (x) e_v in phi(e_c (x) f_i).
# phi[1][0] += 1 (phi(1 (x) 1) gains 1 (x) g) makes s(f^0 (x) e_0) =
# e_0 (x) f^0 + e_1 (x) f^0.  Every square fails at (f^0, e_0); outputs
# flatten left major over their legs:
#  - DL1 (D, D, C'): Delta_D on s = e_0 e_0 f^0 + e_1 e_1 f^0 (entries 0, 6)
#    against s twice through Delta_D: all four e_v e_w f^0 (0, 2, 4, 6).
#  - DL2 (C'): eps_D on s = 2 f^0 against eps_D(e_0) f^0.
#  - DL3 (D, C', C'): Delta_C' on s = (e_0 + e_1)(f^0 f^0 + f^1 f^1)
#    (0, 3, 4, 7) against s twice through Delta_C': e_0 f^0 f^0 + 2 e_1 f^0 f^0
#    + e_0 f^1 f^1, since s(f^1 (x) e_0) = e_0 (x) f^1.
#  - DL4 (D): eps_C' on s = e_0 + e_1 against eps_C'(f^0) e_0.
@pytest.mark.parametrize("axiom, convert, entry, basis, lhs, rhs", [
    ("DL1_left_mult", entwining_to_distlaw, (2, 0), (0, 0, 0),
     [1, 1, 0, 0], [2, 2, 0, 0]),
    ("DL2_left_unit", entwining_to_distlaw, (2, 0), (0,),
     [1, 1, 0, 0], [1, 0, 0, 0]),
    ("DL3_right_mult", entwining_to_distlaw, (2, 0), (0, 0, 0),
     [1, 1, 0, 0], [1, 2, 0, 0]),
    ("DL4_right_unit", entwining_to_distlaw, (2, 0), (0,),
     [1, 1, 1, 0], [1, 0, 1, 0]),
    ("DL1_right_comult", entwining_to_codistlaw, (1, 0), (0, 0),
     [1, 0, 0, 0, 0, 0, 1, 0], [1, 0, 1, 0, 1, 0, 1, 0]),
    ("DL2_right_counit", entwining_to_codistlaw, (1, 0), (0, 0),
     [2, 0], [1, 0]),
    ("DL3_left_comult", entwining_to_codistlaw, (1, 0), (0, 0),
     [1, 0, 0, 1, 1, 0, 0, 1], [1, 0, 0, 1, 2, 0, 0, 0]),
    ("DL4_left_counit", entwining_to_codistlaw, (1, 0), (0, 0),
     [1, 1], [1, 0]),
])
def test_one_entry_perturbation_fails_distributive_law_axiom(long_kz2, axiom, convert, entry,
                                                             basis, lhs, rhs):
    assert check_distributive_law(convert(long_kz2)).overall
    rows = [list(r) for r in long_kz2.phi.rows()]
    rows[entry[0]][entry[1]] += 1
    law = convert(EntwiningMap(long_kz2.c, long_kz2.a, Matrix(rows)))
    item = check_distributive_law(law).item(axiom)
    assert not item.passed
    assert item.witness.basis == basis
    assert list(item.witness.lhs) == lhs
    assert list(item.witness.rhs) == rhs


# -- smash product ---------------------------------------------------------


def test_drinfeld_double_h4(double_h4):
    assert double_h4.dim == 16
    assert check_hopf(double_h4).overall


def test_drinfeld_double_group_algebra(kz2):
    d = corpus.drinfeld_double(kz2)
    assert d.dim == 4
    assert check_hopf(d).overall
    for i in range(4):
        for j in range(4):
            assert d.mult.col(i * 4 + j) == d.mult.col(j * 4 + i)
    for k in range(4):
        for i in range(4):
            for j in range(4):
                assert d.comult.entry(i * 4 + j, k) == d.comult.entry(j * 4 + i, k)


def test_double_of_trivial_is_trivial():
    k = trivial_hopf()
    d = corpus.drinfeld_double(k)
    assert d.dim == 1 and check_hopf(d).overall


def test_smash_trivial_coalgebra_side_is_algebra_side(h4):
    ck = trivial_hopf()
    d = MonoidalEntwiningDatum(EntwiningMap(ck, h4, Matrix.identity(4)))
    sm = smash_product(d)
    assert sm.mult == h4.mult and sm.comult == h4.comult
    assert sm.antipode == h4.antipode


def test_smash_of_flip_is_twisted_tensor(long_h4, h4):
    sm = smash_product(long_h4)
    assert check_hopf(sm).overall
    assert sm.antipode == kron(h4.antipode_inv.transpose(), h4.antipode)


def test_smash_products_pass_on_corpus(monoidal_datums):
    for name, d in monoidal_datums.items():
        assert check_hopf(smash_product(d)).overall, name


# -- smash coproduct -------------------------------------------------------


def test_smash_coproducts_pass_on_corpus(monoidal_datums):
    for name, d in monoidal_datums.items():
        assert check_hopf(smash_coproduct(d)).overall, name


def test_cosmash_trivial_algebra_side_is_coalgebra_side(h4):
    ak = trivial_hopf()
    d = MonoidalEntwiningDatum(EntwiningMap(h4, ak, Matrix.identity(4)))
    cm = smash_coproduct(d)
    assert cm.mult == h4.mult and cm.comult == h4.comult
    assert cm.antipode == h4.antipode


def test_cosmash_of_flip_is_tensor_hopf(long_h4, h4):
    cm = smash_coproduct(long_h4)
    acop = dual_hopf(h4, "cop")
    tens_comult = matrix_from_columns_fn(
        (4, 4),
        (4, 4, 4, 4),
        lambda t: pipeline(t, _ap(0, acop.comul_op), _ap(2, h4.comul_op), _pm((0, 2, 1, 3))),
    )
    assert cm.comult == tens_comult
    assert cm.antipode == kron(acop.antipode, h4.antipode)


# -- module transport -------------------------------------------------------


def test_module_transport_round_trip(monoidal_datums):
    for name, d in monoidal_datums.items():
        sm = smash_product(d)
        for m in (std_module_CA(d), std_module_AC(d)):
            act = module_transport_to_smash(m)
            assert check_module_over_algebra(sm, m.dim, act).overall, name
            back = module_transport_from_smash(d, m.dim, act)
            assert back.action == m.action and back.coaction == m.coaction, name


def test_module_transport_preserves_tensor(yd_h4, double_h4):
    m = std_module_CA(yd_h4)
    n = std_module_AC(yd_h4)
    t_tm = module_transport_to_smash(tensor_modules(m, n))
    am_op = TensorOp(module_transport_to_smash(m), (m.dim, 16), (m.dim,))
    an_op = TensorOp(module_transport_to_smash(n), (n.dim, 16), (n.dim,))
    tens = matrix_from_columns_fn(
        (m.dim, n.dim, 16),
        (m.dim, n.dim),
        lambda t: pipeline(
            t, _ap(2, double_h4.comul_op), _pm((0, 2, 1, 3)), _ap(0, am_op), _ap(1, an_op)
        ),
    )
    assert t_tm == tens


def test_transport_trivial_datum_is_identity(h4):
    ck = trivial_hopf()
    d = MonoidalEntwiningDatum(EntwiningMap(ck, h4, Matrix.identity(4)))
    m = std_module_AC(d)
    act = module_transport_to_smash(m)
    assert act == m.action


# -- pivot / ribbon / copivot / coribbon transport ---------------------------


def test_transport_pivot_and_extract(yd_h4, double_h4):
    _, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
    t = transport_pivot(yd_h4, g2, double_h4)
    assert verify_pivot(double_h4, t).overall
    assert extract_pivot(yd_h4, t).map == g2.map
    g1, _ = corpus.h4_yd_pivotal_pair(yd_h4)
    t1 = transport_pivot(yd_h4, g1, double_h4)
    assert verify_pivot(double_h4, t1).overall
    assert extract_pivot(yd_h4, t1).map == g1.map


def test_transport_pivot_rejects_unverified(yd_h4):
    with pytest.raises(ValueError):
        transport_pivot(yd_h4, conv_unit(yd_h4))


def test_transport_pivot_trivial_datum(h4):
    ck = trivial_hopf()
    d = MonoidalEntwiningDatum(EntwiningMap(ck, h4, Matrix.identity(4)))
    sm = smash_product(d)
    g = HomCA(d, Matrix([[0], [1], [0], [0]]))  # pivot element e as a map k -> A
    t = transport_pivot(d, g, sm)
    assert t.coords == Vector([0, 1, 0, 0])
    assert verify_pivot(sm, t).overall


def test_transport_rmatrix_quasitriangular(dqgs):
    for name, q in dqgs.items():
        sm = smash_product(q.datum)
        rhat = transport_rmatrix(q)
        assert quasitri_check(sm, rhat).overall, name


def test_transport_ribbon_and_extract(long_dqg_kz2):
    q = long_dqg_kz2
    g = corpus.long_kz2_ribbon()
    sm = smash_product(q.datum)
    rhat, L = transport_ribbon(q, g, sm)
    assert quasitri_check(sm, rhat).overall
    assert verify_ribbon_element(sm, rhat, L).overall
    assert extract_ribbon(q.datum, L).map == g.map


def test_transport_copivot_and_extract(yd_h4, cosmash_yd_h4):
    g1, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
    gamma = transport_copivot(yd_h4, g1, cosmash_yd_h4)
    assert verify_copivot(cosmash_yd_h4, gamma).overall
    assert extract_copivot(yd_h4, gamma).map == g1.map
    gamma2 = transport_copivot(yd_h4, g2, cosmash_yd_h4)
    assert verify_copivot(cosmash_yd_h4, gamma2).overall
    assert extract_copivot(yd_h4, gamma2).map == g2.map


def test_transport_copivot_trivial_datum(h4):
    ak = trivial_hopf()
    d = MonoidalEntwiningDatum(EntwiningMap(h4, ak, Matrix.identity(4)))
    cm = smash_coproduct(d)
    rho = corpus.h4_copivot(h4)
    g = HomCA(d, rho.coords)  # functional on C as a map C -> k
    gamma = transport_copivot(d, g, cm)
    assert gamma.coords == rho.coords
    assert verify_copivot(cm, gamma).overall


def test_transport_coribbon_and_extract(long_dqg_kz2):
    q = long_dqg_kz2
    g = corpus.long_kz2_ribbon()
    cm = smash_coproduct(q.datum)
    form, zeta = transport_coribbon(q, g, cm)
    assert coquasitri_check(cm, form).overall
    assert verify_coribbon_form(cm, form, zeta).overall
    assert extract_coribbon(q.datum, zeta).map == g.map


# -- antipode identity checks -------------------------------------------------


def test_smash_identity_checks_on_corpus(monoidal_datums):
    for name, d in monoidal_datums.items():
        assert smash_identity_checks(d).overall, name


def test_smash_identity_checks_fail_consistently_for_corrupted_phi(yd_h4):
    from entwine.entwining import check_antipode_compat

    found = False
    for i in range(16):
        for j in range(16):
            rows = [list(r) for r in yd_h4.phi.rows()]
            rows[i][j] += 1
            e = EntwiningMap(yd_h4.c, yd_h4.a, Matrix(rows))
            d = MonoidalEntwiningDatum(e)
            if check_antipode_compat(d).overall:
                continue
            rep = smash_identity_checks(d)
            assert not (rep.item("SI1_product_antimult").passed
                        and rep.item("SI2_coproduct_anticomult").passed)
            assert rep.item("SI3_agrees_direct").passed
            found = True
            break
        if found:
            break
    assert found
