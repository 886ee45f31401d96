"""Acceptance suite: one test per criterion, one printed verdict line each.

Every comparison is exact equality of rationals -- there are no numeric
tolerances anywhere in the package.  Run with ``pytest -s`` to see the
per-criterion lines on passing runs too.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from entwine import corpus
from entwine.emodcat import (
    braiding,
    check_entwined_module,
    left_dual,
    std_module_AC,
    std_module_CA,
    tensor_modules,
)
from entwine.entwining import (
    HomCA,
    check_antipode_compat,
    check_double_quantum_group,
    check_entwining,
    check_monoidal_datum,
    conv_inverse,
    conv_product,
    conv_unit,
)
from entwine.exactla import Matrix, TensorOp, Vector, invert, kron, matrix_from_columns_fn
from entwine.hopfcore import Element, Functional, check_hopf
from entwine.pivribbon import (
    _act_by_g_op,
    find_morphisms,
    nat_to_hom,
    pivotal_structure,
    twist,
    verify_copivot,
    verify_pivot,
    verify_pivotal,
    verify_ribbon,
)
from entwine.smash import (
    extract_copivot,
    extract_pivot,
    module_transport_from_smash,
    module_transport_to_smash,
    smash_coproduct,
    smash_product,
    transport_copivot,
    transport_pivot,
)
from entwine.exactla import sv_apply, sv_permute

from oracles import check_module_over_algebra, pipeline, stage1_residual


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {text}")
        raise
    print(f"[pass] criterion {num:2d}: {text}")


def test_criterion_01_sweedler_h4(h4):
    with criterion(1, "Sweedler H4 passes the Hopf suite; S^2(x) = -x, S^4 = id"):
        assert check_hopf(h4).overall
        s2 = h4.antipode * h4.antipode
        assert s2.col(2) == Vector([0, 0, -1, 0])
        assert s2 * s2 == Matrix.identity(4)


def test_criterion_02_pivot_and_copivot_of_h4(h4):
    with criterion(2, "pivot e and copivot 1^ - e^ verify on H4; unit and counit fail"):
        assert verify_pivot(h4, Element(h4, Vector([0, 1, 0, 0]))).overall
        rep = verify_pivot(h4, Element(h4, Vector([1, 0, 0, 0])))
        assert not rep.overall
        assert rep.item("P3_action_twist").witness.basis == (2, 0)
        assert verify_copivot(h4, corpus.h4_copivot(h4)).overall
        rep = verify_copivot(h4, Functional(h4, h4.counit))
        assert not rep.overall
        assert rep.item("P4_coaction_twist").witness.basis == (2,)


def test_criterion_03_yd_datum_and_dqg(yd_h4, yd_dqg_h4):
    with criterion(3, "conjugation datum on H4 passes E0-E6; its double passes E7-E10"):
        assert check_entwining(yd_h4.base).overall
        assert check_monoidal_datum(yd_h4).overall
        # E0 on the standard modules
        assert check_entwined_module(std_module_CA(yd_h4)).overall
        assert check_entwined_module(std_module_AC(yd_h4)).overall
        rep = check_double_quantum_group(yd_dqg_h4)
        assert rep.overall
        assert rep.item("E10b_conv_invertible").passed


def test_criterion_04_yd_pivotal_morphisms(yd_h4):
    with criterion(4, "both conjugation-datum morphisms verify; unit fails; beta monoidal"):
        g1, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
        assert verify_pivotal(yd_h4, g1).overall
        assert verify_pivotal(yd_h4, g2).overall
        assert not verify_pivotal(yd_h4, conv_unit(yd_h4)).overall
        m = std_module_CA(yd_h4)
        n = std_module_AC(yd_h4)
        for g in (g1, g2):
            beta_m = pivotal_structure(yd_h4, g, m)  # validated module morphism
            assert invert(beta_m.map) * beta_m.map == Matrix.identity(m.dim)
            beta_n = pivotal_structure(yd_h4, g, n)
            beta_t = pivotal_structure(yd_h4, g, tensor_modules(m, n))
            assert beta_t.map == kron(beta_m.map, beta_n.map)


def test_criterion_05_long_pivotal_morphism(h4, long_h4):
    with criterion(5, "flip-datum morphism verifies and equals the rank-one candidate"):
        g = corpus.h4_long_pivotal(long_h4)
        assert verify_pivotal(long_h4, g).overall
        from entwine.pivribbon import separable_candidate

        cand = separable_candidate(
            long_h4, Element(h4, Vector([0, 1, 0, 0])), corpus.h4_copivot(h4)
        )
        assert cand.map.map == g.map


def test_criterion_06_double_and_module_transport(monoidal_datums, double_h4, yd_h4):
    with criterion(6, "double of H4 passes the Hopf suite; module transport is monoidal"):
        assert double_h4.dim == 16
        assert check_hopf(double_h4).overall
        for name, d in monoidal_datums.items():
            sm = smash_product(d)
            for m in (std_module_CA(d), std_module_AC(d)):
                act = module_transport_to_smash(m)
                assert check_module_over_algebra(sm, m.dim, act).overall, name
                back = module_transport_from_smash(d, m.dim, act)
                assert back.action == m.action and back.coaction == m.coaction, name
            # tensor compatibility through the smash comultiplication
            m = std_module_CA(d)
            n = std_module_AC(d)
            t_tm = module_transport_to_smash(tensor_modules(m, n))
            am_op = TensorOp(module_transport_to_smash(m), (m.dim, sm.dim), (m.dim,))
            an_op = TensorOp(module_transport_to_smash(n), (n.dim, sm.dim), (n.dim,))
            tens = matrix_from_columns_fn(
                (m.dim, n.dim, sm.dim),
                (m.dim, n.dim),
                lambda t: pipeline(
                    (m.dim, n.dim, sm.dim),
                    t,
                    lambda s: sv_apply(s, 2, sm.comul_op),
                    lambda s: sv_permute(s, (0, 2, 1, 3)),
                    lambda s: sv_apply(s, 0, am_op),
                    lambda s: sv_apply(s, 1, an_op),
                ),
            )
            assert t_tm == tens, name


def test_criterion_07_pivot_transport(yd_h4, double_h4):
    with criterion(7, "pivot transports into the double and extracts back"):
        _, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
        t = transport_pivot(yd_h4, g2, double_h4)
        assert verify_pivot(double_h4, t).overall
        assert extract_pivot(yd_h4, t).map == g2.map


def test_criterion_08_ribbon_on_braided_flip_datum(long_dqg_kz2):
    with criterion(8, "braided flip datum over Z/2: ribbon verifies, twist laws exact"):
        q = long_dqg_kz2
        g = corpus.long_kz2_ribbon()
        assert verify_ribbon(q, g).overall
        m = std_module_AC(q.datum)
        n = std_module_CA(q.datum)
        th_m = twist(q, g, m)
        th_n = twist(q, g, n)
        th_t = twist(q, g, tensor_modules(m, n))
        assert th_t.map == braiding(n, m, q) * braiding(m, n, q) * kron(th_m.map, th_n.map)
        for mm, th in ((m, th_m), (n, th_n)):
            th_dual = twist(q, g, left_dual(mm).dual_module)
            assert th.map.transpose() == th_dual.map


def test_criterion_09_convolution_algebra(monoidal_datums, yd_h4):
    with criterion(9, "convolution unit/assoc laws and natural-family round trips"):
        rng = random.Random(42)

        def random_hom(d):
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d.c_dim)]
                for _ in range(d.a_dim)
            ]
            return HomCA(d, Matrix(rows))

        for name, d in monoidal_datums.items():
            u = conv_unit(d)
            mca = std_module_CA(d)
            mac = std_module_AC(d)
            for _ in range(20):
                g = random_hom(d)
                assert conv_product(u, g).map == g.map
                assert conv_product(g, u).map == g.map
                assert nat_to_hom(d, _act_by_g_op(mca, g).matrix, "ribbon").map == g.map
                assert nat_to_hom(d, _act_by_g_op(mac, g).matrix, "pivotal").map == g.map
            for _ in range(5):
                a, b, c = random_hom(d), random_hom(d), random_hom(d)
                assert conv_product(conv_product(a, b), c).map == conv_product(
                    a, conv_product(b, c)
                ).map
        # inverse round trips on known invertible maps
        g1, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
        for g in (g1, g2, conv_unit(yd_h4)):
            inv = conv_inverse(g)
            assert inv is not None
            assert conv_product(g, inv).map == conv_unit(yd_h4).map
            assert conv_product(inv, g).map == conv_unit(yd_h4).map


def test_criterion_10_antipode_compat_everywhere(monoidal_datums):
    with criterion(10, "antipode-compat identities hold; both smash constructions are Hopf"):
        for name, d in monoidal_datums.items():
            assert check_antipode_compat(d).overall, name
            assert check_hopf(smash_product(d)).overall, name
            assert check_hopf(smash_coproduct(d)).overall, name


def test_criterion_11_smash_coproduct(yd_h4, cosmash_yd_h4):
    with criterion(11, "codouble of H4 passes the Hopf suite; copivot transports"):
        assert check_hopf(cosmash_yd_h4).overall
        g1, _ = corpus.h4_yd_pivotal_pair(yd_h4)
        gamma = transport_copivot(yd_h4, g1, cosmash_yd_h4)
        assert verify_copivot(cosmash_yd_h4, gamma).overall
        assert extract_copivot(yd_h4, gamma).map == g1.map


def test_criterion_12_finder_soundness(monoidal_datums, dqgs, yd_h4, long_h4, long_dqg_kz2):
    with criterion(12, "finder returns only verified solutions; known morphisms are in stage 1"):
        for name, d in monoidal_datums.items():
            res = find_morphisms(d, "pivotal", max_params=4)
            for c in res.solutions:
                assert verify_pivotal(d, c.map).overall, name
        for name, q in dqgs.items():
            res = find_morphisms(q, "ribbon", max_params=4)
            for c in res.solutions:
                assert verify_ribbon(q, c.map).overall, name
        g1, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
        assert stage1_residual(yd_h4, "pivotal", g1).is_zero()
        assert stage1_residual(yd_h4, "pivotal", g2).is_zero()
        assert stage1_residual(long_h4, "pivotal", corpus.h4_long_pivotal(long_h4)).is_zero()
        assert stage1_residual(long_dqg_kz2.datum, "ribbon", corpus.long_kz2_ribbon()).is_zero()
