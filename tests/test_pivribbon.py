"""Pivotal/ribbon verification, induced structures, extraction, finder."""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from entwine import corpus
from entwine.emodcat import (
    braiding,
    double_right_dual,
    left_dual,
    std_module_AC,
    std_module_CA,
    tensor_modules,
    tensor_unit,
    transpose,
)
from entwine.entwining import DoubleQuantumGroup, EntwiningMap, HomCA, MonoidalEntwiningDatum, conv_unit
from entwine.exactla import (
    Matrix,
    Vector,
    basis_batches,
    invert,
    kron,
    run_batch,
    solve_affine,
    unflatten_index,
)
from entwine.hopfcore import Element, Functional, trivial_hopf
from entwine.pivribbon import (
    FinderResult,
    _Poly,
    _act_by_g_op,
    _laws,
    _quadratic_residuals,
    _rational_roots_deg2,
    find_morphisms,
    nat_to_hom,
    pivotal_structure,
    separable_candidate,
    twist,
    verify_pivotal,
    verify_ribbon,
)

from oracles import corpus_dqgs, corpus_monoidal_datums, pipeline, stage1_residual


def _random_hom(d, rng):
    rows = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d.c_dim)]
        for _ in range(d.a_dim)
    ]
    return HomCA(d, Matrix(rows))


# -- verification -----------------------------------------------------------


def test_long_h4_example_verifies(long_h4):
    assert verify_pivotal(long_h4, corpus.h4_long_pivotal(long_h4)).overall


def test_yd_h4_both_examples_verify(yd_h4):
    g1, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
    assert verify_pivotal(yd_h4, g1).overall
    assert verify_pivotal(yd_h4, g2).overall


def test_yd_h4_unit_morphism_fails_p4(yd_h4):
    rep = verify_pivotal(yd_h4, conv_unit(yd_h4))
    assert not rep.overall
    item = rep.item("P4_coaction_twist")
    assert not item.passed
    assert item.witness.basis == (2,)  # first failure at the skew-primitive


# One-entry perturbations of the pivotal morphism of long_h4 (the flip datum,
# C = A = h4 with basis 1, e, x, y): g(1) = e, g(e) = -e, g(x) = g(y) = 0, as
# a 4 x 4 matrix with row the output and column the input.  In h4 e^2 = 1,
# xe = -ex = -y, Delta(e) = e (x) e, eps(e) = 1 and S^2(a) = e a e; the flip
# makes a_phi = a and c^phi = c.  Outputs over (A, A) flatten as u * 4 + v.
#  - P1, g(1) = e -> 1 + e: at (1, 1), Delta(1 + e) = 1 1 + e e against
#    (1 + e) (x) (1 + e) = 1 1 + 1 e + e 1 + e e.
#  - P2, g(1) = e -> 0: eps(0) = 0 against 1.
#  - P3, g(1) = e -> e + x: at a = 1 both sides are g(c); at (a, c) = (e, 1),
#    g(1) S^2(e) = (e + x) e = 1 - y against e g(1) = 1 + y.
@pytest.mark.parametrize("axiom, entry, delta, basis, lhs, rhs", [
    ("P1_grouplike", (0, 0), 1, (0, 0),
     [1, 0, 0, 0, 0, 1] + [0] * 10, [1, 1, 0, 0, 1, 1] + [0] * 10),
    ("P2_counit_one", (1, 0), -1, (), [0], [1]),
    ("P3_action_twist", (2, 0), 1, (1, 0), [1, 0, 0, -1], [1, 0, 0, 1]),
])
def test_one_entry_perturbation_fails_pivotal_law(long_h4, axiom, entry, delta, basis, lhs, rhs):
    g = corpus.h4_long_pivotal(long_h4)
    assert verify_pivotal(long_h4, g).overall
    rows = [list(r) for r in g.map.rows()]
    rows[entry[0]][entry[1]] += delta
    item = verify_pivotal(long_h4, HomCA(long_h4, Matrix(rows))).item(axiom)
    assert not item.passed
    assert item.witness.basis == basis
    assert list(item.witness.lhs) == lhs
    assert list(item.witness.rhs) == rhs


def test_ribbon_on_long_kz2(long_dqg_kz2):
    g = corpus.long_kz2_ribbon()
    assert verify_ribbon(long_dqg_kz2, g).overall


def test_ribbon_rank_one_pairs_on_long_kz2(long_dqg_kz2):
    # every grouplike ribbon element paired with a character gives a ribbon
    # morphism on the braided flip datum; a non-character fails the square
    q = long_dqg_kz2
    d = q.datum
    from entwine.pivribbon import separable_candidate

    for xi in (Vector([1, 0]), Vector([0, 1])):
        for zeta in (Matrix([[1, 0]]), Matrix([[0, 1]])):
            g = separable_candidate(d, Element(d.a, xi), Functional(d.c, zeta), "ribbon")
            assert verify_ribbon(q, g.map).overall
    bad = separable_candidate(
        d, Element(d.a, Vector([1, 0])), Functional(d.c, Matrix([[1, -1]])), "ribbon"
    )
    rep = verify_ribbon(q, bad.map)
    assert not rep.overall
    assert "R3_braided_square" in rep.failed_ids()


def test_ribbon_degenerate_triangular(kz2):
    ck = trivial_hopf()
    d = MonoidalEntwiningDatum(EntwiningMap(ck, kz2, Matrix.identity(2)))
    q = DoubleQuantumGroup(d, Matrix([[1], [0], [0], [0]]))
    g = HomCA(d, Matrix([[1], [0]]))
    assert verify_ribbon(q, g).overall


def test_ribbon_unit_morphism_fails_on_yd_h4(yd_dqg_h4):
    # the braided square forces a nontrivial value on the skew-primitives
    rep = verify_ribbon(yd_dqg_h4, conv_unit(yd_dqg_h4.datum))
    assert not rep.overall
    assert rep.failed_ids() == ["R3_braided_square"]


def _swap(m, n):
    "The permutation matrix of u (x) v -> v (x) u, for u over m and v over n."
    rows = [[0] * (m * n) for _ in range(m * n)]
    for i in range(m):
        for j in range(n):
            rows[j * m + i][i * n + j] = 1
    return Matrix(rows)


def _ribbon_law_sides(d, g, axiom_id):
    """(scan dims, lhs, rhs) of R1 or R2 for g, as matrices from kron and
    products: R1 g(c) a = a_phi g(c^phi) over (a, c), R2 g(c1) (x) c2 =
    g(c2)_phi (x) c1^phi over c."""
    na, nc, gm = d.a_dim, d.c_dim, g.map
    eye_a, eye_c = Matrix.identity(na), Matrix.identity(nc)
    return {
        "R1_action": ((na, nc), d.a.mult * _swap(na, na) * kron(eye_a, gm),
                      d.a.mult * kron(eye_a, gm) * d.phi * _swap(na, nc)),
        "R2_coaction": ((nc,), _swap(nc, na) * kron(eye_c, gm) * _swap(nc, nc) * d.c.comult,
                        d.phi * kron(eye_c, gm) * d.c.comult),
    }[axiom_id]


# yd_dqg_h4, basis 1, e, x, y on both sides.  The convolution unit
# g(c) = eps(c) 1 passes R1 and R2; raising its entry (0, 0) by 1 makes
# g(1) = 2 and keeps g(e) = 1, g(x) = g(y) = 0.
#  - R1 first differs at (a, c) = (x, 1): g(1) x = 2x against
#    x_phi g(1^phi) = x.
#  - R2 first differs at c = x: g(x1) (x) x2 = 1 (x) x against
#    g(x2)_phi (x) x1^phi = 2 (1 (x) x).  Outputs over (A, C) flatten as
#    u * 4 + v, so 1 (x) x sits at index 2.
@pytest.mark.parametrize("axiom_id, basis, lhs, rhs", [
    ("R1_action", (2, 0), [0, 0, 2, 0], [0, 0, 1, 0]),
    ("R2_coaction", (2,), [0, 0, 1] + [0] * 13, [0, 0, 2] + [0] * 13),
])
def test_one_entry_perturbation_fails_ribbon_law(yd_dqg_h4, axiom_id, basis, lhs, rhs):
    d = yd_dqg_h4.datum
    unit = conv_unit(d)
    assert verify_ribbon(yd_dqg_h4, unit).item(axiom_id).passed
    rows = [list(r) for r in unit.map.rows()]
    rows[0][0] += 1
    g = HomCA(d, Matrix(rows))
    item = verify_ribbon(yd_dqg_h4, g).item(axiom_id)
    assert not item.passed
    dims, l_mat, r_mat = _ribbon_law_sides(d, g, axiom_id)
    first = next(j for j in range(l_mat.ncols) if l_mat.col(j) != r_mat.col(j))
    w = item.witness
    assert (w.basis, w.lhs, w.rhs) == (unflatten_index(dims, first), l_mat.col(first),
                                      r_mat.col(first))
    assert (w.basis, list(w.lhs), list(w.rhs)) == (basis, lhs, rhs)


def test_every_one_entry_change_of_the_convolution_unit_fails_r1_and_r2(yd_dqg_h4):
    d = yd_dqg_h4.datum
    unit_rows = conv_unit(d).map.rows()
    for i in range(d.a_dim):
        for j in range(d.c_dim):
            for delta in (1, -1):
                rows = [list(r) for r in unit_rows]
                rows[i][j] += delta
                failed = verify_ribbon(yd_dqg_h4, HomCA(d, Matrix(rows))).failed_ids()
                assert {"R1_action", "R2_coaction"} <= set(failed), (i, j, delta)


def test_ribbon_law_oracle_agrees_on_the_convolution_unit(yd_dqg_h4):
    d = yd_dqg_h4.datum
    for axiom_id in ("R1_action", "R2_coaction"):
        _, l_mat, r_mat = _ribbon_law_sides(d, conv_unit(d), axiom_id)
        assert l_mat == r_mat, axiom_id


# -- induced structures -----------------------------------------------------


def test_zero_map_fails_p5_on_yd_h4(yd_h4):
    item = verify_pivotal(yd_h4, HomCA(yd_h4, Matrix.zero(4, 4))).item("P5_conv_invertible")
    assert not item.passed
    assert item.witness.basis == ()
    assert item.witness.lhs == Vector.zero(16)
    assert item.witness.rhs == Vector.zero(16)


def test_zero_map_fails_r5_on_long_dqg_kz2(long_dqg_kz2):
    d = long_dqg_kz2.datum
    item = verify_ribbon(long_dqg_kz2, HomCA(d, Matrix.zero(2, 2))).item("R5_conv_invertible")
    assert not item.passed
    assert item.witness.basis == ()
    assert item.witness.lhs == Vector.zero(4)
    assert item.witness.rhs == Vector.zero(4)


def _phi_changed(d, i, j, delta):
    rows = [list(r) for r in d.phi.rows()]
    rows[i][j] += delta
    return MonoidalEntwiningDatum(EntwiningMap(d.c, d.a, Matrix(rows)))


# A verifier reads P1-P4 (R1-R4) over the datum it is given but inverts g
# over g.datum, so a map over another datum is rejected: read over yd_h4
# (long_dqg_kz2) and inverted over it with phi[0][0] lowered by 1, the
# passing map below fails P5 (R5) alone.  A datum equal to the given one but
# built again is accepted.
def test_verify_pivotal_rejects_a_map_over_another_datum(yd_h4):
    g = find_morphisms(yd_h4, "pivotal").solutions[0].map
    assert verify_pivotal(yd_h4, g).overall
    with pytest.raises(ValueError, match="over d"):
        verify_pivotal(yd_h4, HomCA(_phi_changed(yd_h4, 0, 0, -1), g.map))
    assert verify_pivotal(yd_h4, HomCA(_phi_changed(yd_h4, 0, 0, 0), g.map)).overall


def test_verify_ribbon_rejects_a_map_over_another_datum(long_dqg_kz2):
    g = corpus.long_kz2_ribbon()
    assert g.datum is not long_dqg_kz2.datum and verify_ribbon(long_dqg_kz2, g).overall
    with pytest.raises(ValueError, match="over q's datum"):
        verify_ribbon(long_dqg_kz2, HomCA(_phi_changed(long_dqg_kz2.datum, 0, 0, -1), g.map))


def test_pivotal_structure_on_unit_is_identity(yd_h4):
    g1, _ = corpus.h4_yd_pivotal_pair(yd_h4)
    beta = pivotal_structure(yd_h4, g1, tensor_unit(yd_h4))
    assert beta.map == Matrix.identity(1)


def test_pivotal_structure_invertible_and_targets_double_dual(yd_h4):
    _, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
    m = std_module_CA(yd_h4)
    beta = pivotal_structure(yd_h4, g2, m)
    assert beta.target.action == double_right_dual(m).action
    assert invert(beta.map) * beta.map == Matrix.identity(m.dim)


def test_pivotal_structure_monoidal(yd_h4):
    for g in corpus.h4_yd_pivotal_pair(yd_h4):
        m = std_module_CA(yd_h4)
        n = std_module_AC(yd_h4)
        bm = pivotal_structure(yd_h4, g, m)
        bn = pivotal_structure(yd_h4, g, n)
        bt = pivotal_structure(yd_h4, g, tensor_modules(m, n))
        assert bt.map == kron(bm.map, bn.map)


def test_pivotal_structure_rejects_unverified(yd_h4):
    with pytest.raises(ValueError):
        pivotal_structure(yd_h4, conv_unit(yd_h4), std_module_CA(yd_h4))


def test_twist_identity_for_unit_ribbon(long_dqg_kz2):
    g = corpus.long_kz2_ribbon()
    for m in (std_module_CA(long_dqg_kz2.datum), std_module_AC(long_dqg_kz2.datum)):
        th = twist(long_dqg_kz2, g, m)
        assert th.map == Matrix.identity(m.dim)


def test_twist_law_on_std_modules(long_dqg_kz2):
    q = long_dqg_kz2
    g = corpus.long_kz2_ribbon()
    m = std_module_AC(q.datum)
    n = std_module_CA(q.datum)
    th_m = twist(q, g, m)
    th_n = twist(q, g, n)
    th_t = twist(q, g, tensor_modules(m, n))
    law = braiding(n, m, q) * braiding(m, n, q) * kron(th_m.map, th_n.map)
    assert law == th_t.map


def test_twist_self_duality(long_dqg_kz2):
    q = long_dqg_kz2
    g = corpus.long_kz2_ribbon()
    for m in (std_module_CA(q.datum), std_module_AC(q.datum)):
        th = twist(q, g, m)
        th_dual = twist(q, g, left_dual(m).dual_module)
        assert th.map.transpose() == th_dual.map


def test_nontrivial_twist_laws(long_dqg_kz2):
    # the grouplike/sign-character ribbon pair induces a twist that is not
    # the identity; the twist law and self-duality still hold on the nose
    q = long_dqg_kz2
    d = q.datum
    g = separable_candidate(
        d, Element(d.a, Vector([0, 1])), Functional(d.c, Matrix([[0, 1]])), "ribbon"
    ).map
    assert verify_ribbon(q, g).overall
    m = std_module_AC(d)
    n = std_module_CA(d)
    th_m = twist(q, g, m)
    assert th_m.map != Matrix.identity(m.dim)
    th_n = twist(q, g, n)
    th_t = twist(q, g, tensor_modules(m, n))
    assert th_t.map == braiding(n, m, q) * braiding(m, n, q) * kron(th_m.map, th_n.map)
    for mm, th in ((m, th_m), (n, th_n)):
        assert th.map.transpose() == twist(q, g, left_dual(mm).dual_module).map


def test_pivotal_structure_on_flip_datum(long_h4):
    g = corpus.h4_long_pivotal(long_h4)
    m = std_module_CA(long_h4)
    n = std_module_AC(long_h4)
    bm = pivotal_structure(long_h4, g, m)
    bn = pivotal_structure(long_h4, g, n)
    assert invert(bm.map) * bm.map == Matrix.identity(m.dim)
    bt = pivotal_structure(long_h4, g, tensor_modules(m, n))
    assert bt.map == kron(bm.map, bn.map)


def test_flip_specialized_pivotal_conditions(long_h4, h4):
    # on the flip datum the laws collapse to the pivot-style conditions:
    # grouplike multiplicativity, counit normalization,
    # g(b) S(h) = S^{-1}(h) g(b), and g(b1) (x) S(b2) = g(b2) (x) S^{-1}(b1)
    from entwine.exactla import sv_apply, sv_permute

    g = corpus.h4_long_pivotal(long_h4)
    g_op = g.op
    for b in range(4):
        for a in range(4):
            lhs = pipeline(
                (4, 4), (b, a),
                lambda s: sv_apply(s, 1, h4.antipode_op),
                lambda s: sv_apply(s, 0, g_op),
                lambda s: sv_apply(s, 0, h4.mul_op),
            )
            rhs = pipeline(
                (4, 4), (b, a),
                lambda s: sv_apply(s, 1, h4.antipode_inv_op),
                lambda s: sv_permute(s, (1, 0)),
                lambda s: sv_apply(s, 1, g_op),
                lambda s: sv_apply(s, 0, h4.mul_op),
            )
            assert lhs == rhs
    for b in range(4):
        lhs = pipeline(
            (4,), (b,),
            lambda s: sv_apply(s, 0, h4.comul_op),
            lambda s: sv_apply(s, 0, g_op),
            lambda s: sv_apply(s, 1, h4.antipode_op),
        )
        rhs = pipeline(
            (4,), (b,),
            lambda s: sv_apply(s, 0, h4.comul_op),
            lambda s: sv_apply(s, 1, g_op),
            lambda s: sv_permute(s, (1, 0)),
            lambda s: sv_apply(s, 1, h4.antipode_inv_op),
        )
        assert lhs == rhs


def test_twist_rejects_unverified(yd_dqg_h4):
    with pytest.raises(ValueError):
        twist(yd_dqg_h4, conv_unit(yd_dqg_h4.datum), std_module_CA(yd_dqg_h4.datum))


def test_twist_on_unit_module(long_dqg_kz2):
    th = twist(long_dqg_kz2, corpus.long_kz2_ribbon(), tensor_unit(long_dqg_kz2.datum))
    assert th.map == Matrix.identity(1)


# -- natural-family extraction ----------------------------------------------


def test_nat_to_hom_round_trips_random(monoidal_datums):
    rng = random.Random(5)
    for name, d in monoidal_datums.items():
        mca = std_module_CA(d)
        mac = std_module_AC(d)
        for _ in range(20):
            g = _random_hom(d, rng)
            theta = _act_by_g_op(mca, g).matrix
            assert nat_to_hom(d, theta, "ribbon").map == g.map, name
            beta = _act_by_g_op(mac, g).matrix
            assert nat_to_hom(d, beta, "pivotal").map == g.map, name


def test_nat_to_hom_identity_gives_unit(yd_h4):
    got = nat_to_hom(yd_h4, Matrix.identity(16), "ribbon")
    assert got.map == conv_unit(yd_h4).map


def test_nat_to_hom_inverts_induced_structures(yd_h4, long_dqg_kz2):
    for g in corpus.h4_yd_pivotal_pair(yd_h4):
        beta = pivotal_structure(yd_h4, g, std_module_AC(yd_h4))
        assert nat_to_hom(yd_h4, beta.map, "pivotal").map == g.map
    g = corpus.long_kz2_ribbon()
    th = twist(long_dqg_kz2, g, std_module_CA(long_dqg_kz2.datum))
    assert nat_to_hom(long_dqg_kz2.datum, th.map, "ribbon").map == g.map
    # a ModuleMorphism is accepted directly
    assert nat_to_hom(long_dqg_kz2.datum, th, "ribbon").map == g.map


# -- rank-one candidates ------------------------------------------------------


def test_separable_candidates_match_examples(h4, long_h4, yd_h4):
    e_el = Element(h4, Vector([0, 1, 0, 0]))
    one_el = Element(h4, Vector([1, 0, 0, 0]))
    rho = corpus.h4_copivot(h4)
    eps = Functional(h4, h4.counit)
    assert separable_candidate(long_h4, e_el, rho).map.map == corpus.h4_long_pivotal(long_h4).map
    g1, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
    assert separable_candidate(yd_h4, one_el, rho).map.map == g1.map
    assert separable_candidate(yd_h4, e_el, eps).map.map == g2.map
    assert separable_candidate(yd_h4, one_el, eps).map.map == conv_unit(yd_h4).map


# -- finder -------------------------------------------------------------------


def test_finder_complete_on_yd_h4(yd_h4):
    res = find_morphisms(yd_h4, "pivotal", max_params=4)
    assert res.status == "complete"
    got = sorted(tuple(tuple(r) for r in c.map.map.rows()) for c in res.solutions)
    g1, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
    expect = sorted(tuple(tuple(r) for r in g.map.rows()) for g in (g1, g2))
    assert got == expect


def test_finder_complete_on_long_h4(long_h4):
    res = find_morphisms(long_h4, "pivotal", max_params=4)
    assert res.status == "complete"
    assert len(res.solutions) == 1
    assert res.solutions[0].map.map == corpus.h4_long_pivotal(long_h4).map


def test_finder_soundness_everywhere(monoidal_datums, dqgs):
    for name, d in monoidal_datums.items():
        res = find_morphisms(d, "pivotal", max_params=4)
        for c in res.solutions:
            assert verify_pivotal(d, c.map).overall, name
        assert res.status in ("complete", "parametric", "undecided")
    for name, q in dqgs.items():
        res = find_morphisms(q, "ribbon", max_params=4)
        for c in res.solutions:
            assert verify_ribbon(q, c.map).overall, name


@pytest.fixture(scope="module")
def finder_run(monoidal_datums, dqgs):
    "run(kind, corpus name) -> (target, datum, finder result), each run once."
    runs = {}

    def run(kind, name):
        if (kind, name) not in runs:
            target = dqgs[name] if name in dqgs else monoidal_datums[name]
            d = target.datum if name in dqgs else target
            runs[kind, name] = target, d, find_morphisms(target, kind)
        return runs[kind, name]
    return run


def test_finder_closes_every_branch_on_braided_flip(finder_run):
    # the affine family is 4-dimensional and the quadratic law R3 cuts it
    # down to four points, each of which verifies
    q, _, res = finder_run("ribbon", "long_dqg_kz2")
    assert res.status == "complete"
    assert res.family.dimension == 4
    assert len(res.solutions) == 4
    for c in res.solutions:
        assert verify_ribbon(q, c.map).overall


def test_finder_lists_the_four_pivotal_maps_of_long_kz2(finder_run):
    # By hand.  On the flip datum over kZ2 both sides are commutative and
    # cocommutative with S = id, so P3 and P4 hold for every g, and P2 reads
    # eps(g(1)) = 1.  Write g(c) = sum_y G[y][c] y over y in {1, g}.  P1
    # sets Delta(g(cd)) = sum_y G[y][cd] y (x) y against g(c) (x) g(d):
    # off the diagonal G[y][c] G[z][d] = 0 for y != z, so at most one row
    # is nonzero, and on the diagonal G[y][cd] = G[y][c] G[y][d], so that
    # row is a character or zero.  P2 makes it the character chi with
    # chi(1) = 1.  So g(c) = chi(c) y for chi in {eps, sign} and y in
    # {1, g}: four maps, each with convolution inverse c -> chi(c) y^{-1}
    # (P5).  Rows are indexed by the basis of A, columns by that of C.
    _, _, res = finder_run("pivotal", "long_kz2")
    assert res.status == "complete"
    got = sorted([list(r) for r in c.map.map.rows()] for c in res.solutions)
    assert got == sorted([
        [[1, 1], [0, 0]], [[1, -1], [0, 0]], [[0, 0], [1, 1]], [[0, 0], [1, -1]],
    ])


FINDER_RUNS = [("pivotal", name) for name in ("long_h4", "long_kz2", "yd_h4", "yd_kz2",
                                              "long_dqg_kz2", "yd_dqg_h4", "yd_dqg_kz2")]
FINDER_RUNS += [("ribbon", name) for name in ("long_dqg_kz2", "yd_dqg_h4", "yd_dqg_kz2")]


@pytest.mark.parametrize("kind, name", FINDER_RUNS)
def test_finder_points_zero_every_quadratic_residual(finder_run, kind, name):
    target, _, res = finder_run(kind, name)
    assert res.status == "complete"
    residuals = _quadratic_residuals(_laws(target, kind), res.family)
    basis = res.family.nullspace_basis
    for c in res.solutions:
        t = []
        if basis:
            diff = Vector([x - y for x, y in zip(c.map.map.flat(), res.family.particular)])
            t = list(solve_affine(Matrix(basis).transpose(), diff).particular)
        for p in residuals:
            assert sum(x * prod(t[v] for v in m) for m, x in p.terms.items()) == 0, (name, p.terms)


def _law_values(scan, steps) -> dict:
    "(scan flat index, output flat index) -> value, for steps run over every scan tuple."
    values = {}
    for batch in basis_batches(scan):
        b = len(batch)
        for key, val in run_batch(scan, batch, steps).items():
            values[batch[key % b], key // b] = val
    return values


def _pairwise_residuals(target, kind, family) -> list:
    """The quadratic law on g0 + sum t_s h_s, expanded one pair of family
    generators at a time on concrete maps (h_0 = g0, t_0 = 1).

    Write B(x, y) for the bilinear side with x in its first copy of g and
    y in its second; the law's side takes one op x and gives B(x, x).  The
    coefficient of t_s t_r is B(h_s, h_s) for s = r and, for s < r,
    B(h_s, h_r) + B(h_r, h_s) = B(x + y, x + y) - B(x, x) - B(y, y) with
    x = h_s, y = h_r (polarization).  The linear side on h_s is subtracted
    at t_s.  Returns the nonzero polynomial of each (scan tuple, output
    key)."""
    laws = _laws(target, kind)
    d = laws.datum
    _, scan, _, linear, bilinear = laws.quadratic
    gens = [family.particular, *family.nullspace_basis]

    def op(*vs):
        return HomCA(d, Matrix.from_flat([sum(xs) for xs in zip(*vs)], d.c_dim)).op

    squares = [_law_values(scan, bilinear(op(v))) for v in gens]
    polys = {}

    def add(values, mono, sign):
        for at, val in values.items():
            polys.setdefault(at, _Poly()).add_term(mono, sign * val)

    for s, v in enumerate(gens):
        mono = (s - 1,) if s else ()
        add(_law_values(scan, linear(op(v))), mono, -1)
        add(squares[s], mono * 2, 1)
        for r in range(s + 1, len(gens)):
            pair = (*mono, r - 1)
            add(_law_values(scan, bilinear(op(v, gens[r]))), pair, 1)
            add(squares[s], pair, -1)
            add(squares[r], pair, -1)
    return [p for p in polys.values() if p]


# distinct nonzero residuals of each corpus run whose family has parameters
DISTINCT_RESIDUALS = {
    ("pivotal", "long_dqg_kz2"): 10, ("pivotal", "long_kz2"): 9, ("pivotal", "yd_kz2"): 9,
    ("pivotal", "yd_dqg_kz2"): 9, ("pivotal", "yd_h4"): 59, ("pivotal", "yd_dqg_h4"): 59,
    ("ribbon", "long_dqg_kz2"): 10, ("ribbon", "yd_dqg_kz2"): 10, ("ribbon", "yd_dqg_h4"): 60,
}


@pytest.mark.parametrize("kind, name", sorted(DISTINCT_RESIDUALS))
def test_one_pass_residuals_match_the_pairwise_expansion(finder_run, kind, name):
    target, _, res = finder_run(kind, name)
    assert res.family.dimension > 0
    got = [frozenset(p.terms.items()) for p in _quadratic_residuals(_laws(target, kind), res.family)]
    assert len(got) == len(set(got)), "a residual is listed twice"
    want = {frozenset(p.terms.items()) for p in _pairwise_residuals(target, kind, res.family)}
    assert set(got) == want
    assert len(got) == DISTINCT_RESIDUALS[kind, name]


@pytest.mark.parametrize("kind, name, box", [
    ("pivotal", "long_kz2", range(-2, 3)),
    ("pivotal", "yd_kz2", range(-2, 3)),
    ("pivotal", "yd_h4", range(-1, 2)),
    ("ribbon", "yd_dqg_kz2", range(-1, 2)),
    ("ribbon", "long_dqg_kz2", range(-1, 2)),
])
def test_finder_box_search_finds_no_unlisted_point(finder_run, kind, name, box):
    target, d, res = finder_run(kind, name)
    verify = verify_pivotal if kind == "pivotal" else verify_ribbon
    listed = {c.map.map for c in res.solutions}
    family = res.family
    for t in itertools.product(box, repeat=family.dimension):
        v = list(family.particular)
        for x, h in zip(t, family.nullspace_basis):
            v = [a + x * b for a, b in zip(v, h)]
        g = HomCA(d, Matrix.from_flat(v, d.c_dim))
        assert g.map in listed or not verify(target, g).overall, (name, t)


def test_finder_stage1_membership_of_known_morphisms(yd_h4, long_h4, long_dqg_kz2):
    g1, g2 = corpus.h4_yd_pivotal_pair(yd_h4)
    assert stage1_residual(yd_h4, "pivotal", g1).is_zero()
    assert stage1_residual(yd_h4, "pivotal", g2).is_zero()
    assert stage1_residual(long_h4, "pivotal", corpus.h4_long_pivotal(long_h4)).is_zero()
    assert stage1_residual(
        long_dqg_kz2.datum, "ribbon", corpus.long_kz2_ribbon()
    ).is_zero()
    # verified solutions always satisfy the linear stage
    for c in find_morphisms(yd_h4, "pivotal").solutions:
        assert stage1_residual(yd_h4, "pivotal", c.map).is_zero()


def test_finder_calls_the_module_verifiers(yd_h4, long_dqg_kz2, monkeypatch):
    # the bench tracer counts pivribbon.verifier.calls by wrapping the
    # module's verify_pivotal and verify_ribbon, so the finder must reach
    # its verifier through those names
    from entwine import pivribbon

    calls = {}
    for name in ("verify_pivotal", "verify_ribbon"):
        def counting(target, g, name=name, verify=getattr(pivribbon, name)):
            calls[name] = calls.get(name, 0) + 1
            return verify(target, g)
        monkeypatch.setattr(pivribbon, name, counting)
    for name, target, kind in (("verify_pivotal", yd_h4, "pivotal"),
                               ("verify_ribbon", long_dqg_kz2, "ribbon")):
        res = find_morphisms(target, kind)
        assert calls.get(name, 0) >= max(len(res.solutions), 1)


@pytest.mark.parametrize("gamma", [0, 1])
def test_finder_on_a_long_double_of_h4_whose_r_is_not_symmetric(h4, gamma):
    # R_1 on H4 is quasitriangular and R_1 != R_1^21, so R3 runs on an R
    # that is neither symmetric nor a Yetter-Drinfeld braiding
    from oracles import h4_form, h4_rmatrix

    q = corpus.long_dqg(h4, h4_rmatrix(1), h4, h4_form(h4, gamma))
    d = q.datum
    ribbon = find_morphisms(q, "ribbon")
    assert ribbon.status == "complete"
    unit = separable_candidate(d, Element(d.a, d.a.unit), Functional(d.c, d.c.counit), "ribbon")
    assert [c.map for c in ribbon.solutions] == [unit.map]
    pivotal = find_morphisms(q, "pivotal")
    assert pivotal.status == "complete" and len(pivotal.solutions) == 1
    # g(c) = chi(c) e: the pivot e of H4 times the copivot chi that sends
    # 1, e, x, y to 1, -1, 0, 0
    assert pivotal.solutions[0].map.map.flat() == Vector([0, 0, 0, 0, 1, -1] + [0] * 10)
    for c in ribbon.solutions:
        assert verify_ribbon(q, c.map).overall
    for c in pivotal.solutions:
        assert verify_pivotal(d, c.map).overall


def test_finder_undecided_when_family_too_large(long_kz2):
    res = find_morphisms(long_kz2, "pivotal", max_params=0)
    assert res.status == "undecided"
    assert res.family is not None and res.family.dimension > 0


def test_finder_over_trivial_coalgebra_lists_verified_solutions(kz2):
    # over C = k the linear stage is consistent: the finder reports
    # completeness honestly, and every map it lists verifies
    ck = trivial_hopf()
    d = MonoidalEntwiningDatum(EntwiningMap(ck, kz2, Matrix.identity(2)))
    res = find_morphisms(d, "pivotal", max_params=4)
    assert res.status in ("complete", "parametric")
    for c in res.solutions:
        assert verify_pivotal(d, c.map).overall


def test_finder_inconsistent_linear_stage_reports_complete_empty():
    # yd_kz2 with phi[0][0] raised by 1 is no entwining: the linear laws of
    # a pivotal map have no common solution, so there is nothing to list
    d = corpus.corpus_build("yd_kz2")[1]
    rows = [list(r) for r in d.phi.rows()]
    rows[0][0] += 1
    bad = MonoidalEntwiningDatum(EntwiningMap(d.c, d.a, Matrix(rows)))
    res = find_morphisms(bad, "pivotal", max_params=4)
    assert res == FinderResult("complete", [], None, "linear stage inconsistent")


@pytest.mark.parametrize("terms, roots", [
    ({(0, 0): 1, (): 1}, []),         # t_0^2 + 1: negative discriminant
    ({(0, 0): 1, (): -2}, []),        # t_0^2 - 2: discriminant 8 is no square
    ({(0, 0): 1, (0,): -1}, [0, 1]),  # t_0^2 - t_0
])
def test_rational_roots_deg2(terms, roots):
    poly = _Poly({m: Fraction(c) for m, c in terms.items()})
    assert _rational_roots_deg2(poly, 0) == roots


def test_finder_quadratic_without_rational_root_closes_its_branch(long_dqg_kz2, monkeypatch):
    # t_0^2 - 2 has no rational root: its branch closes with no leaf, so
    # every branch closed, and there is no solution over Q
    from entwine import pivribbon

    poly = _Poly({(0, 0): Fraction(1), (): Fraction(-2)})
    monkeypatch.setattr(pivribbon, "_quadratic_residuals", lambda laws, family: [poly])
    res = find_morphisms(long_dqg_kz2, "ribbon", max_params=4)
    assert res.family.dimension > 1
    assert res.status == "complete" and res.solutions == []


def test_finder_one_parameter_branch_is_parametric_when_others_unpinned(long_dqg_kz2, monkeypatch):
    # leave every family parameter but t_0 unconstrained by the quadratic law:
    # t_0^2 - t_0 splits into t_0 = 0 and t_0 = 1, and both branches stay
    # open, so their probes are sample points, not every solution
    from entwine import pivribbon

    poly = pivribbon._Poly({(0, 0): Fraction(1), (0,): Fraction(-1)})
    monkeypatch.setattr(pivribbon, "_quadratic_residuals", lambda laws, family: [poly])
    res = find_morphisms(long_dqg_kz2, "ribbon", max_params=4)
    assert res.family.dimension > 1
    assert res.notes.startswith("a branch of the quadratic stage stayed open")
    assert res.status == "parametric"
    for c in res.solutions:
        assert verify_ribbon(long_dqg_kz2, c.map).overall


def test_root_stage_only_sees_quadratics(monkeypatch):
    # _branches pins every degree-1 residual and splits off a common
    # variable before it looks for roots, so the root stage gets
    # one-variable polynomials of degree exactly 2
    from entwine import pivribbon

    seen = []
    roots = pivribbon._rational_roots_deg2

    def recording(poly, var):
        seen.append((poly.degree(), poly.variables()))
        return roots(poly, var)

    monkeypatch.setattr(pivribbon, "_rational_roots_deg2", recording)
    datums = dict(corpus_monoidal_datums())
    dqgs = corpus_dqgs()
    datums.update((name, q.datum) for name, q in dqgs.items())
    assert len(datums) == 7
    for d in datums.values():
        find_morphisms(d, "pivotal")
    for q in dqgs.values():
        find_morphisms(q, "ribbon")
    t0 = Fraction(1)
    residuals = [pivribbon._Poly({(0,): t0, (): -2 * t0}),
                 pivribbon._Poly({(0, 0): t0, (): -4 * t0})]
    monkeypatch.setattr(pivribbon, "_quadratic_residuals", lambda laws, family: residuals)
    before = len(seen)
    res = find_morphisms(dqgs["long_dqg_kz2"], "ribbon", max_params=4)
    # t_0 - 2 pins t_0 = 2 first, so t_0^2 - 4 vanishes before any root search
    assert len(seen) == before and res.status == "parametric"
    assert seen and all(deg == 2 and len(v) == 1 for deg, v in seen), seen
