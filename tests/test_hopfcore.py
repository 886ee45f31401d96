"""Hopf data checkers, duals, pivots, copivots, ribbon elements, forms.

Pivots, copivots, ribbon elements and ribbon characters are checked by
entwine.pivribbon's P and R laws on a datum with one trivial side; their
reports carry those axiom IDs."""

import pytest

import oracles
from entwine import corpus, pivribbon
from entwine.entwining import HomCA, conv_inverse
from entwine.exactla import Matrix, NotInvertibleError, Vector, invert, kron
from entwine.hopfcore import (
    AlgebraData,
    BilinearForm,
    CoalgebraData,
    Element,
    Functional,
    HopfAlgebraData,
    _degenerate_datum,
    check_hopf,
    coquasitri_check,
    dual_hopf,
    quasitri_check,
    trivial_hopf,
)
from entwine.pivribbon import (
    verify_copivot,
    verify_coribbon_form,
    verify_pivot,
    verify_ribbon_element,
)
from oracles import LAW_OF


# -- independent word-rewriting oracle for the Sweedler multiplication table --
#
# Words are strings over {e, x}; rewriting: ee -> "", xx -> zero, xe -> -ex.
def _normalize_word(word: str):
    sign = 1
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a == "e" and b == "e":
                del word[i : i + 2]
                changed = True
                break
            if a == "x" and b == "x":
                return None
            if a == "x" and b == "e":
                word[i], word[i + 1] = "e", "x"
                sign = -sign
                changed = True
                break
    return sign, "".join(word)


_WORDS = {"1": "", "e": "e", "x": "x", "y": "ex"}


def test_h4_table_matches_rewriting_oracle(h4):
    names = h4.basis_names
    index = {"": 0, "e": 1, "x": 2, "ex": 3}
    for i, wi in enumerate(names):
        for j, wj in enumerate(names):
            got = h4.mult.col(i * 4 + j)
            norm = _normalize_word(_WORDS[wi] + _WORDS[wj])
            expect = Vector.zero(4)
            if norm is not None:
                sign, w = norm
                coords = [0, 0, 0, 0]
                coords[index[w]] = sign
                expect = Vector(coords)
            assert got == expect, (wi, wj)


def test_h4_frozen_relations(h4):
    idx = {n: i for i, n in enumerate(h4.basis_names)}

    def mul(a, b):
        return h4.mult.col(idx[a] * 4 + idx[b])

    e_y = Vector([0, 0, 1, 0])   # x
    assert mul("e", "y") == e_y
    assert mul("y", "e") == Vector([0, 0, -1, 0])
    assert mul("x", "y") == Vector.zero(4)
    assert mul("y", "x") == Vector.zero(4)
    assert mul("y", "y") == Vector.zero(4)
    assert mul("x", "x") == Vector.zero(4)


def test_h4_frozen_coproduct_of_y(h4):
    # Delta(y) = y (x) e + 1 (x) y
    col = h4.comult.col(3)
    expect = [0] * 16
    expect[3 * 4 + 1] = 1
    expect[0 * 4 + 3] = 1
    assert col == Vector(expect)


def test_h4_antipode_squares(h4):
    s2 = h4.antipode * h4.antipode
    assert s2.col(2) == Vector([0, 0, -1, 0])  # S^2(x) = -x
    assert s2 * s2 == Matrix.identity(4)       # S^4 = id
    assert s2 != Matrix.identity(4)


def test_h4_passes_check_hopf(h4):
    assert check_hopf(h4).overall


def test_h4_with_identity_antipode_fails(h4):
    broken = HopfAlgebraData(h4.algebra, h4.coalgebra, Matrix.identity(4))
    rep = check_hopf(broken)
    assert not rep.overall
    item = rep.item("H11_antipode_left")
    assert not item.passed
    assert item.witness.basis == (2,)  # first failure at x
    # hand expansion: m(id (x) id) Delta(x) = x*1 + e*x = x + y, against 0
    assert item.witness.lhs == Vector([0, 0, 1, 1])
    assert item.witness.rhs == Vector.zero(4)


def _bump_kz2(kz2, part, row, col):
    "kz2 with entry (row, col) of one structure map raised by 1."
    maps = {"mult": kz2.mult, "unit": Matrix([[x] for x in kz2.unit]),
            "comult": kz2.comult, "counit": kz2.counit, "antipode": kz2.antipode}
    rows = [list(r) for r in maps[part].rows()]
    rows[row][col] += 1
    maps[part] = Matrix(rows)
    alg = AlgebraData(2, kz2.basis_names, maps["mult"], maps["unit"].col(0))
    coa = CoalgebraData(2, kz2.basis_names, maps["comult"], maps["counit"])
    return HopfAlgebraData(alg, coa, maps["antipode"])


# One-entry +1 perturbations of kz2 (basis 1 = e0, g = e1; g g = 1,
# Delta(x) = x (x) x, eps = (1, 1), eta = 1, S = id).  mult[row][col] has
# col x * 2 + y, comult[row][col] row x1 * 2 + x2.  The first failing tuple
# and both sides follow from the axiom alone; every earlier tuple reads only
# unperturbed entries.
#  - H01, 1 g += 1: at (x, y, z) = (1, 1, g), (1 1) g = 1 g = 1 + g
#    against 1 (1 g) = 1 1 + 1 g = 2 1 + g; (1, 1, 1) reads 1 1 alone.
#  - H02, 1 1 += g: at x = 1, 1 1 = 1 + g against 1.
#  - H03, g 1 += 1: at x = 1 both sides are 1; at x = g, g 1 = 1 + g
#    against g (H02 reads 1 g, unperturbed, and passes).
#  - H04, Delta(g) += 1 (x) 1: at x = g, (Delta (x) id) gives
#    g g g + 1 1 g + 1 1 1 and (id (x) Delta) gives g g g + g 1 1 + 1 1 1.
#  - H05, Delta(1) += g (x) 1: at x = 1, (eps (x) id) Delta(1) = 2 1.
#  - H06, Delta(1) += 1 (x) g: at x = 1, (id (x) eps) Delta(1) = 2 1.
#  - H07, g g += g: at (g, g), Delta(1 + g) = 1 1 + g g against
#    (g g) (x) (g g) = (1 + g) (x) (1 + g); every other pair reads g g
#    nowhere.
#  - H08, Delta(1) += g (x) g: Delta(1) = 1 1 + g g against 1 1.
#  - H09, eps(g) += 1: at (g, g), eps(g g) = eps(1) = 1 against
#    eps(g)^2 = 4; (1, g) and (g, 1) give 2 on both sides.
#  - H10, eta += g: eps(1 + g) = 2 against 1.
#  - H12, S(1) += 1: S = diag(2, 1) stays invertible; at x = 1,
#    1 S(1) = 2 1 against eps(1) 1 = 1.
@pytest.mark.parametrize("axiom, part, row, col, basis, lhs, rhs", [
    ("H01_assoc", "mult", 0, 1, (0, 0, 1), [1, 1], [2, 1]),
    ("H02_left_unit", "mult", 1, 0, (0,), [1, 1], [1, 0]),
    ("H03_right_unit", "mult", 0, 2, (1,), [1, 1], [0, 1]),
    ("H04_coassoc", "comult", 0, 1, (1,), [1, 1, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1, 0, 0, 1]),
    ("H05_left_counit", "comult", 2, 0, (0,), [2, 0], [1, 0]),
    ("H06_right_counit", "comult", 1, 0, (0,), [2, 0], [1, 0]),
    ("H07_comult_mult", "mult", 1, 3, (1, 1), [1, 0, 0, 1], [1, 1, 1, 1]),
    ("H08_comult_unit", "comult", 3, 0, (), [1, 0, 0, 1], [1, 0, 0, 0]),
    ("H09_counit_mult", "counit", 0, 1, (1, 1), [1], [4]),
    ("H10_counit_unit", "unit", 1, 0, (), [2], [1]),
    ("H12_antipode_right", "antipode", 0, 0, (0,), [2, 0], [1, 0]),
])
def test_one_entry_kz2_perturbation_fails_axiom(kz2, axiom, part, row, col, basis, lhs, rhs):
    item = check_hopf(_bump_kz2(kz2, part, row, col)).item(axiom)
    assert not item.passed
    assert item.witness.basis == basis
    assert list(item.witness.lhs) == lhs
    assert list(item.witness.rhs) == rhs


def test_singular_antipode_is_rejected_at_construction(h4):
    # S is inverted when the algebra is built, so check_hopf has no
    # bijectivity item: a singular S never reaches it
    singular = Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]])
    with pytest.raises(NotInvertibleError):
        HopfAlgebraData(h4.algebra, h4.coalgebra, singular)
    with pytest.raises(NotInvertibleError):
        HopfAlgebraData(h4.algebra, h4.coalgebra, Matrix.zero(4, 4))
    assert [it.axiom_id for it in check_hopf(h4).items][-2:] == [
        "H11_antipode_left", "H12_antipode_right"]


def test_group_algebra_axioms(kz2):
    assert check_hopf(kz2).overall
    assert check_hopf(corpus.cyclic_group_algebra(3)).overall
    assert check_hopf(corpus.cyclic_group_algebra(1)).overall


def test_group_algebra_small_cases():
    k1 = corpus.cyclic_group_algebra(1)
    assert k1.dim == 1
    k2 = corpus.cyclic_group_algebra(2)
    assert k2.antipode == Matrix.identity(2)  # every element self-inverse
    # cocommutative
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert k2.comult.entry(i * 2 + j, k) == k2.comult.entry(j * 2 + i, k)


def test_dual_of_group_algebra_is_group_algebra(kz2, dual_kz2):
    # basis change onto the two characters exhibits the isomorphism
    eps, sgn = Vector([1, 1]), Vector([1, -1])
    p = Matrix([eps, sgn]).transpose()
    pinv = invert(p)
    assert pinv * dual_kz2.mult * kron(p, p) == kz2.mult
    assert kron(pinv, pinv) * dual_kz2.comult * p == kz2.comult
    assert pinv.apply(dual_kz2.unit) == kz2.unit
    assert dual_kz2.counit * p == kz2.counit
    assert pinv * dual_kz2.antipode * p == kz2.antipode


def test_dual_twists_pass_check_hopf(h4):
    assert check_hopf(dual_hopf(h4, "plain")).overall
    assert check_hopf(dual_hopf(h4, "op")).overall
    assert check_hopf(dual_hopf(h4, "cop")).overall


def test_double_dual_is_identity(h4, kz2):
    for h in (h4, kz2):
        dd = dual_hopf(dual_hopf(h, "plain"), "plain")
        assert dd.mult == h.mult
        assert dd.comult == h.comult
        assert dd.antipode == h.antipode
        assert dd.unit == h.unit
        assert dd.counit == h.counit


def test_pivot_of_h4(h4):
    e_el = Element(h4, Vector([0, 1, 0, 0]))
    assert verify_pivot(h4, e_el).overall


def test_unit_is_not_a_pivot_of_h4(h4):
    rep = verify_pivot(h4, Element(h4, Vector([1, 0, 0, 0])))
    assert rep.failed_ids() == ["P3_action_twist"]
    item = rep.item("P3_action_twist")
    # at (a, c) = (x, 1): 1*S^2(x) = -x against x*1 = x
    assert item.witness.basis == (2, 0)
    assert item.witness.lhs == Vector([0, 0, -1, 0])
    assert item.witness.rhs == Vector([0, 0, 1, 0])


def test_unit_is_a_pivot_when_antipode_involutive(kz2):
    assert verify_pivot(kz2, Element(kz2, Vector([1, 0]))).overall


def test_pivot_implies_antipode_square_conjugation(h4, kz2):
    # consequence checked independently: S^2(a) = g a g^{-1} on all basis a
    for h, coords in ((h4, Vector([0, 1, 0, 0])), (kz2, Vector([1, 0]))):
        g = Element(h, coords)
        assert verify_pivot(h, g).overall
        d = _degenerate_datum(trivial_hopf(), h)
        inv = conv_inverse(HomCA(d, Matrix.from_flat(coords, 1)))
        assert inv is not None
        ginv = inv.map.col(0)
        s2 = h.antipode * h.antipode
        for a in range(h.dim):
            lhs = s2.col(a)
            # g * e_a * g^{-1}
            mid = Vector.zero(h.dim)
            for i, ci in enumerate(coords):
                if ci == 0:
                    continue
                step = h.mult.col(i * h.dim + a).scale(ci)
                for j, cj in enumerate(step):
                    if cj == 0:
                        continue
                    for k, ck in enumerate(ginv):
                        if ck == 0:
                            continue
                        mid = mid + h.mult.col(j * h.dim + k).scale(cj * ck)
            assert lhs == mid


def test_copivot_of_h4(h4):
    assert verify_copivot(h4, corpus.h4_copivot(h4)).overall


def test_counit_is_not_a_copivot_of_h4(h4):
    rep = verify_copivot(h4, Functional(h4, h4.counit))
    assert rep.failed_ids() == ["P4_coaction_twist"]
    item = rep.item("P4_coaction_twist")
    # at c = x, Delta(x) = x (x) 1 + e (x) x: eps(x1) x2 = x against
    # S^{-2}(x1) eps(x2) = S^{-2}(x) = -x
    assert item.witness.basis == (2,)
    assert item.witness.lhs == Vector([0, 0, 1, 0])
    assert item.witness.rhs == Vector([0, 0, -1, 0])


def test_counit_is_a_copivot_on_group_algebra(kz2):
    assert verify_copivot(kz2, Functional(kz2, kz2.counit)).overall


def test_quasitri_triangular_z2(kz2):
    assert quasitri_check(kz2, corpus.z2_triangular_rmatrix(kz2)).overall


def test_quasitri_trivial_r_cocommutative(kz2):
    assert quasitri_check(kz2, Vector([1, 0, 0, 0])).overall
    kz3 = corpus.cyclic_group_algebra(3)
    triv = Vector([1] + [0] * 8)
    assert quasitri_check(kz3, triv).overall


def test_quasitri_trivial_r_fails_on_h4(h4):
    rep = quasitri_check(h4, Vector([1] + [0] * 15))
    assert not rep.overall
    item = rep.item("E08_act")
    assert not item.passed
    assert item.witness.basis[0] == 2  # first witness at a = x


def test_ribbon_element_triangular_z2(kz2):
    r = corpus.z2_triangular_rmatrix(kz2)
    one = Element(kz2, Vector([1, 0]))
    assert verify_ribbon_element(kz2, r, one).overall
    # v = g is a second ribbon element of the triangular structure
    assert verify_ribbon_element(kz2, r, Element(kz2, Vector([0, 1]))).overall


def test_ribbon_element_trivial_r(kz2):
    assert verify_ribbon_element(kz2, Vector([1, 0, 0, 0]), Element(kz2, Vector([1, 0]))).overall


def test_ribbon_element_noncentral_fails(h4):
    rep = verify_ribbon_element(h4, Vector([1] + [0] * 15), Element(h4, Vector([0, 1, 0, 0])))
    assert not rep.item("R1_action").passed


def test_ribbon_element_nilpotent_fails_re4(h4):
    # x is nilpotent in h4, so it has no inverse; R5 (RE4 of the hand-written
    # reference) names x against zeros
    x = Vector([0, 0, 1, 0])
    rep = verify_ribbon_element(h4, Vector([1] + [0] * 15), Element(h4, x))
    item = rep.item("R5_conv_invertible")
    assert not item.passed
    assert item.witness.basis == ()
    assert item.witness.lhs == x
    assert item.witness.rhs == Vector.zero(4)


def test_coribbon_zero_functional_fails_cb4(kz2):
    triv = BilinearForm(kz2, kz2, Matrix([[1, 1, 1, 1]]))
    zero = Functional(kz2, Matrix.zero(1, 2))
    # R5 (CB4 of the hand-written reference)
    item = verify_coribbon_form(kz2, triv, zero).item("R5_conv_invertible")
    assert not item.passed
    assert item.witness.basis == ()
    assert item.witness.lhs == Vector.zero(2)
    assert item.witness.rhs == Vector.zero(2)


def test_coquasitri_and_coribbon(kz2, dual_kz2):
    triv = BilinearForm(kz2, kz2, Matrix([[1, 1, 1, 1]]))
    assert coquasitri_check(kz2, triv).overall
    assert verify_coribbon_form(kz2, triv, Functional(kz2, kz2.counit)).overall
    r = corpus.z2_triangular_rmatrix(kz2)
    form = corpus.z2_dual_triangular_form(dual_kz2, r)
    assert coquasitri_check(dual_kz2, form).overall
    assert verify_coribbon_form(dual_kz2, form, Functional(dual_kz2, dual_kz2.counit)).overall


def test_coquasitri_precondition_fails_on_h4(h4):
    # arbitrary forms on a noncocommutative algebra fail the precondition
    triv = BilinearForm(h4, h4, Matrix([[1] + [0] * 15]))
    eps2 = BilinearForm(
        h4, h4,
        Matrix([[h4.counit.entry(0, i) * h4.counit.entry(0, j)
                 for i in range(4) for j in range(4)]]),
    )
    assert not coquasitri_check(h4, triv).overall
    assert not coquasitri_check(h4, eps2).overall


def _pivot_kz2(coords, verifiers):
    h = corpus.cyclic_group_algebra(2)
    return verifiers.verify_pivot(h, Element(h, Vector(coords)))


def _copivot_kz2(coords, verifiers):
    h = corpus.cyclic_group_algebra(2)
    return verifiers.verify_copivot(h, Functional(h, Matrix([coords])))


def _ribbon_kz(n):
    def build(coords, verifiers):
        h = corpus.cyclic_group_algebra(n)
        trivial_r = Vector([1] + [0] * (n * n - 1))  # R = 1 (x) 1
        return verifiers.verify_ribbon_element(h, trivial_r, Element(h, Vector(coords)))
    return build


def _coribbon(host):
    def build(coords, verifiers):
        h = host()
        eps = h.counit.row(0)
        eps2 = BilinearForm(h, h, Matrix([[a * b for a in eps for b in eps]]))
        return verifiers.verify_coribbon_form(h, eps2, Functional(h, Matrix([coords])))
    return build


# Perturbations of passing pivots, copivots, ribbon elements and coribbon
# functionals.  Each case names the item of the hand-written reference
# (oracles.verify_pivot and the rest) that its input was made to break; the
# law of entwine.pivribbon that item became (LAW_OF) fails with the witness
# derived below, and the two reports fail the same laws under LAW_OF, but for
# P5 beside P1 or P2.  kz_n has basis 1 = g^0, g, ..., g^(n-1), with
# Delta(g^i) = g^i (x) g^i, eps = 1 on every g^i and S(g^i) = g^(n-i); h4 has
# basis 1, e, x, y with Delta(x) = x (x) 1 + e (x) x and eps = (1, 1, 0, 0).
# A pivot or ribbon element v is the map k -> H over (k, H), a copivot or
# coribbon functional g the map C -> k over (C, k), so a law scanned over C
# scans the one basis vector of k there, and phi is the identity.  Ribbon
# elements use R = 1 (x) 1, coribbon functionals the form eps (x) eps, so
# R21 R = 1 (x) 1 and every R(., .) factor is a product of counits.  An
# output over (d, d) is flattened as x1 * d + x2; the unperturbed input passes
# every item of both reports.
#  - P1, g = 1 -> 1 + g: at (1, 1) of k, Delta(1 + g) = 1 1 + g g against
#    (1 + g) (x) (1 + g).
#  - P2, g = 1 -> 0: eps(0) = 0 against 1 (0 is grouplike, so P1 passes).
#  - P1 on a copivot, g = eps -> g(1) = 2: at (1, 1), g(1 1) = 2 against
#    g(1) g(1) = 4.
#  - P2 on a copivot, g = eps -> g(1) = 0: g(1) = 0 against 1.
#  - R3, v = 1 -> 2 on kz2: at (1, 1) of k, Delta(2) = 2 1 1 against
#    (v (x) v) R21 R = 4 1 1.
#  - R4, v = 1 -> 1 + g on kz3: v = 1 + g against S^{-1}(v) = 1 + g^2
#    (S_k and phi are identities).
#  - R2, g = eps -> g(x) = 1 on h4 (kz_n is cocommutative): at 1 and e
#    both sides are the basis vector; at x, g(x) 1 + g(e) x = 1 + x against
#    x g(1) + e g(x) = e + x.
#  - R3 on a coribbon functional, g = eps -> g(1) = 2 on kz2: at (1, 1),
#    g(1 1) = 2 against g(1) g(1) R(1, 1) R(1, 1) = 4.
#  - R4 on a coribbon functional, g = eps -> g(g) = 2 on kz3: at 1 both
#    sides are 1; at g, g(g) = 2 against g(S(g)) = g(g^2) = 1.
#  - R4 alone, v = 1 -> g on kz3 (two entries change): v = g against
#    S^{-1}(g) = g^2.  g is central and grouplike, so R1 and R3 hold with
#    R = 1 (x) 1, and invertible, so R5 holds; R2 is vacuous over (k, H).
#    Only RE3 fails in the reference.
@pytest.mark.parametrize("axiom, build, base, entry, delta, basis, lhs, rhs", [
    ("PV1_grouplike", _pivot_kz2, [1, 0], 1, 1, (0, 0), [1, 0, 0, 1], [1, 1, 1, 1]),
    ("PV2_counit_one", _pivot_kz2, [1, 0], 0, -1, (), [0], [1]),
    ("CP1_multiplicative", _copivot_kz2, [1, 1], 0, 1, (0, 0), [2], [4]),
    ("CP2_unit_one", _copivot_kz2, [1, 1], 0, -1, (), [0], [1]),
    ("RE2_comult_r21r", _ribbon_kz(2), [1, 0], 0, 1, (0, 0), [2, 0, 0, 0], [4, 0, 0, 0]),
    ("RE3_antipode_fixed", _ribbon_kz(3), [1, 0, 0], 1, 1, (0,), [1, 1, 0], [1, 0, 1]),
    ("CB1_cocentral", _coribbon(corpus.sweedler_h4), [1, 1, 0, 0], 2, 1, (2,),
     [1, 0, 1, 0], [0, 1, 1, 0]),
    ("CB2_product_rule", _coribbon(lambda: corpus.cyclic_group_algebra(2)), [1, 1], 0, 1,
     (0, 0), [2], [4]),
    ("CB3_antipode_fixed", _coribbon(lambda: corpus.cyclic_group_algebra(3)), [1, 1, 1], 1, 1,
     (1,), [2], [1]),
    ("RE3_antipode_fixed", _ribbon_kz(3), [1, 0, 0], (0, 1), (-1, 1), (0,), [0, 1, 0], [0, 0, 1]),
])
def test_one_entry_perturbation_fails_pivot_or_ribbon_axiom(axiom, build, base, entry, delta,
                                                             basis, lhs, rhs):
    assert build(base, oracles).overall and build(base, pivribbon).overall
    coords = list(base)
    moved = isinstance(entry, tuple)  # a grouplike moved to another
    for i, d in zip(*((entry, delta) if moved else ((entry,), (delta,)))):
        coords[i] += d
    reference, rep = build(coords, oracles), build(coords, pivribbon)
    assert not reference.item(axiom).passed
    item = rep.item(LAW_OF[axiom])
    assert not item.passed
    assert item.witness.basis == basis
    assert list(item.witness.lhs) == lhs
    assert list(item.witness.rhs) == rhs
    failed = set(rep.failed_ids())
    assert failed - {"P5_conv_invertible"} == {LAW_OF[i] for i in reference.failed_ids()}
    if moved:
        assert failed == {item.axiom_id}


def test_trivial_hopf():
    k = trivial_hopf()
    assert k.dim == 1 and check_hopf(k).overall


def test_report_item_order_is_lexicographic(h4):
    rep = check_hopf(h4)
    ids = [it.axiom_id for it in rep.items]
    assert ids == sorted(ids)
