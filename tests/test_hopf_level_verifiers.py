"""The Hopf-level verifiers against their hand-written reference.

entwine.pivribbon checks a pivot, a copivot, a ribbon element and a ribbon
character by the P and R laws on a datum with one trivial side.
tests/oracles.py keeps the verifiers those replaced, with their own axiom
sides.  Over a sweep of elements and functionals, both fail the same laws
under LAW_OF.  The one exception is P5, which the reference has no item for:
it may fail beside P1 or P2 only, since a grouplike with counit 1 is
invertible.  Where a law states its reference item's identity, both fail
with the same sides at the same basis tuple, the law's scan padded with the
index 0 of the trivial side's one basis vector.  PV3, CP3 and RE3 state an
equivalent identity instead: g S(a) = S^{-1}(a) g for P3's g S^2(a) = a g,
g(c1) S(c2) = S^{-1}(c1) g(c2) for P4's g(c1) c2 = S^{-2}(c1) g(c2), and
S(v) = v for R4's v = S^{-1}(v).
"""

import oracles
from entwine import corpus, pivribbon
from entwine.exactla import Matrix, Vector
from entwine.hopfcore import BilinearForm, Element, Functional, dual_hopf
from oracles import LAW_OF, h4_form, h4_rmatrix

P5 = "P5_conv_invertible"
EQUIVALENT = {"PV3_antipode_twist", "CP3_antipode_twist", "RE3_antipode_fixed"}


def _points(h, base):
    """base, each basis vector, and every change of one of their entries by
    +-1, without repeats."""
    n = h.dim
    starts = [list(base)] + [[int(i == j) for j in range(n)] for i in range(n)]
    points = {}
    for start in starts:
        points[tuple(start)] = None
        for i in range(n):
            for delta in (1, -1):
                point = list(start)
                point[i] += delta
                points[tuple(point)] = None
    return list(points)


def _counit(h):
    return h.counit.row(0)


def _eps2(h):
    return BilinearForm(h, h, Matrix([[a * b for a in _counit(h) for b in _counit(h)]]))


def _samples():
    """(verifier name, host, R or form, coordinates) of every sample.  Each R
    but 1 (x) g on kz3 is triangular, R21 R = 1 (x) 1, and each form but the
    last is cotriangular, R(c1, d1) R(d2, c2) = eps(c) eps(d), so R3 reads
    R or the form only through those two."""
    h4, kz2, kz3 = corpus.sweedler_h4(), corpus.cyclic_group_algebra(2), corpus.cyclic_group_algebra(3)
    dual_kz2, dual_kz3 = corpus.dual_cyclic_group_algebra(2), corpus.dual_cyclic_group_algebra(3)
    samples = []
    for h in (h4, kz2, kz3, dual_hopf(h4), dual_kz3):
        samples += [("verify_pivot", h, None, p) for p in _points(h, h.unit)]
        samples += [("verify_copivot", h, None, p) for p in _points(h, _counit(h))]
    for h, r in ((kz2, corpus.z2_triangular_rmatrix(kz2)), (kz2, Vector([1, 0, 0, 0])),
                 (kz3, Vector([1] + [0] * 8)), (h4, Vector([1] + [0] * 15)),
                 (kz3, Vector([0, 1] + [0] * 7)), (h4, h4_rmatrix(0)), (h4, h4_rmatrix(1))):
        samples += [("verify_ribbon_element", h, r, p) for p in _points(h, h.unit)]
    z2_form = corpus.z2_dual_triangular_form(dual_kz2, corpus.z2_triangular_rmatrix(kz2))
    for c, form in ((dual_kz2, z2_form), (kz2, _eps2(kz2)), (kz3, _eps2(kz3)),
                    (dual_kz3, _eps2(dual_kz3)), (h4, h4_form(h4, 0)), (h4, h4_form(h4, 1)),
                    (kz3, BilinearForm(kz3, kz3, Matrix([[1, 2, 1, 1, 1, 1, 1, 1, 1]])))):
        samples += [("verify_coribbon_form", c, form, p) for p in _points(c, _counit(c))]
    return samples


def _report(verifiers, name, h, extra, coords):
    verify = getattr(verifiers, name)
    if name in ("verify_pivot", "verify_ribbon_element"):
        g = Element(h, Vector(coords))
    else:
        g = Functional(h, Matrix([coords]))
    return verify(h, g) if extra is None else verify(h, extra, g)


def test_reference_and_degenerate_verifiers_fail_the_same_laws():
    samples = _samples()
    assert len(samples) == 479
    disagreements, failing = [], set()
    for name, h, extra, coords in samples:
        reference = _report(oracles, name, h, extra, coords)
        rep = _report(pivribbon, name, h, extra, coords)
        failed = set(rep.failed_ids())
        want = {LAW_OF[i] for i in reference.failed_ids()}
        p5_alone = P5 in failed and not {"P1_grouplike", "P2_counit_one"} & failed
        if failed - {P5} != want or p5_alone:
            disagreements.append((name, coords, sorted(want), sorted(failed)))
        for item in reference.items:
            if item.passed or item.axiom_id in EQUIVALENT:
                continue
            old, new = item.witness, rep.item(LAW_OF[item.axiom_id]).witness
            padded = old.basis + (0,) * (len(new.basis) - len(old.basis))
            if (new.basis, new.lhs, new.rhs) != (padded, old.lhs, old.rhs):
                disagreements.append((name, coords, item.axiom_id, old, new))
        failing |= {(name, i) for i in failed}
    assert disagreements == []
    # every law that is not vacuous on its datum fails somewhere in the sweep
    assert failing == {
        *(("verify_pivot", i) for i in ("P1_grouplike", "P2_counit_one", "P3_action_twist", P5)),
        *(("verify_copivot", i) for i in ("P1_grouplike", "P2_counit_one", "P4_coaction_twist",
                                          P5)),
        *(("verify_ribbon_element", i) for i in ("R1_action", "R3_braided_square",
                                                 "R4_self_dual", "R5_conv_invertible")),
        *(("verify_coribbon_form", i) for i in ("R2_coaction", "R3_braided_square",
                                                "R4_self_dual", "R5_conv_invertible")),
    }
