"""Ribbon elements and ribbon characters invert through the entwined
convolution inverse.

An element of H is inverted as a map k -> H, and a functional on C as a
map C -> k, over the datum with one side trivial_hopf() and identity
entwining map.  The oracles below are the hand-built operators this
replaced, kept verbatim but for handing two_sided_solve their rows
(Rows.of) and right-hand side, and reading its solution, by nonzero
entries {index: value}; inverses, None-ness and the R5 items of
verify_ribbon_element and verify_coribbon_form (RE4 and CB4 of the
hand-written reference) must be equal on seeded elements and
functionals, invertible and not.
"""

import random
from fractions import Fraction

import pytest

from entwine import corpus
from entwine.entwining import HomCA, conv_inverse
from entwine.exactla import Matrix, Rows, Vector, matrix_from_columns_fn
from entwine.hopfcore import (
    BilinearForm,
    Element,
    Functional,
    HopfAlgebraData,
    _degenerate_datum,
    element_op,
    trivial_hopf,
)
from entwine.pivribbon import verify_coribbon_form, verify_ribbon_element
from entwine.report import AxiomItem, Witness, _ap

from oracles import pipeline, two_sided_solve


# -- oracles (the operator builds the degenerate datum replaced) ---------------


def oracle_element_inverse(h: HopfAlgebraData, v: Vector) -> Vector | None:
    "Two-sided multiplicative inverse of an element, or None."
    d = h.dim
    v_op = element_op(v)
    left = matrix_from_columns_fn(
        (d,), (d,), lambda t: pipeline((d,), t, _ap(0, v_op), _ap(0, h.mul_op))
    )
    right = matrix_from_columns_fn(
        (d,), (d,), lambda t: pipeline((d,), t, _ap(1, v_op), _ap(0, h.mul_op))
    )
    x = two_sided_solve(Rows.of(left), Rows.of(right), dict(enumerate(h.unit)))
    return None if x is None else Vector([x.get(i, 0) for i in range(d)])


def oracle_conv_functional_inverse(c: HopfAlgebraData, g_row: Matrix) -> Matrix | None:
    "Inverse of a functional under ordinary convolution on the dual, or None."
    d = c.dim
    comul = c.comul_op
    g = [g_row.entry(0, i) for i in range(d)]
    ZERO = g_row.entry(0, 0) * 0

    def conv_operator(g_on_left: bool) -> Matrix:
        rows = [[ZERO] * d for _ in range(d)]
        for target in range(d):
            for (c1, c2), w in pipeline((d,), (target,), _ap(0, comul)).items():
                if g_on_left:
                    rows[target][c2] += w * g[c1]
                else:
                    rows[target][c1] += w * g[c2]
        return Matrix(rows)

    x = two_sided_solve(Rows.of(conv_operator(True)), Rows.of(conv_operator(False)),
                        dict(enumerate(c.counit.rows()[0])))
    return None if x is None else Matrix([[x.get(i, 0) for i in range(d)]])


def oracle_item(axiom_id: str, inverse, flat: Vector) -> AxiomItem:
    if inverse is None:
        return AxiomItem(axiom_id, False, Witness((), flat, Vector.zero(flat.dim)))
    return AxiomItem(axiom_id, True)


# -- seeded inputs ---------------------------------------------------------------

HOSTS = ("h4", "kz2", "kz3", "dual_h4", "double_kz2")


def _coords(rng, n):
    "Small rationals with many zeros, so that some inputs are not invertible."
    return [Fraction(rng.choice((-2, -1, 0, 0, 1, 1, 2)), rng.choice((1, 1, 2, 3)))
            for _ in range(n)]


def _seeded(h, seed):
    rng = random.Random(seed)
    d = h.dim
    picks = [[0] * d, list(h.unit), [h.counit.entry(0, i) for i in range(d)]]
    picks += [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    picks += [_coords(rng, d) for _ in range(12)]
    return picks


@pytest.fixture(scope="module")
def hosts():
    return {name: corpus.corpus_build(name)[1] for name in HOSTS}


@pytest.mark.parametrize("name", HOSTS)
def test_element_inverse_matches_oracle(hosts, name):
    h = hosts[name]
    d = _degenerate_datum(trivial_hopf(), h)
    r = Vector([1] + [0] * (h.dim * h.dim - 1))
    kinds = set()
    for coords in _seeded(h, 101):
        v = Vector(coords)
        want = oracle_element_inverse(h, v)
        inv = conv_inverse(HomCA(d, Matrix.from_flat(v, 1)))
        assert (None if inv is None else inv.map.col(0)) == want
        kinds.add(want is None)
        item = verify_ribbon_element(h, r, Element(h, v)).item("R5_conv_invertible")
        assert item.to_dict() == oracle_item("R5_conv_invertible", want, v).to_dict()
    assert kinds == {True, False}


@pytest.mark.parametrize("name", HOSTS)
def test_functional_inverse_matches_oracle(hosts, name):
    c = hosts[name]
    d = _degenerate_datum(c, trivial_hopf())
    form = BilinearForm(c, c, Matrix([[1] * (c.dim * c.dim)]))
    kinds = set()
    for coords in _seeded(c, 202):
        row = Matrix([coords])
        want = oracle_conv_functional_inverse(c, row)
        got = conv_inverse(HomCA(d, row))
        assert (got is None) == (want is None)
        if want is not None:
            assert got.map == want
        kinds.add(want is None)
        item = verify_coribbon_form(c, form, Functional(c, row)).item("R5_conv_invertible")
        assert item.to_dict() == oracle_item("R5_conv_invertible", want, row.row(0)).to_dict()
    assert kinds == {True, False}
