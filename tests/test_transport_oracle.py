"""The R-matrix and coribbon-form transport are kernel pipelines.

The oracles below are the index loops these pipelines replaced, kept
verbatim but for the coribbon form's index: the old loop paired the first
form factor's dual leg with R1, as the pipeline did, and that form is not
coquasitriangular on yd_dqg_h4; both now pair it with R2.  The transported
R-matrix and coquasitriangular form must be equal on every corpus double
structure, on yd_dqg(kz3), and on seeded random braiding maps over datums
whose two sides differ in dimension.
"""

import random

import pytest

from entwine import corpus
from entwine.entwining import DoubleQuantumGroup, HomCA
from entwine.exactla import ZERO, Matrix, Vector
from entwine.report import AxiomReport, _ap
from entwine.smash import transport_coribbon, transport_rmatrix

from oracles import corpus_dqgs, pipeline


def _col(op, legs):
    "The column of op at the basis tuple legs: (output legs, coefficient) pairs."
    return pipeline(op.in_dims, legs, _ap(0, op)).items()


# -- oracles (the index loops of transport_rmatrix and transport_coribbon) ------


def oracle_transport_rmatrix(q: DoubleQuantumGroup) -> Vector:
    d = q.datum
    nc, na = d.c_dim, d.a_dim
    dim = nc * na
    coords = [ZERO] * (dim * dim)
    for j in range(nc):
        for i in range(nc):
            for (u, v), x in _col(q.rmap_op, (j, i)):
                # first smash leg (i, u) carries R1, second (j, v) carries R2
                coords[(i * na + u) * dim + (j * na + v)] += x
    return Vector(coords)


def oracle_coribbon_form_row(q: DoubleQuantumGroup) -> Matrix:
    d = q.datum
    nc, na = d.c_dim, d.a_dim
    dim = na * nc
    row = [ZERO] * (dim * dim)
    for j in range(nc):
        for i in range(nc):
            for (u, v), x in _col(q.rmap_op, (j, i)):
                # zeta((e^v (x) c_j) (x) (e^u (x) c_i)) = (e^u (x) e^v)(R(c_j (x) c_i))
                row[(v * nc + j) * dim + (u * nc + i)] = x
    return Matrix([row])


# -- inputs ---------------------------------------------------------------------


def _random_rmap(datum, seed: int) -> DoubleQuantumGroup:
    rng = random.Random(seed)
    na2, nc2 = datum.a_dim ** 2, datum.c_dim ** 2
    rows = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(nc2)] for _ in range(na2)]
    return DoubleQuantumGroup(datum, Matrix(rows))


def _dqgs():
    h4, kz2, kz3 = corpus.sweedler_h4(), corpus.cyclic_group_algebra(2), corpus.cyclic_group_algebra(3)
    out = dict(corpus_dqgs())
    out["yd_dqg_kz3"] = corpus.yd_dqg(kz3)
    # algebra side h4 (dim 4), coalgebra side kz2 (dim 2), and the reverse
    out["random_long_h4_kz2"] = _random_rmap(corpus.long_datum(h4, kz2), 11)
    out["random_long_kz3_h4"] = _random_rmap(corpus.long_datum(kz3, h4), 12)
    return out


DQGS = _dqgs()


@pytest.mark.parametrize("name", sorted(DQGS))
def test_transport_rmatrix_matches_oracle(name):
    q = DQGS[name]
    got = transport_rmatrix(q)
    assert got == oracle_transport_rmatrix(q)
    assert not got.is_zero()


def test_transport_coribbon_form_matches_oracle():
    q = corpus_dqgs()["long_dqg_kz2"]
    form, _theta = transport_coribbon(q, corpus.long_kz2_ribbon())
    assert form.coords == oracle_coribbon_form_row(q)
    assert not form.coords.is_zero()


@pytest.mark.parametrize("name", sorted(DQGS))
def test_coribbon_form_matches_oracle_without_a_ribbon(name, monkeypatch):
    # the form depends on R alone; with the ribbon check passed through, it
    # is compared on braiding maps that have no ribbon morphism, including
    # ones that are not symmetric under swapping their two inputs
    import entwine.pivribbon

    monkeypatch.setattr(entwine.pivribbon, "verify_ribbon", lambda q, g: AxiomReport([]))
    q = DQGS[name]
    g = HomCA(q.datum, Matrix.zero(q.datum.a_dim, q.datum.c_dim))
    form, _theta = transport_coribbon(q, g)
    assert form.coords == oracle_coribbon_form_row(q)
