"""Step-built module ops against the eager matrix build they replaced.

A module's action and coaction are TensorOps built from kernel steps: they
fill only the columns a scan reads, on legs reshaped from the steps' own
(a tensor module's action runs on (m, n, a) legs and is an op on (m*n, a)
legs), and make their Matrix only when asked.  The eager builder they
replaced, pipeline_matrix with the column assembler it called, is kept
below as the oracle, verbatim but for reading the flat-keyed batched state
back by leg tuples.  Every module op, fresh or partly filled, must give
the oracle's columns through its column table, through sv_apply on a
state spanning several batches and through ``matrix``, on the corpus
datums and on seeded one-entry mutants of their entwining maps.
"""

from __future__ import annotations

import itertools
import random
from math import prod

import pytest

from entwine import corpus
from entwine import emodcat
from entwine import entwining as ent
from entwine.emodcat import (
    check_duality,
    double_right_dual,
    left_dual,
    right_dual,
    std_module_AC,
    std_module_CA,
    tensor_modules,
)
from entwine.exactla import (
    Matrix,
    State,
    TensorOp,
    _as_rat,
    basis_batches,
    flatten_index,
    run_batch,
    sv_apply,
    unflatten_index,
)


# -- the oracle: the eager builder, verbatim -----------------------------------


def oracle_matrix_from_columns_fn(in_dims, out_dims, fn) -> Matrix:
    """Assemble the matrix of a map given column-wise on basis tuples.

    ``fn`` maps an input basis tuple to a State over ``out_dims``; it is
    called once per tuple, in lexicographic order.  A table is passed as
    is; a map computed by kernel steps comes through pipeline_matrix, whose
    ``fn`` hands out the columns of one run of BATCH_CAP tuples (their
    trailing batch leg split off) after another.
    """
    in_dims = tuple(in_dims)
    out_dims = tuple(out_dims)
    cols = [
        sorted((flatten_index(out_dims, key), _as_rat(c)) for key, c in fn(idx).items() if c)
        for idx in itertools.product(*(range(d) for d in in_dims))
    ]
    return Matrix(shape=(prod(out_dims), len(cols)), cols=cols)


def oracle_pipeline_matrix(in_dims, out_dims, steps) -> Matrix:
    """The matrix whose column at a basis tuple t over ``in_dims`` is what
    steps give on t, a State over ``out_dims``.  The steps run BATCH_CAP
    tuples at a time (run_batch); matrix_from_columns_fn takes the columns
    in the lexicographic order the batches come in."""
    def columns():
        for batch in basis_batches(in_dims):
            b = len(batch)
            part = [{} for _ in batch]
            for key, c in run_batch(in_dims, batch, steps).items():
                part[key % b][unflatten_index(out_dims, key // b)] = c
            yield from part

    cols = columns()
    return oracle_matrix_from_columns_fn(in_dims, out_dims, lambda t: next(cols))


def oracle_op(op: TensorOp) -> TensorOp:
    """The Matrix-backed op of op's steps, built eagerly from the steps' own
    input legs (the output legs have the op's flat indices)."""
    return TensorOp(oracle_pipeline_matrix(op._step_in, op.out_dims, op._steps),
                    op.in_dims, op.out_dims)


# -- inputs ----------------------------------------------------------------------


def _bump_phi(d, rng):
    "d with one seeded entry of its entwining map raised or lowered by 1."
    rows = [list(r) for r in d.phi.rows()]
    rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += rng.choice((-1, 1))
    return ent.MonoidalEntwiningDatum(ent.EntwiningMap(d.c, d.a, Matrix(rows)))


def _datums():
    h4 = corpus.sweedler_h4()
    datums = {"yd_h4": corpus.yd_datum(h4), "long_h4": corpus.long_datum(h4, h4),
              "yd_kz4": corpus.yd_datum(corpus.cyclic_group_algebra(4)),
              "yd_kz3": corpus.yd_datum(corpus.cyclic_group_algebra(3))}
    for i, (name, d) in enumerate(list(datums.items())):
        datums[f"{name}_phi_mutant"] = _bump_phi(d, random.Random(20 + i))
    return datums


DATUMS = _datums()

# every pipeline-built module, made fresh on each call
BUILDERS = {
    "CA": lambda d: std_module_CA(d),
    "AC": lambda d: std_module_AC(d),
    "CA_x_AC": lambda d: tensor_modules(std_module_CA(d), std_module_AC(d)),
    "AC_x_CA": lambda d: tensor_modules(std_module_AC(d), std_module_CA(d)),
    "left_dual_CA": lambda d: left_dual(std_module_CA(d)).dual_module,
    "right_dual_AC": lambda d: right_dual(std_module_AC(d)).dual_module,
    "double_right_dual_CA": lambda d: double_right_dual(std_module_CA(d)),
    "double_right_dual_AC": lambda d: double_right_dual(std_module_AC(d)),
}

CASES = [(dn, bn, which) for dn in DATUMS for bn in BUILDERS for which in ("action", "coaction")]


def _fresh_op(datum_name, builder, which) -> TensorOp:
    m = BUILDERS[builder](DATUMS[datum_name])
    op = getattr(m, f"{which}_op")
    assert op._cols == {}, "a new module must hold no column yet"
    return op


def _col(op, f):
    "The column of op at the flat index f, filled first if the table lacks it."
    if f not in op._cols:
        op.fill((f,))
    return op._cols[f]


def _state(dims, flats, coeff):
    "A State holding flats[j] on a trailing leg j, as the batch leg does in a scan."
    state = State({f * len(flats) + j: coeff(j) for j, f in enumerate(flats)})
    state.dims = (*dims, len(flats))
    return state


# -- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("datum_name, builder, which", CASES)
def test_step_built_op_matches_eager_build(datum_name, builder, which):
    op = _fresh_op(datum_name, builder, which)
    oracle = oracle_op(op)
    flats = list(range(op.n_in))
    rng = random.Random(f"{datum_name}/{builder}/{which}")
    # a seeded third of the columns one at a time, in a shuffled order
    some = rng.sample(flats, max(1, len(flats) // 3))
    for f in some:
        assert _col(op, f) == _col(oracle, f), f
    assert set(op._cols) == set(some)
    # then the matrix, built from the filled and the missing columns alike
    assert op.matrix == oracle.matrix
    for f in flats:
        assert _col(op, f) == _col(oracle, f), f
    # a fresh op built whole
    assert _fresh_op(datum_name, builder, which).matrix == oracle.matrix


@pytest.mark.parametrize("datum_name, builder, which", CASES)
def test_step_built_op_under_sv_apply(datum_name, builder, which):
    """sv_apply fills every missing column of its state at once, in the
    state's order: on a tensor module over h4 half the action's basis is 512
    columns, eight batches of BATCH_CAP."""
    op = _fresh_op(datum_name, builder, which)
    oracle = oracle_op(op)
    flats = list(range(op.n_in))
    rng = random.Random(7)
    rng.shuffle(flats)
    # a trailing leg keeps every key apart, as the batch leg does in a scan
    first = _state(op.in_dims, flats[: len(flats) // 2], lambda j: 1 + j % 3)
    assert sv_apply(first, 0, op) == sv_apply(first, 0, oracle)
    assert len(op._cols) == len(first)
    whole = _state(op.in_dims, flats, lambda j: 1)
    assert sv_apply(whole, 0, op) == sv_apply(whole, 0, oracle)
    assert len(op._cols) == len(flats)
    assert op.matrix == oracle.matrix


def test_duality_check_fills_no_tensor_product_column(monkeypatch):
    """D3 and D4 check that ev: M* (x) M -> 1 and coev: 1 -> M (x) M* are
    morphisms.  Their scans run the action and coaction of the 256-dimensional
    tensor products as steps over the factor modules' ops: no tensor module is
    built, and the only op with a 256-dimensional input that fills a column
    is ev's own, on the flat leg that D3 and the snakes take, one column per
    entry of ev: the snakes build no view of ev on split legs.  The dual
    module's ops are read whole, 64 action and 16 coaction columns, once
    each."""
    d = DATUMS["yd_h4"]
    m = std_module_CA(d)
    dd = left_dual(m)
    dim, dual = m.dim, dd.dual_module
    built, fills = [], []
    real_fill = TensorOp.fill

    def recording_fill(op, flats):
        flats = list(flats)
        fills.append((op, flats))
        real_fill(op, flats)

    monkeypatch.setattr(emodcat, "tensor_modules", lambda *args: built.append(args))
    monkeypatch.setattr(TensorOp, "fill", recording_fill)
    assert check_duality(m, dd).overall
    assert built == []
    filled = {}
    for op, flats in fills:
        filled.setdefault(op, []).extend(flats)
    wide = [(op.in_dims, op.out_dims, sorted(flats)) for op, flats in filled.items()
            if op.n_in >= dim * dim]
    every = list(range(dim * dim))
    assert wide == [((dim * dim,), (1,), every)]
    for op in (dual.action_op, dual.coaction_op):
        assert sorted(filled[op]) == list(range(op.n_in))
    assert (dual.action_op.n_in, dual.coaction_op.n_in) == (64, 16)
