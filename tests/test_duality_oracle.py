"""D3/D4 of check_duality against the tensor modules they once went through.

check_duality runs the action and coaction of ev's source and coev's target,
tensor products of a module and its dual, as kernel steps over the factor
modules' ops inside its scans.  The reference (oracles.duality_morphism_items)
builds those tensor modules and checks ev and coev with ModuleMorphism's two
squares as they were written before check_duality came to share them.  Both
must give the same verdict and the same witness, on the left and right duals
of the standard modules over three datums, unchanged and under one-entry
changes of ev, of coev and of the dual module's action and coaction.

A change of coev leaves D3 passing, and so scanning all 1024 action and 256
coaction tuples of the 256-dimensional product, about 14 ms for both sides.
So each case takes a seeded sample of the 256 entries of each of ev and
coev, fewer of coev's, both signs on each, and always one of the pairing's
nonzero entries.
"""

from __future__ import annotations

import random

import pytest

from entwine import corpus
from entwine.emodcat import (
    DualityData,
    EntwinedModule,
    check_duality,
    left_dual,
    right_dual,
    std_module_AC,
    std_module_CA,
)
from entwine.exactla import Matrix

from oracles import duality_morphism_items

H4 = corpus.sweedler_h4()
DATUMS = {"yd_h4": corpus.yd_datum(H4), "long_h4": corpus.long_datum(H4, H4),
          "yd_kz4": corpus.yd_datum(corpus.cyclic_group_algebra(4))}
MODULES = {"CA": std_module_CA, "AC": std_module_AC}
SIDES = {"left": left_dual, "right": right_dual}
CASES = [(dn, mn, side) for dn in DATUMS for mn in MODULES for side in SIDES]

# seeded entries of ev and of coev changed per case, each by +1 and by -1
EV_ENTRIES, COEV_ENTRIES = 2, 1
# entries of the dual module's action and of its coaction changed per case
DUAL_ENTRIES = 1


def _changed(mat: Matrix, i: int, j: int, k: int) -> Matrix:
    "mat with entry (i, j) moved by k."
    rows = [list(r) for r in mat.rows()]
    rows[i][j] += k
    return Matrix(rows)


def _pairs(mat: Matrix, rng: random.Random, n: int):
    "n seeded entries of mat as (row, column) pairs."
    return [divmod(f, mat.ncols) for f in rng.sample(range(mat.nrows * mat.ncols), n)]


def _duality_data(datum_name, module_name, side):
    m = MODULES[module_name](DATUMS[datum_name])
    return m, SIDES[side](m)


def _changes(m, dd, rng):
    "The DualityData of every change a case sweeps, each with a label."
    dim, dual = m.dim, dd.dual_module
    nonzero = rng.randrange(dim) * (dim + 1)
    ev_entries = [(0, nonzero)] + _pairs(dd.ev, rng, EV_ENTRIES)
    coev_entries = [(nonzero, 0)] + _pairs(dd.coev, rng, COEV_ENTRIES)
    for k in (1, -1):
        for i, j in ev_entries:
            yield f"ev[{i},{j}]{k:+d}", DualityData(dual, _changed(dd.ev, i, j, k), dd.coev,
                                                    dd.side)
        for i, j in coev_entries:
            yield f"coev[{i},{j}]{k:+d}", DualityData(dual, dd.ev, _changed(dd.coev, i, j, k),
                                                      dd.side)
    d, action, coaction = m.datum, dual.action, dual.coaction
    for i, j in _pairs(action, rng, DUAL_ENTRIES):
        changed = EntwinedModule(d, dim, _changed(action, i, j, 1), coaction)
        yield f"action[{i},{j}]+1", DualityData(changed, dd.ev, dd.coev, dd.side)
    for i, j in _pairs(coaction, rng, DUAL_ENTRIES):
        changed = EntwinedModule(d, dim, action, _changed(coaction, i, j, 1))
        yield f"coaction[{i},{j}]+1", DualityData(changed, dd.ev, dd.coev, dd.side)


def _morphism_items(m, dd):
    rep = check_duality(m, dd)
    return [rep.item("D3_ev_morphism"), rep.item("D4_coev_morphism")]


@pytest.mark.parametrize("datum_name, module_name, side", CASES)
def test_duality_morphism_items_match_the_tensor_module_reference(datum_name, module_name,
                                                                  side):
    m, dd = _duality_data(datum_name, module_name, side)
    ours = _morphism_items(m, dd)
    assert ours == duality_morphism_items(m, dd)
    assert all(it.passed for it in ours)
    rng = random.Random(f"{datum_name}/{module_name}/{side}")
    failed = set()
    for label, changed in _changes(m, dd, rng):
        ours, ref = _morphism_items(m, changed), duality_morphism_items(m, changed)
        assert ours == ref, label
        assert [it.to_dict() for it in ours] == [it.to_dict() for it in ref], label
        failed.update((it.axiom_id, len(it.witness.basis)) for it in ours if not it.passed)
    # each of D3 and D4 failed at A_linear (a witness over (source, algebra
    # legs)) and at C_colinear (over the source leg alone)
    assert failed == {(axiom_id, n) for axiom_id in ("D3_ev_morphism", "D4_coev_morphism")
                      for n in (1, 2)}
