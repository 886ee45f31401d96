"""Each structure map has one kernel op, so each column is filled once.

A Hopf algebra is its own algebra and coalgebra, a monoidal datum its own
entwining map and a module morphism checks its squares with the op it
keeps, so no Matrix backs two TensorOps on one run.  The test records
every column a Matrix-backed TensorOp fills, as (the Matrix, the input
legs), and asserts that none is filled twice while a Hopf suite, the
``check datum`` suite, morphism construction and braiding naturality run.
"""

from __future__ import annotations

from collections import Counter

import pytest

from entwine import corpus
from entwine import emodcat
from entwine.emodcat import ModuleMorphism, check_braiding_naturality, std_module_CA
from entwine.entwining import check_antipode_compat, check_entwining, check_monoidal_datum
from entwine.exactla import Matrix, TensorOp, sv_apply
from entwine.hopfcore import check_hopf


@pytest.fixture
def h4():
    """A fresh Sweedler algebra, built before recording starts: its
    constructor reads a few product columns through a TensorOp of its own
    before the Hopf algebra, and its mul_op, exist."""
    return corpus.sweedler_h4()


@pytest.fixture
def fills(monkeypatch, h4):
    """Counter of (id of the Matrix, legs) over every matrix-backed fill
    from here on.  The matrices are kept alive, so no id is reused."""
    seen, kept = Counter(), []
    real = TensorOp._fill_from_matrix

    def recording(self, legs):
        legs = list(legs)
        kept.append(self._matrix)
        seen.update((id(self._matrix), t) for t in legs)
        return real(self, legs)

    monkeypatch.setattr(TensorOp, "_fill_from_matrix", recording)
    return seen


def _twice(seen: Counter) -> list:
    return [key for key, n in seen.items() if n > 1]


def test_hopf_suite_on_the_double_fills_each_column_once(h4, fills):
    assert check_hopf(corpus.drinfeld_double(h4)).overall
    assert fills and not _twice(fills)


def test_datum_suite_fills_each_column_once(h4, fills):
    d = corpus.yd_datum(h4)
    for check in (check_entwining, check_monoidal_datum, check_antipode_compat):
        assert check(d).overall
    assert fills and not _twice(fills)


def test_morphism_checks_its_squares_with_the_op_it_keeps(h4, fills):
    m = std_module_CA(corpus.yd_datum(h4))
    f = ModuleMorphism(m, m, Matrix.identity(m.dim))
    # every column of f.op, read after construction, was filled by it
    state = {(x, 0): 1 for x in range(m.dim)}
    assert sv_apply(state, 0, f.op) == state
    assert fills and not _twice(fills)


def test_braiding_naturality_on_one_module_fills_each_column_once(h4, fills, monkeypatch):
    calls = []
    real = emodcat.action_endomorphisms

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(emodcat, "action_endomorphisms", counting)
    m = std_module_CA(corpus.yd_datum(h4))
    rep = check_braiding_naturality(m, m, corpus.yd_dqg(h4))
    assert rep.overall
    assert [it.axiom_id for it in rep.items] == ["N1_left_slot", "N2_right_slot"]
    assert calls == [m]
    assert fills and not _twice(fills)


def test_supplied_morphism_joins_only_its_slot_when_m_is_n(h4, monkeypatch):
    """With m is n the two slots share one family build but not one list:
    a supplied endomorphism of m lands in N1 only, as before."""
    d = corpus.yd_datum(h4)
    m = std_module_CA(d)
    family = emodcat.action_endomorphisms(m)
    monkeypatch.setattr(emodcat, "action_endomorphisms", lambda x: list(family))
    extra = ModuleMorphism(m, m, Matrix.identity(m.dim))
    scans = Counter()
    real = emodcat.compare_item

    def counting(axiom_id, *args):
        scans[axiom_id] += 1
        return real(axiom_id, *args)

    monkeypatch.setattr(emodcat, "compare_item", counting)
    assert check_braiding_naturality(m, m, corpus.yd_dqg(h4), [extra]).overall
    assert scans == {"N1_left_slot": len(family) + 1, "N2_right_slot": len(family)}
