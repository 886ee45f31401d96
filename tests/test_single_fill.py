"""Each structure map has one kernel op, so each column is filled once.

A Hopf algebra is its own algebra and coalgebra, a monoidal datum its own
entwining map and a module morphism checks its squares with the op it
keeps, so no Matrix backs two TensorOps on one run.  The test records
every column a Matrix-backed TensorOp fills, as (the Matrix, the flat
column index), so two ops over one Matrix on different legs show up too,
and asserts that none is filled twice while the Sweedler algebra is built
and a Hopf suite, the ``check datum`` suite, morphism construction, the
duality checks, pivotal and twist morphisms, the module transport back
from the smash product and braiding naturality run.  A second guard
asserts that the smash constructions, the module transport, the duality
check and nat_to_hom never make a Matrix of a map they use only as an op.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from entwine import corpus
from entwine import emodcat
from entwine.emodcat import (
    ModuleMorphism,
    check_braiding_naturality,
    check_duality,
    check_entwined_module,
    left_dual,
    right_dual,
    std_module_AC,
    std_module_CA,
)
from entwine.entwining import check_antipode_compat, check_entwining, check_monoidal_datum
from entwine.exactla import Matrix, TensorOp, run_batch, sv_apply
from entwine.hopfcore import check_hopf
from entwine.pivribbon import nat_to_hom, pivotal_structure, twist
from entwine.smash import (
    module_transport_from_smash,
    module_transport_to_smash,
    smash_coproduct,
    smash_product,
)

from oracles import corpus_dqgs


@pytest.fixture
def fills(monkeypatch):
    """Counter of (id of the Matrix, flat column index) over every
    matrix-backed fill from here on.  The matrices are kept alive, so no id
    is reused."""
    seen, kept = Counter(), []
    real = TensorOp.fill

    def recording(self, flats):
        flats = list(flats)
        if self._steps is None:
            kept.append(self._matrix)
            seen.update((id(self._matrix), f) for f in flats)
        return real(self, flats)

    monkeypatch.setattr(TensorOp, "fill", recording)
    return seen


@pytest.fixture
def h4(fills):
    """A fresh Sweedler algebra, built while fills are recorded: its
    constructor extends the coproduct and antipode through the product op
    that the Hopf algebra then keeps."""
    return corpus.sweedler_h4()


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
    state = run_batch((m.dim,), range(m.dim), ())
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


def test_sweedler_constructor_fills_each_product_column_once(h4, fills):
    assert check_hopf(h4).overall
    assert fills and not _twice(fills)


# the left dual of C (x) A and the right dual of A (x) C: each snake reads
# ev and coev on split legs, and D3/D4 read them on flat ones
@pytest.mark.parametrize("module, dualize", [
    (std_module_CA, left_dual),
    (std_module_AC, right_dual),
], ids=["left_CA", "right_AC"])
def test_duality_check_fills_each_column_once(h4, fills, module, dualize):
    m = module(corpus.yd_datum(h4))
    dd = dualize(m)
    rep = check_duality(m, dd)
    assert rep.overall
    assert [it.axiom_id for it in rep.items] == [
        "D1_snake_object", "D2_snake_dual", "D3_ev_morphism", "D4_coev_morphism"]
    assert fills and not _twice(fills)
    assert {(id(dd.ev), j) for j in range(m.dim * m.dim)} <= set(fills)


def test_pivotal_structure_fills_each_column_once(h4, fills):
    d = corpus.yd_datum(h4)
    g1, _ = corpus.h4_yd_pivotal_pair(d)
    beta = pivotal_structure(d, g1, std_module_CA(d))
    assert beta.map.nrows == beta.map.ncols == 16
    assert fills and not _twice(fills)


def test_twist_fills_each_column_once(fills):
    q = corpus_dqgs()["long_dqg_kz2"]
    m = std_module_CA(q.datum)
    theta = twist(q, corpus.long_kz2_ribbon(), m)
    assert theta.map.nrows == theta.map.ncols == m.dim
    assert fills and not _twice(fills)


def test_module_transport_from_smash_fills_each_column_once(h4, fills):
    d = corpus.yd_datum(h4)
    m = std_module_CA(d)
    back = module_transport_from_smash(d, m.dim, module_transport_to_smash(m))
    assert check_entwined_module(back).overall
    assert fills and not _twice(fills)


@pytest.fixture
def rewraps(monkeypatch):
    """The functions that built a TensorOp over a Matrix that a step-built
    op made in this run.  The op an object keeps over a map it stores (a
    Hopf algebra's mul_op over its mult, a datum's phi_op over its phi) is
    that map's one op and is not recorded."""
    made, wrapped = {}, []
    real_matrix, real_init = TensorOp.matrix, TensorOp.__init__

    def matrix(self):
        fresh = self._matrix is None
        m = real_matrix.fget(self)
        if fresh:
            made[id(m)] = m
        return m

    def init(self, matrix, *args, **kwargs):
        if matrix is not None and id(matrix) in made:
            caller = sys._getframe(1)
            owner = caller.f_locals.get("self")
            if not any(v is matrix for v in getattr(owner, "__dict__", {}).values()):
                wrapped.append(caller.f_code.co_name)
        real_init(self, matrix, *args, **kwargs)

    monkeypatch.setattr(TensorOp, "matrix", property(matrix))
    monkeypatch.setattr(TensorOp, "__init__", init)
    return wrapped


# check_braiding_naturality is left out: it wraps the Matrix that
# emodcat.braiding() makes, and it must keep calling braiding(), whose time
# the benchmark's modules-duality workload reads as emodcat.braiding.self_s.
@pytest.mark.parametrize("build", [
    lambda h4: smash_product(corpus.yd_datum(h4)),
    lambda h4: smash_coproduct(corpus.yd_datum(h4)),
    corpus.drinfeld_double,
], ids=["smash_product", "smash_coproduct", "drinfeld_double"])
def test_smash_constructions_wrap_no_materialised_view(build, rewraps):
    h = build(corpus.sweedler_h4())
    assert check_hopf(h).overall
    assert rewraps == []


def test_module_transport_from_smash_wraps_no_materialised_view(request):
    d = corpus.yd_datum(corpus.sweedler_h4())
    m = std_module_CA(d)
    action = module_transport_to_smash(m)
    # recorded from here on: the smash action above is the input, not a view
    rewraps = request.getfixturevalue("rewraps")
    back = module_transport_from_smash(d, m.dim, action)
    assert check_entwined_module(back).overall
    assert back.same_structure(m)
    assert rewraps == []


def test_nat_to_hom_reads_a_morphism_op(request):
    d = corpus.yd_datum(corpus.sweedler_h4())
    g1, _ = corpus.h4_yd_pivotal_pair(d)
    beta = pivotal_structure(d, g1, std_module_AC(d))
    # recorded from here on: beta keeps a step-built op and no Matrix yet
    rewraps = request.getfixturevalue("rewraps")
    assert nat_to_hom(d, beta, "pivotal").map == g1.map
    assert rewraps == []


def test_duality_check_wraps_no_materialised_view(rewraps):
    # ev and coev are written as matrices, not made from a Cap or Cup op
    m = std_module_CA(corpus.yd_datum(corpus.sweedler_h4()))
    assert check_duality(m, left_dual(m)).overall
    assert rewraps == []
