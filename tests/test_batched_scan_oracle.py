"""The batched scans and builders against the per-tuple ones they replaced.

compare_item, pipeline_matrix and hom_operator run their steps once per
batch of basis tuples, the tuple index riding along as a trailing batch leg
(exactla.run_batch).  The per-tuple scan loop, pipeline fold, column builder
and operator builder they replaced are kept below verbatim as oracles.  The
tests run every checker and builder both ways, through the batched code and
with the oracles patched in, on the corpus and on seeded one-entry mutants,
and compare report dicts and matrices.  Synthetic scans put the first
failing tuple at index 0, at each end and start of a batch (the batches
hold 1, 2, 4, ... up to BATCH_CAP tuples), and at the last tuple, and pair
it with a later failure in the same batch, so a witness taken from another
batch leg, or sides not restricted to the witness's leg, show up.
"""

from __future__ import annotations

import itertools
import random
import sys
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine import corpus
from entwine import entwining as ent
from entwine.emodcat import (
    action_endomorphisms,
    braiding,
    check_braiding_naturality,
    check_duality,
    check_entwined_module,
    double_right_dual,
    left_dual,
    right_dual,
    std_module_AC,
    std_module_CA,
    tensor_modules,
)
from entwine.exactla import (
    BATCH_CAP,
    Matrix,
    SlotLeg,
    TensorOp,
    _as_rat,
    flatten_index,
    hom_operator,
    pipeline_matrix,
    state_to_vector,
    unflatten_index,
)
from entwine.hopfcore import AlgebraData, CoalgebraData, HopfAlgebraData, check_hopf, dual_hopf
from entwine.pivribbon import (
    _act_by_g_matrix,
    _linear_system,
    find_morphisms,
    nat_to_hom,
    verify_pivotal,
    verify_ribbon,
)
from entwine.report import AxiomItem, Witness, _ap, compare_item
from entwine.smash import (
    check_distributive_law,
    entwining_to_codistlaw,
    entwining_to_distlaw,
    module_transport_from_smash,
    module_transport_to_smash,
    smash_coproduct,
    smash_identity_checks,
)


# -- oracles: the per-tuple code, verbatim ------------------------------------


def oracle_compare_item(axiom_id, in_dims, out_dims, lhs_fn, rhs_fn) -> AxiomItem:
    """Evaluate two sides on every basis tuple and report the first mismatch.

    ``lhs_fn``/``rhs_fn`` map a basis index tuple to a sparse State over
    ``out_dims``.  Scan order is lexicographic in the tuple.
    """
    in_dims = tuple(in_dims)
    out_dims = tuple(out_dims)
    for idx in itertools.product(*(range(d) for d in in_dims)):
        lhs = lhs_fn(idx)
        rhs = rhs_fn(idx)
        if lhs != rhs:
            return AxiomItem(
                axiom_id,
                False,
                Witness(idx, state_to_vector(lhs, out_dims), state_to_vector(rhs, out_dims)),
            )
    return AxiomItem(axiom_id, True)


def oracle_pipeline(idx, *steps):
    """Run a basis tuple through a sequence of kernel steps.

    Each step is a callable State -> State; this is just foldl with a
    basis seed, kept tiny so axiom transcriptions stay readable.
    """
    state = {tuple(idx): 1}
    for step in steps:
        state = step(state)
    return state


def oracle_matrix_from_columns_fn(in_dims, out_dims, fn) -> Matrix:
    """Assemble the matrix of a map given column-wise on basis tuples.

    ``fn`` maps an input basis tuple to a State over ``out_dims``.
    """
    in_dims = tuple(in_dims)
    out_dims = tuple(out_dims)
    cols = [
        sorted((flatten_index(out_dims, key), _as_rat(c)) for key, c in fn(idx).items() if c)
        for idx in itertools.product(*(range(d) for d in in_dims))
    ]
    return Matrix(shape=(prod(out_dims), len(cols)), cols=cols)


def oracle_hom_operator(in_dims, out_dims, seed_dims, key_dims, side) -> Matrix:
    """The matrix of f -> side(f), for f: ``in_dims`` -> ``out_dims``.

    ``side(f_op, t)`` evaluates side(f) on the seed tuple ``t`` over
    ``seed_dims``, with ``f_op`` standing for f, through a pipeline seeded
    with ``t + (0,)`` (see SlotLeg); it returns a State keyed by legs over
    ``key_dims`` and the slot leg.  Row ``key * prod(seed_dims) + t`` holds
    the coefficients of that output entry, column ``out * prod(in_dims) +
    in`` those of f's matrix unit ``out <- in``.  One pass per seed tuple,
    with a SlotLeg as f, yields every column at once.  For a side from
    hom(in_dims, out_dims) to itself, seed and key dims are f's own.
    """
    in_dims = tuple(in_dims)
    out_dims = tuple(out_dims)
    seed_dims = tuple(seed_dims)
    key_dims = tuple(key_dims)
    n_seed = prod(seed_dims)
    slot = SlotLeg(in_dims, out_dims)
    cols = [[] for _ in range(prod(out_dims) * prod(in_dims))]
    for j, t in enumerate(itertools.product(*(range(d) for d in seed_dims))):
        for key, x in side(slot, t).items():
            cols[key[-1]].append((flatten_index(key_dims, key[:-1]) * n_seed + j, _as_rat(x)))
    return Matrix(shape=(prod(key_dims) * n_seed, len(cols)), cols=[sorted(c) for c in cols])


# -- the oracles behind today's signatures (sides are step sequences) ---------


def per_tuple_compare_item(axiom_id, in_dims, out_dims, lhs, rhs):
    return oracle_compare_item(axiom_id, in_dims, out_dims,
                               lambda t: oracle_pipeline(t, *lhs),
                               lambda t: oracle_pipeline(t, *rhs))


def per_tuple_pipeline_matrix(in_dims, out_dims, steps):
    return oracle_matrix_from_columns_fn(in_dims, out_dims,
                                         lambda t: oracle_pipeline(t, *steps))


def per_tuple_hom_operator(in_dims, out_dims, seed_dims, key_dims, side):
    return oracle_hom_operator(in_dims, out_dims, seed_dims, key_dims,
                               lambda f, t: oracle_pipeline(t + (0,), *side(f)))


_BATCHED = {compare_item: per_tuple_compare_item,
            pipeline_matrix: per_tuple_pipeline_matrix,
            hom_operator: per_tuple_hom_operator}


@pytest.fixture
def per_tuple(monkeypatch):
    "A function running a thunk with the per-tuple oracles bound in every module."
    def run(thunk):
        with monkeypatch.context() as m:
            for name, mod in list(sys.modules.items()):
                if mod is not None and (name == "entwine" or name.startswith("entwine.")):
                    for attr, value in list(vars(mod).items()):
                        if any(value is f for f in _BATCHED):
                            m.setattr(mod, attr, _BATCHED[value])
            return thunk()
    return run


# -- seeded one-entry mutants --------------------------------------------------


def _bump(m: Matrix, rng: random.Random) -> Matrix:
    "m with one seeded entry raised or lowered by 1."
    rows = [list(r) for r in m.rows()]
    i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
    rows[i][j] += rng.choice((-1, 1))
    return Matrix(rows)


def _hopf_mutants(h, seed):
    "Mutants of h, one per structure map with a bumped entry (the antipode kept)."
    rng = random.Random(seed)
    alg, coa = h.algebra, h.coalgebra
    return [
        HopfAlgebraData(AlgebraData(h.dim, None, _bump(h.mult, rng), h.unit), coa, h.antipode),
        HopfAlgebraData(alg, CoalgebraData(h.dim, None, _bump(h.comult, rng), h.counit),
                        h.antipode),
        HopfAlgebraData(alg, CoalgebraData(h.dim, None, h.comult, _bump(h.counit, rng)),
                        h.antipode),
    ]


def _datum_mutants(d, seed, n):
    rng = random.Random(seed)
    return [ent.MonoidalEntwiningDatum(ent.EntwiningMap(d.c, d.a, _bump(d.phi, rng)))
            for _ in range(n)]


def _items(rep):
    return rep.to_dict()["items"]


# -- checkers and builders, batched against per-tuple -------------------------


def _hopf_reports():
    h4, kz3 = corpus.sweedler_h4(), corpus.cyclic_group_algebra(3)
    hopfs = [h4, kz3, corpus.cyclic_group_algebra(2), dual_hopf(h4, "op"), dual_hopf(h4, "cop")]
    hopfs += _hopf_mutants(h4, 1) + _hopf_mutants(kz3, 2) + _hopf_mutants(h4, 3)
    return [_items(check_hopf(h)) for h in hopfs]


def _datum_reports():
    h4, kz2 = corpus.sweedler_h4(), corpus.cyclic_group_algebra(2)
    datums = [corpus.yd_datum(h4), corpus.yd_datum(kz2), corpus.long_datum(h4, kz2),
              ent.MonoidalEntwiningDatum(corpus.hopf_module_datum(h4))]
    datums += _datum_mutants(corpus.yd_datum(h4), 4, 6) + _datum_mutants(corpus.yd_datum(kz2), 5, 4)
    out = []
    for d in datums:
        out.append(_items(ent.check_entwining(d.base)))
        out.append(_items(ent.check_monoidal_datum(d)))
        out.append(_items(ent.check_antipode_compat(d)))
    return out


def test_hopf_reports_match_per_tuple_scan(per_tuple):
    assert _hopf_reports() == per_tuple(_hopf_reports)


def test_datum_reports_match_per_tuple_scan(per_tuple):
    assert _datum_reports() == per_tuple(_datum_reports)


def _dqg_reports():
    kz2 = corpus.cyclic_group_algebra(2)
    out = []
    for q in corpus.corpus_dqgs().values():
        out.append(_items(ent.check_double_quantum_group(q)))
    q = corpus.yd_dqg(kz2)
    for seed in range(3):
        rmap = _bump(q.rmap, random.Random(10 + seed))
        out.append(_items(ent.check_double_quantum_group(ent.DoubleQuantumGroup(q.datum, rmap))))
    return out


def test_double_structure_reports_match_per_tuple_scan(per_tuple):
    assert _dqg_reports() == per_tuple(_dqg_reports)


def _module_reports():
    h4 = corpus.sweedler_h4()
    q = corpus.yd_dqg(h4)
    d = q.datum
    ca, ac = std_module_CA(d), std_module_AC(d)
    out = [_items(check_entwined_module(m))
           for m in (ca, ac, tensor_modules(ca, ac), double_right_dual(ca))]
    rng = random.Random(6)
    for _ in range(3):
        bad = type(ca)(d, ca.dim, _bump(ca.action, rng), ca.coaction)
        out.append(_items(check_entwined_module(bad)))
        bad = type(ac)(d, ac.dim, ac.action, _bump(ac.coaction, rng))
        out.append(_items(check_entwined_module(bad)))
    out.append(_items(check_duality(ca, left_dual(ca))))
    out.append(_items(check_duality(ac, right_dual(ac))))
    dd = left_dual(ca)
    out.append(_items(check_duality(ca, type(dd)(dd.dual_module, _bump(dd.ev, rng), dd.coev,
                                                 "left"))))
    out.append(_items(check_braiding_naturality(ca, ac, q)))
    return out


def test_module_reports_match_per_tuple_scan(per_tuple):
    assert _module_reports() == per_tuple(_module_reports)


def _finder_summary(res):
    return (res.status, [c.map.map for c in res.solutions], res.notes,
            None if res.family is None else (res.family.particular, res.family.nullspace_basis))


def _morphism_reports():
    out = []
    h4 = corpus.sweedler_h4()
    yd = corpus.yd_datum(h4)
    gs = list(corpus.h4_yd_pivotal_pair(yd))
    rng = random.Random(7)
    gs += [ent.HomCA(yd, _bump(gs[0].map, rng)) for _ in range(3)]
    for g in gs:
        out.append(_items(verify_pivotal(yd, g)))
    dqgs = corpus.corpus_dqgs()
    ribbon = corpus.long_kz2_ribbon()
    out.append(_items(verify_ribbon(dqgs["long_dqg_kz2"], ribbon)))
    out.append(_items(verify_ribbon(dqgs["long_dqg_kz2"],
                                    ent.HomCA(ribbon.datum, _bump(ribbon.map, rng)))))
    out.append(_finder_summary(find_morphisms(yd, "pivotal")))
    out.append(_finder_summary(find_morphisms(dqgs["long_dqg_kz2"], "ribbon")))
    out.append(_items(smash_identity_checks(yd)))
    for mutant in _datum_mutants(corpus.yd_datum(corpus.cyclic_group_algebra(2)), 8, 3):
        out.append(_items(smash_identity_checks(mutant)))
        out.append(_items(check_distributive_law(entwining_to_distlaw(mutant.base))))
        out.append(_items(check_distributive_law(entwining_to_codistlaw(mutant.base))))
    return out


def test_morphism_and_smash_reports_match_per_tuple_scan(per_tuple):
    assert _morphism_reports() == per_tuple(_morphism_reports)


def _built_matrices():
    "Every builder whose columns come from a pipeline, on small corpus inputs."
    out = {}
    h4, kz3 = corpus.sweedler_h4(), corpus.cyclic_group_algebra(3)
    for name, h in (("h4", h4), ("kz3", kz3)):
        q = corpus.yd_dqg(h)
        d = q.datum
        out[f"{name}.phi"] = d.phi
        out[f"{name}.hopfmod_phi"] = corpus.hopf_module_datum(h).phi
        out[f"{name}.rmap"] = q.rmap
        for twist in ("op", "cop"):
            dual = dual_hopf(h, twist)
            out[f"{name}.{twist}"] = (dual.mult, dual.comult)
        for kind, smash in (("double", corpus.drinfeld_double(h)), ("cosmash", smash_coproduct(d))):
            out[f"{name}.{kind}"] = (smash.mult, smash.comult, smash.antipode)
        ca, ac = std_module_CA(d), std_module_AC(d)
        modules = {"ca": ca, "ac": ac, "tensor": tensor_modules(ca, ac),
                   "ddual": double_right_dual(ac), "ldual": left_dual(ca).dual_module,
                   "rdual": right_dual(ac).dual_module}
        for kind, m in modules.items():
            out[f"{name}.{kind}"] = (m.action, m.coaction)
        dd = left_dual(ca)
        out[f"{name}.ev"] = (dd.ev, dd.coev)
        out[f"{name}.braiding"] = braiding(ca, ac, q)
        out[f"{name}.endos"] = [f.map for f in action_endomorphisms(ca)]
        out[f"{name}.transport"] = module_transport_to_smash(ca)
        back = module_transport_from_smash(d, ca.dim, out[f"{name}.transport"])
        out[f"{name}.transport_back"] = (back.action, back.coaction)
        out[f"{name}.conv2_unit"] = ent.conv2_unit(d)
        nc, na = d.c_dim, d.a_dim
        out[f"{name}.conv2_ops"] = [
            ent._operator(d, (nc, nc), (na, na), ent._conv2_side, ent._conv2_op(d, q.rmap), first)
            for first in (True, False)]
        out[f"{name}.conv2_product"] = ent.conv2_product(d, q.rmap, q.rmap)
        g = ent.conv_unit(d)
        out[f"{name}.conv_ops"] = [ent._operator(d, (nc,), (na,), ent._conv_side, g.op, first)
                                   for first in (True, False)]
        out[f"{name}.conv2_inverse"] = ent.conv2_inverse(d, q.rmap)
        out[f"{name}.act_by_g"] = _act_by_g_matrix(ca, g)
        out[f"{name}.nat_to_hom"] = nat_to_hom(d, _act_by_g_matrix(ca, g), "ribbon").map
        for kind in ("pivotal", "ribbon"):
            out[f"{name}.{kind}_system"] = _linear_system(d, kind)
    return out


def test_built_matrices_match_per_tuple_builder(per_tuple):
    assert _built_matrices() == per_tuple(_built_matrices)


# -- synthetic scans with the first failure at chosen tuples ------------------


def _ops(dims, n_out, failing, seed):
    "Two dense ops on dims that differ exactly in the columns at the flat indices failing."
    rng = random.Random(seed)
    n_in = prod(dims)
    rows = [[rng.randint(-3, 3) for _ in range(n_in)] for _ in range(n_out)]
    other = [list(r) for r in rows]
    for k, flat in enumerate(failing):
        other[k % n_out][flat] += k + 1
    return (TensorOp(Matrix(rows), dims, (n_out,)), TensorOp(Matrix(other), dims, (n_out,)))


def _batch_starts(n):
    "Flat index of the first tuple of each batch compare_item takes over n tuples."
    starts, size, at = [], 1, 0
    while at < n:
        starts.append(at)
        at += size
        size = min(2 * size, BATCH_CAP)
    return starts


def test_batch_starts_grow_to_the_cap():
    assert _batch_starts(256) == [0, 1, 3, 7, 15, 31, 63, 127, 191, 255]


# index 0, then each batch's first tuple and the last tuple of the batch
# before it, up to the last tuple of a 256-tuple scan
_FIRST_FAILING = sorted({0, 255} | {i for s in _batch_starts(256)[1:] for i in (s - 1, s)})


@pytest.mark.parametrize("flat", _FIRST_FAILING)
def test_first_failure_at_and_around_batch_boundaries(flat):
    dims = (16, 16)
    # a second, later failure in the same batch or the next must not win
    later = min(flat + 1 + (flat % 3), 255)
    lhs, rhs = _ops(dims, 3, [flat, later] if later != flat else [flat], seed=flat)
    got = compare_item("X", dims, (3,), (_ap(0, lhs),), (_ap(0, rhs),))
    assert got == per_tuple_compare_item("X", dims, (3,), (_ap(0, lhs),), (_ap(0, rhs),))
    assert got.witness.basis == unflatten_index(dims, flat)


@pytest.mark.parametrize("dims", [(10, 10), (7, 3, 5), (2,), (64,), (65,)])
def test_failure_at_the_last_tuple(dims):
    last = prod(dims) - 1
    lhs, rhs = _ops(dims, 2, [last], seed=last)
    got = compare_item("X", dims, (2,), (_ap(0, lhs),), (_ap(0, rhs),))
    assert got == per_tuple_compare_item("X", dims, (2,), (_ap(0, lhs),), (_ap(0, rhs),))
    assert got.witness.basis == unflatten_index(dims, last)


def test_every_tuple_failing_names_the_first():
    dims = (4, 4, 4)
    lhs, rhs = _ops(dims, 2, range(64), seed=3)
    got = compare_item("X", dims, (2,), (_ap(0, lhs),), (_ap(0, rhs),))
    assert got == per_tuple_compare_item("X", dims, (2,), (_ap(0, lhs),), (_ap(0, rhs),))
    assert got.witness.basis == (0, 0, 0)


def test_empty_scan_dims_is_one_tuple():
    # H08/H10 scan the single empty tuple
    lhs, rhs = _ops((), 3, [0], seed=5)
    got = compare_item("X", (), (3,), (_ap(0, lhs),), (_ap(0, rhs),))
    assert got == per_tuple_compare_item("X", (), (3,), (_ap(0, lhs),), (_ap(0, rhs),))
    assert got.witness.basis == ()
    same = compare_item("X", (), (3,), (_ap(0, lhs),), (_ap(0, lhs),))
    assert same == AxiomItem("X", True)


def test_witness_sides_are_the_failing_tuples_alone():
    # every tuple of the batch has nonzero sides; the witness keeps only its own
    dims = (8, 8)
    lhs, rhs = _ops(dims, 4, [20, 22, 25], seed=9)
    got = compare_item("X", dims, (4,), (_ap(0, lhs),), (_ap(0, rhs),))
    assert got.witness.basis == (2, 4)
    assert got.witness.lhs == lhs.matrix.col(20)
    assert got.witness.rhs == rhs.matrix.col(20)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=0, max_size=3), st.integers(0, 10**6),
       st.lists(st.integers(0, 10**4), max_size=4))
def test_random_scans_match_per_tuple_scan(dims, seed, failing):
    dims = tuple(dims)
    n = prod(dims)
    lhs, rhs = _ops(dims, 2, sorted({f % n for f in failing}), seed)
    steps_l, steps_r = (_ap(0, lhs),), (_ap(0, rhs),)
    assert (compare_item("X", dims, (2,), steps_l, steps_r)
            == per_tuple_compare_item("X", dims, (2,), steps_l, steps_r))
    assert pipeline_matrix(dims, (2,), steps_r) == per_tuple_pipeline_matrix(dims, (2,), steps_r)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_hom_operator_over_several_batches(n):
    # f -> a.f and f -> f.b on hom(n, 2), seeded on n tuples: one batch or several
    rng = random.Random(n)
    a = TensorOp(Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]), (2,), (2,))
    b = TensorOp(Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]), (n,), (n,))
    for side in (lambda f: (_ap(0, f), _ap(0, a)), lambda f: (_ap(0, b), _ap(0, f))):
        assert (hom_operator((n,), (2,), (n,), (2,), side)
                == per_tuple_hom_operator((n,), (2,), (n,), (2,), side))
