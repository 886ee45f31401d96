"""The flat-keyed kernel against the tuple-keyed kernel it replaced.

Kernel states were dicts keyed by index tuples, one entry per leg; they are
now States keyed by the flat index of the legs over ``state.dims``.  The
tuple-keyed sv_apply and sv_permute, and the column tables of Cup, Cap and
SlotLeg they read, are kept below verbatim as oracles.  Each case runs
one random state through one op or permutation both ways, on seeded random
dims, positions and perms, with int, Fraction and finder-polynomial
coefficients and with terms that cancel, and compares the results leg
tuple by leg tuple.  An op whose input dims differ from the legs it is
applied to must raise, because flat indices would otherwise land on wrong
terms without an error.

_transposed runs each step kind backwards: over the basis vectors of the
legs a step ends on it gives the transpose of the step's map, through a
step of the same kind (_step_parts reads the kind).

run_batch's cases compare a batch's first step with its seed run through
the tuple-keyed kernel, for ops at leg 0, where sv_apply runs a loop of its
own, and after it, ops from no legs, columns that hold an explicit zero,
and a first permutation or reshape.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod
from operator import itemgetter

import pytest

from entwine.exactla import (
    Cap,
    Cup,
    KernelOp,
    Matrix,
    SlotLeg,
    State,
    TensorOp,
    Vector,
    _ap,
    _permutation,
    _pm,
    _rs,
    _step_parts,
    _transposed,
    flatten_index,
    kron,
    pipeline_matrix,
    run_batch,
    sv_apply,
    sv_permute,
    unflatten_index,
)
from entwine.hopfcore import element_op
from entwine.pivribbon import _Poly
from entwine import report
from entwine.report import _slot


# -- oracles: the tuple-keyed kernel, verbatim ----------------------------------


def oracle_sv_apply(state, pos: int, op):
    "Apply op to the legs [pos, pos + op.arity_in) of every key."
    out = {}
    get, table, end = out.get, op._cols, pos + op.arity_in
    for key, c in state.items():
        legs = key[pos:end]
        col = table.get(legs)
        if col is None:
            # the first miss fills every column the state still lacks
            op.fill(dict.fromkeys(k[pos:end] for k in state if k[pos:end] not in table))
            col = table[legs]
        head, tail = key[:pos], key[end:]
        for out_legs, x in col:
            nk = head + out_legs + tail
            nv = get(nk, 0) + c * x
            if nv:
                out[nk] = nv
            else:
                out.pop(nk, None)
    return out


def oracle_sv_permute(state, perm: tuple[int, ...]):
    "Reorder legs: new_key[i] = old_key[perm[i]]; legs past len(perm) stay last."
    n = len(next(iter(state), ()))
    if n < 2:
        return dict(state)
    pick = itemgetter(*perm, *range(len(perm), n))
    return {pick(key): c for key, c in state.items()}


def _basis(dims):
    return itertools.product(*(range(d) for d in dims))


class OracleOp:
    "A tuple-keyed column table: input legs -> [(output legs, coefficient)]."

    def __init__(self, arity_in: int, arity_out: int, cols: dict):
        self.arity_in, self.arity_out, self._cols = arity_in, arity_out, cols

    def fill(self, legs) -> None:
        "Add the columns at legs to the table (nothing is missing here)."


def oracle_tensor_op(matrix: Matrix, in_dims, out_dims) -> OracleOp:
    "The columns of a matrix on leg tuples, integral entries as ints."
    return OracleOp(len(in_dims), len(out_dims), {
        t: [(unflatten_index(out_dims, i), x.numerator if x.denominator == 1 else x)
            for i, x in matrix.sparse_cols()[flatten_index(in_dims, t)]]
        for t in _basis(in_dims)})


def oracle_slot_leg(in_dims, out_dims) -> OracleOp:
    outs = list(_basis(out_dims))
    n_in = prod(in_dims)
    return OracleOp(len(in_dims) + 1, len(out_dims) + 1, {
        legs + (0,): [(out + (i * n_in + j,), 1) for i, out in enumerate(outs)]
        for j, legs in enumerate(_basis(in_dims))
    })


def oracle_cup(n: int) -> OracleOp:
    return OracleOp(0, 2, {(): [((x, x), 1) for x in range(n)]})


class OracleCap(OracleOp):
    _KEEP = [((), 1)]

    def __init__(self):
        super().__init__(2, 0, {})

    def fill(self, legs) -> None:
        for t in legs:
            self._cols[t] = self._KEEP if t[0] == t[1] else []


# -- random inputs -----------------------------------------------------------------


def _coeff(rng: random.Random, kind: str):
    "A nonzero coefficient: an int, a Fraction or a degree-1 finder polynomial."
    x = rng.choice((-2, -1, 1, 2))
    if kind == "int":
        return x
    if kind == "fraction":
        return Fraction(x, rng.choice((1, 2, 3)))
    p = _Poly()
    p.add_term((), x)
    p.add_term((rng.randrange(3),), rng.choice((-1, 1)))
    return p


def _random_state(rng: random.Random, dims, kind: str) -> State:
    "A State over dims, the last leg a batch leg, on a random third of the flats."
    n = prod(dims)
    state = State({f: _coeff(rng, kind) for f in rng.sample(range(n), max(1, n // 3))})
    state.dims = tuple(dims)
    return state


def _random_matrix(rng: random.Random, nrows: int, ncols: int) -> Matrix:
    # entries -1, 0 and 1 make terms cancel; a few are proper Fractions
    return Matrix([[rng.choice((-1, 0, 0, 1, Fraction(1, 2))) for _ in range(ncols)]
                   for _ in range(nrows)])


def _legs(state: State) -> dict:
    "A flat-keyed State as the tuple-keyed dict the old kernel gave."
    return {unflatten_index(state.dims, key): c for key, c in state.items()}


def _comparable(d: dict) -> dict:
    "_Poly has no __eq__: compare its terms."
    return {k: (c.terms if isinstance(c, _Poly) else c) for k, c in d.items()}


def _agree(state: State, got: State, want: dict, dims) -> None:
    assert got.dims == tuple(dims)
    assert _comparable(_legs(got)) == _comparable(want), (state.dims, dims)


KINDS = ("int", "fraction", "poly")


# -- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_tensor_op_at_a_random_position_matches_the_tuple_kernel(kind):
    rng = random.Random(f"apply/{kind}")
    for i in range(300):
        dims = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))] + [rng.randint(1, 5)]
        # every other case at leg 0, which sv_apply runs in a loop of its own
        pos = rng.randint(0, len(dims) - 1) if i % 2 else 0
        in_dims = tuple(dims[pos:rng.randint(pos, len(dims) - 1)])
        out_dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        m = _random_matrix(rng, prod(out_dims), prod(in_dims))
        state = _random_state(rng, dims, kind)
        got = sv_apply(state, pos, TensorOp(m, in_dims, out_dims))
        want = oracle_sv_apply(_legs(state), pos, oracle_tensor_op(m, in_dims, out_dims))
        _agree(state, got, want, (*dims[:pos], *out_dims, *dims[pos + len(in_dims):]))


@pytest.mark.parametrize("kind", KINDS)
def test_permutation_matches_the_tuple_kernel(kind):
    rng = random.Random(f"permute/{kind}")
    for _ in range(300):
        dims = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 5)]
        # a perm of the first k legs; the legs after them stay where they are
        k = rng.randint(0, len(dims))
        perm = tuple(rng.sample(range(k), k))
        state = _random_state(rng, dims, kind)
        want = oracle_sv_permute(_legs(state), perm)
        _agree(state, sv_permute(state, perm), want,
               (*(dims[p] for p in perm), *dims[k:]))


# blocks of 3-4 moved legs, some with a leg inside that stays, as E07-E10b use
BLOCKS = ((2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 3, 1), (3, 1, 0, 2), (0, 3, 1, 2),
          (3, 1, 2, 0), (1, 0, 3, 2), (0, 2, 1, 3))


def _sparse_state(rng: random.Random, dims, kind: str, terms: int) -> State:
    "A State over dims with at most terms keys, for dims too wide to sample a third of."
    n = prod(dims)
    state = State({rng.randrange(n): _coeff(rng, kind) for _ in range(terms)})
    state.dims = tuple(dims)
    return state


@pytest.mark.parametrize("kind", KINDS)
def test_permutation_of_wide_legs_matches_the_tuple_kernel(kind):
    """Legs of up to 16 and of size 1, moved blocks of 3-4 legs after 0-2
    legs that stay, and batch legs of 16, 32, 64 and odd sizes.  Each
    (block dims, block perm) has one deltas table, whatever the legs around
    the block and the batch size."""
    rng = random.Random(f"permute-wide/{kind}")
    cases = [((16, 16, 16, 16), (), (2, 0, 3, 1)), ((16, 16, 16, 16), (), (3, 1, 0, 2))]
    for _ in range(60):
        block = rng.choice(BLOCKS)
        legs = [rng.choice((1, 2, 3, 16)) for _ in block]
        while prod(legs) > 4096:
            legs[legs.index(16)] = rng.choice((1, 5))
        lead = tuple(rng.choice((1, 2, 16)) for _ in range(rng.randint(0, 2)))
        cases.append((lead + tuple(legs), lead, tuple(len(lead) + p for p in block)))
    for legs, lead, block_perm in cases:
        perm = (*range(len(lead)), *block_perm)
        tail = tuple(rng.choice((1, 3)) for _ in range(rng.randint(0, 1)))
        tables = []
        for batch in (16, 32, 64, rng.choice((1, 3, 7, 33))):
            dims = (*legs, *tail, batch)
            state = _sparse_state(rng, dims, kind, 40)
            want = oracle_sv_permute(_legs(state), perm)
            _agree(state, sv_permute(state, perm), want,
                   (*(dims[p] for p in perm), *dims[len(perm):]))
            tables.append(_permutation(dims, perm)[1])
        # the block alone, before a batch leg of 1, has the same table, and
        # it moves every key over the block as the tuple kernel does
        block_dims = legs[len(lead):]
        block = tuple(p - len(lead) for p in block_perm)
        alone = _permutation((*block_dims, 1), block)[1]
        new_dims = tuple(block_dims[p] for p in block)
        for f, t in enumerate(_basis(block_dims)):
            got = f if alone is None else f + alone[2][f // alone[0] % alone[1]] * alone[0]
            assert got == flatten_index(new_dims, tuple(t[p] for p in block))
        if alone is None:
            assert tables == [None] * 4
            continue
        # some key moves, and the table spans the legs from the first moved
        # one to the last
        assert any(alone[2])
        moved = [i for i, p in enumerate(block) if i != p]
        assert len(alone[2]) == alone[1] == prod(block_dims[moved[0]:moved[-1] + 1])
        for move in tables:
            assert move[1] == alone[1] and move[2] is alone[2]


@pytest.mark.parametrize("kind", KINDS)
def test_cup_cap_and_slot_leg_match_the_tuple_kernel(kind):
    rng = random.Random(f"cup/{kind}")
    for _ in range(100):
        n = rng.randint(1, 4)
        dims = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))] + [rng.randint(1, 4)]
        state = _random_state(rng, dims, kind)
        pos = rng.randint(0, len(dims) - 1)
        opened = sv_apply(state, pos, Cup(n))
        want = oracle_sv_apply(_legs(state), pos, oracle_cup(n))
        _agree(state, opened, want, (*dims[:pos], n, n, *dims[pos:]))
        # the opened pair, moved among the other legs and maybe swapped,
        # then closed again against itself
        others = [i for i in range(len(dims) - 1 + 2) if i not in (pos, pos + 1)]
        at = rng.randint(0, len(others))
        perm = (*others[:at], *rng.sample((pos, pos + 1), 2), *others[at:])
        mixed = sv_permute(opened, perm)
        want = oracle_sv_permute(want, perm)
        closed = sv_apply(mixed, at, Cap(n))
        want = oracle_sv_apply(want, at, OracleCap())
        _agree(mixed, closed, want, mixed.dims[:at] + mixed.dims[at + 2:])

        # a Cap on two legs of a random state, which mostly differ
        dims = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        at = len(dims)
        dims += [n, n, rng.randint(1, 4)]
        state = _random_state(rng, dims, kind)
        want = oracle_sv_apply(_legs(state), at, OracleCap())
        _agree(state, sv_apply(state, at, Cap(n)), want, (*dims[:at], dims[-1]))

        # a SlotLeg on f's input legs followed by a slot leg 0
        f_in = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        f_out = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        dims = [*f_in, 1, rng.randint(1, 4)]
        state = _random_state(rng, dims, kind)
        got = sv_apply(state, 0, SlotLeg(f_in, f_out))
        want = oracle_sv_apply(_legs(state), 0, oracle_slot_leg(f_in, f_out))
        _agree(state, got, want, (*f_out, prod(f_in) * prod(f_out), dims[-1]))


@pytest.mark.parametrize("kind", KINDS)
def test_terms_that_cancel_leave_no_key(kind):
    # columns 0 and 1 of the op are equal, so c on one and -c on the other cancel
    rng = random.Random(f"cancel/{kind}")
    m = Matrix([[1, 1, 0], [Fraction(1, 2), Fraction(1, 2), 2]])
    c = _coeff(rng, kind)
    state = State({0 * 3 + 0: c, 1 * 3 + 0: -1 * c, 2 * 3 + 1: c})
    state.dims = (3, 3)
    got = sv_apply(state, 0, TensorOp(m, (3,), (2,)))
    want = oracle_sv_apply(_legs(state), 0, oracle_tensor_op(m, (3,), (2,)))
    _agree(state, got, want, (2, 3))
    assert set(_legs(got)) == {(1, 1)}


def test_a_finder_family_op_matches_the_tuple_kernel():
    # the finder's op C -> A whose entries are polynomials, on int seeds
    rng = random.Random(5)
    nc, na = 3, 2
    entries = {(a, c): _coeff(rng, "poly") for a in range(na) for c in range(nc)
               if rng.random() < 0.7}
    flat = KernelOp((nc,), (na,), {c: [(a, entries[a, c]) for a in range(na) if (a, c) in entries]
                                   for c in range(nc)})
    oracle = OracleOp(1, 1, {(c,): [((a,), entries[a, c]) for a in range(na) if (a, c) in entries]
                             for c in range(nc)})
    for kind in KINDS:
        state = _random_state(rng, (2, nc, 4), kind)
        want = oracle_sv_apply(_legs(state), 1, oracle)
        _agree(state, sv_apply(state, 1, flat), want, (2, na, 4))


@pytest.mark.parametrize("op, legs", [
    (Cap(3), (3, 2)),
    (TensorOp(Matrix([[1, 0, 1]]), (3,), ()), (2,)),
    (TensorOp(Matrix.identity(4), (2, 2), (4,)), (4,)),
    (Cap(2), (4,)),
])
def test_an_op_on_other_legs_raises(op, legs):
    """The op's input dims must be the legs it is applied to, the batch leg
    after them.  Flat indices would otherwise land on wrong terms without
    an error: (3,) on a leg of 2 reads the wrong columns, and even an op on
    (2, 2) applied to a leg of 4 mislabels the legs."""
    state = State({0: 1, 1: 1})
    state.dims = (*legs, 2)
    with pytest.raises(ValueError):
        sv_apply(state, 0, op)


@pytest.mark.parametrize("op", [Cup(2), TensorOp(Matrix([[1], [2]]), (), (2,))])
def test_an_op_after_the_batch_leg_raises(op):
    # an op from no legs matches the empty legs past the batch leg; its
    # output legs there would be read as part of the batch index
    state = State({0: 1, 1: 1})
    state.dims = (3, 2)
    assert len(sv_apply(state, 1, op)) == 2 * len(op._cols[0])
    with pytest.raises(ValueError):
        sv_apply(state, 2, op)



@pytest.mark.parametrize("kind", KINDS)
def test_a_reshape_relabels_legs_and_keeps_every_key(kind):
    """A flat key is the same under any factoring of the legs, so the
    reshape step changes dims alone.  An op on one factor of a split leg is
    then the op tensored with the identity on the other factor."""
    rng = random.Random(11)
    state = _random_state(rng, (2, 6, 3), kind)
    split, merge = _rs(1, (6,), (2, 3)), _rs(1, (2, 4), (8,))
    out = split(state)
    assert out is not state and out.dims == (2, 2, 3, 3)
    assert _comparable(out) == _comparable(state)
    m = _random_matrix(rng, 4, 3)
    got = merge(sv_apply(out, 2, TensorOp(m, (3,), (4,))))
    want = sv_apply(state, 1, TensorOp(kron(Matrix.identity(2), m), (6,), (8,)))
    assert got.dims == want.dims == (2, 8, 3)
    assert _comparable(got) == _comparable(want)
    with pytest.raises(ValueError):
        _rs(0, (6,), (4,))
    # other legs, or the batch leg, at the position
    with pytest.raises(ValueError):
        _rs(0, (6,), (2, 3))(state)
    with pytest.raises(ValueError):
        _rs(2, (3,), (3,))(state)


# -- the step format: each kind run backwards -----------------------------------


def _step_cases():
    "(name, in_dims, out_dims, steps) for each step kind and for a chain of them."
    rng = random.Random("transposed")
    op = TensorOp(_random_matrix(rng, 5, 3), (3,), (5,))
    chain = (_rs(1, (6,), (3, 2)), _ap(1, op), _pm((2, 0, 1)), _ap(1, Cup(2)), _ap(0, Cap(2)),
             _slot(2))
    return [
        ("ap", (2, 3, 4), (2, 5, 4), (_ap(1, op),)),
        ("ap_cup", (2, 4), (2, 3, 3, 4), (_ap(1, Cup(3)),)),
        ("ap_cap", (3, 3, 2), (2,), (_ap(0, Cap(3)),)),
        ("ap_slot", (2, 4), (2, 1, 4), (_slot(1),)),
        ("pm", (2, 3, 4), (4, 2, 3), (_pm((2, 0, 1)),)),
        ("pm_prefix", (2, 3, 4), (3, 2, 4), (_pm((1, 0)),)),
        ("rs", (2, 6), (2, 3, 2), (_rs(1, (6,), (3, 2)),)),
        ("chain", (2, 6), (2, 2, 1, 5), chain),
    ]


@pytest.mark.parametrize("name, in_dims, out_dims, steps", _step_cases(),
                         ids=[c[0] for c in _step_cases()])
def test_transposed_runs_each_step_kind_backwards(name, in_dims, out_dims, steps):
    """Over the basis vectors of the legs steps end on, _transposed(steps)
    gives the transpose of the map steps give, each step through one of its
    own kind: an op through its transpose, a perm through its inverse, a
    reshape from its new legs to its old."""
    back = _transposed(steps)
    assert pipeline_matrix(out_dims, in_dims, back) == \
        pipeline_matrix(in_dims, out_dims, steps).transpose()
    for step, undo in zip(steps, reversed(back)):
        (make, args), (make_back, args_back) = _step_parts(step), _step_parts(undo)
        assert make_back is make
        if make is _ap:
            assert args_back == (args[0], args[1]._t) and args[1]._t.in_dims == args[1].out_dims
        elif make is _pm:
            assert tuple(args[0][p] for p in args_back[0]) == tuple(range(len(args[0])))
        else:
            assert args_back == (args[0], args[2], args[1])


def test_step_parts_reads_only_the_step_makers():
    op = Cup(2)
    assert _step_parts(_ap(1, op)) == (_ap, (1, op))
    assert _step_parts(_pm((1, 0))) == (_pm, ((1, 0),))
    assert _step_parts(_rs(0, (4,), (2, 2))) == (_rs, (0, (4,), (2, 2)))
    # report hands out exactla's makers, so a step made through it reads back
    assert (report._ap, report._pm, report._rs) == (_ap, _pm, _rs)
    # a callable with the same defaults is no step of theirs
    other = lambda state, pos=1, op=op: sv_apply(state, pos, op)  # noqa: E731
    assert _step_parts(other) == (None, ()) and _step_parts(len) == (None, ())
    with pytest.raises(ValueError, match="not an _ap or _pm step"):
        _transposed([_ap(0, op), other])


# -- run_batch's first step, written from the op's columns ----------------------


def _seed(dims, flats) -> dict:
    "run_batch's seed as the tuple-keyed dict: flats[j] on batch leg j."
    return {(*unflatten_index(dims, f), j): 1 for j, f in enumerate(flats)}


def _oracle_of(op: KernelOp) -> OracleOp:
    "The tuple-keyed table of an op whose table is complete, zeros kept."
    return OracleOp(len(op.in_dims), len(op.out_dims), {
        unflatten_index(op.in_dims, f): [(unflatten_index(op.out_dims, o), x) for o, x in col]
        for f, col in op._cols.items()})


def _random_op(rng: random.Random, in_dims, out_dims, kind: str) -> KernelOp:
    """A KernelOp with a complete table, distinct outputs in each column, and
    some entries an explicit zero (0, or an empty _Poly)."""
    n_in, n_out = prod(in_dims), prod(out_dims)
    zero = _Poly() if kind == "poly" else 0
    cols = {}
    for f in range(n_in):
        outs = rng.sample(range(n_out), rng.randint(0, n_out))
        cols[f] = [(o, zero if rng.random() < 0.25 else _coeff(rng, kind)) for o in outs]
    return KernelOp(in_dims, out_dims, cols)


def _run_first(dims, flats, pos, op, oracle, perm=None) -> None:
    """run_batch with a first step _ap(pos, op), then _pm(perm) if given,
    against the seed run through the tuple-keyed kernel."""
    legs = (*dims[:pos], *op.out_dims, *dims[pos + len(op.in_dims):])
    steps = [_ap(pos, op)]
    want = oracle_sv_apply(_seed(dims, flats), pos, oracle)
    if perm is not None:
        steps.append(_pm(perm))
        want = oracle_sv_permute(want, perm)
        legs = (*(legs[p] for p in perm), *legs[len(perm):])
    got = run_batch(dims, flats, steps)
    _agree(got, got, want, (*legs, len(flats)))


@pytest.mark.parametrize("kind", KINDS)
def test_a_first_op_step_matches_the_seed_through_the_tuple_kernel(kind):
    rng = random.Random(f"first/{kind}")
    for i in range(300):
        dims = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
        # every other case at leg 0; the block may also sit after every leg
        pos = rng.randint(0, len(dims)) if i % 2 else 0
        in_dims = dims[pos:rng.randint(pos, len(dims))]
        out_dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        op = _random_op(rng, in_dims, out_dims, kind)
        flats = rng.sample(range(prod(dims)), rng.randint(1, min(prod(dims), 7)))
        _run_first(dims, flats, pos, op, _oracle_of(op))
        # later steps run on the first step's state
        legs = len(dims) - len(in_dims) + len(out_dims)
        perm = tuple(rng.sample(range(legs), legs))
        _run_first(dims, flats, pos, op, _oracle_of(op), perm)


def test_a_first_op_step_filled_on_demand_matches_the_tuple_kernel():
    """A TensorOp fills the columns its seeds read from its Matrix, and a
    SlotLeg its own, on the first miss."""
    rng = random.Random("first-fill")
    for i in range(200):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        pos = rng.randint(0, len(dims) - 1) if i % 2 else 0
        in_dims = dims[pos:rng.randint(pos, len(dims))]
        out_dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        m = _random_matrix(rng, prod(out_dims), prod(in_dims))
        flats = rng.sample(range(prod(dims)), rng.randint(1, min(prod(dims), 7)))
        op = TensorOp(m, in_dims, out_dims)
        _run_first(dims, flats, pos, op, oracle_tensor_op(m, in_dims, out_dims))
        assert len(op._cols) <= len(flats)
    f_in = (2, 3)
    f_out = (rng.randint(1, 3),)
    flats = [5, 0, 3]
    _run_first((*f_in, 1), flats, 0, SlotLeg(f_in, f_out), oracle_slot_leg(f_in, f_out))


def test_a_first_op_from_no_legs_and_an_empty_cap_column():
    """An op from no legs (_slot's unit leg, an element) reads column 0 on
    every seed, at leg 0 or after any leg; a Cap's off-diagonal columns are
    empty and leave their seeds without a term."""
    dims, flats = (2, 3), [4, 0, 5, 1]
    v = Vector([Fraction(1, 2), 0, -3])
    for pos in range(3):
        got = run_batch(dims, flats, (_slot(pos),))
        assert got.dims == (*dims[:pos], 1, *dims[pos:], 4)
        assert _legs(got) == {(*t[:pos], 0, *t[pos:]): 1 for t in _seed(dims, flats)}
        op = element_op(v)
        _run_first(dims, flats, pos, op, oracle_tensor_op(op.matrix, (), (3,)))
        # the element's zero entry is no term
        assert len(run_batch(dims, flats, (_ap(pos, op),))) == 2 * len(flats)
    cap = Cap(3)
    for flats in ([1, 2, 3, 5], [0, 4, 8, 7]):
        got = run_batch((3, 3), flats, (_ap(0, cap),))
        want = oracle_sv_apply(_seed((3, 3), flats), 0, OracleCap())
        _agree(got, got, want, (len(flats),))
        assert {k for k in got} == {j for j, f in enumerate(flats) if f % 4 == 0}


@pytest.mark.parametrize("kind", KINDS)
def test_an_explicit_zero_in_a_first_column_writes_no_key(kind):
    "A column entry of 0 gives a zero term, which a State never holds."
    zero = _Poly() if kind == "poly" else 0
    c = _coeff(random.Random(3), kind)
    op = KernelOp((2,), (3,), {0: [(0, c), (1, zero)], 1: [(2, zero)]})
    for pos, dims in ((0, (2, 2)), (1, (3, 2))):
        got = run_batch(dims, range(prod(dims)), (_ap(pos, op),))
        want = oracle_sv_apply(_seed(dims, range(prod(dims))), pos, _oracle_of(op))
        _agree(got, got, want, got.dims)
        assert len(got) == prod(dims) // 2 and all(got.values())


@pytest.mark.parametrize("kind", KINDS)
def test_a_first_permutation_or_reshape_takes_the_seed(kind):
    """A first _pm or _rs step gets the seed state, with coefficient 1 on
    each seed."""
    rng = random.Random(f"first-pm/{kind}")
    for _ in range(50):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
        flats = rng.sample(range(prod(dims)), rng.randint(1, min(prod(dims), 7)))
        perm = tuple(rng.sample(range(len(dims)), len(dims)))
        legs = tuple(dims[p] for p in perm)
        op = _random_op(rng, legs[:1], (2,), kind)
        got = run_batch(dims, flats, (_pm(perm), _ap(0, op)))
        want = oracle_sv_apply(oracle_sv_permute(_seed(dims, flats), perm), 0, _oracle_of(op))
        _agree(got, got, want, (2, *legs[1:], len(flats)))
    got = run_batch((2, 3), [5, 1], (_rs(0, (2, 3), (6,)),))
    assert got.dims == (6, 2) and dict(got) == {10: 1, 3: 1}


@pytest.mark.parametrize("pos, legs, in_dims", [
    (0, (3, 2), (2,)),
    (0, (4,), (2, 2)),
    (2, (3,), ()),
    (0, (), (1,)),
])
def test_a_first_op_on_other_legs_raises(pos, legs, in_dims):
    """The op's input dims must be the legs at pos, before the batch leg;
    an op from no legs past the batch leg raises too."""
    op = KernelOp(in_dims, (2,), {f: [(0, 1)] for f in range(prod(in_dims))})
    with pytest.raises(ValueError):
        run_batch(legs, [0], (_ap(pos, op),))
