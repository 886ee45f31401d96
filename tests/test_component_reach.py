"""The convolution inverse builds x -> x*g only on the rows that
hom_operator reaches from the unit's (exactla._reach), and checks g*x =
unit in integers.

The reach returns only the rows it builds, each with its operator row as
its index.  The component that Rows.component finds on them must be the
one it finds on the full operator: the same rows, right-hand side and
columns, and every row the reach returns must be the full operator's row
at its index.
This holds for x -> x*R on the corpus dqgs and their 576 one-entry +-1 phi
changes, and for x -> x*g on hom(C, A) over yd_h4, long_h4 and their phi
changes.  The rows each inverse builds are pinned: the unit's component,
and none at all where R = 0; so are the transposes the reach builds, and
the g*x = unit check, which scales no Matrix.
"""

import pytest

from entwine import corpus
from entwine import entwining as ent
from entwine.entwining import (
    EntwiningMap,
    HomCA,
    MonoidalEntwiningDatum,
    conv2_inverse,
    conv2_unit,
    conv_inverse,
    conv_unit,
)
from entwine.exactla import Matrix, TensorOp, hom_operator


def phi_changes(d):
    "The datums with one entry of d's phi moved by +1 or -1."
    rows = d.phi.rows()
    for i in range(d.phi.nrows):
        for j in range(d.phi.ncols):
            for delta in (1, -1):
                changed = [list(r) for r in rows]
                changed[i][j] += delta
                yield MonoidalEntwiningDatum(EntwiningMap(d.c, d.a, Matrix(changed)))


def unit_rhs(unit: Matrix) -> dict:
    return {o * unit.ncols + j: v for j, col in enumerate(unit.sparse_cols()) for o, v in col}


def conv2_case(d, g2):
    "The dims, the x -> x*g2 side and the unit's entries {row: value} on hom(C (x) C, A (x) A)."
    nc, na, g_op = d.c_dim, d.a_dim, ent._conv2_op(d, g2)
    return (nc, nc), (na, na), (lambda f: ent._conv2_side(d, f, g_op)), unit_rhs(conv2_unit(d))


def conv_case(d, g):
    "The dims, the x -> x*g side and the unit's entries on hom(C, A)."
    g_op = TensorOp(g, (d.c_dim,), (d.a_dim,))
    return (d.c_dim,), (d.a_dim,), (lambda f: ent._conv_side(d, f, g_op)), unit_rhs(conv_unit(d).map)


def assert_reach_is_exact(in_dims, out_dims, side, rhs, label):
    reached, full = (hom_operator(in_dims, out_dims, in_dims, out_dims, side, r)
                     for r in (rhs, None))
    # the reached rows alone, in operator-row order, each the full operator's
    # row at its index
    assert reached.ncols == full.ncols and full.index is None, label
    assert reached.index == sorted(set(reached.index)) and len(reached.index) == reached.nrows
    assert list(reached) == [full[r] for r in reached.index], label
    (rows, sub_rhs, cols), (full_rows, full_rhs, full_cols) = \
        reached.component(rhs), full.component(rhs)
    assert rows.ncols == full_rows.ncols and rows == full_rows, label
    assert sub_rhs == full_rhs and cols == full_cols, label
    # and no row outside the component is built
    assert reached.nrows == rows.nrows, label


@pytest.mark.parametrize("name, n_changes", [
    ("yd_dqg_h4", 512), ("yd_dqg_kz2", 32), ("long_dqg_kz2", 32)])
def test_reached_rows_give_the_full_component(dqgs, name, n_changes):
    q = dqgs[name]
    changes = list(phi_changes(q.datum))
    assert len(changes) == n_changes
    for k, d in enumerate([q.datum, *changes]):
        assert_reach_is_exact(*conv2_case(d, q.rmap), k)


@pytest.mark.parametrize("datum", ["yd_h4", "long_h4"])
def test_reached_rows_of_conv_give_the_full_component(request, datum):
    # g the convolution unit and the identity map C -> A (H4 on both sides)
    d = request.getfixturevalue(datum)
    for k, e in enumerate([d, *phi_changes(d)]):
        for g in (conv_unit(e).map, Matrix.identity(4)):
            assert_reach_is_exact(*conv_case(e, g), k)


@pytest.fixture
def built(monkeypatch):
    """The rows each operator the inverses build returns and the rows among
    them that hold an entry (None: a full build)."""
    built = []
    build = ent.hom_operator

    def hom_operator(in_dims, out_dims, seed_dims, key_dims, side, rhs=None):
        rows = build(in_dims, out_dims, seed_dims, key_dims, side, rhs)
        built.append(None if rhs is None else (rows.nrows, sum(1 for row in rows if row)))
        return rows

    monkeypatch.setattr(ent, "hom_operator", hom_operator)
    return built


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rows_built_on_kz(built, n):
    # the unit's component of x -> x*R: n^2 of the n^4 rows
    q = corpus.yd_dqg(corpus.cyclic_group_algebra(n))
    assert conv2_inverse(q.datum, q.rmap) is not None
    assert built == [(n * n, n * n)]


def test_rows_built_on_h4(built, yd_dqg_h4, yd_h4):
    # 16 of the 256 rows of x -> x*R
    assert conv2_inverse(yd_dqg_h4.datum, yd_dqg_h4.rmap) is not None
    assert built == [(16, 16)]
    # R = 0 reaches no column: no row is built, the unit's 4 rows come back
    # empty, and there is no solution
    built.clear()
    assert conv2_inverse(yd_h4, Matrix.zero(16, 16)) is None
    assert built == [(4, 0)]


@pytest.mark.parametrize("datum", ["yd_h4", "long_h4"])
def test_rows_built_by_conv_inverse(built, request, datum):
    # H4's counit is nonzero on 2 of its 4 basis vectors: 2 of x -> x*unit's 16 rows
    d = request.getfixturevalue(datum)
    inv = conv_inverse(conv_unit(d))
    assert inv is not None and inv.map == conv_unit(d).map
    assert built == [(2, 2)]


def test_rows_built_on_the_double_of_h4():
    # 384 of the 65,536 rows of x -> x*R, all of them the unit's component
    q = corpus.yd_dqg(corpus.drinfeld_double(corpus.sweedler_h4()))
    in_dims, out_dims, side, rhs = conv2_case(q.datum, q.rmap)
    rows = hom_operator(in_dims, out_dims, in_dims, out_dims, side, rhs)
    assert rows.nrows == len(rows.index) == 384 and all(rows)
    assert rows.component(rhs)[0].nrows == 384


def test_reach_needs_transposable_steps(yd_h4):
    in_dims, out_dims, side, rhs = conv_case(yd_h4, conv_unit(yd_h4).map)
    # f's step wrapped, then a step after f that says nothing of what it applies
    with pytest.raises(ValueError, match="no _ap step of f"):
        hom_operator(in_dims, out_dims, in_dims, out_dims,
                     lambda f: [lambda state, s=s: s(state) for s in side(f)], rhs)
    with pytest.raises(ValueError, match="not an _ap or _pm step"):
        hom_operator(in_dims, out_dims, in_dims, out_dims,
                     lambda f: [*side(f), lambda state: state], rhs)


def test_g_x_scan_runs_in_integers(monkeypatch, yd_dqg_h4):
    # R's inverse on yd_dqg_h4 has entries -2/3, 1/3 and -1/3; the scan runs
    # on 3 x and 3 unit, so every state of both sides holds ints only
    seen = []
    compare = ent.compare_item

    def watched(steps):
        def watch(step):
            def run(state):
                out = step(state)
                seen.extend(type(c) for c in out.values())
                return out
            return run
        return tuple(map(watch, steps))

    def compare_item(axiom_id, in_dims, out_dims, lhs, rhs):
        return compare(axiom_id, in_dims, out_dims, watched(lhs), watched(rhs))

    monkeypatch.setattr(ent, "compare_item", compare_item)
    x = conv2_inverse(yd_dqg_h4.datum, yd_dqg_h4.rmap)
    assert {v.denominator for col in x.sparse_cols() for _, v in col} == {1, 3}
    assert seen and set(seen) == {int}


def test_integral_inverse_is_checked_unscaled(monkeypatch, long_kz2):
    # an integral x (here the antipode, the inverse of the identity) scales nothing
    monkeypatch.setattr(Matrix, "scale", lambda *a: pytest.fail("scaled an integral x"))
    inv = conv_inverse(HomCA(long_kz2, Matrix.identity(2)))
    assert inv is not None


def test_fractional_inverse_is_checked_without_scaling_a_matrix(monkeypatch, yd_dqg_h4):
    # x has denominator 3: the check's ops hold 3 x and 3 unit as ints,
    # built from the solution's entries, and no Matrix is scaled
    monkeypatch.setattr(Matrix, "scale", lambda *a: pytest.fail("scaled a Matrix"))
    x = conv2_inverse(yd_dqg_h4.datum, yd_dqg_h4.rmap)
    assert {v.denominator for col in x.sparse_cols() for _, v in col} == {1, 3}


def test_multiplication_is_transposed_once():
    # the reach runs the steps after x transposed, A's multiplication among
    # them: its transpose is built by the first inverse and kept on the op
    q = corpus.yd_dqg(corpus.cyclic_group_algebra(3))
    mul = q.datum.a.mul_op
    assert mul._t is None
    assert conv2_inverse(q.datum, q.rmap) is not None
    transposed = mul._t
    assert transposed is not None and transposed.in_dims == mul.out_dims
    assert conv2_inverse(q.datum, q.rmap) is not None
    assert mul._t is transposed
