"""The convolution inverse builds x -> x*g only on the seeds linked to the
unit's (exactla.linked_seeds), and checks g*x = unit in integers.

The component that Rows.component finds on the restricted rows must be the
one it finds on the full operator: the same rows, right-hand side and
columns, on every one-entry +-1 phi change of yd_dqg_h4 and of the kZ2
dqgs.  The seed counts of the corpus inverses are pinned, and kZ_n, whose
unit reaches every seed, must skip the pass.
"""

import pytest

from entwine import corpus
from entwine import entwining as ent
from entwine.entwining import HomCA, conv2_inverse, conv2_unit, conv_inverse, conv_unit
from entwine.exactla import Matrix, linked_seeds

from test_inverse_branches import phi_mutant


def conv2_case(d, g2):
    "The dims, the x -> x*g2 side and the unit's entries {row: value} on hom(C (x) C, A (x) A)."
    nc, na, g_op = d.c_dim, d.a_dim, ent._conv2_op(d, g2)
    unit = conv2_unit(d)
    rhs = {o * unit.ncols + j: v for j, col in enumerate(unit.sparse_cols()) for o, v in col}
    return (nc, nc), (na, na), (lambda f: ent._conv2_side(d, f, g_op)), rhs


def restricted_and_full_components(d, g2):
    in_dims, out_dims, side, rhs = conv2_case(d, g2)
    n_seed = in_dims[0] * in_dims[1]
    seeds = linked_seeds(in_dims, out_dims, side, {r % n_seed for r in rhs})
    restricted, full = (ent.hom_operator(in_dims, out_dims, in_dims, out_dims, side, s)
                        for s in (seeds, None))
    return seeds, restricted.component(rhs), full.component(rhs)


@pytest.mark.parametrize("name, n_mutants", [
    ("yd_dqg_h4", 512), ("yd_dqg_kz2", 32), ("long_dqg_kz2", 32)])
def test_restricted_rows_give_the_full_component(dqgs, name, n_mutants):
    q = dqgs[name]
    n = q.datum.phi.nrows
    mutants = [phi_mutant(q, i, j, delta)
               for i in range(n) for j in range(n) for delta in (1, -1)]
    assert len(mutants) == n_mutants
    for k, d in enumerate([q.datum, *mutants]):
        _, (rows, rhs, cols), (full_rows, full_rhs, full_cols) = \
            restricted_and_full_components(d, q.rmap)
        assert rows.ncols == full_rows.ncols and rows == full_rows, k
        assert rhs == full_rhs and cols == full_cols, k


@pytest.fixture
def built(monkeypatch):
    "The seeds of each operator the inverses build (None: all), and the passes they run."
    built = {"operators": [], "passes": []}
    build, reach = ent.hom_operator, ent.linked_seeds

    def hom_operator(in_dims, out_dims, seed_dims, key_dims, side, seeds=None):
        built["operators"].append(None if seeds is None else len(seeds))
        return build(in_dims, out_dims, seed_dims, key_dims, side, seeds)

    def linked_seeds(in_dims, out_dims, side, start):
        seeds = reach(in_dims, out_dims, side, start)
        built["passes"].append((len(start), len(seeds)))
        return seeds

    monkeypatch.setattr(ent, "hom_operator", hom_operator)
    monkeypatch.setattr(ent, "linked_seeds", linked_seeds)
    return built


def test_seed_counts_on_h4(built, yd_dqg_h4, yd_h4):
    # the unit reaches 4 of the 16 seeds of yd_dqg_h4, and they link 4 more
    assert conv2_inverse(yd_dqg_h4.datum, yd_dqg_h4.rmap) is not None
    assert built == {"operators": [8], "passes": [(4, 8)]}
    # R = 0 reads nothing: the unit's own 4 seeds, and no solution
    built["operators"].clear(), built["passes"].clear()
    assert conv2_inverse(yd_h4, Matrix.zero(16, 16)) is None
    assert built == {"operators": [4], "passes": [(4, 4)]}


@pytest.mark.parametrize("datum", ["yd_h4", "long_h4"])
def test_seed_counts_of_conv_inverse(built, request, datum):
    # H4's counit is nonzero on 2 of its 4 basis vectors; the unit links no more
    d = request.getfixturevalue(datum)
    inv = conv_inverse(conv_unit(d))
    assert inv is not None and inv.map == conv_unit(d).map
    assert built == {"operators": [2], "passes": [(2, 2)]}


def test_seed_counts_on_the_double_of_h4():
    q = corpus.yd_dqg(corpus.drinfeld_double(corpus.sweedler_h4()))
    in_dims, out_dims, side, rhs = conv2_case(q.datum, q.rmap)
    start = {r % 256 for r in rhs}
    assert (len(start), len(linked_seeds(in_dims, out_dims, side, start))) == (4, 32)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kz_skips_the_pass(built, n):
    # kZ_n's counit is nonzero on every basis vector: the unit holds every seed
    q = corpus.yd_dqg(corpus.cyclic_group_algebra(n))
    assert conv2_inverse(q.datum, q.rmap) is not None
    assert built == {"operators": [None], "passes": []}


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
