"""The convolution inverse solves x*g = unit on the rows the unit reaches
through shared columns, checks g*x = unit on that solution, and only when
the check fails solves the stacked system g*x = unit = x*g, again on the
rows its right-hand side reaches.

The oracle is the stacked solve two_sided_solve(*conv2_operators(d, g2),
unit) over the whole hom space: inverses and None-ness must agree with it
on the corpus R-maps, on one-entry phi mutants (which break associativity,
so every branch occurs) and on seeded dense R-maps.  hom_operator,
solve_affine and the g*x = 1 scan are counted around each inverse: one
operator, on the rows the unit reaches, and one solve, except that a
failed g*x = 1 builds the full x -> x*g and x -> g*x and solves once
more.  On yd_dqg_h4's mutants that solve is pinned to a few rows of the
stacked system.
"""

import functools
import random
from collections import Counter

import pytest

from entwine import corpus
from entwine import entwining as ent
from entwine.entwining import (
    DoubleQuantumGroup,
    EntwiningMap,
    MonoidalEntwiningDatum,
    conv2_inverse,
    conv2_product,
    conv2_unit,
)
from entwine.exactla import Matrix

from oracles import two_sided_solve

# the component solve of x*g = 1
INCONSISTENT = "inconsistent"
TWO_SIDED = "component, g*x = 1"
# the component solve of the stacked system that follows a failed g*x = 1
STACKED = "stacked"


def conv2_operators(d, g2):
    "The rows of x -> g2*x and x -> x*g2 on hom(C (x) C, A (x) A), from the production _operator."
    nc, na = d.c_dim, d.a_dim
    return tuple(ent._operator(d, (nc, nc), (na, na), ent._conv2_side, ent._conv2_op(d, g2), first)
                 for first in (True, False))


def stacked_oracle(d, g2):
    unit = conv2_unit(d)
    x = two_sided_solve(*conv2_operators(d, g2), dict(enumerate(unit.flat())))
    if x is None:
        return None
    n = unit.ncols
    return Matrix([[x.get(i + j, 0) for j in range(n)] for i in range(0, unit.nrows * n, n)])


@pytest.fixture
def seen(monkeypatch):
    """What conv2_inverse built, solved and scanned: the rows each operator
    holds (None: a full build), each solve's (rows, cols) and solution,
    and the g*x = 1 verdicts."""
    seen = {"operators": [], "solves": [], "checks": []}
    build, solve, compare = ent.hom_operator, ent.solve_affine, ent.compare_item

    def hom_operator(in_dims, out_dims, seed_dims, key_dims, side, rhs=None):
        rows = build(in_dims, out_dims, seed_dims, key_dims, side, rhs)
        seen["operators"].append(None if rhs is None else sum(1 for row in rows if row))
        return rows

    def solve_affine(a, b):
        sol = solve(a, b)
        seen["solves"].append(((a.nrows, a.ncols), sol))
        return sol

    def compare_item(*args):
        item = compare(*args)
        seen["checks"].append(item.passed)
        return item

    monkeypatch.setattr(ent, "hom_operator", hom_operator)
    monkeypatch.setattr(ent, "solve_affine", solve_affine)
    monkeypatch.setattr(ent, "compare_item", compare_item)
    return seen


@pytest.fixture
def inverse(seen):
    """conv2_inverse with the branch it took; asserts the operator and
    solve counts of that branch."""
    def run(d, g2):
        for record in seen.values():
            record.clear()
        got = conv2_inverse(d, g2)
        (_, first), *rest = seen["solves"]
        if first is None:
            branch = INCONSISTENT
            assert seen["checks"] == [] and rest == []
        elif seen["checks"] == [True]:
            branch = TWO_SIDED
            assert rest == [] and got is not None
        else:
            assert seen["checks"] == [False]
            (_, stacked), = rest
            branch = STACKED
            assert (got is None) == (stacked is None)
        # the rows of x*g the unit reaches, never more than its component
        # holds; after a failed g*x = 1, the full x*g and x -> g*x
        first_build, *fallback = seen["operators"]
        assert first_build is not None and first_build <= seen["solves"][0][0][0], branch
        assert fallback == ([] if branch != STACKED else [None, None]), branch
        return got, branch

    return run


def phi_mutant(q: DoubleQuantumGroup, i: int, j: int, delta: int) -> MonoidalEntwiningDatum:
    rows = [list(r) for r in q.datum.phi.rows()]
    rows[i][j] += delta
    return MonoidalEntwiningDatum(EntwiningMap(q.datum.c, q.datum.a, Matrix(rows)))


@functools.cache
def yd_dqg_kz3() -> DoubleQuantumGroup:
    return corpus.yd_dqg(corpus.cyclic_group_algebra(3))


@functools.cache
def dense_case(seed: int):
    "A seeded dense R on yd_dqg(kz3), entries in -3..3: (datum, R, stacked_oracle)."
    d = yd_dqg_kz3().datum
    n = d.c.dim ** 2
    rng = random.Random(seed)
    rmap = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    return d, rmap, stacked_oracle(d, rmap)


def test_corpus_rmaps_match_stacked_oracle(inverse, dqgs, yd_h4):
    cases = {name: (q.datum, q.rmap, TWO_SIDED) for name, q in dqgs.items()}
    cases["yd_h4_zero_r"] = (yd_h4, Matrix.zero(16, 16), INCONSISTENT)
    for name, (d, rmap, want_branch) in cases.items():
        got, branch = inverse(d, rmap)
        assert branch == want_branch, name
        assert got == stacked_oracle(d, rmap), name


# branch counts over the 32 one-entry +-1 mutants of each 4 x 4 phi
@pytest.mark.parametrize("name, counts", [
    ("yd_dqg_kz2", {TWO_SIDED: 15, STACKED: 8, INCONSISTENT: 9}),
    ("long_dqg_kz2", {STACKED: 20, INCONSISTENT: 12}),
])
def test_phi_mutants_match_stacked_oracle(inverse, dqgs, name, counts):
    q = dqgs[name]
    branches = Counter()
    for i in range(q.datum.phi.nrows):
        for j in range(q.datum.phi.ncols):
            for delta in (1, -1):
                d = phi_mutant(q, i, j, delta)
                got, branch = inverse(d, q.rmap)
                assert got == stacked_oracle(d, q.rmap), (i, j, delta)
                branches[branch] += 1
    assert branches == counts


# one-entry +-1 mutants of yd_dqg_h4's phi: with (0, 2, +1) x*g = 1 has one
# solution and with (6, 8, -1) many, and neither is two-sided; the stacked
# component is then a few rows of the 512 x 256 stacked system.  (3, 12, -1)
# and two others have a rank-deficient x*g = 1 whose component solution is
# two-sided.  The (rows, cols) of each one's last solve:
H4_LAST_SOLVE = {(0, 2, 1): (72, 36), (6, 8, -1): (32, 16), (3, 12, -1): (16, 16),
                 (0, 0, -1): (7, 4)}


@pytest.mark.parametrize("i, j, delta, want_branch, invertible", [
    (0, 2, 1, STACKED, False),
    (6, 8, -1, STACKED, False),
    (3, 12, -1, TWO_SIDED, True),
    (0, 0, -1, INCONSISTENT, False),
])
def test_h4_phi_mutant_takes_each_branch(inverse, seen, yd_dqg_h4, i, j, delta, want_branch,
                                         invertible):
    d = phi_mutant(yd_dqg_h4, i, j, delta)
    got, branch = inverse(d, yd_dqg_h4.rmap)
    assert branch == want_branch
    assert (got is not None) == invertible
    assert seen["solves"][-1][0] == H4_LAST_SOLVE[i, j, delta]
    assert got == stacked_oracle(d, yd_dqg_h4.rmap)


def test_dense_rmaps_match_stacked_oracle(inverse):
    # seeds 3 and 5 are invertible, the others are not
    branches = Counter()
    for seed in range(6):
        d, rmap, want = dense_case(seed)
        got, branch = inverse(d, rmap)
        assert got == want, seed
        branches[branch] += 1
    assert branches == {TWO_SIDED: 2, INCONSISTENT: 4}


# rows of the hom space against rows of the component solve: the unit's
# rows and those they reach through shared columns of x -> x*R
@pytest.mark.parametrize("n, hom_rows, solved_rows", [(3, 81, 9), (5, 625, 25)])
def test_solver_sees_only_the_unit_component_on_kz(seen, n, hom_rows, solved_rows):
    q = corpus.yd_dqg(corpus.cyclic_group_algebra(n))
    assert conv2_unit(q.datum).nrows * conv2_unit(q.datum).ncols == hom_rows
    assert q.rmap_conv_inverse is not None
    assert [rows for (rows, _), _ in seen["solves"]] == [solved_rows]


def test_solver_sees_only_the_unit_component_on_h4(seen, yd_dqg_h4, yd_h4):
    assert conv2_inverse(yd_dqg_h4.datum, yd_dqg_h4.rmap) is not None
    assert [rows for (rows, _), _ in seen["solves"]] == [16]
    # R = 0 reaches no column: only the unit's 4 rows, and no solution
    seen["solves"].clear()
    assert conv2_inverse(yd_h4, Matrix.zero(16, 16)) is None
    assert seen["solves"] == [((4, 0), None)]


def test_every_inverse_is_two_sided(dqgs):
    # corpus R-maps, 32 seeded one-entry phi mutants of yd_dqg_h4 (22 of
    # them invertible) and the seeded dense R-maps on yd_dqg(kz3)
    h4 = dqgs["yd_dqg_h4"]
    rng = random.Random(27)
    cases = [(q.datum, q.rmap) for q in dqgs.values()]
    cases += [(phi_mutant(h4, rng.randrange(16), rng.randrange(16), rng.choice((1, -1))),
               h4.rmap) for _ in range(32)]
    cases = [(d, g, stacked_oracle(d, g)) for d, g in cases]
    cases += [dense_case(seed) for seed in range(6)]
    inverses = 0
    for k, (d, g, want) in enumerate(cases):
        x = conv2_inverse(d, g)
        assert x == want, k
        if x is not None:
            inverses += 1
            assert conv2_product(d, x, g) == conv2_unit(d), k
            assert conv2_product(d, g, x) == conv2_unit(d), k
    assert inverses == len(dqgs) + 22 + 2
