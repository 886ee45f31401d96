"""The convolution inverse solves x*g = unit alone, checks g*x = unit on a
unique solution, and stacks both systems only when x*g = unit is
consistent and rank-deficient.

The oracle is the stacked solve two_sided_solve(*conv2_operators(d, g2),
unit): inverses and None-ness must agree with it on the corpus R-maps, on
one-entry phi mutants (which break associativity, so every branch occurs)
and on seeded dense R-maps.  hom_operator is counted around each inverse:
one operator per inverse, two on the rank-deficient branch only.
"""

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
    conv2_unit,
)
from entwine.exactla import Matrix, two_sided_solve

UNIQUE = "unique, g*x = 1"
NOT_TWO_SIDED = "unique, g*x != 1"
DEFICIENT = "rank-deficient"
INCONSISTENT = "inconsistent"


def conv2_operators(d, g2):
    "x -> g2*x and x -> x*g2 on hom(C (x) C, A (x) A), from the production _operator."
    nc, na = d.c_dim, d.a_dim
    return tuple(ent._operator(d, (nc, nc), (na, na), ent._conv2_side, ent._conv2_op(d, g2), first)
                 for first in (True, False))


def stacked_oracle(d, g2):
    unit = conv2_unit(d)
    x = two_sided_solve(*conv2_operators(d, g2), [e for row in unit.rows() for e in row])
    if x is None:
        return None
    n = unit.ncols
    return Matrix([x.coords[i : i + n] for i in range(0, len(x), n)])


@pytest.fixture
def inverse(monkeypatch):
    """conv2_inverse with the branch it took; asserts the operator count."""
    seen = {"operators": 0, "solves": []}
    build, solve = ent.hom_operator, ent.solve_affine

    def hom_operator(*args):
        seen["operators"] += 1
        return build(*args)

    def solve_affine(a, b):
        sol = solve(a, b)
        seen["solves"].append(sol)
        return sol

    monkeypatch.setattr(ent, "hom_operator", hom_operator)
    monkeypatch.setattr(ent, "solve_affine", solve_affine)

    def run(d, g2):
        seen["operators"] = 0
        seen["solves"].clear()
        got = conv2_inverse(d, g2)
        (sol,) = seen["solves"]
        if sol is None:
            branch = INCONSISTENT
        elif sol.dimension:
            branch = DEFICIENT
        else:
            branch = UNIQUE if got is not None else NOT_TWO_SIDED
        assert seen["operators"] == (2 if branch == DEFICIENT else 1), branch
        return got, branch

    return run


def phi_mutant(q: DoubleQuantumGroup, i: int, j: int, delta: int) -> MonoidalEntwiningDatum:
    rows = [list(r) for r in q.datum.phi.rows()]
    rows[i][j] += delta
    return MonoidalEntwiningDatum(EntwiningMap(q.datum.c, q.datum.a, Matrix(rows)))


def test_corpus_rmaps_match_stacked_oracle(inverse, dqgs, yd_h4):
    cases = {name: (q.datum, q.rmap, UNIQUE) for name, q in dqgs.items()}
    cases["yd_h4_zero_r"] = (yd_h4, Matrix.zero(16, 16), INCONSISTENT)
    for name, (d, rmap, want_branch) in cases.items():
        got, branch = inverse(d, rmap)
        assert branch == want_branch, name
        assert got == stacked_oracle(d, rmap), name


# branch counts over the 32 one-entry +-1 mutants of each 4 x 4 phi
@pytest.mark.parametrize("name, counts", [
    ("yd_dqg_kz2", {UNIQUE: 15, NOT_TWO_SIDED: 8, INCONSISTENT: 9}),
    ("long_dqg_kz2", {NOT_TWO_SIDED: 20, INCONSISTENT: 12}),
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


@pytest.mark.parametrize("i, j, delta, want_branch, invertible", [
    (0, 2, 1, NOT_TWO_SIDED, False),
    (3, 12, -1, DEFICIENT, True),
    (0, 0, -1, INCONSISTENT, False),
])
def test_h4_phi_mutant_takes_each_branch(inverse, yd_dqg_h4, i, j, delta, want_branch,
                                         invertible):
    d = phi_mutant(yd_dqg_h4, i, j, delta)
    got, branch = inverse(d, yd_dqg_h4.rmap)
    assert branch == want_branch
    assert (got is not None) == invertible
    assert got == stacked_oracle(d, yd_dqg_h4.rmap)


def test_dense_rmaps_match_stacked_oracle(inverse):
    # seeded dense R on yd_dqg(kz3), entries in -3..3; seeds 3 and 5 are
    # invertible, the others are not
    q = corpus.yd_dqg(corpus.cyclic_group_algebra(3))
    n = q.datum.c.dim ** 2
    branches = Counter()
    for seed in range(6):
        rng = random.Random(seed)
        rmap = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        got, branch = inverse(q.datum, rmap)
        assert got == stacked_oracle(q.datum, rmap), seed
        branches[branch] += 1
    assert branches == {UNIQUE: 2, INCONSISTENT: 4}
