"""Exact linear algebra: kron, affine solving, inversion, rational strings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine.exactla import (
    AffineSolution,
    Matrix,
    NotInvertibleError,
    TensorOp,
    Vector,
    hom_operator,
    invert,
    kron,
    rat_from_str,
    rat_to_str,
    solve_affine,
    two_sided_solve,
)
from entwine.report import _ap, pipeline

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)


def small_matrix(n, m):
    return st.lists(
        st.lists(rationals, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(Matrix)


def test_kron_identity():
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


def test_kron_scalar_factor():
    a = Matrix([[2]])
    b = Matrix([[0, 1], [1, 0]])
    assert kron(a, b) == Matrix([[0, 2], [2, 0]])


@settings(max_examples=40, deadline=None)
@given(small_matrix(2, 2), small_matrix(2, 2), small_matrix(2, 2), small_matrix(2, 2))
def test_kron_mixed_product(a, b, c, d):
    # oracle: direct entrywise multiplication of the two sides
    left = kron(a, b) * kron(c, d)
    right = kron(a * c, b * d)
    assert left == right


@settings(max_examples=25, deadline=None)
@given(small_matrix(2, 2), small_matrix(2, 3), small_matrix(3, 2))
def test_kron_associative(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


def test_solve_identity():
    sol = solve_affine(Matrix.identity(2), Vector([1, 2]))
    assert sol.particular == Vector([1, 2])
    assert sol.nullspace_basis == ()


def test_solve_one_equation():
    sol = solve_affine(Matrix([[1, 1]]), Vector([3]))
    assert sol is not None
    # verified by substitution rather than by a fixed basis choice
    assert sum(sol.particular) == 3
    assert len(sol.nullspace_basis) == 1
    (v,) = sol.nullspace_basis
    assert sum(v) == 0 and not v.is_zero()


def test_solve_inconsistent():
    assert solve_affine(Matrix([[1], [1]]), Vector([0, 1])) is None


@settings(max_examples=40, deadline=None)
@given(small_matrix(3, 4), st.lists(rationals, min_size=4, max_size=4))
def test_solve_substitution_property(a, xs):
    # manufacture a consistent system, then verify every reported solution
    x = Vector(xs)
    b = a.apply(x)
    sol = solve_affine(a, b)
    assert sol is not None
    assert a.apply(sol.particular) == b
    for v in sol.nullspace_basis:
        assert a.apply(v).is_zero()
    combo = sol.particular
    for i, v in enumerate(sol.nullspace_basis):
        combo = combo + v.scale(Fraction(i + 1, 2))
    assert a.apply(combo) == b


def test_nullspace_independent():
    sol = solve_affine(Matrix([[1, 1, 1]]), Vector([0]))
    assert len(sol.nullspace_basis) == 2
    # independence: the only combination summing to zero is trivial
    cols = Matrix.from_cols(list(sol.nullspace_basis), 3)
    dep = solve_affine(cols, Vector.zero(3))
    assert dep is not None and dep.dimension == 0
    assert dep.particular.is_zero()


def test_invert_identity():
    assert invert(Matrix.identity(4)) == Matrix.identity(4)


def test_invert_involution():
    s = Matrix([[0, 1], [1, 0]])
    assert invert(s) == s


def test_invert_h4_antipode():
    from entwine.corpus import sweedler_h4

    h4 = sweedler_h4()
    sinv = invert(h4.antipode)
    assert sinv == h4.antipode_inv
    assert (sinv * h4.antipode).is_identity()
    assert (h4.antipode * sinv).is_identity()
    # S^{-1}(x) = y and S^{-1}(y) = -x on the basis (1, e, x, y)
    assert sinv.col(2) == Vector([0, 0, 0, 1])
    assert sinv.col(3) == Vector([0, 0, -1, 0])


def test_invert_singular():
    with pytest.raises(NotInvertibleError):
        invert(Matrix([[1, 1], [1, 1]]))
    with pytest.raises(NotInvertibleError):
        invert(Matrix([[1, 2, 3]]))


@settings(max_examples=40, deadline=None)
@given(rationals, rationals)
def test_rational_string_round_trip(a, b):
    for x in (a, b, a * b, a + b):
        s = rat_to_str(x)
        assert " " not in s and s == s.strip()
        assert rat_from_str(s) == x


@pytest.mark.parametrize("bad", ["2/4", "3/1", "1/-2", "1/0", " 1", "1 ", "0.5", "a"])
def test_rational_rejects_non_canonical(bad):
    with pytest.raises(ValueError):
        rat_from_str(bad)


def test_affine_solution_shape():
    sol = solve_affine(Matrix([[2, 0], [0, 3]]), Vector([4, 9]))
    assert isinstance(sol, AffineSolution)
    assert sol.particular == Vector([2, 3])
    assert sol.dimension == 0


@settings(max_examples=25, deadline=None)
@given(small_matrix(3, 3), small_matrix(2, 2))
def test_hom_operator_of_compositions(a, b):
    # on hom(V, W) flattened out-major, f -> a.f is kron(a, 1) and f -> f.b is kron(1, b^T)
    a_op = TensorOp(a, (3,), (3,))
    b_op = TensorOp(b, (2,), (2,))
    after = hom_operator((2,), (3,), (2,), (3,), lambda f, t: pipeline(t + (0,), _ap(0, f), _ap(0, a_op)))
    assert Matrix(after) == kron(a, Matrix.identity(2))
    before = hom_operator((2,), (3,), (2,), (3,), lambda f, t: pipeline(t + (0,), _ap(0, b_op), _ap(0, f)))
    assert Matrix(before) == kron(Matrix.identity(3), b.transpose())


def test_two_sided_solve():
    # left and right multiplication by [[1, 1], [0, 1]] on 2x2 matrices, flattened row-major
    g = Matrix([[1, 1], [0, 1]])
    left, right = kron(g, Matrix.identity(2)), kron(Matrix.identity(2), g.transpose())
    ident = [1, 0, 0, 1]
    assert two_sided_solve(left.rows(), right.rows(), ident) == Vector([1, -1, 0, 1])
    # a one-sided solution is not enough
    assert two_sided_solve(left.rows(), Matrix.zero(4, 4).rows(), ident) is None
