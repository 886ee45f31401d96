"""Exact linear algebra: kron, affine solving, inversion, rational strings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwine.exactla import (
    ONE,
    ZERO,
    AffineSolution,
    Matrix,
    NotInvertibleError,
    Rows,
    TensorOp,
    Vector,
    _as_rat,
    _eliminate,
    hom_operator,
    invert,
    kron,
    matrix_from_columns_fn,
    rat_from_str,
    rat_to_str,
    solve_affine,
)
from entwine.report import _ap

from oracles import two_sided_solve

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
    cols = Matrix(sol.nullspace_basis).transpose()
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
    assert sinv * h4.antipode == Matrix.identity(4)
    assert h4.antipode * sinv == Matrix.identity(4)
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


@pytest.mark.parametrize(
    "bad",
    ["2/4", "3/1", "1/-2", "1/0", " 1", "1 ", "0.5", "a",
     "-0", "00", "007", "-05/3", "1/02", "1\n"],
)
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
    after = hom_operator((2,), (3,), (2,), (3,), lambda f: (_ap(0, f), _ap(0, a_op)))
    assert after == Rows.of(kron(a, Matrix.identity(2)))
    before = hom_operator((2,), (3,), (2,), (3,), lambda f: (_ap(0, b_op), _ap(0, f)))
    assert before == Rows.of(kron(Matrix.identity(3), b.transpose()))
    assert (after.nrows, after.ncols) == (before.nrows, before.ncols) == (6, 6)


def test_floats_are_rejected():
    # a float would be stored as its binary expansion: 0.1 is 3602879701896397/2**55
    for bad in (0.1, 1.0, "1/2"):
        with pytest.raises(TypeError):
            Matrix([[bad]])
        with pytest.raises(TypeError):
            Vector([bad])
        with pytest.raises(TypeError):
            Vector([1]).scale(bad)
        with pytest.raises(TypeError):
            Matrix([[1]]).scale(bad)
    half = Fraction(1, 2)
    assert Matrix([[1, half]]).scale(2) == Matrix([[2, 1]])
    assert Vector([half]).scale(-2) == Vector([-1])
    assert all(type(x) is Fraction for x in Matrix([[1, 3]]).rows()[0])


def test_column_assembly_memos_keep_values_exact():
    """matrix_from_columns_fn works out each distinct key's flat index and
    each distinct int's Fraction once per call: repeated keys and values
    land where they belong, and a float equal to an int already seen is
    still refused."""
    cols = {(0,): {(1, 0): 1, (0, 1): -1}, (1,): {(1, 0): -1, (0, 1): 1, (1, 1): Fraction(1, 2)},
            (2,): {(0, 1): 1, (1, 1): 3}}
    m = matrix_from_columns_fn((3,), (2, 2), cols.__getitem__)
    assert m == Matrix([[0, 0, 0], [-1, 1, 1], [1, -1, 0], [0, Fraction(1, 2), 3]])
    assert all(type(x) is Fraction for col in m.sparse_cols() for _, x in col)
    for first, later in ((1, 1.0), (Fraction(1, 2), 0.5)):
        with pytest.raises(TypeError):
            matrix_from_columns_fn((2,), (1,), lambda t: {(0,): (first, later)[t[0]]})


def test_two_sided_solve():
    # left and right multiplication by [[1, 1], [0, 1]] on 2x2 matrices, flattened row-major
    g = Matrix([[1, 1], [0, 1]])
    left = Rows.of(kron(g, Matrix.identity(2)))
    right = Rows.of(kron(Matrix.identity(2), g.transpose()))
    ident = {0: 1, 3: 1}
    assert two_sided_solve(left, right, ident) == {0: 1, 1: -1, 3: 1}
    # the solve works on copies: the rows are unchanged
    assert left == Rows.of(kron(g, Matrix.identity(2)))
    # a one-sided solution is not enough
    assert two_sided_solve(left, Rows.of(Matrix.zero(4, 4)), ident) is None


def test_two_sided_solve_rejects_a_column_count_mismatch():
    with pytest.raises(ValueError):
        two_sided_solve(Rows.of(Matrix.identity(2)), Rows.of(Matrix.zero(2, 3)), {0: 1})


def test_solve_affine_on_rows_matches_the_matrix_solve():
    # a row of zeros stays a row; a sparse right-hand side gives sparse solutions
    a = Matrix([[1, 0, 2], [0, 0, 0], [0, 3, Fraction(1, 2)]])
    rows = Rows.of(a)
    assert rows == [{0: 1, 2: 2}, {}, {1: 3, 2: Fraction(1, 2)}]
    assert [type(x) for row in rows for x in row.values()] == [int, int, int, Fraction]

    def dense(v):
        return Vector([v.get(c, 0) for c in range(3)])

    for rhs in ({}, {0: 4}, {2: Fraction(-1, 3)}, {0: 2, 2: 3}):
        b = dense(rhs)
        want = solve_affine(a, b)
        for got in (solve_affine(rows, rhs), solve_affine(a, rhs)):
            assert dense(got.particular) == want.particular
            assert tuple(map(dense, got.nullspace_basis)) == want.nullspace_basis
            assert all(x and type(x) is Fraction for v in (got.particular, *got.nullspace_basis)
                       for x in v.values())
        assert solve_affine(rows, b) == want
    assert solve_affine(rows, {1: 1}) is None
    assert rows == Rows.of(a)


@st.composite
def sparse_systems(draw):
    "Sparse Rows with small int entries, and a right-hand side {row: value} that may hold zeros."
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-3, 3).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=3),
                         max_size=10))
    rhs = draw(st.dictionaries(st.integers(0, len(rows) - 1), st.integers(-2, 2), max_size=4)
               if rows else st.just({}))
    return Rows(rows, ncols), rhs


@settings(max_examples=100, deadline=None)
@given(sparse_systems())
def test_component_is_the_fixpoint_of_shared_columns(system):
    rows, rhs = system
    # add every row sharing a column with a reached row until nothing changes
    reached = {r for r, x in rhs.items() if x}
    while True:
        cols = {c for r in reached for c in rows[r]}
        more = reached | {r for r, row in enumerate(rows) if cols & row.keys()}
        if more == reached:
            break
        reached = more
    want = sorted(reached)
    sub, sub_rhs, old_cols = rows.component(rhs)
    assert old_cols == sorted({c for r in want for c in rows[r]})
    assert sub.ncols == len(old_cols)
    assert [{old_cols[c]: x for c, x in row.items()} for row in sub] == [rows[r] for r in want]
    assert sub_rhs == {k: rhs[r] for k, r in enumerate(want) if r in rhs}
    # held as rows containing the component (every other row here), with
    # their operator rows as the index, they give the same component
    keep = sorted(reached | set(range(0, len(rows), 2)))
    assert Rows([rows[r] for r in keep], rows.ncols, keep).component(rhs) == \
        (sub, sub_rhs, old_cols)
    # the system is block-diagonal: the component's particular solution is the whole one's
    whole, part = solve_affine(rows, rhs), solve_affine(sub, sub_rhs)
    assert (whole is None) == (part is None)
    if whole is not None:
        assert {old_cols[c]: x for c, x in part.particular.items()} == whole.particular


# ---------------------------------------------------------------------------
# Oracle: the dense row-major Matrix that sparse columns replaced.  The class
# body (reduced to the methods compared here), kron, solve_affine and invert
# are kept verbatim apart from their names; the sparse Matrix must agree with
# them entry for entry on seeded random matrices.  They eliminate with
# scan_eliminate, the row-scanning elimination that the column index of
# _eliminate replaced, also kept verbatim.
# ---------------------------------------------------------------------------


def scan_eliminate(rows: list[dict[int, Fraction]], ncols: int):
    """Gauss-Jordan elimination on sparse rows (in place).

    Pivot selection is deterministic: columns left to right, first row
    (in current order) with a nonzero entry in that column; the pivot
    column is cleared from every other row.  Returns the list of
    (row_index, pivot_col) pairs in elimination order.
    """
    pivots = []
    pivoted: set[int] = set()
    for col in range(ncols):
        piv = None
        for r in range(len(rows)):
            if r not in pivoted and rows[r].get(col, ZERO) != 0:
                piv = r
                break
        if piv is None:
            continue
        pivoted.add(piv)
        pivots.append((piv, col))
        prow = rows[piv]
        pval = prow[col]
        for r in range(len(rows)):
            if r == piv:
                continue
            rv = rows[r].get(col)
            if not rv:
                continue
            factor = rv / pval
            row = rows[r]
            for c, x in prow.items():
                nv = row.get(c, ZERO) - factor * x
                if nv == 0:
                    row.pop(c, None)
                else:
                    row[c] = nv
    return pivots


class DenseMatrix:
    """Immutable dense row-major matrix over Q.

    Treated as a linear map: ``nrows x ncols`` sends a ``ncols``-vector to
    a ``nrows``-vector; column j is the image of basis vector j.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_colcache")

    def __init__(self, rows):
        self._rows = tuple(tuple(_as_rat(x) for x in row) for row in rows)
        self.nrows = len(self._rows)
        self.ncols = len(self._rows[0]) if self._rows else 0
        if any(len(r) != self.ncols for r in self._rows):
            raise ValueError("ragged rows")
        self._colcache = None

    def sparse_cols(self) -> list[list[tuple[int, Fraction]]]:
        "Cached nonzero entries per column, as (row, value) lists."
        if self._colcache is None:
            cols = [[] for _ in range(self.ncols)]
            for i, row in enumerate(self._rows):
                for j, x in enumerate(row):
                    if x != 0:
                        cols[j].append((i, x))
            self._colcache = cols
        return self._colcache

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash(self._rows)

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return DenseMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return DenseMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._rows, other._rows)]
        )

    def __neg__(self) -> "DenseMatrix":
        return DenseMatrix([[-a for a in r] for r in self._rows])

    def scale(self, c) -> "DenseMatrix":
        c = Fraction(c)
        return DenseMatrix([[c * a for a in r] for r in self._rows])

    def __mul__(self, other):
        "Composition with a Matrix, or application to a Vector."
        if isinstance(other, Vector):
            return self.apply(other)
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        # iterate over the sparse columns of the right factor
        out = [[ZERO] * other.ncols for _ in range(self.nrows)]
        rcols = other.sparse_cols()
        for j in range(other.ncols):
            col = rcols[j]
            if not col:
                continue
            for i in range(self.nrows):
                row = self._rows[i]
                s = ZERO
                for k, x in col:
                    rk = row[k]
                    if rk != 0:
                        s += rk * x
                out[i][j] = s
        return DenseMatrix(out)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(
            [[self._rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)


def dense_kron(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Kronecker product realizing the tensor product of linear maps.

    (a (x) b)(v (x) w) = a(v) (x) b(w) under the left-factor-major flat
    index convention; shapes multiply.
    """
    out = [[ZERO] * (a.ncols * b.ncols) for _ in range(a.nrows * b.nrows)]
    for i in range(a.nrows):
        arow = a._rows[i]
        for j in range(a.ncols):
            x = arow[j]
            if x == 0:
                continue
            for k in range(b.nrows):
                brow = b._rows[k]
                orow = out[i * b.nrows + k]
                off = j * b.ncols
                for l in range(b.ncols):
                    if brow[l] != 0:
                        orow[off + l] = x * brow[l]
    return DenseMatrix(out)


def dense_solve_affine(a: DenseMatrix, b: Vector) -> AffineSolution | None:
    """Exact affine solve of a.x = b; None when inconsistent.

    RHS is carried in the augmented column; free variables are set to 0
    for the particular solution and swept one at a time for the
    nullspace basis.
    """
    if a.nrows != b.dim:
        raise ValueError("rows(a) must equal dim(b)")
    n = a.ncols
    rows: list[dict[int, Fraction]] = []
    for i in range(a.nrows):
        row = {j: x for j, x in enumerate(a._rows[i]) if x != 0}
        if b[i] != 0:
            row[n] = b[i]  # augmented column
        rows.append(row)
    pivots = scan_eliminate(rows, n)
    piv_rows = {r for r, _ in pivots}
    for r, row in enumerate(rows):
        if r not in piv_rows and row.get(n, ZERO) != 0:
            return None
    piv_cols = {c for _, c in pivots}
    free_cols = [c for c in range(n) if c not in piv_cols]

    def backsub(free_values: dict[int, Fraction]) -> Vector:
        x = [ZERO] * n
        for c, v in free_values.items():
            x[c] = v
        for r, c in reversed(pivots):
            row = rows[r]
            s = row.get(n, ZERO)
            for cc, coeff in row.items():
                if cc != c and cc != n:
                    s -= coeff * x[cc]
            x[c] = s / row[c]
        return Vector(x)

    particular = backsub({})
    null_basis = []
    for f in free_cols:
        hom_rows = [dict(rows[r]) for r, _ in pivots]
        for row in hom_rows:
            row.pop(n, None)
        x = [ZERO] * n
        x[f] = ONE
        for (r, c), row in zip(reversed(pivots), reversed(hom_rows)):
            s = ZERO
            for cc, coeff in row.items():
                if cc != c:
                    s -= coeff * x[cc]
            x[c] = s / row[c]
        null_basis.append(Vector(x))
    return AffineSolution(particular, tuple(null_basis))


def dense_invert(a: DenseMatrix) -> DenseMatrix:
    "Exact inverse of a square matrix; raises NotInvertibleError."
    if a.nrows != a.ncols:
        raise NotInvertibleError("matrix is not square")
    n = a.nrows
    rows: list[dict[int, Fraction]] = []
    for i in range(n):
        row = {j: x for j, x in enumerate(a._rows[i]) if x != 0}
        row[n + i] = ONE  # augmented identity block
        rows.append(row)
    pivots = scan_eliminate(rows, n)
    if len(pivots) < n:
        raise NotInvertibleError("matrix is rank-deficient")
    inv = [[ZERO] * n for _ in range(n)]
    for r, c in pivots:
        row = rows[r]
        pval = row[c]
        for cc, x in row.items():
            if cc >= n:
                inv[c][cc - n] = x / pval
    return DenseMatrix(inv)


VALUES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]


def random_rows(rng, nrows, ncols, density):
    """Random rational rows with about ``density`` nonzeros, plus one zero
    row and one zero column whenever the shape leaves room for them."""
    rows = [[rng.choice(VALUES) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 1:
        rows[rng.randrange(nrows)] = [0] * ncols
    if ncols > 1:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    return rows


def random_pair(rng, nrows, ncols):
    rows = random_rows(rng, nrows, ncols, rng.choice([0.15, 0.5, 0.9]))
    return Matrix(rows), DenseMatrix(rows)


def assert_same(sparse, dense):
    assert (sparse.nrows, sparse.ncols) == (dense.nrows, dense.ncols)
    assert sparse.rows() == dense._rows
    assert sparse.sparse_cols() == dense.sparse_cols()
    assert sparse.is_zero() == dense.is_zero()


@pytest.mark.parametrize("seed", range(30))
def test_sparse_matrix_agrees_with_dense_reference(seed):
    rng = random.Random(seed)
    n, m, p, q = (rng.randint(1, 5) for _ in range(4))
    a, a_ref = random_pair(rng, n, m)
    b, b_ref = random_pair(rng, n, m)
    c, c_ref = random_pair(rng, m, p)
    d, d_ref = random_pair(rng, p, q)
    assert_same(a, a_ref)
    assert_same(a * c, a_ref * c_ref)
    assert_same(a * c * d, a_ref * c_ref * d_ref)
    # sums of +-1 cancel to exact zeros often, which no column may keep
    signs = [[rng.choice((1, -1)) for _ in range(4)] for _ in range(4)]
    assert_same(Matrix(signs) * Matrix(signs), DenseMatrix(signs) * DenseMatrix(signs))
    assert_same(kron(a, c), dense_kron(a_ref, c_ref))
    assert_same(kron(c, Matrix.identity(2)), dense_kron(c_ref, DenseMatrix([[1, 0], [0, 1]])))
    assert_same(a.transpose(), a_ref.transpose())
    assert_same(a + b, a_ref + b_ref)
    assert_same(a - b, a_ref - b_ref)
    assert_same(a - a, a_ref - a_ref)
    assert_same(-a, -a_ref)
    assert_same(a.scale(Fraction(-2, 3)), a_ref.scale(Fraction(-2, 3)))
    assert_same(a.scale(0), a_ref.scale(0))
    assert_same(Matrix.identity(n), DenseMatrix([[int(i == j) for j in range(n)] for i in range(n)]))
    assert_same(Matrix.zero(n, m), DenseMatrix([[0] * m for _ in range(n)]))
    # equality and hashing: the same verdicts, whichever way a matrix was built
    assert (a == b) == (a_ref == b_ref)
    for same in (a.transpose().transpose(), a + Matrix.zero(n, m), Matrix(
            [a.col(j) for j in range(m)]).transpose(), Matrix(a.rows()), a * Matrix.identity(m)):
        assert same == a and hash(same) == hash(a)
    assert ((a * c) == (a * c).scale(1)) and hash(a * c) == hash((a * c).scale(1))
    sq, sq_ref = random_pair(rng, n, n)
    assert (sq == Matrix.identity(n)) == (sq_ref == DenseMatrix(Matrix.identity(n).rows()))
    assert sq - sq + Matrix.identity(n) == Matrix.identity(n)
    for i in range(n):
        for j in range(m):
            assert a.entry(i, j) == a_ref._rows[i][j]
        assert a.row(i) == Vector(a_ref._rows[i])
    v = Vector([rng.choice(VALUES + [0]) for _ in range(m)])
    assert a.apply(v) == Vector([sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in a_ref._rows])


@pytest.mark.parametrize("seed", range(30))
def test_sparse_solve_and_invert_agree_with_dense_reference(seed):
    rng = random.Random(1000 + seed)
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    a, a_ref = random_pair(rng, n, m)
    x = Vector([rng.choice(VALUES + [0]) for _ in range(m)])
    for b in (a.apply(x), Vector([rng.choice(VALUES + [0]) for _ in range(n)]), Vector.zero(n)):
        assert solve_affine(a, b) == dense_solve_affine(a_ref, b)
    sq, sq_ref = random_pair(rng, n, n)
    # the zero row of a random square matrix makes it singular: also try a full one
    full = [[rng.choice(VALUES) for _ in range(n)] for _ in range(n)]
    for s, s_ref in ((sq, sq_ref), (Matrix(full), DenseMatrix(full)),
                     (Matrix.identity(n), DenseMatrix(Matrix.identity(n).rows()))):
        try:
            expected = dense_invert(s_ref)
        except NotInvertibleError:
            with pytest.raises(NotInvertibleError):
                invert(s)
        else:
            assert_same(invert(s), expected)


# ---------------------------------------------------------------------------
# The pivot rule of _eliminate, on hand-built systems where a wrong rule
# shows: the pivot of a column is the lowest *unpivoted* row holding it, and
# the column is cleared from every other holder, pivoted rows included.
# ---------------------------------------------------------------------------

PIVOT_RULE_SYSTEMS = {
    # row 0 pivots column 0 and holds column 1, whose pivot is row 1: Gauss-
    # Jordan clears column 1 (and then 2) from the pivoted row 0 as well
    "pivoted_row_holds_later_column": (
        [[1, 2, 0, 3], [0, 1, 1, 0], [0, 0, 2, 1], [1, 0, 0, 1]], [1, 2, 3, 4]),
    # after column 0 the lowest holder of column 1 is row 0, already pivoted;
    # the pivot is row 2
    "lowest_holder_pivoted": (
        [[1, 1, 1, 0], [1, 1, 0, 2], [0, 1, 3, 1], [2, 0, 1, 1]], [0, 1, -1, 2]),
    # column 1 is held only by the pivoted row 0 once column 0 is done, so it
    # is free; the same for column 3 after column 2
    "only_holder_pivoted": (
        [[1, 1, 0, 0, 1], [2, 2, 1, 1, 0], [0, 0, 3, 3, 1]], [1, 0, Fraction(1, 2)]),
    # the finder's shape: wide, rank 2 of 3, a four-dimensional nullspace
    "wide_rank_deficient": (
        [[1, 0, 2, -1, 0, 1], [0, 1, 1, 0, 2, 0], [1, 1, 3, -1, 2, 1]], [1, 2, 3]),
}


def _rows_of(entries, rhs=None):
    rows = [{j: _as_rat(x) for j, x in enumerate(r) if x} for r in entries]
    if rhs is not None:
        n = len(entries[0])
        for row, x in zip(rows, rhs):
            if x:
                row[n] = _as_rat(x)
    return rows


@pytest.mark.parametrize("name", sorted(PIVOT_RULE_SYSTEMS))
def test_eliminate_pivot_rule_matches_row_scan(name):
    entries, rhs = PIVOT_RULE_SYSTEMS[name]
    n = len(entries[0])
    for rhs_or_none in (rhs, None):
        rows, ref = _rows_of(entries, rhs_or_none), _rows_of(entries, rhs_or_none)
        pivots = _eliminate(rows, n)
        assert pivots == scan_eliminate(ref, n)
        assert rows == ref
        # reduced: a pivot column is held by its pivot row alone
        for r, c in pivots:
            assert [i for i, row in enumerate(rows) if c in row] == [r]
    a, a_ref = Matrix(entries), DenseMatrix(entries)
    b = Vector(rhs)
    sol = solve_affine(a, b)
    assert sol == dense_solve_affine(a_ref, b)
    assert sol is not None and a.apply(sol.particular) == b
    for v in sol.nullspace_basis:
        assert a.apply(v).is_zero()
    if name == "wide_rank_deficient":
        assert sol.dimension == 4
    if a.nrows == a.ncols:
        try:
            expected = dense_invert(a_ref)
        except NotInvertibleError:
            with pytest.raises(NotInvertibleError):
                invert(a)
        else:
            assert invert(a) == Matrix(expected._rows)
            assert invert(a) * a == Matrix.identity(a.nrows)


# ---------------------------------------------------------------------------
# Exact quotients: Rows.of stores integral entries as ints, and _eliminate
# clears with an int factor where the pivot divides and a Fraction where it
# does not.  The reduced rows must equal the all-Fraction rows of
# scan_eliminate value for value, and what leaves the solver is a Fraction:
# ``int / int`` would be a float.
# ---------------------------------------------------------------------------

QUOTIENT_SYSTEMS = {
    # a pivot of 2 clears a 3 and a 1
    "pivot_2_clears_3": ([[2, 1, 0], [3, 1, 1], [1, 0, 5]], [1, 2, 3]),
    # every pivot divides what it clears: the rows stay ints throughout
    "pivots_divide": ([[1, 2, 3], [2, 5, 7], [1, 3, 5]], [1, 0, -1]),
    # negative pivots, some dividing (-3 into 6 and 9) and some not
    "negative_pivots": ([[-3, 6, 1], [6, -12, 2], [9, 1, -1]], [2, -1, 4]),
    # rank 2 of 3, consistent, one null vector
    "singular_no_divide": ([[2, 3, 5], [4, 7, 11], [6, 10, 16]], [1, 2, 3]),
    # wide, rank 2, coprime pivots
    "wide_coprime": ([[2, 3, 0, 1], [3, 5, 7, 0]], [1, 1]),
    # non-integral entries stay Fractions
    "non_integral": ([[Fraction(1, 2), 3, 1], [Fraction(2, 3), Fraction(-5, 4), 0],
                      [1, Fraction(1, 3), Fraction(7, 2)]], [Fraction(1, 2), 1, 0]),
}


def _non_fractions(*vectors):
    "The types of the entries of vectors that are not Fractions."
    return [type(x) for v in vectors for x in v if type(x) is not Fraction]


@pytest.mark.parametrize("name", sorted(QUOTIENT_SYSTEMS))
def test_exact_quotients_match_fraction_elimination(name):
    entries, rhs = QUOTIENT_SYSTEMS[name]
    n = len(entries[0])
    a, a_ref, b = Matrix(entries), DenseMatrix(entries), Vector(rhs)
    rows = Rows.of(a)
    for row, x in zip(rows, rhs):
        if x:
            row[n] = x
    pivots = _eliminate(rows, n)
    ref = _rows_of(entries, rhs)
    assert pivots == scan_eliminate(ref, n)
    assert rows == ref
    if name == "pivots_divide":
        assert {type(x) for row in rows for x in row.values()} == {int}
    sol = solve_affine(a, b)
    assert sol == dense_solve_affine(a_ref, b)
    assert sol is not None and a.apply(sol.particular) == b
    assert not _non_fractions(sol.particular, *sol.nullspace_basis)
    if name == "singular_no_divide":
        assert sol.dimension == 1
        with pytest.raises(NotInvertibleError):
            invert(a)
    elif a.nrows == a.ncols:
        inv = invert(a)
        assert inv == Matrix(dense_invert(a_ref)._rows)
        assert not _non_fractions(*([v for _, v in col] for col in inv.sparse_cols()))
        assert inv * a == Matrix.identity(a.nrows)
        x = two_sided_solve(Rows.of(a), Rows.of(a), dict(enumerate(rhs)))
        want = dense_solve_affine(DenseMatrix(entries + entries), Vector([*rhs, *rhs])).particular
        assert Vector([x.get(c, 0) for c in range(n)]) == want
        assert not _non_fractions(x.values())
