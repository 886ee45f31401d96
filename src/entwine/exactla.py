"""Exact sparse linear algebra over the rationals.

Every structure in this package is a matrix of Fractions over a chosen
basis, stored as its nonzero entries column by column; this module is the
substrate they all compute on.  There is no floating point and no
tolerance anywhere: comparisons are exact equality of canonical rationals.

Inside the tensor-contraction kernel (the second half of this module) a
coefficient is an ``int`` where it is integral and a Fraction otherwise:
the corpus data is integral, and int arithmetic is far cheaper.  In the
finder's quadratic stage it may also be a ``pivribbon._Poly``: the kernel
needs only ``+``, ``*`` and truth of a coefficient.  Mixed int/Fraction
arithmetic is exact and ``Fraction(2) == 2`` with equal hashes, so states
compare the same either way.  A value becomes a Fraction again wherever it
leaves the kernel: ``Vector`` and ``Matrix(rows)`` convert their entries,
``matrix_from_columns_fn``, ``hom_operator`` and ``state_to_vector``
convert what they read from a state (so a ``Witness`` holds Fractions),
and the finder's polynomials convert their coefficients.  Outside the
kernel an int must not appear, because ``int / int`` is a float.

Conventions fixed here and used everywhere else:

* column j of a Matrix is the image of basis vector j;
* the flat index of e_i (x) f_j in U (x) V is ``i * dim(V) + j`` (left
  factor major), and the same recursively for longer tensor products;
* a map as a vector is its matrix row by row, entry (out, in) at
  ``out * ncols + in``; only Matrix.flat and Matrix.from_flat write it;
* rationals serialize as ``"p/q"`` (or ``"p"`` when q == 1), canonical
  form, ASCII, no whitespace.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from fractions import Fraction
from math import prod
from operator import itemgetter

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class NotInvertibleError(ValueError):
    """Raised when a square matrix (or algebra element) has no inverse."""


def rat_to_str(x: Fraction) -> str:
    "Canonical string form of a rational: 'p/q' or 'p' when q == 1."
    # a Fraction prints its own numerator and denominator; building a new
    # one per entry cost several times as much
    return str(_as_rat(x))


def rat_from_str(s: str) -> Fraction:
    """Parse a canonical rational string, rejecting non-canonical input.

    '2/4', '1/-2', '3/1', '-0', '007' and anything with whitespace are all
    errors: the value must print back as s, so load/save round trips are
    bit-exact.
    """
    m = _RAT_RE.match(s)
    if not m:
        raise ValueError(f"malformed rational {s!r}")
    num, den = m.groups()
    if den is None:
        x = Fraction(int(num))
    elif int(den) == 0:
        raise ValueError(f"zero denominator in {s!r}")
    else:
        x = Fraction(int(num), int(den))
    if str(x) != s:
        raise ValueError(f"non-canonical rational {s!r} (write {x})")
    return x


def _as_rat(x) -> Fraction:
    "x as a Fraction; only an int or a Fraction is a value, a float is a TypeError."
    # hot path: internal construction already carries Fractions
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__} {x!r}")


class Vector:
    """Immutable coefficient vector over Q."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(_as_rat(c) for c in coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def zero(dim: int) -> "Vector":
        return Vector([ZERO] * dim)

    @staticmethod
    def basis(dim: int, i: int) -> "Vector":
        coords = [ZERO] * dim
        coords[i] = ONE
        return Vector(coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Vector([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Vector([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Vector":
        return Vector([-a for a in self.coords])

    def scale(self, c) -> "Vector":
        c = _as_rat(c)
        return Vector([c * a for a in self.coords])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return "Vector([%s])" % ", ".join(rat_to_str(c) for c in self.coords)


class Matrix:
    """Immutable sparse-column matrix over Q.

    Treated as a linear map: ``nrows x ncols`` sends a ``ncols``-vector to
    a ``nrows``-vector; column j is the image of basis vector j.  Column j
    is stored as its nonzero entries, a list of (row, value) pairs in
    ascending row order.

    ``Matrix(rows)`` takes dense rows and normalises them once; the
    operations of this package pass canonical columns with
    ``Matrix(shape=(nrows, ncols), cols=...)``.  Dense rows are built
    only on demand by ``rows()`` (file output, ``repr``).
    """

    # the columns live in _colcache; the benchmark tracer reads that name
    # and the dense rows as _rows
    __slots__ = ("nrows", "ncols", "_colcache")

    def __init__(self, rows=None, *, shape=None, cols=None):
        if cols is None:
            rows = [[_as_rat(x) for x in row] for row in rows]
            shape = len(rows), len(rows[0]) if rows else 0
            if any(len(r) != shape[1] for r in rows):
                raise ValueError("ragged rows")
            cols = [[(i, r[j]) for i, r in enumerate(rows) if r[j]] for j in range(shape[1])]
        elif len(cols) != shape[1]:
            raise ValueError("column count does not match shape")
        self.nrows, self.ncols = shape
        self._colcache = cols

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix(shape=(nrows, ncols), cols=[[] for _ in range(ncols)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(shape=(n, n), cols=[[(i, ONE)] for i in range(n)])

    @staticmethod
    def from_cols(cols: list[Vector] | list[list[Fraction]], nrows: int | None = None) -> "Matrix":
        cols = [list(c) for c in cols]
        if nrows is None:
            nrows = len(cols[0])
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(nrows)])

    @staticmethod
    def from_flat(values, ncols: int) -> "Matrix":
        "The matrix with ncols columns whose flat() is the sequence values."
        return Matrix([values[i:i + ncols] for i in range(0, len(values), ncols)])

    def flat(self) -> Vector:
        "The entries row by row: entry (i, j) at i * ncols + j."
        return Vector(x for row in self.rows() for x in row)

    def row(self, i: int) -> Vector:
        return Vector(self.rows()[i])

    def col(self, j: int) -> Vector:
        coords = [ZERO] * self.nrows
        for i, x in self._colcache[j]:
            coords[i] = x
        return Vector(coords)

    def entry(self, i: int, j: int) -> Fraction:
        for r, x in self._colcache[j]:
            if r == i:
                return x
        return ZERO

    def rows(self):
        "Dense rows, as a tuple of tuples (built on each call, never kept)."
        out = [[ZERO] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self._colcache):
            for i, x in col:
                out[i][j] = x
        return tuple(map(tuple, out))

    @property
    def _rows(self):
        return self.rows()

    def sparse_cols(self) -> list[list[tuple[int, Fraction]]]:
        "Nonzero entries per column, as (row, value) lists in row order."
        return self._colcache

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._colcache == other._colcache
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(map(tuple, self._colcache))))

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        "self + sign * other, column by column."
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        cols = []
        for a, b in zip(self._colcache, other._colcache):
            acc = dict(a)
            for i, x in b:
                acc[i] = acc.get(i, ZERO) + sign * x
            cols.append(sorted((i, x) for i, x in acc.items() if x))
        return Matrix(shape=(self.nrows, self.ncols), cols=cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = _as_rat(c)
        cols = [[(i, c * x) for i, x in col] if c else [] for col in self._colcache]
        return Matrix(shape=(self.nrows, self.ncols), cols=cols)

    def __mul__(self, other):
        "Composition with a Matrix, or application to a Vector."
        if isinstance(other, Vector):
            return self.apply(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        lcols = self._colcache
        cols = []
        for rcol in other._colcache:
            acc: dict[int, Fraction] = {}
            for k, x in rcol:
                for i, y in lcols[k]:
                    acc[i] = acc.get(i, ZERO) + y * x
            cols.append(sorted((i, s) for i, s in acc.items() if s))
        return Matrix(shape=(self.nrows, other.ncols), cols=cols)

    def apply(self, v: Vector) -> Vector:
        if self.ncols != v.dim:
            raise ValueError("shape mismatch in apply")
        out = [ZERO] * self.nrows
        for col, x in zip(self._colcache, v.coords):
            if x:
                for i, m in col:
                    out[i] += m * x
        return Vector(out)

    def transpose(self) -> "Matrix":
        cols = [[] for _ in range(self.nrows)]
        for j, col in enumerate(self._colcache):
            for i, x in col:
                cols[i].append((j, x))
        return Matrix(shape=(self.ncols, self.nrows), cols=cols)

    def is_zero(self) -> bool:
        return not any(self._colcache)

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and all(
            col == [(j, ONE)] for j, col in enumerate(self._colcache)
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(rat_to_str(x) for x in row) for row in self.rows()
        )
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product realizing the tensor product of linear maps.

    (a (x) b)(v (x) w) = a(v) (x) b(w) under the left-factor-major flat
    index convention; shapes multiply.
    """
    bn = b.nrows
    bcols = b.sparse_cols()
    cols = [
        [(i * bn + k, x * y) for i, x in acol for k, y in bcol]
        for acol in a.sparse_cols()
        for bcol in bcols
    ]
    return Matrix(shape=(a.nrows * bn, a.ncols * b.ncols), cols=cols)


class AffineSolution(namedtuple("AffineSolution", "particular nullspace_basis")):
    """Full solution set of a consistent affine system a.x = b.

    ``particular`` (a Vector) solves the inhomogeneous system;
    ``nullspace_basis`` is a tuple of linearly independent Vectors solving
    a.x = 0, so the set of all solutions is particular + span(nullspace_basis).
    """

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.nullspace_basis)


def _eliminate(rows: list[dict[int, Fraction]], ncols: int):
    """Gauss-Jordan elimination on sparse rows (in place).

    Pivot selection is deterministic: columns left to right, the lowest
    unpivoted row with a nonzero entry in that column; the pivot column is
    cleared from every other row, pivoted rows included.  So when it
    finishes, a pivot row holds only its own pivot, free columns and the
    right-hand sides (the entries at ncols and beyond), and every solution
    can be read off the reduced rows (_read_off).  Rows must store no zero
    entries.  An index of the rows holding each later column is kept as
    entries fill in and cancel, so a column costs its own holders rather
    than a scan of every row.  Returns the list of (row_index, pivot_col)
    pairs in elimination order.
    """
    holders: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            if c < ncols:
                holders.setdefault(c, set()).add(r)
    pivots = []
    pivoted: set[int] = set()
    for col in range(ncols):
        held = holders.pop(col, ())
        piv = min((r for r in held if r not in pivoted), default=None)
        if piv is None:
            continue
        pivoted.add(piv)
        pivots.append((piv, col))
        prow = rows[piv]
        pval = prow[col]
        # each cleared row depends only on the pivot row: any order will do
        for r in held:
            if r == piv:
                continue
            row = rows[r]
            factor = row[col] / pval
            for c, x in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = -factor * x
                    if col < c < ncols:
                        holders.setdefault(c, set()).add(r)
                    continue
                nv = old - factor * x
                if nv == 0:
                    del row[c]
                    if col < c < ncols:
                        holders[c].discard(r)
                else:
                    row[c] = nv
    return pivots


def _reduce(a: Matrix, rhs_cols: list[list[tuple[int, Fraction]]]):
    """The rows of [a | rhs] after _eliminate, and its pivots.

    ``rhs_cols`` are sparse columns like Matrix.sparse_cols(); right-hand
    side k sits at column ``a.ncols + k``.
    """
    n = a.ncols
    rows: list[dict[int, Fraction]] = [{} for _ in range(a.nrows)]
    for j, col in enumerate(a.sparse_cols()):
        for i, x in col:
            rows[i][j] = x
    for k, col in enumerate(rhs_cols):
        for i, x in col:
            rows[i][n + k] = x
    return rows, _eliminate(rows, n)


def _read_off(rows, pivots, col: int) -> dict[int, Fraction]:
    """Column col read off the reduced rows: x[c] = row[col] / row[c] at
    each pivot (r, c), zero elsewhere (only the nonzeros are returned).
    For a right-hand side this is the solution with every free variable 0;
    for a free column f, minus it is the pivot part of f's null vector."""
    return {c: rows[r][col] / rows[r][c] for r, c in pivots if col in rows[r]}


def vstack(*blocks: Matrix) -> Matrix:
    "The rows of each block in turn; every block must have the same unknowns."
    ncols = blocks[0].ncols
    if any(b.ncols != ncols for b in blocks):
        raise ValueError("stacked blocks must have the same number of columns")
    cols = [[] for _ in range(ncols)]
    offset = 0
    for b in blocks:
        for col, bcol in zip(cols, b.sparse_cols()):
            col.extend((i + offset, x) for i, x in bcol)
        offset += b.nrows
    return Matrix(shape=(offset, ncols), cols=cols)


def solve_affine(a: Matrix, b: Vector) -> AffineSolution | None:
    """Exact affine solve of a.x = b; None when inconsistent.

    The right-hand side is carried in one augmented column.  The particular
    solution sets every free variable to 0; the null vector of free column
    f sets f to 1 and the other free variables to 0.
    """
    if a.nrows != b.dim:
        raise ValueError("rows(a) must equal dim(b)")
    n = a.ncols
    rows, pivots = _reduce(a, [[(i, x) for i, x in enumerate(b.coords) if x]])
    piv_rows = {r for r, _ in pivots}
    if any(n in row for r, row in enumerate(rows) if r not in piv_rows):
        return None
    piv_cols = {c for _, c in pivots}

    def vector(entries: dict[int, Fraction]) -> Vector:
        return Vector([entries.get(c, ZERO) for c in range(n)])

    null_basis = []
    for f in range(n):
        if f not in piv_cols:
            entries = {c: -v for c, v in _read_off(rows, pivots, f).items()}
            entries[f] = ONE
            null_basis.append(vector(entries))
    return AffineSolution(vector(_read_off(rows, pivots, n)), tuple(null_basis))


def two_sided_solve(left: Matrix, right: Matrix, rhs) -> Vector | None:
    """The x with left.x = rhs = right.x, or None when there is none.

    The two systems are stacked left rows first and handed to solve_affine,
    whose particular solution is returned.  For the operators x -> g*x and
    x -> x*g of an associative algebra and rhs its unit, x is the two-sided
    inverse of g, which is unique when it exists.  Convolution inverses
    solve right.x = rhs alone and call this only when that system is
    consistent and rank-deficient, which needs a non-associative product:
    a unique solution of one side is the two-sided inverse or there is
    none, and the stacked system has no more solutions than either side.
    """
    sol = solve_affine(vstack(left, right), Vector([*rhs, *rhs]))
    return None if sol is None else sol.particular


def invert(a: Matrix) -> Matrix:
    "Exact inverse of a square matrix; raises NotInvertibleError."
    if a.nrows != a.ncols:
        raise NotInvertibleError("matrix is not square")
    n = a.nrows
    rows, pivots = _reduce(a, Matrix.identity(n).sparse_cols())
    if len(pivots) < n:
        raise NotInvertibleError("matrix is rank-deficient")
    # pivots come in column order, so each read-off is a sorted column
    return Matrix(shape=(n, n), cols=[list(_read_off(rows, pivots, n + i).items())
                                      for i in range(n)])


# ---------------------------------------------------------------------------
# Sparse tensor-contraction kernel.
#
# Intermediate states of a structural computation (an axiom side, a
# structure-map column) are sparse vectors in a tensor product of basis
# spaces, keyed by index tuples.  A TensorOp applies one linear map to a
# contiguous block of legs; permutations rearrange legs.  Cup and Cap
# insert and contract a pair of dual-basis legs, so a partial trace (one
# output of a map fed back into an input) or a dual-basis transposition is
# a plain pipeline too.  A SlotLeg stands for an unknown map, so a side
# that is linear in it comes out as a matrix (hom_operator), its columns
# in the order of Matrix.flat.  Everything
# is exact and allocation-light: dims stay <= 16 throughout the corpus.
#
# Ops.  Every op (KernelOp) keeps a column table ``_cols``: input legs ->
# [(output legs, coefficient)].  sv_apply reads the table directly.  At its
# first miss in a call it hands all the input legs of its state that the
# table lacks to the op's ``fill`` in one call, and reads on.  Cup, SlotLeg
# and the finder's family op hand KernelOp their whole table up front; Cap
# fills an entry when it is first asked for.  A TensorOp fills its columns
# from one of two sources:
#  * a Matrix: a column is read off the matrix, each row index unflattened
#    once per op;
#  * kernel steps: they run over only the missing tuples, BATCH_CAP at a
#    time (run_batch), on legs that may differ from the op's own (a tensor
#    module's (m*n, a) action runs on (m, n, a) legs, a snake's (m, m) ev
#    on (m*m,) legs; a tuple has the same flat index over both).
# So a step-built op builds the columns a scan reads and no others.  Its
# Matrix is made only when something reads ``matrix``: a module's
# ``action``/``coaction`` (a dual's transpose, a file save, an equality) or
# a morphism's ``map`` (then, transpose, nat_to_hom).  The missing columns
# are filled and the table goes through matrix_from_columns_fn.
# pipeline_matrix is that materialisation of a fresh step-built op.  A map
# used only as an op stays step-built and is never made a Matrix and
# wrapped again: each map has one op, so each column is filled once.
#
# Coefficients are ints where integral: a TensorOp hands out the integral
# entries of its matrix as ints, SlotLeg, Cup, Cap and the seeds use 1, and
# sv_apply sums from 0.  A coefficient is an int, a Fraction or, in the
# finder's quadratic stage, a pivribbon._Poly of the family op: sv_apply
# only adds, multiplies and tests coefficients for truth.  The functions
# that turn a state into a Vector or a Matrix (state_to_vector,
# matrix_from_columns_fn, pipeline_matrix, hom_operator) convert every
# value back to a Fraction.
#
# Batches.  Steps run once per batch of basis tuples, not once per tuple:
# run_batch seeds {(*t, j): 1} for the j-th tuple t of a batch, and every
# step leaves that trailing batch leg j where it is (sv_apply carries the
# legs after its block, sv_permute those after its perm).  Terms of
# different tuples never meet, so the state restricted to j is what t alone
# gives.  A state holds about one term per tuple, so batching pays a step's
# per-call cost once per batch instead of once per tuple.  compare_item
# takes batches of 1, 2, 4, ... tuples, so a scan that fails early
# evaluates little past its witness; a step-built TensorOp, and with it
# pipeline_matrix, and hom_operator take full batches.  Either way a batch
# holds at most BATCH_CAP = 64 tuples: larger batches hold larger states at
# once and were no faster.  Peak RSS of `entwine check hopf` on four
# 16-dimensional built Hopf algebras was 23.8 MB one tuple at a time,
# 24.7 MB with a cap of 64, 26.3 MB with 256 and 26.5 MB with 4096; the
# benchmark's modules-duality workload peaked at 25.2, 25.2, 25.4 and
# 25.6 MB.  Every key of a state has the same number of legs.
# ---------------------------------------------------------------------------

# a sparse tensor: index tuple -> nonzero int or Fraction coefficient
State = dict[tuple, int | Fraction]

# the most basis tuples one batch holds (see above)
BATCH_CAP = 64


def flatten_index(dims: tuple[int, ...], idx: tuple[int, ...]) -> int:
    flat = 0
    for d, i in zip(dims, idx):
        flat = flat * d + i
    return flat


def unflatten_index(dims: tuple[int, ...], flat: int) -> tuple[int, ...]:
    idx = []
    for d in reversed(dims):
        idx.append(flat % d)
        flat //= d
    return tuple(reversed(idx))


def _basis(dims):
    "The basis tuples over dims, in lexicographic order."
    return itertools.product(*(range(d) for d in dims))


class KernelOp:
    """A kernel op: ``arity_in`` legs in, ``arity_out`` legs out, and the
    column table ``_cols`` (input legs -> [(output legs, coefficient)])
    that sv_apply reads.  ``fill(legs)`` adds the columns at each of legs
    that the table lacks; this base's table is complete from the start."""

    __slots__ = ("arity_in", "arity_out", "_cols")

    def __init__(self, arity_in: int, arity_out: int, cols: dict):
        self.arity_in, self.arity_out, self._cols = arity_in, arity_out, cols

    def fill(self, legs) -> None:
        "Add the columns at legs to the table (nothing is missing here)."

    def cols(self, legs: tuple) -> list[tuple[tuple, int | Fraction]]:
        "The column at legs, filled first if the table lacks it."
        col = self._cols.get(legs)
        if col is None:
            self.fill((legs,))
            col = self._cols[legs]
        return col


class TensorOp(KernelOp):
    """A linear map between tensor-index spaces as a kernel op.

    Its input and output spaces factor as ``in_dims`` and ``out_dims``, and
    ``cols(legs)`` is the image of a basis tuple as (out_tuple, coefficient)
    pairs in flat-index order.  The columns come from ``matrix``, or, with
    ``matrix`` None, from kernel ``steps`` run on legs over ``step_dims`` =
    (input dims, output dims), by default the op's own; a basis tuple and
    its reshape have the same flat index.  A step-built op fills only the
    columns it is asked for, and makes its Matrix on first access to
    ``matrix`` (see the comment above).
    """

    __slots__ = ("in_dims", "out_dims", "_matrix", "_steps", "_step_dims", "_outs")

    def __init__(self, matrix: Matrix | None, in_dims, out_dims, steps=None, step_dims=None):
        self.in_dims = tuple(in_dims)
        self.out_dims = tuple(out_dims)
        self._step_dims = (self.in_dims, self.out_dims)
        if step_dims is not None:
            self._step_dims = tuple(step_dims[0]), tuple(step_dims[1])
        if matrix is not None:
            shape = matrix.ncols, matrix.nrows
        else:
            shape = prod(self._step_dims[0]), prod(self._step_dims[1])
        if shape != (prod(self.in_dims), prod(self.out_dims)):
            raise ValueError("tensor dims inconsistent with matrix shape")
        super().__init__(len(self.in_dims), len(self.out_dims), {})
        self._matrix = matrix
        self._steps = steps
        # the op's output legs per matrix row, or per output key of the steps
        self._outs: dict = {}

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            table = self._cols
            self.fill([t for t in _basis(self.in_dims) if t not in table])
            self._matrix = matrix_from_columns_fn(self.in_dims, self.out_dims,
                                                  lambda t: dict(table[t]))
        return self._matrix

    def fill(self, legs) -> None:
        if self._steps is None:
            self._fill_from_matrix(legs)
        else:
            self._fill_from_steps(list(legs))

    def _fill_from_matrix(self, legs) -> None:
        cols, outs, table = self._matrix.sparse_cols(), self._outs, self._cols
        in_dims, out_dims = self.in_dims, self.out_dims
        for t in legs:
            col = []
            for i, x in cols[flatten_index(in_dims, t)]:
                out = outs.get(i)
                if out is None:
                    out = outs[i] = unflatten_index(out_dims, i)
                col.append((out, x.numerator if x.denominator == 1 else x))
            table[t] = col

    def _fill_from_steps(self, legs: list) -> None:
        (step_in, step_out), outs, table = self._step_dims, self._outs, self._cols
        in_dims, out_dims = self.in_dims, self.out_dims
        for start in range(0, len(legs), BATCH_CAP):
            batch = legs[start:start + BATCH_CAP]
            if step_in == in_dims:
                seeds = batch
            elif in_dims and len(step_in) == len(in_dims) + 1 and step_in[2:] == in_dims[1:]:
                # a module op's first leg splits in two (emodcat._action_op): one
                # divmod; a memo of reshaped tuples shared by ops was faster but
                # outlived them
                seeds = [(*divmod(t[0], step_in[1]), *t[1:]) for t in batch]
            else:
                seeds = [unflatten_index(step_in, flatten_index(in_dims, t)) for t in batch]
            parts = [[] for _ in batch]
            for key, c in run_batch(seeds, self._steps).items():
                k = key[:-1]
                out = outs.get(k)
                if out is None:
                    out = outs[k] = k if step_out == out_dims else unflatten_index(
                        out_dims, flatten_index(step_out, k))
                parts[key[-1]].append((out, c))
            for t, part in zip(batch, parts):
                # output legs differ within a column and sort in flat-index order
                part.sort()
                table[t] = part


class SlotLeg(KernelOp):
    """An unknown map f: ``in_dims`` -> ``out_dims`` as a kernel op.

    It rides on a pipeline whose keys end in one extra slot leg, 0 on
    entry.  Applied to the input legs of f followed by that slot leg, it
    sends ``(*legs, 0)`` to every ``(*out, slot)`` with coefficient 1, where
    ``slot`` is the flat index of the matrix unit ``out <- legs`` in
    hom(in_dims, out_dims), output major.  Concrete maps in the same
    pipeline act on their own legs and carry the slot leg along.  A side
    that is linear in f then comes out with the images of all matrix
    units at once, told apart by the slot leg (see hom_operator).
    """

    __slots__ = ()

    def __init__(self, in_dims, out_dims):
        in_dims, out_dims = tuple(in_dims), tuple(out_dims)
        outs = list(_basis(out_dims))
        n_in = prod(in_dims)
        super().__init__(len(in_dims) + 1, len(out_dims) + 1, {
            legs + (0,): [(out + (i * n_in + j,), 1) for i, out in enumerate(outs)]
            for j, legs in enumerate(_basis(in_dims))
        })


class Cup(KernelOp):
    """Insertion of sum_x e_x (x) e_x on two n-dimensional legs, as a kernel
    op from no legs to ``(x, x)``."""

    __slots__ = ()

    def __init__(self, n: int):
        super().__init__(0, 2, {(): [((x, x), 1) for x in range(n)]})


class Cap(KernelOp):
    """Contraction of two legs against each other, as a kernel op from
    ``(x, y)`` to no legs: it keeps a term only when x == y."""

    __slots__ = ()
    _KEEP = [((), 1)]

    def __init__(self):
        super().__init__(2, 0, {})

    def fill(self, legs) -> None:
        for t in legs:
            self._cols[t] = self._KEEP if t[0] == t[1] else []


def sv_apply(state: State, pos: int, op: KernelOp) -> State:
    "Apply op to the legs [pos, pos + op.arity_in) of every key."
    out: State = {}
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


def sv_permute(state: State, perm: tuple[int, ...]) -> State:
    "Reorder legs: new_key[i] = old_key[perm[i]]; legs past len(perm) stay last."
    n = len(next(iter(state), ()))
    if n < 2:
        return dict(state)
    pick = itemgetter(*perm, *range(len(perm), n))
    return {pick(key): c for key, c in state.items()}


def state_to_vector(state: State, dims: tuple[int, ...]) -> Vector:
    coords = [ZERO] * prod(dims) if dims else [ZERO]
    if not dims:
        # scalar-valued state: the only key is ()
        return Vector([state.get((), ZERO)])
    for key, c in state.items():
        coords[flatten_index(dims, key)] = c
    return Vector(coords)


def basis_batches(dims, first: int = BATCH_CAP):
    """The basis tuples over dims in lexicographic order, in lists of first,
    2 * first, 4 * first, ... tuples, none longer than BATCH_CAP."""
    tuples = _basis(dims)
    size = min(first, BATCH_CAP)
    while batch := list(itertools.islice(tuples, size)):
        yield batch
        size = min(2 * size, BATCH_CAP)


def run_batch(tuples, steps) -> State:
    """Run steps (callables State -> State) once over a batch of tuples.

    The seed holds (*t, j) with coefficient 1 for the j-th tuple t; each
    step acts on the legs before the trailing batch leg j and carries it
    along, so the terms keyed (..., j) are what steps give on t alone.
    Callers pass at most BATCH_CAP tuples (basis_batches, TensorOp.fill).
    """
    state: State = {(*t, j): 1 for j, t in enumerate(tuples)}
    for step in steps:
        state = step(state)
    return state


def matrix_from_columns_fn(in_dims, out_dims, fn) -> Matrix:
    """Assemble the matrix of a map given column-wise on basis tuples.

    ``fn`` maps an input basis tuple to a State over ``out_dims``; it is
    called once per tuple, in lexicographic order.  A map computed by
    kernel steps comes here through pipeline_matrix (TensorOp.matrix).
    Within one call the flat index of each distinct output key and the
    Fraction of each distinct int are worked out once; any other value goes
    through _as_rat every time, so a float is still a TypeError.
    """
    out_dims = tuple(out_dims)
    flats: dict[tuple, int] = {}
    rats: dict[int, Fraction] = {}

    def entry(key, c):
        i = flats.get(key)
        if i is None:
            i = flats[key] = flatten_index(out_dims, key)
        if type(c) is int:
            r = rats.get(c)
            if r is None:
                r = rats[c] = Fraction(c)
            return i, r
        return i, _as_rat(c)

    cols = [sorted(entry(key, c) for key, c in fn(idx).items() if c) for idx in _basis(in_dims)]
    return Matrix(shape=(prod(out_dims), len(cols)), cols=cols)


def pipeline_matrix(in_dims, out_dims, steps) -> Matrix:
    """The matrix whose column at a basis tuple t over ``in_dims`` is what
    steps give on t, a State over ``out_dims``: the Matrix of the
    step-built TensorOp, every column filled BATCH_CAP tuples at a time."""
    return TensorOp(None, in_dims, out_dims, steps).matrix


def hom_operator(in_dims, out_dims, seed_dims, key_dims, side) -> Matrix:
    """The matrix of f -> side(f), for f: ``in_dims`` -> ``out_dims``.

    ``side(f_op)`` gives the steps of side(f), with ``f_op`` standing for
    f.  They run on the seeds ``(*t, 0)`` for the tuples t over
    ``seed_dims`` (the 0 is the slot leg, see SlotLeg), a batch at a time
    (see run_batch), and end on keys over ``key_dims``, the slot leg and
    the batch leg.  Row ``key * prod(seed_dims) + t`` holds the
    coefficients of that output entry, column ``out * prod(in_dims) + in``
    those of f's matrix unit ``out <- in``.  With a SlotLeg as f one pass
    yields every column at once.  For a side from hom(in_dims, out_dims) to
    itself, seed and key dims are f's own.
    """
    key_dims = tuple(key_dims)
    n_seed = prod(seed_dims)
    steps = side(SlotLeg(in_dims, out_dims))
    cols = [[] for _ in range(prod(out_dims) * prod(in_dims))]
    start = 0
    for batch in basis_batches(seed_dims):
        for key, x in run_batch([(*t, 0) for t in batch], steps).items():
            # flatten_index reads the legs over key_dims, not slot and batch
            row = flatten_index(key_dims, key) * n_seed + start + key[-1]
            cols[key[-2]].append((row, _as_rat(x)))
        start += len(batch)
    return Matrix(shape=(prod(key_dims) * n_seed, len(cols)), cols=[sorted(c) for c in cols])
