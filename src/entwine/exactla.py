"""Exact sparse linear algebra over the rationals.

Every structure in this package is a matrix of Fractions over a chosen
basis, stored as its nonzero entries column by column; this module is the
substrate they all compute on.  There is no floating point and no
tolerance anywhere: comparisons are exact equality of canonical rationals.

The tensor-contraction kernel (the second half of this module) keys each
term of a state by its flat index over the state's leg dimensions
``dims``, the batch leg last, so no step ever reshapes a key.  There a
coefficient is an ``int`` where it is integral and a Fraction otherwise:
the corpus data is integral, and int arithmetic is far cheaper.  In the
finder's quadratic stage it may also be a ``pivribbon._Poly``: the kernel
needs only ``+``, ``*`` and truth of a coefficient.  Mixed int/Fraction
arithmetic is exact and ``Fraction(2) == 2`` with equal hashes, so states
compare the same either way.  A value becomes a Fraction again wherever it
leaves the kernel: ``Vector`` and ``Matrix(rows)`` convert their entries,
``matrix_from_columns_fn`` and ``state_to_vector`` convert what they read
from a state (so a ``Witness`` holds Fractions), and the finder's
polynomials convert their coefficients.  ``hom_operator`` writes a side's
coefficients unconverted into the solver's ``Rows``, whose ints stay until
``_read_off`` divides them into Fractions.  Outside the kernel and the
solver's rows an int must not appear: ``int / int`` is a float.

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
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import prod

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

    ``particular`` solves the inhomogeneous system; ``nullspace_basis`` is a
    tuple of linearly independent solutions of a.x = 0, so the set of all
    solutions is particular + span(nullspace_basis).  Each is a Vector, or
    its nonzero entries {column: Fraction} where b was given that way.
    """

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.nullspace_basis)


class Rows(list):
    """A linear map on ``ncols`` unknowns as sparse rows, the form the
    solvers eliminate on: row i is a dict column -> nonzero entry, an int
    where integral, else a Fraction.  hom_operator builds its operators in
    this form, and Rows.of converts a Matrix.  ``index`` holds the operator
    row of each row, ascending, where only some of an operator's rows are
    held (hom_operator with a right-hand side); None means row i is
    operator row i."""

    __slots__ = ("ncols", "index")
    nrows = property(list.__len__)

    def __init__(self, rows, ncols: int, index=None):
        super().__init__(rows)
        self.ncols, self.index = ncols, index

    @staticmethod
    def of(a: Matrix) -> "Rows":
        "The rows of a, its integral entries as ints."
        rows = Rows([{} for _ in range(a.nrows)], a.ncols)
        for j, col in enumerate(a.sparse_cols()):
            for i, x in col:
                rows[i][j] = x.numerator if x.denominator == 1 else x
        return rows

    def component(self, rhs: dict) -> tuple["Rows", dict, list[int]]:
        """The rows that the nonzero rows of ``rhs`` (keyed by operator row,
        each one held) reach, two rows meeting when they share a column:
        their Rows, ``rhs`` on them and the old column of each new one.
        Only the rows held are searched.  Rows and columns keep their
        order, so the subsystem eliminates with the same pivots as in the
        whole."""
        index = self.index or range(len(self))
        at = {r: k for k, r in enumerate(index)} if self.index else index
        rows = sorted(_linked(self, [at[r] for r, x in rhs.items() if x]))
        cols = sorted({c for k in rows for c in self[k]})
        new = {c: k for k, c in enumerate(cols)}
        sub = Rows([{new[c]: x for c, x in self[k].items()} for k in rows], len(cols))
        return sub, {n: rhs[index[k]] for n, k in enumerate(rows) if index[k] in rhs}, cols


def _linked(keys, start) -> set[int]:
    """The indices linked to ``start``: i and i' are linked when ``keys[i]``
    and ``keys[i']`` share a key, and through chains of such links."""
    holders: dict = {}
    for i, ks in enumerate(keys):
        for k in ks:
            holders.setdefault(k, []).append(i)
    reached, todo = set(start), list(start)
    while todo:
        for k in keys[todo.pop()]:
            new = [i for i in holders.pop(k, ()) if i not in reached]
            reached.update(new)
            todo += new
    return reached


def _eliminate(rows: list[dict[int, int | Fraction]], ncols: int):
    """Gauss-Jordan elimination on sparse rows (in place).

    Pivot selection is deterministic: columns left to right, the lowest
    unpivoted row with a nonzero entry in that column; the pivot column is
    cleared from every other row, pivoted rows included.  So when it
    finishes, a pivot row holds only its own pivot, free columns and the
    right-hand sides (the entries at ncols and beyond), and every solution
    can be read off the reduced rows (_read_off).  Rows must store no zero
    entries.  An index of the rows holding each later column is kept as
    entries fill in and cancel, so a column costs its own holders rather
    than a scan of every row.  Integral entries may be ints: a factor is an
    int where the pivot divides the entry, else one Fraction (never ``int /
    int``), so integral rows stay in int arithmetic and equal the Fraction
    rows value for value.  Returns the (row_index, pivot_col) pairs in
    elimination order.
    """
    holders: dict[int, set[int]] = {}
    for r, row in enumerate(rows):
        for c in row:
            if c < ncols:
                holders.setdefault(c, set()).add(r)
    pivots = []
    pivoted: set[int] = set()
    for col in range(ncols):
        held = holders.pop(col, set())
        piv = min(held - pivoted, default=None)
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
            factor, rem = divmod(row[col], pval)
            if rem:
                factor = Fraction(row[col], pval)
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


def _read_off(rows, pivots, col: int) -> dict[int, Fraction]:
    """Column col read off the reduced rows: x[c] = row[col] / row[c] at
    each pivot (r, c), zero elsewhere (only the nonzeros are returned).
    For a right-hand side this is the solution with every free variable 0;
    for a free column f, minus it is the pivot part of f's null vector.
    Values are Fractions, though rows may hold ints."""
    return {c: Fraction(rows[r][col], rows[r][c]) for r, c in pivots if col in rows[r]}


def solve_affine(a: Matrix | Rows, b: Vector | dict) -> AffineSolution | None:
    """Exact affine solve of a.x = b; None when inconsistent.

    The solve runs on a copy of the rows of a (a Matrix or Rows), the
    right-hand side b in one augmented column.  b is a Vector or its
    nonzero entries {row: value}, and the solutions come in b's form.  The
    particular solution sets every free variable to 0; the null vector of
    free column f sets f to 1 and the other free variables to 0.
    """
    rows = Rows.of(a) if isinstance(a, Matrix) else Rows(map(dict, a), a.ncols)
    n, dense = rows.ncols, isinstance(b, Vector)
    if dense and rows.nrows != b.dim:
        raise ValueError("rows(a) must equal dim(b)")
    for i, x in enumerate(b.coords) if dense else b.items():
        if x:
            rows[i][n] = x.numerator if x.denominator == 1 else x
    pivots = _eliminate(rows, n)
    piv_rows = {r for r, _ in pivots}
    if any(n in row for r, row in enumerate(rows) if r not in piv_rows):
        return None
    piv_cols = {c for _, c in pivots}

    def vector(entries: dict[int, Fraction]) -> Vector | dict[int, Fraction]:
        return Vector([entries.get(c, ZERO) for c in range(n)]) if dense else entries

    null_basis = []
    for f in range(n):
        if f not in piv_cols:
            entries = {c: -v for c, v in _read_off(rows, pivots, f).items()}
            entries[f] = ONE
            null_basis.append(vector(entries))
    return AffineSolution(vector(_read_off(rows, pivots, n)), tuple(null_basis))


def invert(a: Matrix) -> Matrix:
    "Exact inverse of a square matrix; raises NotInvertibleError."
    if a.nrows != a.ncols:
        raise NotInvertibleError("matrix is not square")
    n = a.nrows
    rows = Rows.of(a)
    for i, row in enumerate(rows):
        row[n + i] = 1
    pivots = _eliminate(rows, n)
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
# spaces: a State keys each term by its flat index over the leg dimensions
# ``dims``, the batch leg last.  A TensorOp applies one linear map to a
# contiguous block of legs; permutations rearrange legs.  Cup and Cap
# insert and contract a pair of dual-basis legs, so a partial trace or a
# dual-basis transposition is a plain pipeline too.  A SlotLeg stands for
# an unknown map, so a side linear in it comes out as the rows of a linear
# system (hom_operator), its columns in the order of Matrix.flat.
#
# Flat keys.  With ts the product of the dims after an op's block, a key's
# input column is ``key // ts % n_in``, and output o of that column goes to
# ``key // (n_in * ts) * (n_out * ts) + key % ts + o * ts``: no tuple to
# slice, build or hash.  A flat index is the same under any reshape of the
# legs, so nothing is ever reshaped.  sv_apply checks that its legs are the
# op's in_dims, before the batch leg, as a wrong op would give wrong indices
# silently.  Two
# divmod() calls per key in place of // and % made dqg-e10b wall_s 18 %
# and verify-scan op_p50_ms 20 % worse (2-vCPU VM): states there average
# 8 terms, so per-key overhead decides.  At leg 0 no leg comes before the
# block, so sv_apply runs a loop of its own, whose column is ``key // ts``
# and base ``key % ts``: no ``% n_in`` and no ``key // block_in *
# block_out`` per key.  That loop alone made a pass 6-8 % faster on
# modules-duality, 8 % on verify-scan and 7 % on dqg-e10b (one process,
# 40-80 alternating rounds, 2-vCPU VM).  Rejected: column tables
# pre-scaled per stride (verify-scan -21 % in one process, mostly from
# tables kept across passes, and -3 to -11 % on fresh objects;
# modules-duality +0.8 %, dqg-e10b +3.3 %); a branch for a new key,
# ``get(nk) is None``, 4.5-7.4 % slower; and a batch's first step written
# straight from the op's columns with no seed state, which on top of this
# loop won 47 of 80 rounds on modules-duality and 19 of 40 on dqg-e10b.
#
# Permutations.  sv_permute moves only the block of legs from the first
# leg perm moves to the last; the legs around it keep their strides.  With
# stride the product of the dims after the block and size the block's, a
# key's digit ``key // stride % size`` is its index over the block, and the
# key moves by ``deltas[digit] * stride``: one lookup per key, where a loop
# over the moved legs cost a ``//``, ``%`` and ``*`` per leg.  The deltas
# table is cached by the block's dims and the perm on it, not by the whole
# dims, so batch legs of 16, 32 and 64 and any trailing legs share one
# table, and its equal values share one int; _permutation memoises the
# rest per dims, as a scan repeats a few perms on a few shapes.  A table
# has prod(block dims) entries: 65,536 for E07's and E09's four
# 16-dimensional legs on yd_dqg(double_h4), whose `check dqg` peaked at
# 57.5 MB against 54.5 MB with the loop.  Rejected on a prototype: tables
# keyed by the whole dims (73.4 MB there, one such table per batch size),
# and array('q') tables, which box an int on each read (dqg-e10b gained
# about half as much).  Over the 94 permutations of one `check dqg` of
# yd_dqg_h4 and yd_dqg(kz3), sv_permute took about half the loop's time:
# 0.36-0.66 ms against 0.68-1.21 ms (best of 20, in 8 runs on a shared
# 2-vCPU VM).
#
# Ops.  Every op (KernelOp) has ``in_dims``/``out_dims`` and a column table
# ``_cols``: flat input index -> [(flat output index, coefficient)].  At
# its first miss in a call sv_apply hands every input column its state
# lacks to the op's ``fill`` at once.  Cup, Cap and the finder's family op
# come with their whole table, and a SlotLeg fills its columns on demand
# (hom_operator's reach runs none).  A TensorOp fills its columns from a
# Matrix (its sparse columns) or from kernel steps, run over only the
# missing columns, BATCH_CAP at a time, on legs that may factor
# differently from the op's own (a tensor module's (m*n, a) action runs on
# (m, n, a) legs).  So a step-built op builds only the columns a scan
# reads, and makes its Matrix (through matrix_from_columns_fn) only when
# something reads ``matrix``: a module's ``action``/``coaction`` or a
# morphism's ``map``.  pipeline_matrix is that materialisation of a fresh
# step-built op.  Each map has one op, so each column is filled once.
# Likewise _transpose builds an op's transpose once and keeps it in the
# op's ``_t`` slot: the reach's transposed tail reads A's multiplication
# and phi, which live as long as their algebra and datum, and transposes
# them once per process, not once per inverse.  A per-call op (R's, in
# conv2_inverse) takes its transpose with it when the call ends, which a
# module-level cache would not.
#
# Coefficients are ints where integral (a TensorOp hands out integral
# matrix entries as ints; SlotLeg, Cup, Cap and the seeds use 1), else
# Fractions, or in the finder's quadratic stage pivribbon._Polys: sv_apply
# only adds, multiplies and tests them for truth.  state_to_vector,
# matrix_from_columns_fn and pipeline_matrix convert every value back to a
# Fraction; hom_operator keeps integral ones as ints in the solver's Rows.
#
# Batches.  Steps run once per batch of basis vectors: run_batch seeds the
# j-th on batch leg j, and every step keeps that leg last.  Terms of
# different basis vectors never meet, so the state on batch leg j is what
# the j-th alone gives, and a step's per-call cost is paid once per batch.
# compare_item takes batches of SCAN_FIRST_BATCH = 16, 32, then 64 vectors;
# step-built ops and hom_operator take full batches.  Median pass time over
# that with a first batch of 1, by first batch (2-vCPU VM, alternating):
#     first batch        4     8     16    32    64
#     dqg-e10b         0.92  0.90  0.85  0.83  0.84
#     modules-duality  0.96  0.94  0.93  0.92  0.89
#     verify-scan      0.95  0.94  0.93  0.95  0.99
# Above 16 a scan that fails early pays for the tuples past its witness
# (verify-scan's mutant_datum_yd_kz8: 3.2 ms from 1, 2.8 from 16, 4.1 from
# 32, 6.8 from 64).  A last batch of at most the first batch's size joins
# the one before it where the two hold at most BATCH_CAP (basis_batches):
# E08-E10a's 27 tuples on yd_dqg(kz3) run as one batch, not 16 + 11, and
# 64 tuples as 16 + 48.  Per-op medians with and without the fold, in one
# process, alternating (10 blocks, 2-vCPU VM): dqg-e10b -3.4 % in sum
# (yd_dqg_kz3 -9.7 %), modules-duality -0.9 %, verify-scan 0.0 %.  One
# batch for every domain of at most 64 tuples read dqg-e10b about 6 %
# faster but verify-scan about 5 % slower, as mutants failing early pay
# for the whole domain.  A batch holds at most BATCH_CAP = 64 vectors:
# larger ones hold larger states and were little faster.  Peak RSS of
# `entwine check hopf` on four 16-dimensional built Hopf algebras was
# 23.8 MB one tuple at a time, 24.7 MB with a cap of 64, 26.3 MB with 256
# and 26.5 MB with 4096; the modules-duality workload peaked at 25.2,
# 25.2, 25.4 and 25.6 MB.
#
# Scans by rows.  A scan whose output space is much smaller than its input
# space pushes most of its terms through tuples whose images vanish or
# repeat: M01 on a tensor module of modules-duality maps 256*4*4 tuples to
# 256 outputs, D3's A_linear square 256*4 to 1, H01 on double_h4 16^3 to
# 16.  Run backwards over the output basis (_transposed: each op through its
# transpose, kept on the op, each perm through its inverse, each reshape
# from its new legs to its old), the same exact map comes out a row per
# batch leg and touches only its nonzero paths.  A map's transpose costs
# about as much as the map (the transposition principle: Buergisser,
# Clausen and Shokrollahi, Algebraic Complexity Theory, 1997, ch. 13), so
# the smaller side sets the cost.  compare_item runs its first batch by
# columns, and when that passes with tuples left it decides once, with
# rows_cheaper, whether the rest runs by rows: every row batch, since a
# later one may hold a smaller failing tuple, then the least failing tuple
# alone forwards for the Witness.  The coefficients commute, so both ways
# give equal entries.  Rows are taken where the output space is at most an
# eighth of the input space (8 * n_out <= n_in) and every step of both
# sides is an _ap, _pm or _rs step.  Under that ratio the two ways are
# close or columns win.  Per call with warm tables (one process, 60
# alternating rounds, 2-vCPU VM), by columns against by rows: E08 on
# yd_dqg(h4) and yd_dqg(kz5) (64 to 16 and 125 to 25 tuples) 0.37 and 0.48
# ms, 0.58 and 1.59 ms; E04 on yd_kz6 (36 to 6) 0.053 and 0.061 ms; E01 on
# yd_h4 and long_h4 (64 to 16) 0.18 and 0.17 ms, 0.13 both ways; braiding's
# A_linear (64 to 16) 0.06 ms both ways.  The bound keeps all of these by
# columns, and also E01 on yd_kz6 (216 to 36), 0.84 against 0.64 ms: by
# the ratio alone it cannot be told from E04 on the same datum.  At the
# bound E01 on yd_kz8 (512 to 64) runs 1.07 ms by columns and 0.70 by rows.
# Taken: M01 on the tensor modules of yd_h4, long_h4 and yd_kz4 8.6, 5.2
# and 5.3 ms by columns against 3.7, 1.7 and 1.7 by rows; H01 on double_h4
# 3.7 against 0.48 ms; D3's A_linear square on the duals of yd_h4 2.0-2.3
# against 0.16-0.26 ms.  An estimate of each way's terms from the ops'
# fan-outs (rows at no more than half the column terms) was measured in
# place of the bound alone and dropped.  Past the bound, on all four
# bench/run.py workloads, the one scan it kept by columns was E01 on
# yd_kz8, which runs faster by rows.  It cost 8-19 us a scan, and run on
# every scan it made dqg-e10b, whose every op runs one E08, 1.5 % slower in
# wall_s and op_p90_ms in 5 of 5 pairs.
# ---------------------------------------------------------------------------


class State(dict):
    """A sparse tensor: flat index over ``dims`` -> nonzero int, Fraction or
    _Poly coefficient.  Inside a pipeline the last leg is the batch leg."""

    __slots__ = ("dims",)


# the batch sizes (see above)
BATCH_CAP = 64
SCAN_FIRST_BATCH = 16


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
    """A kernel op from legs over ``in_dims`` to legs over ``out_dims``,
    with the column table ``_cols`` (flat input index -> [(flat output
    index, coefficient)]) that sv_apply reads.  ``fill(flats)`` adds the
    columns at each of flats that the table lacks; this base's table is
    complete from the start.  ``_t`` keeps the op's transpose once
    _transpose has built it."""

    __slots__ = ("in_dims", "out_dims", "n_in", "n_out", "_cols", "_t")

    def __init__(self, in_dims, out_dims, cols: dict):
        self.in_dims, self.out_dims = tuple(in_dims), tuple(out_dims)
        self.n_in, self.n_out = prod(self.in_dims), prod(self.out_dims)
        self._cols, self._t = cols, None

    def fill(self, flats) -> None:
        "Add the columns at flats to the table (nothing is missing here)."


class TensorOp(KernelOp):
    """A linear map between tensor-index spaces as a kernel op.

    Its input and output spaces factor as ``in_dims`` and ``out_dims``.
    The columns come from ``matrix``, or, with ``matrix`` None, from kernel
    ``steps`` run on legs over ``step_dims`` = (input dims, output dims), by
    default the op's own; both factorings have the same flat indices.  A
    step-built op fills only the columns it is asked for, and makes its
    Matrix on first access to ``matrix`` (see the comment above).
    """

    __slots__ = ("_matrix", "_steps", "_step_in")

    def __init__(self, matrix: Matrix | None, in_dims, out_dims, steps=None, step_dims=None):
        super().__init__(in_dims, out_dims, {})
        step_in, step_out = step_dims or (self.in_dims, self.out_dims)
        shape = (prod(step_in), prod(step_out)) if matrix is None else (matrix.ncols, matrix.nrows)
        if shape != (self.n_in, self.n_out):
            raise ValueError("tensor dims inconsistent with matrix shape")
        self._matrix, self._steps, self._step_in = matrix, steps, tuple(step_in)

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            table = self._cols
            self.fill([f for f in range(self.n_in) if f not in table])
            self._matrix = matrix_from_columns_fn((self.n_in,), (self.n_out,),
                                                  lambda t: {(o,): c for o, c in table[t[0]]})
        return self._matrix

    def fill(self, flats) -> None:
        table = self._cols
        if self._steps is None:
            cols = self._matrix.sparse_cols()
            for f in flats:
                table[f] = [(i, x.numerator if x.denominator == 1 else x) for i, x in cols[f]]
            return
        flats = list(flats)
        for start in range(0, len(flats), BATCH_CAP):
            batch = flats[start:start + BATCH_CAP]
            b = len(batch)
            parts = [[] for _ in batch]
            for key, c in run_batch(self._step_in, batch, self._steps).items():
                parts[key % b].append((key // b, c))
            for f, part in zip(batch, parts):
                # output indices differ within a column
                part.sort()
                table[f] = part


class SlotLeg(KernelOp):
    """An unknown map f: ``in_dims`` -> ``out_dims`` as a kernel op.

    It rides on a pipeline whose legs end in one extra slot leg, 0 on
    entry.  Applied to the input legs of f followed by that slot leg, it
    sends ``(legs, 0)`` to every ``(out, slot)`` with coefficient 1, where
    ``slot`` is the flat index of the matrix unit ``out <- legs`` in
    hom(in_dims, out_dims), output major.  Concrete maps in the same
    pipeline act on their own legs and carry the slot leg along.  A side
    that is linear in f then comes out with the images of all matrix
    units at once, told apart by the slot leg (see hom_operator).  Its
    columns are filled when a state first reads them.
    """

    __slots__ = ()

    def __init__(self, in_dims, out_dims):
        n = prod(in_dims) * prod(out_dims)
        super().__init__((*in_dims, 1), (*out_dims, n), {})

    def fill(self, flats) -> None:
        n_in, n = self.n_in, self.out_dims[-1]
        for j in flats:
            self._cols[j] = [(o * n + o * n_in + j, 1) for o in range(n // n_in)]


class Cup(KernelOp):
    """Insertion of sum_x e_x (x) e_x on two n-dimensional legs, as a kernel
    op from no legs to ``(x, x)``."""

    __slots__ = ()

    def __init__(self, n: int):
        super().__init__((), (n, n), {0: [(x * (n + 1), 1) for x in range(n)]})


class Cap(KernelOp):
    """Contraction of two n-dimensional legs against each other, as a
    kernel op from ``(x, y)`` to no legs: it keeps a term only when x == y."""

    __slots__ = ()

    def __init__(self, n: int):
        keep = [(0, 1)]
        super().__init__((n, n), (), {f: [] if f % (n + 1) else keep for f in range(n * n)})


def sv_apply(state: State, pos: int, op: KernelOp) -> State:
    """Apply op to the legs [pos, pos + len(op.in_dims)) of every key.  At
    leg 0 a loop of its own reads a key's column as ``key // ts`` and its
    base as ``key % ts`` (see the kernel comment)."""
    dims, in_dims = state.dims, op.in_dims
    end = pos + len(in_dims)
    if dims[pos:end] != in_dims or end >= len(dims):
        raise ValueError(f"op on legs {in_dims} applied at leg {pos} of {dims}")
    ts = prod(dims[end:])
    out = State()
    out.dims = dims[:pos] + op.out_dims + dims[end:]
    get, table = out.get, op._cols
    if pos == 0:
        for key, c in state.items():
            col = table.get(key // ts)
            if col is None:
                op.fill(dict.fromkeys(f for k in state if (f := k // ts) not in table))
                col = table[key // ts]
            base = key % ts
            for o, x in col:
                nk = base + o * ts
                nv = get(nk, 0) + c * x
                if nv:
                    out[nk] = nv
                else:
                    out.pop(nk, None)
        return out
    n_in = op.n_in
    block_in, block_out = n_in * ts, op.n_out * ts
    for key, c in state.items():
        col = table.get(key // ts % n_in)
        if col is None:
            # the first miss fills every column the state still lacks
            op.fill(dict.fromkeys(f for k in state if (f := k // ts % n_in) not in table))
            col = table[key // ts % n_in]
        base = key // block_in * block_out + key % ts
        for o, x in col:
            nk = base + o * ts
            nv = get(nk, 0) + c * x
            if nv:
                out[nk] = nv
            else:
                out.pop(nk, None)
    return out


@lru_cache(maxsize=4096)
def _deltas(dims, perm) -> tuple[int, ...]:
    """The new flat index minus the old one of each key over dims (one
    permutation block) when new leg i is old leg perm[i], in old-key order;
    equal values are one int object."""
    new_dims = [dims[p] for p in perm]
    new = {p: prod(new_dims[i + 1:]) for i, p in enumerate(perm)}
    deltas, shared = [0], {}
    for p, d in enumerate(dims):
        step = new[p] - prod(dims[p + 1:])
        deltas = [x + i * step for x in deltas for i in range(d)]
    return tuple(shared.setdefault(x, x) for x in deltas)


@lru_cache(maxsize=4096)
def _permutation(dims, perm):
    """The dims after perm, and None when no key moves or else (stride, size,
    deltas): the block of legs from the first moved one to the last moves a
    key by ``deltas[key // stride % size] * stride``.  The table is shared by
    every dims with the same block, whatever the batch and trailing legs."""
    new_dims = tuple(dims[p] for p in perm) + dims[len(perm):]
    moved = [i for i, p in enumerate(perm) if i != p]
    if not moved:
        return new_dims, None
    lo, hi = moved[0], moved[-1] + 1
    deltas = _deltas(dims[lo:hi], tuple(p - lo for p in perm[lo:hi]))
    if not any(deltas):
        return new_dims, None
    return new_dims, (prod(dims[hi:]), len(deltas), deltas)


def sv_permute(state: State, perm: tuple[int, ...]) -> State:
    "Reorder legs: new leg i is old leg perm[i]; legs past len(perm) stay last."
    new_dims, move = _permutation(state.dims, perm)
    out = State()
    out.dims = new_dims
    if move is None:
        out.update(state)
        return out
    s, n, deltas = move
    for key, c in state.items():
        out[key + deltas[key // s % n] * s] = c
    return out


def sv_reshape(state: State, pos: int, src: tuple[int, ...], dst: tuple[int, ...]) -> State:
    """Read the legs over src at leg position pos as legs over dst, of the
    same size.  A flat key is the same under both, so only ``dims`` changes."""
    dims, end = state.dims, pos + len(src)
    if dims[pos:end] != src or end >= len(dims):
        raise ValueError(f"legs {src} reshaped at leg {pos} of {dims}")
    out = State(state)
    out.dims = dims[:pos] + dst + dims[end:]
    return out


# Pipeline steps.  _ap, _pm and _rs keep what they apply as their defaults,
# (pos, op), (perm,) and (pos, src, dst), so _step_parts can read a step
# back and _transposed can run it backwards.  A lambda with defaults is made
# faster than a closure (about 150 against 190 ns, CPython 3.11) and called
# as fast (about 90 ns); a scan makes thousands.
def _ap(pos, op):
    "Pipeline step: apply op at leg position pos."
    return lambda state, pos=pos, op=op: sv_apply(state, pos, op)


def _pm(perm):
    "Pipeline step: permute legs."
    return lambda state, perm=perm: sv_permute(state, perm)


def _rs(pos, src, dst):
    "Pipeline step: read the legs over src at leg pos as legs over dst (sv_reshape)."
    if prod(src) != prod(dst):
        raise ValueError(f"legs {src} cannot be read as {dst}")
    return lambda state, pos=pos, src=src, dst=dst: sv_reshape(state, pos, src, dst)


# every step one maker makes shares the maker's inner code object
_MAKERS = {make(*args).__code__: make
           for make, args in ((_ap, (0, None)), (_pm, ((),)), (_rs, (0, (), ())))}


def _step_parts(step) -> tuple:
    """The maker of step, _ap, _pm or _rs, and the arguments it was made
    with; (None, ()) for any other callable."""
    make = _MAKERS.get(getattr(step, "__code__", None))
    return (make, step.__defaults__) if make else (None, ())


def state_to_vector(state: State, j: int = 0) -> Vector:
    "The terms of a State on batch leg j, as a Vector over its other legs."
    b = state.dims[-1]
    coords = [ZERO] * prod(state.dims[:-1])
    for key, c in state.items():
        if key % b == j:
            coords[key // b] = c
    return Vector(coords)


def basis_batches(dims, first: int = BATCH_CAP):
    """The flat indices over dims in ascending (lexicographic) order, in
    ranges of first, 2 * first, 4 * first, ... indices, none longer than
    BATCH_CAP.  A last range of at most first indices joins the one before
    it where the two fit in BATCH_CAP together (see the kernel comment)."""
    n, start, size = prod(dims), 0, min(first, BATCH_CAP)
    while start < n:
        end = min(start + size, n)
        if n - end <= first and n - start <= BATCH_CAP:
            end = n
        yield range(start, end)
        start = end
        size = min(2 * size, BATCH_CAP)


def run_batch(dims, flats, steps) -> State:
    """Run steps (callables State -> State) once over a batch of basis
    vectors, given by their flat indices over dims.

    The seed holds the j-th on batch leg j with coefficient 1; each step
    acts on the legs before the batch leg and carries it along, so the
    terms on batch leg j are what steps give on the j-th alone.  Callers
    pass at most BATCH_CAP indices (basis_batches, TensorOp.fill).
    """
    b = len(flats)
    state = State.fromkeys([f * b + j for j, f in enumerate(flats)], 1)
    state.dims = (*dims, b)
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


def hom_operator(in_dims, out_dims, seed_dims, key_dims, side, rhs=None) -> Rows:
    """The Rows of the operator f -> side(f), for f: ``in_dims`` -> ``out_dims``.

    ``side(f_op)`` gives the steps of side(f), with ``f_op`` standing for
    f.  They run on the basis vectors over ``seed_dims`` followed by a slot
    leg 0 (see SlotLeg), a batch at a time (see run_batch), and end on legs
    over ``key_dims``, the slot leg and the batch leg.  Row ``key *
    prod(seed_dims) + t`` holds the coefficients of that output entry,
    column ``out * prod(in_dims) + in`` those of f's matrix unit ``out <-
    in``.  With a SlotLeg as f one pass yields every column at once.  Each
    coefficient is written once, as it leaves the kernel: an int where
    integral, else a Fraction.  For a side from hom(in_dims, out_dims) to
    itself, seed and key dims are f's own.

    Given a right-hand side ``rhs`` (its nonzero entries {row: value}), only
    the rows that _reach meets from rhs's rows are built, each whole, and
    only they are returned, in operator-row order with their operator rows
    as ``index``: they include every row of the full operator's component
    of rhs's rows, so ``rows.component(rhs)`` is that component.
    """
    slot = SlotLeg(in_dims, out_dims)
    steps = side(slot)
    if rhs is not None:
        return _reach(rhs, slot, steps, seed_dims, key_dims)
    n_seed, n_hom = prod(seed_dims), slot.out_dims[-1]
    rows = Rows([{} for _ in range(prod(key_dims) * n_seed)], n_hom)
    for batch in basis_batches(seed_dims):
        _write(rows, batch, run_batch((*seed_dims, 1), batch, steps), key_dims, n_seed, n_hom)
    return rows


def _write(rows, batch, state: State, key_dims, n_seed: int, n_hom: int) -> None:
    """Write a batch of seeds' terms, over (*key_dims, slot leg, batch leg),
    into rows (a list, or a dict of the rows built, by operator row)."""
    if state.dims[:-1] != (*key_dims, n_hom):
        raise ValueError(f"side ends on legs {state.dims[:-1]}, not {(*key_dims, n_hom)}")
    b = len(batch)
    for key, x in state.items():
        rest = key // b
        rows[rest // n_hom * n_seed + batch[key % b]][rest % n_hom] = (
            x.numerator if x.denominator == 1 else x)


def _reach(rhs: dict, slot: SlotLeg, steps, seed_dims, key_dims) -> Rows:
    """The rows met from rhs's nonzero rows, through the columns they hold
    and back, each built whole (see hom_operator), with rhs's rows: Rows in
    operator-row order, their operator rows as ``index``.  No other row is
    allocated.

    The operator is read as a bipartite graph of rows and columns, and one
    connected block of it is reached from both ends.  f's step (an _ap of
    slot) splits steps into a head and a tail.  The head runs once over
    every seed, up to f's input legs j and the legs w before them: ``reads[t]
    [w]`` lists the j of seed t.  The entry at row (o, t), column (u, j) is
    the sum over w of tail[o, (w, u)] * head[t, (w, j)].  A round takes the
    new rows (o, t) to columns: the tail run transposed from o (each op
    through its transpose, each permutation through its inverse, in reverse
    order) gives the (w, u) with tail[o, (w, u)] != 0, and each j in
    ``reads[t][w]`` makes (u, j) a candidate.  Then it takes the new columns
    to rows: a SlotLeg emitting only their matrix units, and the tail, run
    over the head's states, give every entry of those columns, and the rows
    they meet are the next round's.  No new column ends the reach.

    A candidate comes from supports: it may cancel in its row, but no
    nonzero entry is missed.  So each row built is whole, and so is each row
    sharing a column with it.  The tail must be _ap, _pm and _rs steps,
    which _transposed can run backwards.
    """
    head, pos, tail = _split_at(steps, slot)
    n_in, n_hom = slot.n_in, slot.out_dims[-1]
    n_out, n_seed = n_hom // n_in, prod(seed_dims)
    rows: dict[int, dict] = defaultdict(dict)
    # the head over every seed, a batch at a time, and what each seed reads
    heads, reads = [], [{} for _ in range(n_seed)]
    for batch in basis_batches(seed_dims):
        state = run_batch((*seed_dims, 1), batch, head)
        if state.dims[pos:-1] != slot.in_dims:
            raise ValueError(f"f's legs {slot.in_dims} at leg {pos} of {state.dims}")
        heads.append((batch, state))
        b = len(batch)
        for key in state:
            w, j = divmod(key // b, n_in)
            reads[batch[key % b]].setdefault(w, []).append(j)
    back = _transposed(tail)
    coreads: dict[int, list] = {}
    cols: set[int] = set()
    frontier = [r for r, x in rhs.items() if x]
    reached = set(frontier)
    while frontier:
        # rows -> columns: the (w, u) of each new output key o, from the
        # transposed tail, joined with the seed's reads on w
        todo = sorted({r // n_seed for r in frontier} - coreads.keys())
        for start in range(0, len(todo), BATCH_CAP):
            batch = todo[start:start + BATCH_CAP]
            b = len(batch)
            for o in batch:
                coreads[o] = []
            for key in run_batch((*key_dims, 1), batch, back):
                coreads[batch[key % b]].append(divmod(key // b, n_out))
        units: dict[int, list] = {}
        for r in frontier:
            o, t = divmod(r, n_seed)
            at = reads[t]
            for w, u in coreads[o]:
                for j in at.get(w, ()):
                    c = u * n_in + j
                    if c not in cols:
                        cols.add(c)
                        units.setdefault(j, []).append((u * n_hom + c, 1))
        if not units:
            break
        # columns -> rows: the new columns' entries in every row
        new_units = KernelOp(slot.in_dims, slot.out_dims,
                             {j: units.get(j, ()) for j in range(n_in)})
        frontier = []
        for batch, state in heads:
            state = sv_apply(state, pos, new_units)
            if not state:
                continue
            for step in tail:
                state = step(state)
            _write(rows, batch, state, key_dims, n_seed, n_hom)
            b = len(batch)
            for key in state:
                r = key // b // n_hom * n_seed + batch[key % b]
                if r not in reached:
                    reached.add(r)
                    frontier.append(r)
    index = sorted(reached)
    return Rows([rows[r] for r in index], n_hom, index)


def _split_at(steps, slot: SlotLeg):
    "The steps before the one applying slot, its leg position, and the steps after it."
    for k, step in enumerate(steps):
        make, args = _step_parts(step)
        if make is _ap and args[1] is slot:
            return steps[:k], args[0], steps[k + 1:]
    raise ValueError("the side has no _ap step of f")


def _transposed(steps) -> list:
    """The steps that run _ap, _pm and _rs steps backwards: in reverse order,
    an op through its transpose, a permutation through its inverse, a
    reshape from its new legs to its old.  Over basis vectors of the legs
    steps end on, they give the rows of the map steps give: the terms on
    batch leg j, at the flat index t, are the entry (j-th vector, t).  The
    reach runs the steps after f so (_reach), and compare_item runs a scan's
    two sides so when rows_cheaper says so."""
    back = []
    for step in reversed(steps):
        make, args = _step_parts(step)
        if make is _ap:
            back.append(_ap(args[0], _transpose(args[1])))
        elif make is _pm:
            inverse = [0] * len(args[0])
            for i, p in enumerate(args[0]):
                inverse[p] = i
            back.append(_pm(tuple(inverse)))
        elif make is _rs:
            back.append(_rs(args[0], args[2], args[1]))
        else:
            raise ValueError(f"step {step!r} is not an _ap or _pm step, nor an _rs step")
    return back


def _transpose(op: KernelOp) -> KernelOp:
    """The transpose of op, from a table with every column filled, built
    once and kept on op, so it lives as long as op does."""
    if op._t is None:
        op.fill([f for f in range(op.n_in) if f not in op._cols])
        cols = {o: [] for o in range(op.n_out)}
        for i, col in op._cols.items():
            for o, x in col:
                cols[o].append((i, x))
        op._t = KernelOp(op.out_dims, op.in_dims, cols)
    return op._t


def rows_cheaper(n_in: int, n_out: int, sides) -> bool:
    """Whether a scan from n_in input to n_out output tuples runs by rows:
    the steps of sides backwards from the output basis vectors
    (_transposed).  True when n_out is at most n_in / 8 and every step is
    an _ap, _pm or _rs step; see the kernel comment for the bound."""
    return 8 * n_out <= n_in and all(_step_parts(step)[0] for steps in sides for step in steps)
