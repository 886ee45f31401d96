"""Oracles and shared inputs that only tests use.

``pipeline`` evaluates one basis tuple through kernel steps, the form most
hand-derived sides are written in.  ``check_module_over_algebra`` checks a
transported module against a plain algebra, and ``stage1_residual``
evaluates the finder's linear laws at a concrete map.  ``two_sided_solve``
solves the stacked system left.x = rhs = right.x in full, the reference the
convolution inverses' component solves are compared against.  The corpus
maps name the datums the cross-cutting property tests run over.
"""

from entwine.corpus import corpus_build
from entwine.exactla import (
    Rows,
    TensorOp,
    Vector,
    flatten_index,
    run_batch,
    solve_affine,
    unflatten_index,
)
from entwine.pivribbon import _linear_system
from entwine.report import AxiomReport, _ap, compare_item


def pipeline(dims, idx, *steps) -> dict:
    """Run the basis tuple idx over dims through a sequence of kernel steps
    (callables State -> State): a batch of one, its terms keyed by the
    tuple of their output legs."""
    state = run_batch(dims, (flatten_index(dims, idx),), steps)
    out_dims = state.dims[:-1]
    return {unflatten_index(out_dims, key): c for key, c in state.items()}


def two_sided_solve(left: Rows, right: Rows, rhs: dict) -> dict | None:
    """The x with left.x = rhs = right.x, or None when there is none.

    ``rhs`` and x are given by their nonzero entries {index: value}.  The
    rows are stacked, left first, and handed to solve_affine, whose
    particular solution is returned.  For the operators x -> g*x and
    x -> x*g of an associative algebra and rhs its unit, x is the two-sided
    inverse of g, which is unique when it exists.  Convolution inverses
    (entwining._inverse) solve only the rows their right-hand side
    reaches, and must return this particular solution.
    """
    if left.ncols != right.ncols:
        raise ValueError("stacked blocks must have the same number of columns")
    both = {**rhs, **{i + left.nrows: x for i, x in rhs.items()}}
    sol = solve_affine(Rows(left + right, left.ncols), both)
    return None if sol is None else sol.particular


def check_module_over_algebra(alg, dim: int, action) -> AxiomReport:
    "Right-module axioms over a plain algebra (used for transported modules)."
    act = TensorOp(action, (dim, alg.dim), (dim,))
    return AxiomReport([
        compare_item("RM1_assoc", (dim, alg.dim, alg.dim), (dim,),
                     (_ap(1, alg.mul_op), _ap(0, act)), (_ap(0, act), _ap(0, act))),
        compare_item("RM2_unit", (dim,), (dim,), (_ap(1, alg.unit_op), _ap(0, act)), ()),
    ])


def stage1_residual(d, kind: str, g) -> Vector:
    "Residual of the finder's linear laws at a concrete map (zero iff satisfied)."
    a, b = _linear_system(d, kind)
    x = g.map.flat()
    return Vector([sum(v * x[c] for c, v in row.items()) for row in a]) - b


def corpus_monoidal_datums() -> dict:
    "The monoidal datums the cross-cutting property tests run over."
    return {name: corpus_build(name)[1] for name in ("long_h4", "long_kz2", "yd_h4", "yd_kz2")}


def corpus_dqgs() -> dict:
    "The double quantum groups of the corpus."
    return {name: corpus_build(name)[1] for name in ("yd_dqg_h4", "yd_dqg_kz2", "long_dqg_kz2")}
