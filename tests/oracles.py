"""Oracles and shared inputs that only tests use.

``pipeline`` evaluates one basis tuple through kernel steps, the form most
hand-derived sides are written in.  ``check_module_over_algebra`` checks a
transported module against a plain algebra, and ``stage1_residual``
evaluates the finder's linear laws at a concrete map.  ``two_sided_solve``
solves the stacked system left.x = rhs = right.x in full, the reference the
convolution inverses' component solves are compared against.
``duality_morphism_items`` reads D3/D4 of check_duality through the
morphism squares over built tensor modules.  The corpus maps name the
datums the cross-cutting property tests run over.
"""

from functools import lru_cache

from entwine.corpus import corpus_build
from entwine.emodcat import tensor_modules, tensor_unit
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
from entwine.report import AxiomItem, AxiomReport, _ap, compare_item


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


# modules hash by identity, and the cache holds them, so no id is reused
_tensor_modules = lru_cache(maxsize=4)(tensor_modules)


def _morphism_witness(source, target, f_op):
    """The witness of the first failing square of f_op: source -> target,
    A_linear and then C_colinear, or None: ModuleMorphism's two squares as
    they were written before check_duality came to share them."""
    d = source.datum
    linear = compare_item(
        "A_linear",
        (source.dim, d.a_dim),
        (target.dim,),
        (_ap(0, source.action_op), _ap(0, f_op)),
        (_ap(0, f_op), _ap(0, target.action_op)),
    )
    if not linear.passed:
        return linear.witness
    colinear = compare_item(
        "C_colinear",
        (source.dim,),
        (target.dim, d.c_dim),
        (_ap(0, f_op), _ap(0, target.coaction_op)),
        (_ap(0, source.coaction_op), _ap(0, f_op)),
    )
    return colinear.witness


def duality_morphism_items(m, dd) -> list[AxiomItem]:
    """D3_ev_morphism and D4_coev_morphism of check_duality(m, dd), read the
    way check_duality once read them: the squares of a morphism from ev's
    source, the tensor_modules of the dual and m (dual first on the left),
    to the unit, and of one from the unit to coev's target (the other
    order), each failure's witness turned into an item.  The last few
    tensor modules built are kept, with the columns their scans filled, for
    the next call on the same modules (a sweep of changed ev and coev)."""
    unit, dual, dim = tensor_unit(m.datum), dd.dual_module, m.dim
    pair = (dual, m) if dd.side == "left" else (m, dual)
    ev = TensorOp(dd.ev, (dim * dim,), (1,))
    coev = TensorOp(dd.coev, (1,), (dim * dim,))
    items = []
    for axiom_id, source, target, f_op in (
            ("D3_ev_morphism", _tensor_modules(*pair), unit, ev),
            ("D4_coev_morphism", unit, _tensor_modules(*pair[::-1]), coev)):
        witness = _morphism_witness(source, target, f_op)
        items.append(AxiomItem(axiom_id, witness is None, witness))
    return items


def corpus_monoidal_datums() -> dict:
    "The monoidal datums the cross-cutting property tests run over."
    return {name: corpus_build(name)[1] for name in ("long_h4", "long_kz2", "yd_h4", "yd_kz2")}


def corpus_dqgs() -> dict:
    "The double quantum groups of the corpus."
    return {name: corpus_build(name)[1] for name in ("yd_dqg_h4", "yd_dqg_kz2", "long_dqg_kz2")}
