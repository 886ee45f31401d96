"""Entwined modules and the categorical machinery on them.

An entwined module is simultaneously a right module over the algebra
side and a right comodule over the coalgebra side of a datum, with the
two structures compatible through the entwining map.  This module
builds the standard modules on C (x) A and A (x) C, tensor products,
left/right duals with evaluation and coevaluation, double duals on the
canonical basis, and the braiding attached to a double structure.

The double right dual is always presented back on the module's own
basis via the canonical evaluation identification: its action twists by
S_A^2 and its coaction by S_C^{-2}, which keeps pivotal-structure
matrices square.

Every action, coaction, pairing and braiding is built by a kernel
pipeline (TensorOp steps, with Cup and Cap for the dual-basis legs), and
every axiom scan, the snake identities and braiding naturality included,
goes through report.compare_item.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

from .exactla import (
    Cap,
    Cup,
    Matrix,
    TensorOp,
    pipeline_matrix,
)
from .entwining import DoubleQuantumGroup, MonoidalEntwiningDatum, datums_compatible
from .report import AxiomItem, AxiomReport, compare_item, _ap, _pm


class EntwinedModule:
    """A right module / right comodule pair over a datum.

    The action maps M (x) A -> M and the coaction M -> M (x) C.  Each comes
    in either as a Matrix, ``dim x (dim*dimA)`` and ``(dim*dimC) x dim``
    under the global index convention (file input, tensor_unit), or as a
    TensorOp on the legs (dim, dimA) -> (dim,) and (dim,) -> (dim, dimC)
    (the pipeline-built constructors below).  Scans read ``action_op`` and
    ``coaction_op``, so a step-built op builds only the columns a scan
    reads.  ``action`` and ``coaction`` are their matrices, made on first
    access: a file save, same_structure, a dual's transpose and
    action_endomorphisms ask for them.
    """

    def __init__(self, datum: MonoidalEntwiningDatum, dim: int, action: Matrix | TensorOp,
                 coaction: Matrix | TensorOp, basis_names=None):
        na, nc = datum.a_dim, datum.c_dim
        self.action_op = _module_op(action, (dim, na), (dim,), "action must be dim x (dim*dimA)")
        self.coaction_op = _module_op(coaction, (dim,), (dim, nc),
                                      "coaction must be (dim*dimC) x dim")
        self.datum = datum
        self.dim = dim
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"m{i}" for i in range(dim)
        )

    @property
    def action(self) -> Matrix:
        return self.action_op.matrix

    @property
    def coaction(self) -> Matrix:
        return self.coaction_op.matrix

    def same_structure(self, other: "EntwinedModule") -> bool:
        return (
            self.dim == other.dim
            and self.action == other.action
            and self.coaction == other.coaction
        )


def _module_op(x: Matrix | TensorOp, in_dims, out_dims, error: str) -> TensorOp:
    "x as a TensorOp from in_dims to out_dims; ValueError(error) when it is not one."
    if isinstance(x, Matrix) and (x.ncols, x.nrows) == (prod(in_dims), prod(out_dims)):
        x = TensorOp(x, in_dims, out_dims)
    if not isinstance(x, TensorOp) or (x.in_dims, x.out_dims) != (in_dims, out_dims):
        raise ValueError(error)
    return x


def check_entwined_module(m: EntwinedModule) -> AxiomReport:
    "Module axioms, comodule axioms, and the entwined compatibility square."
    d = m.datum
    dim, na, nc = m.dim, d.a_dim, d.c_dim
    act, coact = m.action_op, m.coaction_op
    items = [
        compare_item(
            "M01_action_assoc",
            (dim, na, na),
            (dim,),
            (_ap(1, d.a.mul_op), _ap(0, act)),
            (_ap(0, act), _ap(0, act)),
        ),
        compare_item(
            "M02_action_unit",
            (dim,),
            (dim,),
            (_ap(1, d.a.unit_op), _ap(0, act)),
            (),
        ),
        compare_item(
            "M03_coassoc",
            (dim,),
            (dim, nc, nc),
            (_ap(0, coact), _ap(0, coact)),
            (_ap(0, coact), _ap(1, d.c.comul_op)),
        ),
        compare_item(
            "M04_counit",
            (dim,),
            (dim,),
            (_ap(0, coact), _ap(1, d.c.counit_op)),
            (),
        ),
        compare_item(
            "M05_entwined",
            (dim, na),
            (dim, nc),
            (_ap(0, act), _ap(0, coact)),
            (_ap(0, coact), _ap(1, d.phi_op), _ap(0, act)),
        ),
    ]
    return AxiomReport(items)


class NotAMorphismError(ValueError):
    "A map that is not module-linear or not comodule-colinear; ``item`` is the failed square."

    def __init__(self, what: str, item: AxiomItem):
        super().__init__(f"not {what} at basis {item.witness.basis}")
        self.item = item


class ModuleMorphism:
    """A linear map between entwined modules over one datum.

    Construction validates both commuting squares exactly and rejects
    invalid maps with NotAMorphismError, so downstream operations may
    assume morphism-ness.
    """

    def __init__(self, source: EntwinedModule, target: EntwinedModule, map: Matrix):
        if not datums_compatible(source.datum, target.datum):
            raise ValueError("source and target live over different datums")
        if map.nrows != target.dim or map.ncols != source.dim:
            raise ValueError("map must be target.dim x source.dim")
        self.source = source
        self.target = target
        self.map = map
        d, f_op = source.datum, self.op
        linear = compare_item(
            "A_linear",
            (source.dim, d.a_dim),
            (target.dim,),
            (_ap(0, source.action_op), _ap(0, f_op)),
            (_ap(0, f_op), _ap(0, target.action_op)),
        )
        if not linear.passed:
            raise NotAMorphismError("module-linear", linear)
        colinear = compare_item(
            "C_colinear",
            (source.dim,),
            (target.dim, d.c_dim),
            (_ap(0, f_op), _ap(0, target.coaction_op)),
            (_ap(0, source.coaction_op), _ap(0, f_op)),
        )
        if not colinear.passed:
            raise NotAMorphismError("comodule-colinear", colinear)

    @cached_property
    def op(self) -> TensorOp:
        return TensorOp(self.map, (self.source.dim,), (self.target.dim,))

    def then(self, other: "ModuleMorphism") -> "ModuleMorphism":
        if other.source is not self.target and not other.source.same_structure(self.target):
            raise ValueError("composition mismatch")
        return ModuleMorphism(self.source, other.target, other.map * self.map)


# ---------------------------------------------------------------------------
# Standard modules and tensor products
# ---------------------------------------------------------------------------


def _action_op(legs, na: int, steps) -> TensorOp:
    """The action given by steps from the basis tuples over (*legs, na) to
    those over legs, as an op on the legs (prod(legs), na) -> (prod(legs),)."""
    dim = prod(legs)
    return TensorOp(None, (dim, na), (dim,), steps, ((*legs, na), legs))


def _coaction_op(legs, nc: int, steps) -> TensorOp:
    """The coaction given by steps from the basis tuples over legs to those
    over (*legs, nc), as an op on the legs (prod(legs),) -> (prod(legs), nc)."""
    dim = prod(legs)
    return TensorOp(None, (dim,), (dim, nc), steps, (legs, (*legs, nc)))


def std_module_CA(d: MonoidalEntwiningDatum) -> EntwinedModule:
    "C (x) A with (c (x) a).x = c (x) ax and entwined coaction."
    nc, na = d.c_dim, d.a_dim
    action = _action_op((nc, na), na, (_ap(1, d.a.mul_op),))
    coaction = _coaction_op((nc, na), nc, (_ap(0, d.c.comul_op), _ap(1, d.phi_op)))
    names = [f"{cn}(x){an}" for cn in d.c.basis_names for an in d.a.basis_names]
    return EntwinedModule(d, nc * na, action, coaction, names)


def std_module_AC(d: MonoidalEntwiningDatum) -> EntwinedModule:
    "A (x) C with (a (x) c).x = a x_phi (x) c^phi and free coaction."
    nc, na = d.c_dim, d.a_dim
    action = _action_op((na, nc), na, (_ap(1, d.phi_op), _ap(0, d.a.mul_op)))
    coaction = _coaction_op((na, nc), nc, (_ap(1, d.c.comul_op),))
    names = [f"{an}(x){cn}" for an in d.a.basis_names for cn in d.c.basis_names]
    return EntwinedModule(d, na * nc, action, coaction, names)


def extend_MC(module_dim: int, module_action: Matrix, d: MonoidalEntwiningDatum,
              basis_names=None) -> EntwinedModule:
    "Freely extend a plain right module M to the entwined module M (x) C."
    nc, na = d.c_dim, d.a_dim
    act_op = TensorOp(module_action, (module_dim, na), (module_dim,))
    action = _action_op((module_dim, nc), na, (_ap(1, d.phi_op), _ap(0, act_op)))
    coaction = _coaction_op((module_dim, nc), nc, (_ap(1, d.c.comul_op),))
    return EntwinedModule(d, module_dim * nc, action, coaction, basis_names)


def tensor_unit(d: MonoidalEntwiningDatum) -> EntwinedModule:
    "The monoidal unit: the ground field with counit action and unit coaction."
    action = Matrix([list(d.a.counit.row(0))])
    coaction = Matrix([[c] for c in d.c.unit])
    return EntwinedModule(d, 1, action, coaction, ("1",))


def tensor_modules(m: EntwinedModule, n: EntwinedModule) -> EntwinedModule:
    "Tensor product through the comultiplications; needs a monoidal datum."
    if not datums_compatible(m.datum, n.datum):
        raise ValueError("modules live over different datums")
    d = m.datum
    action = _action_op(
        (m.dim, n.dim),
        d.a_dim,
        (
            _ap(2, d.a.comul_op),
            _pm((0, 2, 1, 3)),
            _ap(0, m.action_op),
            _ap(1, n.action_op),
        ),
    )
    coaction = _coaction_op(
        (m.dim, n.dim),
        d.c_dim,
        (
            _ap(0, m.coaction_op),
            _ap(2, n.coaction_op),
            _pm((0, 2, 1, 3)),
            _ap(2, d.c.mul_op),
        ),
    )
    names = [f"{a}|{b}" for a in m.basis_names for b in n.basis_names]
    return EntwinedModule(d, m.dim * n.dim, action, coaction, names)


# ---------------------------------------------------------------------------
# Duals
# ---------------------------------------------------------------------------


class DualityData:
    "A dual module with its evaluation and coevaluation maps."

    def __init__(self, dual_module: EntwinedModule, ev: Matrix, coev: Matrix, side: str):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.dual_module = dual_module
        self.ev = ev
        self.coev = coev
        self.side = side


def _dual_module(m: EntwinedModule, antipode_a: TensorOp, antipode_c: TensorOp) -> EntwinedModule:
    """Dual space on the dual basis: action through antipode_a, coaction
    through antipode_c applied to the output leg."""
    d = m.datum
    dim, na, nc = m.dim, d.a_dim, d.c_dim
    action_t = TensorOp(m.action.transpose(), (dim,), (dim, na))
    coaction_t = TensorOp(m.coaction.transpose(), (dim, nc), (dim,))
    cup, cap = Cup(nc), Cap()
    # (f.a)(x) = f(x . sa(a)): sa on a, the action transposed on f, then the
    # action's algebra leg closed against sa(a)
    action = _action_op((dim,), na, (_ap(1, antipode_a), _ap(0, action_t), _ap(1, cap)))
    # f0(x) (x) f1 = f(x0) (x) sc(x1): the coaction transposed on f (x) e_v
    # summed over the dual pair e_v (x) e_v, then sc on the coalgebra leg
    coaction = _coaction_op((dim,), nc, (_ap(1, cup), _ap(0, coaction_t), _ap(1, antipode_c)))
    names = [f"{n}^" for n in m.basis_names]
    return EntwinedModule(d, dim, action, coaction, names)


def _pairing_copairing(dim: int) -> tuple[Matrix, Matrix]:
    "The canonical pairing (a Cap) and copairing (a Cup) as matrices."
    ev = pipeline_matrix((dim, dim), (), (_ap(0, Cap()),))
    coev = pipeline_matrix((), (dim, dim), (_ap(0, Cup(dim)),))
    return ev, coev


def left_dual(m: EntwinedModule) -> DualityData:
    """Left dual: action twisted by S_A^{-1}, coaction by S_C.

    ev: M* (x) M -> 1 is the canonical pairing, coev: 1 -> M (x) M* the
    canonical copairing; snake identities and morphism-ness are checked
    by check_duality.
    """
    d = m.datum
    dual = _dual_module(m, d.a.antipode_inv_op, d.c.antipode_op)
    return DualityData(dual, *_pairing_copairing(m.dim), "left")


def right_dual(m: EntwinedModule) -> DualityData:
    "Right dual: action twisted by S_A, coaction by S_C^{-1}."
    d = m.datum
    dual = _dual_module(m, d.a.antipode_op, d.c.antipode_inv_op)
    return DualityData(dual, *_pairing_copairing(m.dim), "right")


def check_duality(m: EntwinedModule, dd: DualityData) -> AxiomReport:
    "Snake identities plus morphism-ness of ev and coev."
    d = m.datum
    dim = m.dim
    dual = dd.dual_module
    ev = TensorOp(dd.ev, (dim, dim), ())
    coev = TensorOp(dd.coev, (), (dim, dim))
    left = dd.side == "left"
    # left:  (V (x) ev)(coev (x) V) = id_V ; (ev (x) V*)(V* (x) coev) = id_V*
    # right: (ev~ (x) V)(V (x) coev~) = id_V ; (V* (x) ev~)(coev~ (x) V*) = id_V*
    coev_first = (_ap(0, coev), _ap(1, ev))
    coev_last = (_ap(1, coev), _ap(0, ev))
    snake_obj, snake_dual = (coev_first, coev_last) if left else (coev_last, coev_first)
    ev_src = tensor_modules(dual, m) if left else tensor_modules(m, dual)
    coev_tgt = tensor_modules(m, dual) if left else tensor_modules(dual, m)

    def snake_item(axiom_id, steps):
        return compare_item(axiom_id, (dim,), (dim,), steps, ())

    def morphism_item(axiom_id, source, target, map):
        # the witness is the first failing square's: A_linear, then C_colinear
        try:
            ModuleMorphism(source, target, map)
        except NotAMorphismError as err:
            return AxiomItem(axiom_id, False, err.item.witness)
        return AxiomItem(axiom_id, True)

    unit = tensor_unit(d)
    items = [
        snake_item("D1_snake_object", snake_obj),
        snake_item("D2_snake_dual", snake_dual),
        morphism_item("D3_ev_morphism", ev_src, unit, dd.ev),
        morphism_item("D4_coev_morphism", unit, coev_tgt, dd.coev),
    ]
    return AxiomReport(items)


def transpose(f: ModuleMorphism, side: str = "left") -> ModuleMorphism:
    """Transpose of a morphism between the duals, with the matrix transposed
    on dual bases.  For f: Y -> X this is X-dual -> Y-dual."""
    dualize = left_dual if side == "left" else right_dual
    src = dualize(f.target).dual_module
    tgt = dualize(f.source).dual_module
    return ModuleMorphism(src, tgt, f.map.transpose())


def double_right_dual(m: EntwinedModule) -> EntwinedModule:
    """Right dual applied twice, re-identified with m's own basis.

    Under the canonical evaluation identification the action becomes
    twisting by S_A^2 and the coaction by S_C^{-2}; the literal twice
    dualization produces exactly these matrices on the double-dual basis.
    """
    d = m.datum
    action = _action_op((m.dim,), d.a_dim, (_ap(1, d.a.antipode_sq_op), _ap(0, m.action_op)))
    coaction = _coaction_op((m.dim,), d.c_dim,
                            (_ap(0, m.coaction_op), _ap(1, d.c.antipode_inv_sq_op)))
    return EntwinedModule(d, m.dim, action, coaction, m.basis_names)


# ---------------------------------------------------------------------------
# Braiding
# ---------------------------------------------------------------------------


def braiding_steps(m: EntwinedModule, n: EntwinedModule, q: DoubleQuantumGroup):
    "The kernel steps of the braiding M (x) N -> N (x) M."
    if not (datums_compatible(m.datum, q.datum) and datums_compatible(n.datum, q.datum)):
        raise ValueError("modules must live over the double structure's datum")
    return (
        _ap(0, m.coaction_op),   # m0 mc n
        _ap(2, n.coaction_op),   # m0 mc n0 nc
        _pm((0, 2, 1, 3)),       # m0 n0 mc nc
        _ap(2, q.rmap_op),       # m0 n0 R1 R2
        _pm((1, 2, 0, 3)),       # n0 R1 m0 R2
        _ap(0, n.action_op),
        _ap(1, m.action_op),
    )


def braiding(m: EntwinedModule, n: EntwinedModule, q: DoubleQuantumGroup) -> Matrix:
    "The braiding m (x) n -> n (x) m induced by R, as a matrix."
    return pipeline_matrix((m.dim, n.dim), (n.dim, m.dim), braiding_steps(m, n, q))


def braiding_morphism(m, n, q) -> ModuleMorphism:
    "The braiding packaged as a validated morphism between tensor modules."
    return ModuleMorphism(tensor_modules(m, n), tensor_modules(n, m), braiding(m, n, q))


def action_endomorphisms(m: EntwinedModule) -> list[ModuleMorphism]:
    """Deterministic generating family of endomorphisms: the identity plus
    every action-by-basis-element map that happens to be a morphism, each
    distinct map once (the action of the unit is the identity again)."""
    out = [ModuleMorphism(m, m, Matrix.identity(m.dim))]
    na, cols = m.datum.a_dim, m.action.sparse_cols()
    for a in range(na):
        # x -> x . e_a is column x * na + a of the action
        mat = Matrix(shape=(m.dim, m.dim), cols=[cols[x * na + a] for x in range(m.dim)])
        if any(f.map == mat for f in out):
            continue
        try:
            out.append(ModuleMorphism(m, m, mat))
        except ValueError:
            continue
    return out


def check_braiding_naturality(m: EntwinedModule, n: EntwinedModule,
                              q: DoubleQuantumGroup,
                              morphisms=None) -> AxiomReport:
    """Naturality of the braiding in each slot against a finite family.

    The family is deterministic: the identity and every action-by-basis
    endomorphism that is a morphism, plus any user-supplied morphisms
    (which must start or end at m or n).  One report item per slot: the
    first family member whose square fails, else a pass.

    No input makes N1 or N2 fail.  The braiding sends x (x) y to
    y0 R1 (x) x0 R2, with R applied to x1 (x) y1; for any linear R, whether
    or not it satisfies E07-E10b, this commutes with every A-linear,
    C-colinear endomorphism, and ModuleMorphism has already checked those
    two squares for every family member.
    """
    br = TensorOp(braiding(m, n, q), (m.dim, n.dim), (n.dim, m.dim))
    left = action_endomorphisms(m)
    # slot of f's object in the input m (x) n; each slot owns its list
    fams = {
        "N1_left_slot": (0, left),
        "N2_right_slot": (1, list(left) if n is m else action_endomorphisms(n)),
    }
    for f in morphisms or ():
        if f.source.same_structure(m) and f.target.same_structure(m):
            fams["N1_left_slot"][1].append(f)
        elif f.source.same_structure(n) and f.target.same_structure(n):
            fams["N2_right_slot"][1].append(f)
        else:
            raise ValueError("supplied morphism must be an endomorphism of m or n")
    items = []
    for axiom_id, (slot, fam) in fams.items():
        item = AxiomItem(axiom_id, True)
        for f in fam:
            item = compare_item(
                axiom_id,
                (m.dim, n.dim),
                (n.dim, m.dim),
                (_ap(0, br), _ap(1 - slot, f.op)),
                (_ap(slot, f.op), _ap(0, br)),
            )
            if not item.passed:
                break
        items.append(item)
    return AxiomReport(items)


def check_module_over_algebra(alg, dim: int, action: Matrix) -> AxiomReport:
    "Right-module axioms over a plain algebra (used for transported modules)."
    act = TensorOp(action, (dim, alg.dim), (dim,))
    items = [
        compare_item(
            "RM1_assoc",
            (dim, alg.dim, alg.dim),
            (dim,),
            (_ap(1, alg.mul_op), _ap(0, act)),
            (_ap(0, act), _ap(0, act)),
        ),
        compare_item(
            "RM2_unit",
            (dim,),
            (dim,),
            (_ap(1, alg.unit_op), _ap(0, act)),
            (),
        ),
    ]
    return AxiomReport(items)
