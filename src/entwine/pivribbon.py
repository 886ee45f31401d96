"""Pivotal and ribbon morphisms on entwining datums.

A pivotal candidate is a linear map g: C -> A satisfying one quadratic
grouplike-style law plus three linear laws; verified candidates induce
a monoidal isomorphism onto the double right dual (beta) on every
module.  A ribbon candidate satisfies the braided analogues and induces
a twist (theta).  Verification is exhaustive and exact; the finder
solves the linear laws into an affine family first and is explicitly
staged and honest about what it cannot decide -- the quadratic law is
only solved when elimination leaves at most one parameter in degree at
most two with rational roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .exactla import (
    ONE,
    ZERO,
    Cap,
    Cup,
    Matrix,
    TensorOp,
    Vector,
    _as_rat,
    basis_batches,
    hom_operator,
    pipeline_matrix,
    run_batch,
    solve_affine,
    vstack,
)
from .emodcat import EntwinedModule, ModuleMorphism, double_right_dual
from .entwining import (
    DoubleQuantumGroup,
    HomCA,
    MonoidalEntwiningDatum,
    conv_inverse,
    invertibility_item,
)
from .hopfcore import Element, Functional
from .report import AxiomItem, AxiomReport, compare_item, _ap, _pm, _slot


@dataclass
class MorphismCandidate:
    datum: MonoidalEntwiningDatum
    map: HomCA
    kind: str  # "pivotal" | "ribbon"


@dataclass
class FinderResult:
    status: str  # "complete" | "parametric" | "undecided"
    solutions: list
    family: object | None
    notes: str


# ---------------------------------------------------------------------------
# Laws linear in g, each side written once
#
# A side takes g as a kernel op and gives steps on keys that end in a slot
# leg after the scanned legs; g is always applied where its input leg sits
# just before that slot leg.  A verifier passes g's TensorOp, which carries
# the slot leg along as 0, and inserts the slot leg with a leading _slot
# step; the finder passes a SlotLeg through hom_operator, which seeds the
# slot leg, and reads the side off as a matrix in the entries of g.
# ---------------------------------------------------------------------------


def _counit_side(d: MonoidalEntwiningDatum, g):
    "eps_A(g(1_C)), the side of P2 that is linear in g."
    return _ap(0, d.c.unit_op), _ap(0, g), _ap(0, d.a.counit_op)


def _linear_laws(d: MonoidalEntwiningDatum, kind: str):
    """The homogeneous laws linear in g, as (axiom id, scan dims, output
    dims, lhs, rhs): the action law (P3 twists by S_A^2, R1 does not), the
    coaction law (P4 twists by S_C^{-2}, R2 does not) and, for ribbon, R4."""
    nc, na = d.c_dim, d.a_dim
    phi, mul_a, comul_c = d.phi_op, d.a.mul_op, d.c.comul_op
    pivotal = kind == "pivotal"
    a_twist = [_ap(0, d.a.antipode_sq_op)] if pivotal else []
    c_twist = [_ap(1, d.c.antipode_inv_sq_op)] if pivotal else []
    laws = [
        # g(c) a = a_phi g(c^phi), scanned over (a, c)
        (
            "P3_action_twist" if pivotal else "R1_action",
            (na, nc),
            (na,),
            lambda g: (*a_twist, _ap(1, g), _pm((1, 0, 2)), _ap(0, mul_a)),
            lambda g: (_pm((1, 0, 2)), _ap(0, phi), _ap(1, g), _ap(0, mul_a)),
        ),
        # g(c1) (x) c2 = g(c2)_phi (x) c1^phi
        (
            "P4_coaction_twist" if pivotal else "R2_coaction",
            (nc,),
            (na, nc),
            lambda g: (_ap(0, comul_c), _pm((1, 0, 2)), _ap(1, g), _pm((1, 0, 2))),
            lambda g: (_ap(0, comul_c), _ap(1, g), _ap(0, phi), *c_twist),
        ),
    ]
    if not pivotal:
        # g(c) = (S_A^{-1} g S_C (c^phi))_phi: phi's coalgebra output runs
        # through g back into its own algebra input, a loop that a Cup opens
        # and a Cap closes
        cup, cap = Cup(na), Cap()
        laws.append((
            "R4_self_dual",
            (nc,),
            (na,),
            lambda g: (_ap(0, g),),
            lambda g: (
                _ap(1, cup),                  # c x x s
                _ap(0, phi),                  # x_phi c^phi x s
                _pm((0, 2, 1, 3)),            # x_phi x c^phi s
                _ap(2, d.c.antipode_op),
                _ap(2, g),
                _ap(2, d.a.antipode_inv_op),  # x_phi x y s
                _ap(1, cap),                  # x_phi s where x = y
            ),
        ))
    return laws


def _quadratic_law(d: MonoidalEntwiningDatum, kind: str, q: DoubleQuantumGroup | None):
    """The law quadratic in g, as (axiom id, scan dims, output dims, linear
    side, bilinear side): P1 for pivotal, R3 (through q's R) for ribbon.
    The linear side takes g's kernel op, the bilinear side one op for each
    of its two copies of g, and each gives steps; the law says they agree."""
    nc, na = d.c_dim, d.a_dim
    mul_a, comul_a = d.a.mul_op, d.a.comul_op
    mul_c, comul_c = d.c.mul_op, d.c.comul_op

    def linear(g):
        return _ap(0, mul_c), _ap(0, g), _ap(0, comul_a)

    if kind == "pivotal":
        return ("P1_grouplike", (nc, nc), (na, na), linear,
                lambda ga, gb: (_ap(0, ga), _ap(1, gb)))
    rr, phi = q.rmap_op, d.phi_op

    def bilinear(ga, gb):
        return (
            _ap(0, comul_c),
            _ap(0, comul_c),    # x1 x2 x3 y
            _ap(3, comul_c),
            _ap(3, comul_c),    # x1 x2 x3 y1 y2 y3
            _pm((0, 1, 3, 4, 2, 5)),  # x1 x2 y1 y2 x3 y3
            _ap(4, rr),         # x1 x2 y1 y2 r1 r2
            _ap(3, phi),        # x1 x2 y1 r1f y2f r2  (phi on y2 (x) r1)
            _pm((0, 1, 5, 2, 3, 4)),  # x1 x2 r2 y1 r1f y2f
            _ap(1, phi),        # x1 r2p x2p y1 r1f y2f  (psi on x2 (x) r2)
            _pm((0, 1, 3, 4, 5, 2)),  # x1 r2p y1 r1f y2f x2p
            _ap(4, rr),         # x1 r2p y1 r1f R1 R2
            _ap(0, ga),         # g(x1) ...
            _ap(2, gb),         # .. g(y1) ..
            _pm((0, 1, 4, 2, 3, 5)),  # g(x1) r2p R1 g(y1) r1f R2
            _ap(0, mul_a),
            _ap(0, mul_a),      # first output leg done
            _ap(1, mul_a),
            _ap(1, mul_a),
        )

    return "R3_braided_square", (nc, nc), (na, na), linear, bilinear


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


def _law_items(d: MonoidalEntwiningDatum, kind: str, g: HomCA) -> list[AxiomItem]:
    g_op = g.op
    return [
        compare_item(axiom_id, scan, out + (1,),
                     (_slot(len(scan)), *lhs(g_op)), (_slot(len(scan)), *rhs(g_op)))
        for axiom_id, scan, out, lhs, rhs in _linear_laws(d, kind)
    ]


def _quadratic_item(d: MonoidalEntwiningDatum, kind: str, q: DoubleQuantumGroup | None,
                    g: HomCA) -> AxiomItem:
    axiom_id, scan, out, linear, bilinear = _quadratic_law(d, kind, q)
    g_op = g.op
    return compare_item(axiom_id, scan, out, linear(g_op), bilinear(g_op, g_op))


def verify_pivotal(d: MonoidalEntwiningDatum, g: HomCA) -> AxiomReport:
    """Pivotal laws P1-P4 plus convolution invertibility as item P5.

    P1: Delta_A(g(cd)) = g(c) (x) g(d)        (all pairs c, d)
    P2: eps_A(g(1_C)) = 1
    P3: g(c) S_A^2(a) = a_phi g(c^phi)        (all pairs a, c)
    P4: g(c1) (x) c2 = g(c2)_phi (x) S_C^{-2}(c1^phi)
    """
    g_op = g.op
    items = [
        _quadratic_item(d, "pivotal", None, g),
        compare_item(
            "P2_counit_one",
            (),
            (1,),
            (_slot(0), *_counit_side(d, g_op)),
            (_slot(0),),
        ),
        *_law_items(d, "pivotal", g),
        invertibility_item("P5_conv_invertible", g.map, conv_inverse(g)),
    ]
    return AxiomReport(items)


def verify_ribbon(q: DoubleQuantumGroup, g: HomCA) -> AxiomReport:
    """Ribbon laws R1-R4 plus convolution invertibility as item R5.

    R1: g(c) a = a_phi g(c^phi)               (all pairs a, c)
    R2: g(c1) (x) c2 = g(c2)_phi (x) c1^phi
    R3: Delta_A(g(xy)) = the braided square through R applied twice
    R4: g(c) = (S_A^{-1} g S_C (c^phi))_phi   (a closed-loop contraction)
    """
    d = q.datum
    items = [
        _quadratic_item(d, "ribbon", q, g),
        *_law_items(d, "ribbon", g),
        invertibility_item("R5_conv_invertible", g.map, conv_inverse(g)),
    ]
    return AxiomReport(items)


# ---------------------------------------------------------------------------
# Induced structures on modules
# ---------------------------------------------------------------------------


def _act_by_g_matrix(m: EntwinedModule, g: HomCA) -> Matrix:
    "Matrix of x -> x0 . g(x1) on a module."
    return pipeline_matrix(
        (m.dim,),
        (m.dim,),
        (_ap(0, m.coaction_op), _ap(1, g.op), _ap(0, m.action_op)),
    )


def require_verified(kind: str, target, g: HomCA) -> None:
    """Raise ValueError unless g passes verify_pivotal(target, g) (kind
    "pivotal") or verify_ribbon(target, g) (kind "ribbon").  The verifier
    is looked up in this module when called, so a patched one is used."""
    rep = (verify_pivotal if kind == "pivotal" else verify_ribbon)(target, g)
    if not rep.overall:
        raise ValueError(f"{kind} verification failed: {rep.failed_ids()}")


def pivotal_structure(d: MonoidalEntwiningDatum, g: HomCA, m: EntwinedModule) -> ModuleMorphism:
    """beta_m: m -> double right dual, x -> x0 . g(x1) on the canonical basis.

    Rejects unverified candidates; the returned morphism is validated at
    construction and is invertible whenever g verifies.
    """
    require_verified("pivotal", d, g)
    return ModuleMorphism(m, double_right_dual(m), _act_by_g_matrix(m, g))


def twist(q: DoubleQuantumGroup, g: HomCA, m: EntwinedModule) -> ModuleMorphism:
    "theta_m: m -> m, x -> x0 . g(x1); rejects unverified ribbon candidates."
    require_verified("ribbon", q, g)
    return ModuleMorphism(m, m, _act_by_g_matrix(m, g))


def nat_to_hom(d: MonoidalEntwiningDatum, map_matrix: Matrix, kind: str) -> HomCA:
    """Extract the C -> A map from a natural family evaluated on a standard
    module.

    kind == "ribbon": the input is an endomorphism of C (x) A and the map
    is (eps (x) id) theta(c (x) 1).  kind == "pivotal": the input sends
    A (x) C to its double right dual on the canonical basis and the map
    is (id (x) eps) beta(1 (x) c).  A ModuleMorphism is accepted in place
    of its matrix.
    """
    if isinstance(map_matrix, ModuleMorphism):
        map_matrix = map_matrix.map
    nc, na = d.c_dim, d.a_dim
    if kind == "ribbon":
        if map_matrix.nrows != nc * na or map_matrix.ncols != nc * na:
            raise ValueError("expected an endomorphism matrix of C (x) A")
        op = TensorOp(map_matrix, (nc, na), (nc, na))
        steps = (_ap(1, d.a.unit_op), _ap(0, op), _ap(0, d.c.counit_op))
    elif kind == "pivotal":
        if map_matrix.nrows != na * nc or map_matrix.ncols != na * nc:
            raise ValueError("expected a square matrix on A (x) C")
        op = TensorOp(map_matrix, (na, nc), (na, nc))
        steps = (_ap(0, d.a.unit_op), _ap(0, op), _ap(1, d.c.counit_op))
    else:
        raise ValueError("kind must be 'pivotal' or 'ribbon'")
    return HomCA(d, pipeline_matrix((nc,), (na,), steps))


def separable_candidate(d: MonoidalEntwiningDatum, kappa: Element, rho: Functional,
                        kind: str = "pivotal") -> MorphismCandidate:
    "The rank-one candidate g(c) = rho(c) * kappa; verification is the caller's."
    nc, na = d.c_dim, d.a_dim
    if kappa.coords.dim != na or rho.coords.ncols != nc:
        raise ValueError("kappa must live in A and rho on C")
    rows = [[kappa.coords[i] * rho.value(j) for j in range(nc)] for i in range(na)]
    return MorphismCandidate(d, HomCA(d, Matrix(rows)), kind)


# ---------------------------------------------------------------------------
# Finder: staged exact search for candidates
# ---------------------------------------------------------------------------


def _linear_system(d: MonoidalEntwiningDatum, kind: str) -> tuple[Matrix, Vector]:
    """The linear laws as a system a.x = b over the unknown entries of g,
    flattened as (a_out, c_in) pairs: P2's row (right-hand side 1, pivotal
    only), then one block lop - rop per law, one hom_operator pass per side.
    Rows that vanish stay; they never hold a pivot."""
    g_dims = ((d.c_dim,), (d.a_dim,))
    blocks = []
    if kind == "pivotal":
        # counit normalization: eps(g(1_C)) = 1
        blocks.append(hom_operator(*g_dims, (), (), lambda g: _counit_side(d, g)))
    for _, scan, out, lhs, rhs in _linear_laws(d, kind):
        lop, rop = (hom_operator(*g_dims, scan, out, side) for side in (lhs, rhs))
        blocks.append(lop - rop)
    a = vstack(*blocks)
    b = [ZERO] * a.nrows
    if kind == "pivotal":
        b[0] = ONE
    return a, Vector(b)


def stage1_affine_family(d: MonoidalEntwiningDatum, kind: str):
    "Solve the linear laws exactly; None when inconsistent."
    return solve_affine(*_linear_system(d, kind))


def stage1_residual(d: MonoidalEntwiningDatum, kind: str, g: HomCA) -> Vector:
    "Residual of the linear laws at a concrete candidate (zero iff satisfied)."
    a, b = _linear_system(d, kind)
    nc = d.c_dim
    flat = [ZERO] * a.ncols
    for p, col in enumerate(g.map.sparse_cols()):
        for u, x in col:
            flat[u * nc + p] = x
    return a.apply(Vector(flat)) - b


class _Poly:
    "Sparse polynomial in finder parameters, degree <= 2 by construction."

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})  # monomial tuple (sorted) -> coeff

    def add_term(self, mono: tuple, coeff):
        "Add coeff * mono; a kernel coefficient may be an int, a term is a Fraction."
        if coeff == 0:
            return
        key = tuple(sorted(mono))
        nv = self.terms.get(key, 0) + _as_rat(coeff)
        if nv == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = nv

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def variables(self) -> set:
        return {v for m in self.terms for v in m}

    def is_zero(self) -> bool:
        return not self.terms

    def substitute(self, assignment: dict) -> "_Poly":
        out = _Poly()
        for mono, coeff in self.terms.items():
            c = coeff
            rest = []
            for v in mono:
                if v in assignment:
                    c *= assignment[v]
                else:
                    rest.append(v)
            if c != 0:
                out.add_term(tuple(rest), c)
        return out


def _rational_roots_deg2(poly: _Poly, var: int) -> list[Fraction]:
    """Rational roots of a polynomial of degree exactly 2 in var alone.

    find_morphisms only gets here with such polynomials: its pinning loop
    pins every residual of degree 1 in the one remaining variable, stops
    on a nonzero constant and drops the zero residuals.
    """
    c0 = poly.terms.get((), ZERO)
    c1 = poly.terms.get((var,), ZERO)
    c2 = poly.terms[(var, var)]
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    num, den = disc.numerator, disc.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return []
    sq = Fraction(rn, rd)
    roots = {(-c1 + sq) / (2 * c2), (-c1 - sq) / (2 * c2)}
    return sorted(roots)


def _isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _hom_from_flat(d: MonoidalEntwiningDatum, v) -> HomCA:
    "The map C -> A whose entries are v, flattened as (a_out, c_in) pairs."
    nc = d.c_dim
    return HomCA(d, Matrix([[v[u * nc + p] for p in range(nc)] for u in range(d.a_dim)]))


def _quadratic_residuals(d: MonoidalEntwiningDatum, kind: str,
                         q: DoubleQuantumGroup | None,
                         family) -> list[_Poly]:
    """The quadratic law evaluated on the affine family g0 + sum t_s h_s.

    For pivotal candidates this is the grouplike law P1; for ribbon, the
    braided square R3.  Components are degree <= 2 polynomials in t.
    """
    ops = [_hom_from_flat(d, v).op for v in [family.particular, *family.nullspace_basis]]
    _, scan, _, linear_side, bilinear_side = _quadratic_law(d, kind, q)

    polys: dict[tuple, _Poly] = {}

    def poly_at(t, key) -> _Poly:
        pk = (t, key)
        p = polys.get(pk)
        if p is None:
            p = polys[pk] = _Poly()
        return p

    for batch in basis_batches(scan):
        # bilinear part: sum_{s,r} t_s t_r  B(h_s, h_r), t_0 := 1
        for s, ga in enumerate(ops):
            for r, gb in enumerate(ops):
                mono = tuple(v - 1 for v in (s, r) if v > 0)
                for key, val in run_batch(batch, bilinear_side(ga, gb)).items():
                    poly_at(batch[key[-1]], key[:-1]).add_term(mono, val)
        # minus the linear part
        for s, gg in enumerate(ops):
            mono = (s - 1,) if s > 0 else ()
            for key, val in run_batch(batch, linear_side(gg)).items():
                poly_at(batch[key[-1]], key[:-1]).add_term(mono, -val)
    return [p for p in polys.values() if not p.is_zero()]


def find_morphisms(target, kind: str, max_params: int = 4) -> FinderResult:
    """Stage the search: exact affine solve of the linear laws, then an
    honest attempt at the quadratic law.

    Returns status "complete" (the solution list is exhaustive),
    "parametric" (an affine family satisfying the linear laws is
    returned, with any verified sample points), or "undecided" (the
    family has more parameters than max_params).  Every listed solution
    passes its verifier.
    """
    if kind == "pivotal":
        d = target if isinstance(target, MonoidalEntwiningDatum) else target.datum
        q = target if isinstance(target, DoubleQuantumGroup) else None
        verifier = lambda g: verify_pivotal(d, g).overall
    elif kind == "ribbon":
        if not isinstance(target, DoubleQuantumGroup):
            raise ValueError("ribbon search needs a double structure")
        q = target
        d = target.datum
        verifier = lambda g: verify_ribbon(q, g).overall
    else:
        raise ValueError("kind must be 'pivotal' or 'ribbon'")

    family = stage1_affine_family(d, kind)
    if family is None:
        return FinderResult("complete", [], None, "linear stage inconsistent")

    def hom_from_assignment(assignment: dict) -> HomCA:
        v = list(family.particular)
        for s, h in enumerate(family.nullspace_basis):
            c = assignment.get(s, ZERO)
            if c != 0:
                v = [a + c * b for a, b in zip(v, h)]
        return _hom_from_flat(d, v)

    def wrap(g: HomCA) -> MorphismCandidate:
        return MorphismCandidate(d, g, kind)

    def probe_samples(assignment: dict) -> list[MorphismCandidate]:
        """Deterministic sample points of the family that happen to verify:
        the pinned assignment itself, then one step along each free axis."""
        seen: set = set()
        out = []
        trials = [dict(assignment)]
        for s in range(family.dimension):
            if s not in assignment:
                trials.append({**assignment, s: ONE})
                trials.append({**assignment, s: -ONE})
        for trial in trials:
            g = hom_from_assignment(trial)
            if g.map in seen:
                continue
            seen.add(g.map)
            if verifier(g):
                out.append(wrap(g))
        return out

    if family.dimension == 0:
        g = hom_from_assignment({})
        if verifier(g):
            return FinderResult("complete", [wrap(g)], family, "unique linear solution verified")
        return FinderResult("complete", [], family, "unique linear solution fails verification")

    if family.dimension > max_params:
        return FinderResult(
            "undecided", probe_samples({}), family,
            f"affine family has {family.dimension} parameters (> max_params)",
        )

    residuals = _quadratic_residuals(d, kind, q, family)

    # eliminate parameters pinned by constraints that are linear in t
    assignment: dict[int, Fraction] = {}
    changed = True
    while changed:
        changed = False
        current = [p.substitute(assignment) for p in residuals]
        lin_rows, lin_rhs = [], []
        params = sorted({v for p in current for v in p.variables()})
        pindex = {v: i for i, v in enumerate(params)}
        for p in current:
            if p.is_zero() or p.degree() > 1:
                continue
            row = [ZERO] * len(params)
            rhs = -p.terms.get((), ZERO)
            for mono, coeff in p.terms.items():
                if mono:
                    row[pindex[mono[0]]] += coeff
            if any(c != 0 for c in row):
                lin_rows.append(row)
                lin_rhs.append(rhs)
            elif rhs != 0:
                return FinderResult("complete", [], family, "quadratic stage inconsistent")
        if not lin_rows:
            break
        sol = solve_affine(Matrix(lin_rows), Vector(lin_rhs))
        if sol is None:
            return FinderResult("complete", [], family, "quadratic stage inconsistent")
        pinned = {i for i in range(len(params))}
        for nv in sol.nullspace_basis:
            for i, x in enumerate(nv):
                if x != 0:
                    pinned.discard(i)
        for i in sorted(pinned):
            var = params[i]
            if var not in assignment:
                assignment[var] = sol.particular[i]
                changed = True

    current = [q for q in (p.substitute(assignment) for p in residuals) if not q.is_zero()]
    free_vars = sorted({v for p in current for v in p.variables()})
    all_vars = set(range(family.dimension))
    unpinned = sorted(all_vars - set(assignment))

    if not current:
        # the whole (possibly still multi-parameter) family satisfies the
        # quadratic law; return it with verified sample points
        status = "complete" if not unpinned else "parametric"
        return FinderResult(
            status, probe_samples(assignment), family,
            "quadratic law holds on the family",
        )

    if len(free_vars) == 1 and all(p.degree() <= 2 for p in current):
        var = free_vars[0]
        root_set: set[Fraction] | None = None
        for p in current:
            roots = set(_rational_roots_deg2(p, var))
            root_set = roots if root_set is None else root_set & roots
            if not root_set:
                return FinderResult("complete", [], family, "no common rational root")
        sols = []
        for r in sorted(root_set):
            g = hom_from_assignment({**assignment, var: r})
            if verifier(g):
                sols.append(wrap(g))
        # another unpinned parameter is unconstrained: the roots found are
        # sample points of a family, not an exhaustive list
        status = "complete" if unpinned == [var] else "parametric"
        return FinderResult(status, sols, family, "quadratic stage solved in one parameter")

    return FinderResult(
        "parametric", probe_samples(assignment), family,
        "quadratic system not reducible to one parameter; returning the affine "
        "family with any verified sample points",
    )
